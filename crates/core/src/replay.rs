//! The Adaptive Replay engine.
//!
//! "During resume, the recorded app calls are adaptively replayed through
//! Flux's service contextualization proxy to match the guest OS's system
//! services" (§1). Replay walks the record log in order; methods decorated
//! with `@replayproxy` dispatch to the proxies implemented here — the Rust
//! equivalents of the paper's `flux.recordreplay.Proxies` methods — which
//! adapt calls to the guest device: expired alarms are skipped (Figure 10),
//! volume indices are rescaled to the guest's range, sensor connections are
//! recreated and mapped onto the app's original Binder handles and event
//! descriptors, and calls to absent hardware are network-forwarded or
//! dropped per policy.

use crate::errors::FluxError;
use crate::record::{CallLog, CallRecord};
use crate::world::{DeviceId, FluxWorld, WorldError};
use flux_binder::{BinderError, ObjRef, Value};
use flux_device::DeviceProfile;
use flux_simcore::SimTime;
use std::sync::Arc;

/// Statistics from one replay run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Calls replayed verbatim.
    pub replayed: u64,
    /// Calls routed through a contextualisation proxy.
    pub proxied: u64,
    /// Calls skipped (expired alarms, absent hardware without forwarding).
    pub skipped: u64,
    /// Human-readable adaptation notes.
    pub notes: Vec<String>,
}

impl serde::Serialize for ReplayStats {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("replayed", &self.replayed)
            .field("proxied", &self.proxied)
            .field("skipped", &self.skipped)
            .field("notes", &self.notes);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for ReplayStats {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            replayed: v.read("replayed")?,
            proxied: v.read("proxied")?,
            skipped: v.read("skipped")?,
            notes: v.read("notes")?,
        })
    }
}

impl ReplayStats {
    /// Total log entries visited.
    pub fn total(&self) -> u64 {
        self.replayed + self.proxied + self.skipped
    }
}

/// Replays `log` for `package` on the guest device.
///
/// Replayed calls flow through the normal Selective Record interposition,
/// so the *guest's* record log is rebuilt as a side effect — which is what
/// makes a later migration (e.g. back to the home device) possible.
pub fn replay_log(
    world: &mut FluxWorld,
    guest: DeviceId,
    package: &str,
    log: &CallLog,
    checkpoint_time: SimTime,
    home_profile: &DeviceProfile,
) -> Result<ReplayStats, FluxError> {
    let mut stats = ReplayStats::default();
    let guest_profile = Arc::clone(&world.device(guest)?.profile);
    let guest_lane = world.device(guest)?.lane;
    for entry in log.entries() {
        let span = world.telemetry.enter(
            guest_lane,
            format!("replay.svc.{}", entry.service),
            world.clock.now(),
        );
        let proxy = world
            .device(guest)?
            .host
            .interface(&entry.descriptor)
            .and_then(|i| i.rule(&entry.method))
            .and_then(|r| r.replay_proxy.clone());
        let outcome = match proxy {
            None => world
                .app_call(
                    guest,
                    package,
                    &entry.service,
                    &entry.method,
                    entry.args.clone(),
                )
                .map(|_| {
                    stats.replayed += 1;
                }),
            Some(path) => apply_proxy(
                world,
                guest,
                package,
                &path,
                entry,
                checkpoint_time,
                home_profile,
                &guest_profile,
                &mut stats,
            ),
        };
        world.telemetry.exit(span, world.clock.now());
        outcome?;
    }
    world
        .telemetry
        .counter_add("flux.replay.calls_replayed", stats.replayed);
    world
        .telemetry
        .counter_add("flux.replay.calls_proxied", stats.proxied);
    world
        .telemetry
        .counter_add("flux.replay.calls_skipped", stats.skipped);
    Ok(stats)
}

/// Dispatches one `@replayproxy` invocation. The proxy name is the last
/// path segment (`flux.recordreplay.Proxies.<name>`).
#[allow(clippy::too_many_arguments)]
fn apply_proxy(
    world: &mut FluxWorld,
    guest: DeviceId,
    package: &str,
    path: &str,
    entry: &CallRecord,
    checkpoint_time: SimTime,
    home: &DeviceProfile,
    guest_profile: &DeviceProfile,
    stats: &mut ReplayStats,
) -> Result<(), FluxError> {
    let name = path.rsplit('.').next().unwrap_or(path);
    match name {
        // Figure 10: skip alarms that expired before the checkpoint; the
        // comparison is against checkpoint time, not current time, so an
        // alarm due mid-migration still fires on the guest.
        "alarmMgrSet" => {
            let trigger_ms = entry.args.i64(1).map_err(BinderError::from)?;
            if trigger_ms <= checkpoint_time.as_millis() as i64 {
                stats.skipped += 1;
                stats.notes.push(format!(
                    "alarm {:?} already triggered; not re-set",
                    entry.args.str(2).unwrap_or("?")
                ));
            } else {
                world.app_call(
                    guest,
                    package,
                    &entry.service,
                    &entry.method,
                    entry.args.clone(),
                )?;
                stats.proxied += 1;
            }
        }
        // The guest's wall clock and user-visible settings win.
        "wallClockSet" => {
            stats.skipped += 1;
            stats
                .notes
                .push("setTime skipped: guest clock authoritative".into());
        }
        // Volume indices are rescaled between the devices' ranges.
        "audioSetStream" => {
            let home_max = audio_max(home);
            let guest_max = audio_max(guest_profile);
            let stream = entry.args.i32(0).map_err(BinderError::from)?;
            let index = entry.args.i32(1).map_err(BinderError::from)?;
            let rescaled = ((index as f64) * (guest_max as f64) / (home_max as f64)).round() as i32;
            let mut args = entry.args.clone();
            args.values_mut()[1] = Value::I32(rescaled);
            world.app_call(guest, package, &entry.service, &entry.method, args)?;
            stats.proxied += 1;
            if rescaled != index {
                stats.notes.push(format!(
                    "volume stream {stream}: {index}/{home_max} -> {rescaled}/{guest_max}"
                ));
            }
        }
        // The SensorService handle-mapping proxies (§3.2).
        "sensorEventConnection" => {
            let reply = world.app_call(
                guest,
                package,
                &entry.service,
                &entry.method,
                entry.args.clone(),
            )?;
            let new_handle = match reply.object(0).map_err(BinderError::from)? {
                ObjRef::Handle(h) => h,
                other => {
                    return Err(FluxError::World(WorldError::Binder(
                        BinderError::TransactionFailed {
                            interface: entry.descriptor.clone(),
                            method: entry.method.clone(),
                            reason: format!("expected handle reply, got {other:?}"),
                        },
                    )))
                }
            };
            let old_handle = match entry.reply.object(0).map_err(BinderError::from)? {
                ObjRef::Handle(h) => h,
                other => {
                    return Err(FluxError::World(WorldError::Binder(
                        BinderError::TransactionFailed {
                            interface: entry.descriptor.clone(),
                            method: entry.method.clone(),
                            reason: format!("recorded reply had no handle: {other:?}"),
                        },
                    )))
                }
            };
            // Map the fresh connection onto the handle id the app held
            // before migration.
            let dev = world.device_mut(guest)?;
            let app_pid = dev
                .apps
                .get(package)
                .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?
                .main_pid;
            if new_handle != old_handle {
                let node = dev
                    .kernel
                    .binder
                    .resolve_handle(app_pid, new_handle)
                    .map_err(WorldError::Binder)?;
                dev.kernel
                    .binder
                    .release_ref(app_pid, new_handle)
                    .map_err(WorldError::Binder)?;
                dev.kernel
                    .binder
                    .inject_ref_at(app_pid, old_handle, node, 1)
                    .map_err(WorldError::Binder)?;
            }
            stats.proxied += 1;
            stats.notes.push(format!(
                "SensorEventConnection remapped to handle {old_handle}"
            ));
        }
        "sensorChannel" => {
            let reply = world.app_call(
                guest,
                package,
                &entry.service,
                &entry.method,
                entry.args.clone(),
            )?;
            let new_fd = reply.fd(0).map_err(BinderError::from)?;
            let old_fd = entry.reply.fd(0).map_err(BinderError::from)?;
            if new_fd != old_fd {
                let dev = world.device_mut(guest)?;
                let app_pid = dev
                    .apps
                    .get(package)
                    .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?
                    .main_pid;
                let proc = dev
                    .kernel
                    .process_mut(app_pid)
                    .map_err(|e| WorldError::Boot(e.to_string()))?;
                // dup2 the new channel into the reserved original number.
                proc.fds
                    .dup2(new_fd, old_fd)
                    .map_err(|e| WorldError::Boot(e.to_string()))?;
                proc.fds
                    .close(new_fd)
                    .map_err(|e| WorldError::Boot(e.to_string()))?;
            }
            stats.proxied += 1;
            stats
                .notes
                .push(format!("sensor channel dup2'd into fd {old_fd}"));
        }
        // GPS-style absent hardware: forward over the network or drop.
        "locationRequest" => {
            let provider = entry.args.str(0).map_err(BinderError::from)?.to_owned();
            if provider == "gps" && !guest_profile.hardware.gps {
                if world.policy.forward_missing_hardware {
                    let mut args = entry.args.clone();
                    args.values_mut()[0] = Value::Str("network-forwarded:gps".into());
                    world.app_call(guest, package, &entry.service, &entry.method, args)?;
                    stats.proxied += 1;
                    stats
                        .notes
                        .push("GPS absent on guest; forwarded over the network".into());
                } else {
                    stats.skipped += 1;
                    stats
                        .notes
                        .push("GPS absent on guest; request dropped".into());
                }
            } else {
                world.app_call(
                    guest,
                    package,
                    &entry.service,
                    &entry.method,
                    entry.args.clone(),
                )?;
                stats.proxied += 1;
            }
        }
        // Vibration on a device without a motor.
        "vibratorReplay" | "vibratorPatternReplay" | "vibratorCancel" => {
            if guest_profile.hardware.vibrator {
                world.app_call(
                    guest,
                    package,
                    &entry.service,
                    &entry.method,
                    entry.args.clone(),
                )?;
                stats.proxied += 1;
            } else {
                stats.skipped += 1;
                stats
                    .notes
                    .push("no vibrator on guest; call dropped".into());
            }
        }
        // Camera hardware check.
        "cameraConnect" | "cameraConnectDevice" | "cameraParameters" => {
            if guest_profile.hardware.cameras > 0 {
                world.app_call(
                    guest,
                    package,
                    &entry.service,
                    &entry.method,
                    entry.args.clone(),
                )?;
                stats.proxied += 1;
            } else {
                stats.skipped += 1;
                stats.notes.push("no camera on guest; call dropped".into());
            }
        }
        // Guest-side configuration wins; the re-layout path handles it.
        "amsConfiguration" | "amsOrientation" => {
            stats.skipped += 1;
            stats.notes.push(format!(
                "{} skipped: guest configuration applies",
                entry.method
            ));
        }
        // Everything else re-issues the recorded call against the guest's
        // service (the arguments already carry stable identities).
        _ => {
            world.app_call(
                guest,
                package,
                &entry.service,
                &entry.method,
                entry.args.clone(),
            )?;
            stats.proxied += 1;
        }
    }
    Ok(())
}

/// The maximum volume index of a device (phones and tablets ship different
/// volume curves; see `Device::services_config`).
pub fn audio_max(profile: &DeviceProfile) -> i32 {
    if profile.hardware.vibrator {
        15
    } else {
        25
    }
}
