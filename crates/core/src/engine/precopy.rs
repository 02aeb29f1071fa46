//! The iterative pre-copy phase (stage 0): pre-dump the still-running
//! app, stream the pages over the radio, repeat on what was dirtied
//! meanwhile, until the residue is small or the round budget runs out.
//! The final frozen checkpoint then ships only the dirty delta
//! ([`flux_kernel::ProcessImage::dirty_delta`]) against the last streamed
//! pre-dump.
//!
//! Pre-copy is best effort: a link drop abandons further rounds rather
//! than failing the migration — coverage simply stays at the last fully
//! streamed round (possibly none), and the freeze ships the rest.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::cria::IMAGE_COMPRESS_RATIO;
use crate::image_cache;
use crate::migration::{
    StageTimes, PRECOPY_DIRTY_FRACTION_PER_SEC, PRECOPY_MAX_ROUNDS, PRECOPY_STOP,
};
use crate::world::fnv;
use flux_kernel::criu;
use flux_net::DEFAULT_CHUNK;
use flux_simcore::{SimDuration, TraceKind};
use flux_telemetry::LaneId;
use std::borrow::Cow;

/// The pre-copy stage (iterative pre-dump streaming, home device).
pub struct Precopy;

impl Stage for Precopy {
    fn name(&self) -> &'static str {
        "precopy"
    }

    /// Pinned to the pre-naming-scheme span recorded traces carry.
    fn span_name(&self) -> Cow<'static, str> {
        Cow::Borrowed("migration.precopy")
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        cx.mig.home_lane
    }

    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        cx.mig.cfg.precopy && !cx.prog.precopy_done
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.precopy)
    }

    fn run(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.to_owned();
        let mut rounds = 0u32;
        for round in 1..=PRECOPY_MAX_ROUNDS {
            let round_start = cx.world.clock.now();
            // Pre-dump the running process — no freeze, device state skipped.
            let pre = {
                let dev = cx.world.device(cx.mig.home)?;
                let app = dev
                    .apps
                    .get(&package)
                    .ok_or_else(|| StageFailure::NoSuchApp(package.clone()))?;
                criu::predump(&dev.kernel, app.main_pid, round_start)
                    .map_err(|e| StageFailure::Internal(e.to_string()))?
            };
            // This round streams what earlier rounds have not covered.
            let round_payload = match &cx.prog.precopy_base {
                None => pre.payload_bytes(),
                Some(base) => pre.dirty_delta(base).payload_bytes(),
            };
            if cx.prog.precopy_base.is_some() && round_payload <= PRECOPY_STOP {
                break; // Residue small enough: freeze and ship it.
            }
            let mut stream = round_payload.scale(IMAGE_COMPRESS_RATIO);
            // Round 1 covers the bulk of the image; consult the guest's
            // content-addressed cache so only absent chunks hit the air.
            if round == 1 && cx.mig.cfg.image_cache {
                let p = {
                    let dev = cx.world.device(cx.mig.guest)?;
                    image_cache::partition(&dev.fs, &cx.mig.pairing_root, &package, &pre)
                };
                cx.record_cache_counters(&p);
                cx.prog.cache_hit += p.hit_bytes;
                cx.prog.cache_checked = true;
                cx.prog.cache_missed = p.missed;
                stream = p.miss_bytes;
            }
            // CPU: pre-dump and compress the round's pages on the home device.
            cx.world.clock.charge(
                cx.mig
                    .home_cost
                    .checkpoint_time(round_payload, pre.object_count())
                    + cx.mig.home_cost.compress_time(round_payload),
            );
            // Radio: stream the round into the guest's staging area.
            let now = cx.world.clock.now();
            let radio = cx.world.net.transfer_chunked(
                now,
                stream,
                DEFAULT_CHUNK,
                &cx.mig.home_profile.wifi,
                &cx.mig.guest_profile.wifi,
                0,
                cx.plan,
            );
            cx.world.clock.charge(radio.duration);
            cx.prog
                .log
                .radio(now, radio.duration, radio.bytes_delivered);
            if !radio.complete() {
                cx.prog.faults += 1;
                cx.world.telemetry.emit_kind(
                    cx.world.clock.now(),
                    TraceKind::Fault,
                    "migration.precopy.abandoned",
                    format!(
                        "link dropped in round {round}; coverage stays at {} streamed round(s)",
                        rounds
                    ),
                );
                break;
            }
            cx.prog.precopy_streamed += stream;
            cx.prog.precopy_base = Some(pre);
            rounds += 1;
            // Chunks the cache lacked arrived with this round's stream.
            cx.insert_cache_misses()?;
            // Record the streamed coverage on the guest so teardown and the
            // rollback invariants can see (and clean) it.
            {
                let dev = cx.world.device_mut(cx.mig.guest)?;
                dev.fs.write(
                    &cx.mig.precopy_path,
                    flux_fs::Content::new(
                        cx.prog.precopy_streamed,
                        fnv(&format!(
                            "{}-precopy-{}",
                            cx.mig.package,
                            cx.prog.precopy_streamed.as_u64()
                        )),
                    ),
                );
            }
            let round_end = cx.world.clock.now();
            cx.world.telemetry.record_complete(
                cx.mig.home_lane,
                format!("migration.precopy.round{round}"),
                round_start,
                round_end,
            );
            // The foreground app kept writing while the round streamed.
            bump_foreground_dirty(cx, round_end - round_start)?;
        }
        cx.world
            .telemetry
            .counter_add("flux.migration.precopy_rounds", u64::from(rounds));
        cx.world.telemetry.counter_add(
            "flux.migration.precopy_bytes",
            cx.prog.precopy_streamed.as_u64(),
        );
        cx.prog.precopy_done = true;
        Ok(Yield::Done)
    }

    /// Pre-copy residue on the guest is a plain staging file; remove it.
    /// (The content-addressed cache it fed deliberately survives rollback.)
    fn rollback(&self, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
        let dev = cx
            .world
            .device_mut(cx.mig.guest)
            .map_err(|e| StageFailure::RollbackFailed {
                reason: e.to_string(),
            })?;
        let _ = dev.fs.remove(&cx.mig.precopy_path);
        Ok(())
    }
}

/// Models the foreground app dirtying more of its writable working set
/// over `window` of virtual time (what pre-copy rounds race against).
fn bump_foreground_dirty(cx: &mut StageCtx<'_>, window: SimDuration) -> Result<(), StageFailure> {
    let frac = PRECOPY_DIRTY_FRACTION_PER_SEC * window.as_secs_f64();
    let dev = cx.world.device_mut(cx.mig.home)?;
    let pid = dev
        .apps
        .get(cx.mig.package.as_str())
        .ok_or_else(|| StageFailure::NoSuchApp(cx.mig.package.clone()))?
        .main_pid;
    let proc = dev
        .kernel
        .process_mut(pid)
        .map_err(|e| StageFailure::Internal(e.to_string()))?;
    for v in proc.mem.vmas_mut() {
        if v.kind.needs_page_dump() {
            v.dirty = (v.dirty + frac).min(1.0);
        }
    }
    Ok(())
}
