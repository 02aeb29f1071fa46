//! The AudioService.
//!
//! Volume indices are device-relative: the Adaptive Replay proxy rescales
//! a recorded `setStreamVolume` to the guest's range ("a proxy method could
//! be used to adjust volume levels of music being played in accordance with
//! the relative volume level differences between the home and guest
//! devices", §3.2). [`AudioService::max_volume`] is therefore part of the
//! public surface the proxies consult.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// Number of Android stream types (voice, system, ring, music, alarm,
/// notification, bluetooth-sco, system-enforced, dtmf, tts).
pub const STREAM_COUNT: usize = 10;

/// The music stream, used by most workloads.
pub const STREAM_MUSIC: i32 = 3;

/// The audio service state.
#[derive(Debug, Clone)]
pub struct AudioService {
    max_volume: i32,
    volumes: [i32; STREAM_COUNT],
    muted: [bool; STREAM_COUNT],
    master_mute: bool,
    ringer_mode: i32,
    mode: i32,
    speakerphone: bool,
    bluetooth_sco: bool,
    bluetooth_a2dp: bool,
    focus_stack: Vec<(Uid, String)>,
    media_button_receivers: BTreeMap<Uid, String>,
    remote_control_clients: BTreeMap<(Uid, String), String>,
}

impl AudioService {
    /// Creates the service with the device's volume range.
    pub fn new(max_volume: i32) -> Self {
        Self {
            max_volume,
            volumes: [max_volume / 2; STREAM_COUNT],
            muted: [false; STREAM_COUNT],
            master_mute: false,
            ringer_mode: 2, // RINGER_MODE_NORMAL
            mode: 0,
            speakerphone: false,
            bluetooth_sco: false,
            bluetooth_a2dp: false,
            focus_stack: Vec::new(),
            media_button_receivers: BTreeMap::new(),
            remote_control_clients: BTreeMap::new(),
        }
    }

    /// The device's maximum volume index.
    pub fn max_volume(&self) -> i32 {
        self.max_volume
    }

    /// Current volume of a stream.
    pub fn stream_volume(&self, stream: i32) -> i32 {
        self.volumes
            .get(stream as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The holder of audio focus, if any.
    pub fn focus_holder(&self) -> Option<&(Uid, String)> {
        self.focus_stack.last()
    }

    fn stream_index(&self, stream: i32) -> Result<usize, String> {
        let idx = stream as usize;
        if idx >= STREAM_COUNT {
            return Err(format!("bad stream type {stream}"));
        }
        Ok(idx)
    }
}

impl SystemService for AudioService {
    fn descriptor(&self) -> &'static str {
        "IAudioService"
    }

    fn registry_name(&self) -> &'static str {
        "audio"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        let fail = |reason: String| BinderError::TransactionFailed {
            interface: "IAudioService".into(),
            method: method.to_owned(),
            reason,
        };
        match method {
            "setStreamVolume" => {
                let idx = self.stream_index(args.i32(0)?).map_err(fail)?;
                self.volumes[idx] = args.i32(1)?.clamp(0, self.max_volume);
                Ok(Parcel::new())
            }
            "adjustStreamVolume" => {
                let idx = self.stream_index(args.i32(0)?).map_err(fail)?;
                let direction = args.i32(1)?.signum();
                self.volumes[idx] = (self.volumes[idx] + direction).clamp(0, self.max_volume);
                Ok(Parcel::new())
            }
            "getStreamVolume" => {
                let idx = self.stream_index(args.i32(0)?).map_err(fail)?;
                Ok(Parcel::new().with_i32(self.volumes[idx]))
            }
            "getStreamMaxVolume" => Ok(Parcel::new().with_i32(self.max_volume)),
            "setStreamMute" => {
                let idx = self.stream_index(args.i32(0)?).map_err(fail)?;
                self.muted[idx] = args.bool(1)?;
                Ok(Parcel::new())
            }
            "isStreamMute" => {
                let idx = self.stream_index(args.i32(0)?).map_err(fail)?;
                Ok(Parcel::new().with_bool(self.muted[idx]))
            }
            "setMasterMute" => {
                self.master_mute = args.bool(0)?;
                Ok(Parcel::new())
            }
            "isMasterMute" => Ok(Parcel::new().with_bool(self.master_mute)),
            "setRingerMode" => {
                self.ringer_mode = args.i32(0)?;
                Ok(Parcel::new())
            }
            "getRingerMode" => Ok(Parcel::new().with_i32(self.ringer_mode)),
            "setMode" => {
                self.mode = args.i32(0)?;
                Ok(Parcel::new())
            }
            "getMode" => Ok(Parcel::new().with_i32(self.mode)),
            "setSpeakerphoneOn" => {
                self.speakerphone = args.bool(0)?;
                Ok(Parcel::new())
            }
            "isSpeakerphoneOn" => Ok(Parcel::new().with_bool(self.speakerphone)),
            "setBluetoothScoOn" => {
                self.bluetooth_sco = args.bool(0)?;
                Ok(Parcel::new())
            }
            "isBluetoothScoOn" => Ok(Parcel::new().with_bool(self.bluetooth_sco)),
            "setBluetoothA2dpOn" => {
                self.bluetooth_a2dp = args.bool(0)?;
                Ok(Parcel::new())
            }
            "isBluetoothA2dpOn" => Ok(Parcel::new().with_bool(self.bluetooth_a2dp)),
            "requestAudioFocus" => {
                let client_id = args.str(4).or_else(|_| args.str(0))?.to_owned();
                self.focus_stack.retain(|(_, c)| c != &client_id);
                self.focus_stack.push((ctx.caller_uid, client_id));
                Ok(Parcel::new().with_i32(1)) // AUDIOFOCUS_REQUEST_GRANTED
            }
            "abandonAudioFocus" => {
                let client_id = args.str(1).or_else(|_| args.str(0))?.to_owned();
                self.focus_stack.retain(|(_, c)| c != &client_id);
                Ok(Parcel::new().with_i32(1))
            }
            "unregisterAudioFocusClient" => {
                let client_id = args.str(0)?.to_owned();
                self.focus_stack.retain(|(_, c)| c != &client_id);
                Ok(Parcel::new())
            }
            "getCurrentAudioFocus" => {
                Ok(Parcel::new().with_i32(self.focus_stack.last().map(|_| 1).unwrap_or(0)))
            }
            "registerMediaButtonIntent" => {
                let pi = args.str(0)?.to_owned();
                self.media_button_receivers.insert(ctx.caller_uid, pi);
                Ok(Parcel::new())
            }
            "unregisterMediaButtonIntent" => {
                self.media_button_receivers.remove(&ctx.caller_uid);
                Ok(Parcel::new())
            }
            "registerRemoteControlClient" => {
                let intent = args.str(0)?.to_owned();
                let client = args.str(1).unwrap_or("rcc").to_owned();
                self.remote_control_clients
                    .insert((ctx.caller_uid, intent), client);
                Ok(Parcel::new().with_i32(self.remote_control_clients.len() as i32))
            }
            "unregisterRemoteControlClient" => {
                let intent = args.str(0)?.to_owned();
                self.remote_control_clients
                    .remove(&(ctx.caller_uid, intent));
                Ok(Parcel::new())
            }
            // Everything else on the 71-method surface is either a query
            // answered from defaults or has no migratable state.
            _ => Ok(Parcel::new()),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.focus_stack.retain(|(u, _)| *u != uid);
        self.media_button_receivers.remove(&uid);
        self.remote_control_clients.retain(|(u, _), _| *u != uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
