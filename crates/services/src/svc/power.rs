//! The PowerManagerService, ClipboardService and VibratorService would each
//! be small files; PowerManager lives here on its own because it bridges to
//! the kernel wakelock driver.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// The power service state.
#[derive(Debug, Clone, Default)]
pub struct PowerManagerService {
    /// App-held wakelocks: (uid, lock token) → kernel lock name.
    locks: BTreeMap<(Uid, String), String>,
    screen_on: bool,
    stay_on: i32,
    brightness_override: Option<i32>,
}

impl PowerManagerService {
    /// Wakelocks held by `uid`.
    pub fn locks_of(&self, uid: Uid) -> usize {
        self.locks.keys().filter(|(u, _)| *u == uid).count()
    }

    /// Whether the screen is on.
    pub fn is_screen_on(&self) -> bool {
        self.screen_on
    }
}

impl SystemService for PowerManagerService {
    fn descriptor(&self) -> &'static str {
        "IPowerManager"
    }

    fn registry_name(&self) -> &'static str {
        "power"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "acquireWakeLock" => {
                // (lock, flags, tag, packageName, ws)
                let lock = format!("{}", args.get(0)?.clone());
                let tag = args.str(2).unwrap_or("wakelock").to_owned();
                let kernel_name = format!("{}#{}", tag, ctx.caller_uid);
                ctx.kernel.wakelocks.acquire(&kernel_name, ctx.service_pid);
                self.locks.insert((ctx.caller_uid, lock), kernel_name);
                Ok(Parcel::new())
            }
            "releaseWakeLock" => {
                let lock = format!("{}", args.get(0)?.clone());
                if let Some(name) = self.locks.remove(&(ctx.caller_uid, lock)) {
                    ctx.kernel.wakelocks.release(&name);
                }
                Ok(Parcel::new())
            }
            "updateWakeLockWorkSource" => Ok(Parcel::new()),
            "isScreenOn" => Ok(Parcel::new().with_bool(self.screen_on)),
            "wakeUp" => {
                self.screen_on = true;
                Ok(Parcel::new())
            }
            "goToSleep" => {
                self.screen_on = false;
                Ok(Parcel::new())
            }
            "setStayOnSetting" => {
                self.stay_on = args.i32(0)?;
                Ok(Parcel::new())
            }
            "setTemporaryScreenBrightnessSettingOverride" => {
                self.brightness_override = Some(args.i32(0)?);
                Ok(Parcel::new())
            }
            "userActivity" | "nap" => Ok(Parcel::new()),
            "isWakeLockLevelSupported" => Ok(Parcel::new().with_bool(true)),
            _ => Ok(Parcel::new()),
        }
    }

    fn on_uid_death(&mut self, ctx: &mut ServiceCtx<'_>, uid: Uid) {
        // Release every kernel wakelock the dead app held through us.
        let dead: Vec<(Uid, String)> = self
            .locks
            .keys()
            .filter(|(u, _)| *u == uid)
            .cloned()
            .collect();
        for key in dead {
            if let Some(name) = self.locks.remove(&key) {
                ctx.kernel.wakelocks.release(&name);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
