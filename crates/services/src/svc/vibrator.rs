//! The VibratorService.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;

/// A live vibration request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vibration {
    /// Requesting app.
    pub uid: Uid,
    /// Request token identity.
    pub token: String,
    /// Remaining duration in ms (single-shot) or the repeat pattern.
    pub pattern: Vec<i64>,
}

/// The vibrator service state.
#[derive(Debug, Clone)]
pub struct VibratorService {
    has_vibrator: bool,
    current: Option<Vibration>,
}

impl VibratorService {
    /// Creates the service; `has_vibrator` from the device inventory.
    pub fn new(has_vibrator: bool) -> Self {
        Self {
            has_vibrator,
            current: None,
        }
    }

    /// The active vibration, if any.
    pub fn current(&self) -> Option<&Vibration> {
        self.current.as_ref()
    }
}

impl SystemService for VibratorService {
    fn descriptor(&self) -> &'static str {
        "IVibratorService"
    }

    fn registry_name(&self) -> &'static str {
        "vibrator"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "hasVibrator" => Ok(Parcel::new().with_bool(self.has_vibrator)),
            "vibrate" => {
                let millis = args.i64(0)?;
                let token = format!("{}", args.get(1)?.clone());
                if self.has_vibrator {
                    self.current = Some(Vibration {
                        uid: ctx.caller_uid,
                        token,
                        pattern: vec![millis],
                    });
                }
                Ok(Parcel::new())
            }
            "vibratePattern" => {
                let pattern: Vec<i64> = args
                    .blob(0)?
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                    .collect();
                let token = format!("{}", args.get(2)?.clone());
                if self.has_vibrator {
                    self.current = Some(Vibration {
                        uid: ctx.caller_uid,
                        token,
                        pattern,
                    });
                }
                Ok(Parcel::new())
            }
            "cancelVibrate" => {
                let token = format!("{}", args.get(0)?.clone());
                if self
                    .current
                    .as_ref()
                    .is_some_and(|v| v.token == token && v.uid == ctx.caller_uid)
                {
                    self.current = None;
                }
                Ok(Parcel::new())
            }
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
