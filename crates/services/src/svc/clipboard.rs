//! The ClipboardService.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeSet;

/// The clipboard state.
#[derive(Debug, Clone, Default)]
pub struct ClipboardService {
    clip: Option<Vec<u8>>,
    listeners: BTreeSet<(Uid, String)>,
}

impl ClipboardService {
    /// The current primary clip, if any.
    pub fn primary_clip(&self) -> Option<&[u8]> {
        self.clip.as_deref()
    }

    /// Registered clip-changed listeners.
    pub fn listener_count(&self) -> usize {
        self.listeners.len()
    }
}

impl SystemService for ClipboardService {
    fn descriptor(&self) -> &'static str {
        "IClipboard"
    }

    fn registry_name(&self) -> &'static str {
        "clipboard"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "setPrimaryClip" => {
                self.clip = Some(args.blob(0)?.to_vec());
                Ok(Parcel::new())
            }
            "getPrimaryClip" => match &self.clip {
                Some(c) => Ok(Parcel::new().with_blob(c.clone())),
                None => Ok(Parcel::new().with_null()),
            },
            "getPrimaryClipDescription" => Ok(Parcel::new().with_str(if self.clip.is_some() {
                "text/plain"
            } else {
                ""
            })),
            "hasPrimaryClip" | "hasClipboardText" => {
                Ok(Parcel::new().with_bool(self.clip.is_some()))
            }
            "addPrimaryClipChangedListener" => {
                let l = format!("{}", args.get(0)?.clone());
                self.listeners.insert((ctx.caller_uid, l));
                Ok(Parcel::new())
            }
            "removePrimaryClipChangedListener" => {
                let l = format!("{}", args.get(0)?.clone());
                self.listeners.remove(&(ctx.caller_uid, l));
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
