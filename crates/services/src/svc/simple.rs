//! A generic per-app state service.
//!
//! Services whose behaviour the evaluation never inspects directly
//! (Bluetooth, Camera, CountryDetector, InputMethod, Input, Keyguard, Nsd,
//! Serial, TextServices, UiMode, Usb) still need to *exist* — apps call
//! them, Selective Record interposes according to their decorations, and
//! replay re-issues surviving calls. `SimpleService` accepts any method of
//! its interface and tracks per-app call history so tests can assert what
//! reached the guest side.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// The generic service.
#[derive(Debug, Clone)]
pub struct SimpleService {
    descriptor: &'static str,
    name: &'static str,
    calls: BTreeMap<(Uid, String), Vec<Parcel>>,
}

impl SimpleService {
    /// Creates a generic service for `descriptor`, registered as `name`.
    pub fn new(descriptor: &'static str, name: &'static str) -> Self {
        Self {
            descriptor,
            name,
            calls: BTreeMap::new(),
        }
    }

    /// Calls `method` has received from `uid`.
    pub fn calls_of(&self, uid: Uid, method: &str) -> &[Parcel] {
        self.calls
            .get(&(uid, method.to_owned()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total calls recorded across apps and methods.
    pub fn total_calls(&self) -> usize {
        self.calls.values().map(Vec::len).sum()
    }
}

impl SystemService for SimpleService {
    fn descriptor(&self) -> &'static str {
        self.descriptor
    }

    fn registry_name(&self) -> &'static str {
        self.name
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        self.calls
            .entry((ctx.caller_uid, method.to_owned()))
            .or_default()
            .push(args.clone());
        Ok(Parcel::new())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
