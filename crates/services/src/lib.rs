//! Android system services with Flux-decorated interfaces.
//!
//! Apps "rely heavily on interactions with shared, long-running system
//! services" (§2 of the paper) and those services hold the app-specific
//! state Selective Record/Adaptive Replay migrates. This crate provides:
//!
//! * the decorated AIDL definitions for all 22 services of Table 2
//!   (`aidl/*.aidl`, embedded via [`registry`]), with method counts and
//!   decoration LOC matching the paper exactly;
//! * [`sensor_native`] — the hand-written record/replay rules for the
//!   natively implemented SensorService (Table 2's 94 LOC entry);
//! * [`framework`] — both compiled into one interface table, once per
//!   process, which every booted device borrows;
//! * behavioural implementations of the services the evaluation exercises
//!   ([`svc`]), plus the WindowManager and PackageManager Flux needs;
//! * [`ServiceHost`] — dispatch of Binder transactions to service objects,
//!   the layer the Selective Record runtime in `flux-core` interposes on.

pub mod host;
pub mod intent;
pub mod registry;
pub mod sensor_native;
pub mod service;
pub mod svc;

pub use host::{DispatchResult, ServiceHost};
pub use intent::{
    Delivery, Event, Intent, ACTION_CONFIGURATION_CHANGED, ACTION_CONNECTIVITY_CHANGE,
};
pub use registry::{
    compile_all, framework, table2, ServiceClass, ServiceSpec, Table2Row, REGISTRY,
};
pub use service::{ServiceCtx, SystemService};
pub use svc::{boot_android, ServicesConfig};
