//! Flux: multi-surface computing through app migration (EuroSys 2015).
//!
//! This crate is the paper's contribution, built on the simulated Android
//! substrate of the sibling crates:
//!
//! * [`record`] — **Selective Record**: the interposition runtime that
//!   appends service calls to a per-app log under the decorated-AIDL rules
//!   and discards stale calls (`@drop`/`@if`).
//! * [`replay`] — **Adaptive Replay**: replays the log on the guest through
//!   contextualisation proxies (`@replayproxy`) that adapt calls to the
//!   guest's hardware and state.
//! * [`cria`] — **CRIA** packaging: the Flux checkpoint image bundling the
//!   CRIU process dump, the record log and re-initialisation metadata.
//! * [`pairing`] — the one-time device pairing: rsync `--link-dest` sync of
//!   frameworks/libraries, APK + data sync, pseudo-install of the wrapper.
//! * [`migration`] — the vocabulary of the five-stage pipeline
//!   (preparation, checkpoint, transfer, restore, reintegration): config,
//!   stage identity, retry policy, time and byte accounting.
//! * [`engine`] — the staged migration engine: one [`engine::Stage`]
//!   module per paper phase and one driver owning retry, rollback and
//!   telemetry. All migration entry points execute through it.
//! * [`world`] — the multi-device environment tying it all together.
//!
//! # Examples
//!
//! ```
//! use flux_core::{migrate, pair, MigrationSpec, WorldBuilder};
//! use flux_device::DeviceProfile;
//! use flux_workloads::spec;
//!
//! let app = spec("WhatsApp").unwrap();
//! let (mut world, ids) = WorldBuilder::new()
//!     .seed(42)
//!     .device("phone", DeviceProfile::nexus4())
//!     .device("tablet", DeviceProfile::nexus7_2013())
//!     .app(0, app.clone())
//!     .pair(0, 1)
//!     .build()
//!     .unwrap();
//! let (phone, tablet) = (ids[0], ids[1]);
//! world.run_script(phone, &app.package.clone(), &app.actions.clone()).unwrap();
//!
//! let spec = MigrationSpec::new(&app.package).between(phone, tablet);
//! let report = migrate(&mut world, spec).unwrap();
//! assert!(report.stages.total().as_secs_f64() > 0.0);
//! ```

pub mod builder;
pub mod cria;
pub mod engine;
pub mod errors;
pub mod executor;
pub mod fleet;
pub mod image_cache;
pub mod migration;
pub mod oracle;
pub mod pairing;
pub mod record;
pub mod replay;
pub mod world;

pub use builder::WorldBuilder;
pub use cria::{FluxImage, ImageSizes, ReinitSpec, IMAGE_COMPRESS_RATIO, LOG_COMPRESS_RATIO};
pub use engine::{broadcast_connectivity, migrate, StageFailure};
pub use errors::FluxError;
pub use executor::{
    ExecutedMigration, Executor, SerialExecutor, Slice, SliceKind, FLEET_RNG_STREAM,
};
pub use fleet::{
    FleetConfig, FleetOutcome, FleetReport, FleetScheduler, FlightRecord, MigrationRequest,
};
// Re-exported because [`LifecycleSchedule::At`] and
// [`MigrationRequest::with_interrupt`] take it.
pub use flux_appfw::LifecycleEvent;
pub use image_cache::CachePartition;
pub use migration::{
    InterruptRecord, MigrationConfig, MigrationReport, MigrationSpec, MigrationStage, RetryPolicy,
    StageInterrupt, StageTimes, TransferLedger, KERNEL_STALL_WATCHDOG,
    PRECOPY_DIRTY_FRACTION_PER_SEC, PRECOPY_MAX_ROUNDS, PRECOPY_STOP,
};
pub use oracle::{
    classify_refusal, run_scenario, FailureClass, LifecycleSchedule, Misbehaviour, OracleSnapshot,
    OracleVerdict, ScenarioOutcome, Taxonomy,
};
pub use pairing::{pair, verify_app, PairingReport};
pub use record::{CallLog, CallRecord, RecordOutcome, RecordStore};
pub use replay::{replay_log, ReplayStats};
pub use world::{Device, DeviceId, FluxWorld, Pairing, ReplayPolicy, WorldError};
