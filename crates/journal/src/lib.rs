//! Event-sourced service core for the Flux reproduction: a CRC-framed
//! append-only journal, state snapshots, and crash-recovery replay.
//!
//! The simulation crates answer "what does one run of scenario X look
//! like?"; this crate turns that into a *service* that survives being
//! killed. The pieces, bottom-up:
//!
//! * [`wire`] — the length-prefixed, CRC-32-checked frame format shared by
//!   journal segments and snapshot files; torn writes are detected at the
//!   exact byte where the valid prefix ends.
//! * [`journal`] — an append-only, segment-rotated event log whose
//!   [`Journal::open`] tolerates truncated tails: the first undecodable
//!   frame ends the recovered prefix and disk is rewritten to match, so
//!   appends always continue from a consistent state.
//! * [`event`] — the [`WorldEvent`] vocabulary: *input facts* (what the
//!   outside world said) that replay re-applies, and *audit facts* (what
//!   the service derived) that replay re-computes and verifies.
//! * [`snapshot`] — CRC-framed state snapshots with newest-valid
//!   selection, so recovery replays a suffix instead of all of history.
//! * [`service`] — [`ServiceCore`]: write-ahead-logged request admission
//!   over the fleet scheduler, deterministic fresh-world-per-batch
//!   execution, snapshot cadence, and the recovery algorithm. A recovered
//!   service is byte-identical (reports, telemetry exports, clock, RNG)
//!   to one that never crashed — the crash-recovery proptests cut the
//!   journal at arbitrary byte offsets to enforce exactly that.
//! * [`protocol`] — the line protocol `flux-served` speaks to observers
//!   over TCP, kept as a pure function for socket-free testing.
//!
//! ```no_run
//! use flux_journal::{RequestSpec, ScenarioSpec, ServiceConfig, ServiceCore};
//!
//! let mut svc = ServiceCore::open(
//!     "/tmp/flux-served",
//!     ScenarioSpec::default(),
//!     ServiceConfig::default(),
//! )?;
//! svc.submit(RequestSpec { id: 1, pair: 0, package: "com.whatsapp".into(), priority: 0 })?;
//! let record = svc.step_batch()?.expect("one pending request");
//! assert_eq!(record.report.completed, 1);
//! # Ok::<(), flux_journal::ServiceError>(())
//! ```

pub mod event;
pub mod journal;
pub mod protocol;
pub mod service;
pub mod snapshot;
pub mod wire;

#[cfg(test)]
mod test_dir;

pub use event::{RequestSpec, ScenarioSpec, WorldEvent};
pub use journal::{Journal, JournalConfig, JournalError, Recovered};
pub use protocol::{handle_line_shared, Response};
pub use service::{
    BatchRecord, ExecutedBatch, PreparedBatch, RecoveryInfo, ServiceConfig, ServiceCore,
    ServiceError, SubmitAck,
};
pub use snapshot::SnapshotStore;
