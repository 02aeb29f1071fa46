//! The staged migration engine.
//!
//! The paper describes a migration as an explicit phase sequence —
//! preflight, record-log freeze, (pre-copy), CRIA dump, transfer, undump,
//! adaptive-replay warm-up, finalise, with rollback on any failure. This
//! module makes those phases first-class values: each is a [`Stage`]
//! implementation in its own module, and the [`driver`] is the single
//! control loop that owns retry/backoff, telemetry span emission, ledger
//! accounting, rollback unwinding and the run's [`Slice`] schedule. A
//! stage runs one slice per [`Stage::run`] call, and the driver alone
//! calls it, looping until the stage yields [`Yield::Done`] and
//! delivering due interrupts at every boundary. The public entry point
//! [`migrate`] and the fleet executor both execute through that one
//! driver; serial, pipelined and fleet execution differ only in
//! configuration, not in duplicated control flow.
//!
//! Module names follow the paper's phase vocabulary; [`Stage::name`]
//! returns the report/telemetry vocabulary the repo's figures were
//! recorded under (`freeze_record` is the stage named "preparation",
//! `cria_dump` is "checkpoint", `undump` is "restore", `replay_warmup` is
//! "reintegration"). Span and metric names derive from [`Stage::name`]
//! via [`flux_telemetry::stage_span_name`] — never hand-written literals.

pub mod cria_dump;
pub mod ctx;
pub mod driver;
pub mod failure;
pub mod finalise;
pub mod freeze_record;
pub(crate) mod interrupt;
pub mod precopy;
pub mod preflight;
pub mod replay_warmup;
pub mod slices;
pub mod transfer;
pub mod undump;

pub use ctx::StageCtx;
pub use driver::migrate;
pub use failure::StageFailure;
pub use replay_warmup::broadcast_connectivity;
pub use slices::{Slice, SliceKind};

use crate::migration::{MigrationStage, StageTimes};
use flux_simcore::SimDuration;
use flux_telemetry::LaneId;
use std::borrow::Cow;

/// What one [`Stage::run`] call reports back to the driver's slice loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yield {
    /// The stage ran one slice, charging its virtual time, and has more
    /// work; the driver delivers any due interrupts at the boundary and
    /// re-enters.
    Progress,
    /// The stage finished this attempt.
    Done,
}

/// One phase of the migration pipeline.
///
/// Stages hold no state of their own — everything flows through the
/// [`StageCtx`]. The driver wraps [`run`](Self::run) uniformly: it
/// skips the stage when [`pending`](Self::pending) is false, opens the
/// stage's telemetry span, arms any interrupts anchored to
/// [`anchor`](Self::anchor), then loops slices — delivering due
/// interrupts at every boundary — until the stage yields
/// [`Yield::Done`]. On success or a retryable fault it accumulates busy
/// time into [`times_slot`](Self::times_slot) and closes the span. On a
/// fatal failure the span is deliberately left open for the driver's
/// lane settlement, mirroring how an abandoned stage looks in a trace.
pub trait Stage {
    /// Short stage name; telemetry span and metric names derive from it.
    fn name(&self) -> &'static str;

    /// The span this stage records under. Defaults to
    /// `migration.stage.<name>`; pre-copy overrides it (its span predates
    /// the stage naming scheme and is pinned by recorded traces).
    fn span_name(&self) -> Cow<'static, str> {
        flux_telemetry::stage_span_name(self.name())
    }

    /// The telemetry lane the stage's span lives on.
    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        let _ = cx;
        LaneId::WORLD
    }

    /// Whether this attempt still has work here. Resumed attempts skip
    /// completed stages; feature-gated stages (pre-copy) skip when off.
    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        let _ = cx;
        true
    }

    /// The [`StageTimes`] slot this stage's busy time accumulates into,
    /// if it has one (preflight and finalise do not).
    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        let _ = times;
        None
    }

    /// The report stage the driver arms stage-anchored interrupts
    /// against when this stage first enters; `None` for phases outside
    /// the five-stage report vocabulary (preflight, pre-copy, finalise),
    /// which cannot anchor an interrupt.
    fn anchor(&self) -> Option<MigrationStage> {
        None
    }

    /// Runs one slice of the stage, charging virtual time and mutating
    /// the world. Monolithic stages run whole and yield [`Yield::Done`];
    /// resumable stages (preparation, transfer) yield
    /// [`Yield::Progress`] at every interruptible boundary.
    fn run(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure>;

    /// Undoes this stage's externally visible effects during rollback.
    /// Called in reverse pipeline order for every stage, whether or not it
    /// ran — implementations gate on their own progress flags. Errors
    /// surface as [`StageFailure::RollbackFailed`].
    fn rollback(&self, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
        let _ = cx;
        Ok(())
    }
}

/// The stages one attempt executes, in pipeline order. The [`driver`]
/// runs these forward and unwinds them in reverse on rollback.
pub const ATTEMPT_STAGES: [&(dyn Stage + Sync); 6] = [
    &precopy::Precopy,
    &freeze_record::FreezeRecord,
    &cria_dump::CriaDump,
    &transfer::Transfer,
    &undump::Undump,
    &replay_warmup::ReplayWarmup,
];

/// Every declared stage, pipeline order — [`ATTEMPT_STAGES`] bracketed by
/// preflight (run once, before facts are gathered) and finalise (run once,
/// after success). This is the exhaustive enumeration tests loop over.
pub const STAGES: [&(dyn Stage + Sync); 8] = [
    &preflight::Preflight,
    &precopy::Precopy,
    &freeze_record::FreezeRecord,
    &cria_dump::CriaDump,
    &transfer::Transfer,
    &undump::Undump,
    &replay_warmup::ReplayWarmup,
    &finalise::Finalise,
];
