//! The fleet execution engine: the [`Executor`] API and the in-place
//! execution behind it, deterministic by construction.
//!
//! # The execute/schedule split
//!
//! A fleet run has two halves. *Execution* runs the five-stage engine for
//! every admitted request and measures its shape — not three coarse
//! phases, but the full stage-level [`Slice`] schedule: every pre-copy
//! round, freeze-phase residue ship and record-log transfer is its own
//! slice, recorded by the engine as its clock moves. *Scheduling* places
//! those slices on the fleet timeline under admission control and medium
//! contention, admitting each transfer-bearing slice onto the radio
//! individually. The [`FleetScheduler`](crate::FleetScheduler) owns
//! scheduling; it delegates execution to an [`Executor`], which runs
//! every request **up front**, in the canonical order (priority
//! descending, request id ascending), each on the world's own devices
//! under a *request context* of its own.
//!
//! # Request contexts
//!
//! For the length of one request's run, the executor swaps the request's
//! context into the world in place of the world's own:
//!
//! * a **clock** at the batch-open instant — every request executes at
//!   the same virtual instant whatever its admission order, and
//!   absolute-time comparisons (e.g. alarm expiry against recorded
//!   timestamps) behave exactly as a lone migration run at batch open
//!   would;
//! * a **forked RNG stream**: one draw leaves the world's network stream
//!   per batch (never per request), and each request's stream is derived
//!   from that draw and its id — so streams are independent of batch
//!   order and batch size;
//! * the **batch hub**: the whole batch records into one telemetry hub
//!   ([`Telemetry::batch`]) that opens with the world hub's lanes, so each
//!   run records on its home and guest devices' own lanes. Each run ends
//!   by cutting its [`Part`] off the hub: its spans, instants and gauge
//!   writes, which may lie only on the world lane and those two device
//!   lanes. The scheduler moves the part into the world hub at the
//!   request's admission, shifted by its queue wait, in admission order —
//!   the `(SimTime, id)` merge key — and merges the batch's counters and
//!   histograms once the batch drains (see [`flux_telemetry::batch`]);
//! * the request's own fault plan shifted onto the batch-open instant
//!   (it is request-relative by contract), or the world's ambient plan
//!   verbatim.
//!
//! After the run the world's own context is swapped back, so the clock's
//! progress and any change to the network environment stay with the
//! request, and the batch hub waits for the next run. Every
//! [`ExecutedMigration`] of the batch shares the hub and names its own
//! part of it. The devices themselves — apps, files, record logs,
//! pairings — change in place, as a lone migration changes them.
//!
//! [`SerialExecutor`] runs one request at a time, in canonical order, on
//! the calling thread, so every device sees its requests in canonical
//! order and the batch's output is a pure function of the world and the
//! requests. A request naming a missing device, or one device as both
//! home and guest, runs the same way; the engine refuses it pre-flight,
//! before it charges time or draws randomness.

use crate::engine::{self, StageFailure};
use crate::errors::FluxError;
use crate::fleet::{FleetOutcome, MigrationRequest};
use crate::world::FluxWorld;
use flux_net::NetworkEnv;
use flux_simcore::{FaultPlan, SimClock, SimDuration, SimTime};
use flux_telemetry::{LaneId, Part, Telemetry};
use std::fmt;
use std::sync::{Arc, Mutex};

pub use crate::engine::slices::{Slice, SliceKind};

/// The stream label the executor forks the per-batch RNG root from, off
/// the world's network environment. Public so tests can reproduce a
/// request's exact stream: `world.net.fork_rng(FLEET_RNG_STREAM)` then
/// [`SimRng::fork`](flux_simcore::SimRng::fork) with the request id.
pub const FLEET_RNG_STREAM: u64 = 0xf1ee7;

/// The measured shape of one executed migration, ready for the scheduler
/// to place on the fleet timeline.
#[derive(Debug)]
pub struct ExecutedMigration {
    pub(crate) outcome: FleetOutcome,
    /// The stage-level slice schedule covering the full measured wall
    /// time, in order. Empty for pre-flight refusals (which are free).
    pub(crate) schedule: Vec<Slice>,
    /// The measured wall-clock (virtual) span; always the exact sum of
    /// `schedule` durations.
    pub(crate) wall: SimDuration,
    /// The hub the whole batch recorded into, shared by every request of
    /// the batch.
    pub(crate) batch: Arc<Mutex<Telemetry>>,
    /// The request's part of `batch`, timed from batch open; the scheduler
    /// moves it into the world hub shifted to the admission instant.
    pub(crate) part: Part,
}

impl ExecutedMigration {
    /// How the request ended.
    pub fn outcome(&self) -> &FleetOutcome {
        &self.outcome
    }

    /// The stage-level slice schedule, in execution order.
    pub fn schedule(&self) -> &[Slice] {
        &self.schedule
    }

    /// Wall-clock (virtual) span of the execution, medium contention not
    /// yet applied.
    pub fn wall(&self) -> SimDuration {
        self.wall
    }
}

/// Runs a batch of admitted migration requests and returns their measured
/// shapes, in input order.
///
/// Implementations must be deterministic functions of `(world, requests)`
/// — two identically-seeded worlds given the same batch must produce
/// byte-identical shapes, telemetry included — and every shape of one
/// call must share one batch hub. `requests` are pre-validated by the
/// scheduler (unique ids).
pub trait Executor: fmt::Debug + Send + Sync {
    /// Short human-readable name for reports and bench output.
    fn name(&self) -> &'static str;

    /// Executes every request and returns one shape per request, aligned
    /// with `requests`.
    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration>;
}

/// The reference executor: one request at a time, in canonical order, on
/// the calling thread, each under its own context swapped into the world.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration> {
        execute_batch(world, requests)
    }
}

/// The canonical execution order: priority descending, id ascending —
/// the same key the scheduler's admission queue sorts by.
pub(crate) fn canonical_order(requests: &[MigrationRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(requests[i].priority), requests[i].id));
    order
}

/// The world state one request executes under, in place of the world's
/// own for the length of its run.
struct Context<'a> {
    clock: SimClock,
    net: NetworkEnv,
    fault_plan: FaultPlan,
    /// The batch hub, which every request of the batch records into.
    telemetry: &'a mut Telemetry,
}

impl Context<'_> {
    /// Exchanges this context with the world's.
    fn swap(&mut self, world: &mut FluxWorld) {
        std::mem::swap(&mut self.clock, &mut world.clock);
        std::mem::swap(&mut self.net, &mut world.net);
        std::mem::swap(&mut self.fault_plan, &mut world.fault_plan);
        std::mem::swap(self.telemetry, &mut world.telemetry);
    }
}

/// One executed request before its batch hub is shared.
type Run = (FleetOutcome, Vec<Slice>, SimDuration, Part);

/// The execute pipeline: in canonical order, each request runs on the
/// world's devices under its own context before the next one starts.
fn execute_batch(world: &mut FluxWorld, requests: &[MigrationRequest]) -> Vec<ExecutedMigration> {
    // One draw leaves the world's stream per batch; every request stream
    // derives from the same root, keyed by id, so assignment is
    // order-independent.
    let root = world.net.fork_rng(FLEET_RNG_STREAM);
    let start = world.clock.now();
    let batch_offset = start.since(SimTime::ZERO);
    let mut batch = world.telemetry.batch();

    let mut runs: Vec<Option<Run>> = (0..requests.len()).map(|_| None).collect();
    for idx in canonical_order(requests) {
        let req = &requests[idx];
        let fault_plan = if req.faults.is_empty() {
            world.fault_plan.clone()
        } else {
            req.faults.shifted_by(batch_offset)
        };
        let ctx = Context {
            clock: SimClock::at(start),
            net: world.net.with_rng(root.clone().fork(req.id)),
            fault_plan,
            telemetry: &mut batch,
        };
        runs[idx] = Some(run_in_place(world, req, ctx, start));
    }
    let batch = Arc::new(Mutex::new(batch));
    runs.into_iter()
        .map(|run| {
            let (outcome, schedule, wall, part) = run.expect("every request executed");
            ExecutedMigration {
                outcome,
                schedule,
                wall,
                batch: Arc::clone(&batch),
                part,
            }
        })
        .collect()
}

/// Runs the engine on the world's own devices with `ctx` swapped in, then
/// cuts the run's part, on its devices' lanes, off the batch hub and
/// swaps the world's context back. The context clock opened at `start`,
/// so the wall time is the clock's progress past it.
fn run_in_place(
    world: &mut FluxWorld,
    req: &MigrationRequest,
    mut ctx: Context,
    start: SimTime,
) -> Run {
    ctx.swap(world);
    let (result, schedule) = engine::driver::run(
        world,
        req.home,
        req.guest,
        &req.package,
        &req.cfg,
        &req.interrupts,
    );
    let now = world.clock.now();
    // A missing device has no lane; the world lane, a run lane anyway,
    // stands in for it.
    let lanes = [req.home, req.guest].map(|id| {
        world
            .devices
            .get(id.0)
            .map_or(LaneId::WORLD, |dev| dev.lane)
    });
    let part = world.telemetry.end_part(now, &lanes);
    ctx.swap(world);
    (classify(result), schedule, now.since(start), part)
}

/// Classifies one engine result.
///
/// A rolled-back request holds its devices for its whole measured span
/// (attempts, backoff, rollback), and any air time its partial transfers
/// actually consumed is charged to the medium slice by slice. A refusal is
/// pre-flight and free (empty schedule).
fn classify(result: Result<crate::MigrationReport, FluxError>) -> FleetOutcome {
    match result {
        Ok(report) => FleetOutcome::Completed(report),
        Err(error) => {
            let rolled_back = matches!(
                error,
                FluxError::Migration(
                    StageFailure::FaultAborted { .. }
                        | StageFailure::Interrupted { .. }
                        | StageFailure::RollbackFailed { .. }
                )
            );
            if rolled_back {
                FleetOutcome::RolledBack { error }
            } else {
                FleetOutcome::Refused { error }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::DeviceId;

    fn req(id: u64, home: usize, guest: usize) -> MigrationRequest {
        MigrationRequest::new(id, DeviceId(home), DeviceId(guest), "app")
    }

    #[test]
    fn canonical_order_sorts_by_priority_then_id() {
        let requests = vec![req(3, 0, 1), req(1, 2, 3).with_priority(1), req(2, 4, 5)];
        assert_eq!(canonical_order(&requests), vec![1, 2, 0]);
    }
}
