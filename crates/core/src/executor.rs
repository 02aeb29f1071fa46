//! The fleet execution engine: the [`Executor`] API and the shard
//! pipeline behind it, deterministic by construction.
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
//! descending, request id ascending), each inside a private *world
//! shard*.
//!
//! # World shards
//!
//! A shard is a two-device [`FluxWorld`] built by *moving* the request's
//! home and guest devices out of the main world (cheap placeholders keep
//! the indices stable), with:
//!
//! * a **private clock** starting at the batch-open instant — every
//!   request executes at the same virtual instant whatever its admission
//!   order, and absolute-time comparisons (e.g. alarm expiry against
//!   recorded timestamps) behave exactly as a lone migration run at batch
//!   open would;
//! * a **forked RNG stream**: one draw leaves the world's network stream
//!   per batch (never per request), and each request's stream is derived
//!   from that draw and its id — so streams are independent of batch
//!   order and batch size;
//! * a **private telemetry hub**, absorbed into the world hub at the
//!   request's admission instant (shifted by it), in admission order —
//!   the `(SimTime, id)` merge key;
//! * the request's own fault plan shifted onto the batch-open instant
//!   (it is request-relative by contract), or the world's ambient plan
//!   verbatim.
//!
//! [`SerialExecutor`] detaches, runs and reattaches one shard at a time,
//! in canonical order, on the calling thread, so every device sees its
//! requests in canonical order and the batch's output is a pure function
//! of the world and the requests.

use crate::engine::{self, StageFailure};
use crate::errors::FluxError;
use crate::fleet::{FleetOutcome, MigrationRequest};
use crate::record::RecordStore;
use crate::world::{Device, DeviceId, FluxWorld};
use flux_aidl::CompiledInterface;
use flux_device::DeviceProfile;
use flux_kernel::Kernel;
use flux_services::ServiceHost;
use flux_simcore::{CostModel, FaultPlan, Pid, SimClock, SimDuration, SimRng, SimTime};
use flux_telemetry::{LaneId, Telemetry};
use std::collections::BTreeMap;
use std::fmt;

pub use crate::engine::slices::{Slice, SliceKind};

/// The stream label the executor forks the per-batch RNG root from, off
/// the world's network environment. Public so tests can reproduce a
/// request's exact stream: `world.net.fork_rng(FLEET_RNG_STREAM)` then
/// [`SimRng::fork`] with the request id.
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
    /// The shard's telemetry record, timed from batch open; the scheduler
    /// absorbs it into the world hub shifted to the admission instant.
    pub(crate) telemetry: Telemetry,
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
/// byte-identical shapes, telemetry included. `requests` are
/// pre-validated by the scheduler (unique ids).
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

/// The reference executor: the shard pipeline, one request at a time, on
/// the calling thread.
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

/// One detached request: its two-device shard world plus what is needed to
/// put the main world back together.
struct Shard {
    world: FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    home_lane: LaneId,
    guest_lane: LaneId,
    /// Pairing previously keyed by main-world device 0 on the guest, if
    /// the home-id remap displaced it.
    displaced: Option<crate::world::Pairing>,
}

/// The execute pipeline: in canonical order, each request is detached
/// into its shard, run and reattached before the next one starts.
fn execute_batch(world: &mut FluxWorld, requests: &[MigrationRequest]) -> Vec<ExecutedMigration> {
    // One draw leaves the world's stream per batch; every request stream
    // derives from the same root, keyed by id, so assignment is
    // order-independent.
    let root = world.net.fork_rng(FLEET_RNG_STREAM);
    let start = world.clock.now();
    let batch_offset = start.since(SimTime::ZERO);

    let mut results: Vec<Option<ExecutedMigration>> = (0..requests.len()).map(|_| None).collect();
    for idx in canonical_order(requests) {
        let req = &requests[idx];
        let executed = if req.home == req.guest
            || world.device(req.home).is_err()
            || world.device(req.guest).is_err()
        {
            // No shard can be built; the engine refuses these pre-flight
            // without consuming time or randomness, so run it against the
            // main world at its canonical position.
            execute_direct(world, req)
        } else {
            let rng = root.clone().fork(req.id);
            let plan = if req.faults.is_empty() {
                world.fault_plan.clone()
            } else {
                req.faults.shifted_by(batch_offset)
            };
            let shard = detach(world, req, rng, plan, start);
            run_in_shard(world, shard, req, start)
        };
        results[idx] = Some(executed);
    }
    results
        .into_iter()
        .map(|r| r.expect("every request executed"))
        .collect()
}

/// Moves the request's devices out of `world` into a fresh two-device
/// shard (home = device 0, guest = device 1) whose clock opens at
/// `start`, remapping the guest's pairing key and the device telemetry
/// lanes to shard-local values.
fn detach(
    world: &mut FluxWorld,
    req: &MigrationRequest,
    rng: SimRng,
    plan: FaultPlan,
    start: SimTime,
) -> Shard {
    let mut home_dev = std::mem::replace(&mut world.devices[req.home.0], placeholder_device());
    let mut guest_dev = std::mem::replace(&mut world.devices[req.guest.0], placeholder_device());
    let mut telemetry = if world.telemetry.is_enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let home_lane = home_dev.lane;
    let guest_lane = guest_dev.lane;
    home_dev.lane = telemetry.lane(&home_dev.name);
    guest_dev.lane = telemetry.lane(&guest_dev.name);
    // Pairings are keyed by the *home device id*; inside the shard the
    // home is device 0. Preserve whatever the guest already keyed at 0.
    let displaced = if req.home.0 != 0 {
        let pairing = guest_dev.pairings.remove(&req.home.0);
        let displaced = guest_dev.pairings.remove(&0);
        if let Some(p) = pairing {
            guest_dev.pairings.insert(0, p);
        }
        displaced
    } else {
        None
    };
    let mut clock = SimClock::new();
    clock.advance_to(start);
    let shard = FluxWorld {
        clock,
        net: world.net.with_rng(rng),
        telemetry,
        policy: world.policy,
        recording: world.recording,
        fault_plan: plan,
        devices: vec![home_dev, guest_dev],
    };
    Shard {
        world: shard,
        home: req.home,
        guest: req.guest,
        home_lane,
        guest_lane,
        displaced,
    }
}

/// Moves the shard's devices back into the main world, undoing the lane
/// and pairing-key remaps, and returns the shard's telemetry record.
fn reattach(world: &mut FluxWorld, shard: Shard) -> Telemetry {
    let mut shard_world = shard.world;
    let mut guest_dev = shard_world.devices.pop().expect("shard guest");
    let mut home_dev = shard_world.devices.pop().expect("shard home");
    home_dev.lane = shard.home_lane;
    guest_dev.lane = shard.guest_lane;
    if shard.home.0 != 0 {
        if let Some(p) = guest_dev.pairings.remove(&0) {
            guest_dev.pairings.insert(shard.home.0, p);
        }
        if let Some(p) = shard.displaced {
            guest_dev.pairings.insert(0, p);
        }
    }
    world.devices[shard.home.0] = home_dev;
    world.devices[shard.guest.0] = guest_dev;
    shard_world.telemetry
}

/// Runs the engine inside a detached shard (home = 0, guest = 1), takes
/// the slice schedule it recorded and reattaches the shard. The shard
/// clock opened at `start`, so the wall time is the clock's progress past
/// it.
fn run_in_shard(
    world: &mut FluxWorld,
    mut shard: Shard,
    req: &MigrationRequest,
    start: SimTime,
) -> ExecutedMigration {
    let (result, schedule) = engine::driver::run(
        &mut shard.world,
        DeviceId(0),
        DeviceId(1),
        &req.package,
        &req.cfg,
        &req.interrupts,
    );
    let now = shard.world.clock.now();
    shard.world.telemetry.finish(now);
    ExecutedMigration {
        outcome: classify(result),
        schedule,
        wall: now.since(start),
        telemetry: reattach(world, shard),
    }
}

/// Executes a request that cannot be sharded (unknown device, home ==
/// guest) against the main world. The engine refuses such requests
/// pre-flight, before consuming virtual time or randomness.
fn execute_direct(world: &mut FluxWorld, req: &MigrationRequest) -> ExecutedMigration {
    let t0 = world.clock.now();
    let (result, schedule) = engine::driver::run(
        world,
        req.home,
        req.guest,
        &req.package,
        &req.cfg,
        &req.interrupts,
    );
    ExecutedMigration {
        outcome: classify(result),
        schedule,
        wall: world.clock.now().since(t0),
        telemetry: Telemetry::disabled(),
    }
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

/// The empty interface table of [`placeholder_device`]'s host.
static NO_INTERFACES: BTreeMap<String, CompiledInterface> = BTreeMap::new();

/// A hollow stand-in occupying a detached device's slot so indices stay
/// stable while the real device is out in a shard. Never observed: the
/// shard runs alone and is reattached before the next request starts.
fn placeholder_device() -> Device {
    Device {
        name: String::new(),
        profile: DeviceProfile::nexus4(),
        kernel: Kernel::new("0"),
        host: ServiceHost::new(Pid(0), &NO_INTERFACES),
        fs: flux_fs::SimFs::new(),
        apps: BTreeMap::new(),
        specs: BTreeMap::new(),
        records: RecordStore::default(),
        cost: CostModel::reference(),
        pairings: BTreeMap::new(),
        lane: LaneId::WORLD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, home: usize, guest: usize) -> MigrationRequest {
        MigrationRequest::new(id, DeviceId(home), DeviceId(guest), "app")
    }

    #[test]
    fn canonical_order_sorts_by_priority_then_id() {
        let requests = vec![req(3, 0, 1), req(1, 2, 3).with_priority(1), req(2, 4, 5)];
        assert_eq!(canonical_order(&requests), vec![1, 2, 0]);
    }
}
