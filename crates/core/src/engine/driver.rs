//! The engine driver: the one control loop that owns retry/backoff,
//! telemetry span emission, ledger accounting and rollback unwinding.
//!
//! The one public migration entry point, [`migrate`], takes a
//! [`MigrationSpec`] and funnels — like the fleet executor — into the
//! crate-internal `run`, which executes [`ATTEMPT_STAGES`] in order
//! through one uniform stage wrapper. A retryable fault re-enters the
//! loop with exponential backoff, resuming from the first incomplete
//! stage; a fatal failure (or an exhausted retry budget) unwinds the
//! stages in reverse and verifies the rollback invariants. The driver is
//! the only place spans are opened and closed for stages, busy time is
//! accumulated, and rollback ordering is decided. It also brackets every
//! stage, the backoff and the rollback in the run's `SliceLog`, which
//! the executor hands to the fleet scheduler as the migration's slice
//! schedule.

use super::ctx::{MigCtx, Progress};
use super::failure::StageFailure;
use super::finalise::Finalise;
use super::interrupt::InterruptSource;
use super::slices::{Slice, SliceLog};
use super::{preflight, Stage, StageCtx, Yield, ATTEMPT_STAGES};
use crate::errors::FluxError;
use crate::migration::{MigrationConfig, MigrationReport, MigrationSpec, StageInterrupt};
use crate::world::{DeviceId, FluxWorld};
use flux_appfw::LifecycleEvent;
use flux_simcore::{FaultPlan, SimTime, TraceKind};
use flux_telemetry::LaneId;

/// Migrates an app as described by `spec`.
///
/// In the UI this is the two-finger vertical swipe of Figure 1; here it is
/// the full §3.1 life cycle. On success the app is gone from the home
/// device (its icon remains conceptually; the spec stays installed) and
/// runs on the guest with the same PID, Binder handles, notifications,
/// alarms and sensor channels it had at home. On failure the world rolls
/// back to the pre-migration state and the error says why.
///
/// A spec-carried fault schedule is shifted onto the world clock for the
/// duration of the run, then the ambient plan is restored.
///
/// # Errors
///
/// [`FluxError::Config`] when the spec has no route; otherwise whatever
/// the engine refuses or fails with.
pub fn migrate(world: &mut FluxWorld, spec: MigrationSpec) -> Result<MigrationReport, FluxError> {
    let (home, guest) = spec.route.ok_or_else(|| {
        FluxError::Config(
            "migration spec has no route: set MigrationSpec::between(home, guest)".into(),
        )
    })?;
    let ambient = spec.faults.map(|plan| {
        let shifted = plan.shifted_by(world.clock.now().since(SimTime::ZERO));
        std::mem::replace(&mut world.fault_plan, shifted)
    });
    let (result, _) = run(
        world,
        home,
        guest,
        &spec.package,
        &spec.cfg,
        &spec.interrupts,
    );
    if let Some(plan) = ambient {
        world.fault_plan = plan;
    }
    result
}

/// The engine entry point: admits the migration, then drives the stage
/// pipeline under `cfg` until it completes, exhausts its retry budget, or
/// hits a fatal failure and rolls back. Each [`StageInterrupt`] is armed
/// when its anchor stage first enters and delivered at the next slice
/// boundary the clock crosses.
///
/// Returns the outcome with the run's [`Slice`] schedule, which tiles the
/// clock's progress over the call (empty for a pre-flight refusal, which
/// charges nothing).
pub(crate) fn run(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
    cfg: &MigrationConfig,
    interrupts: &[StageInterrupt],
) -> (Result<MigrationReport, FluxError>, Vec<Slice>) {
    let mut prog = Progress {
        log: SliceLog::new(world.clock.now()),
        ..Progress::default()
    };
    let result = drive(world, home, guest, package, cfg, interrupts, &mut prog);
    (result, prog.log.finish(world.clock.now()))
}

/// [`run`]'s body, recording into `prog` so the slice log outlives every
/// exit path.
fn drive(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
    cfg: &MigrationConfig,
    interrupts: &[StageInterrupt],
    prog: &mut Progress,
) -> Result<MigrationReport, FluxError> {
    world.telemetry.counter_add("flux.engine.runs", 1);
    let policy = &cfg.retry;
    preflight::check(world, home, guest, package)?;

    let mig = MigCtx::gather(world, home, guest, package, cfg)?;
    // The fault plan is pinned at admission so a concurrent scheduler
    // swapping plans cannot perturb an in-flight migration.
    let plan = world.fault_plan.clone();
    let mut ints = InterruptSource::new(interrupts);

    let mig_span = world
        .telemetry
        .enter(LaneId::WORLD, "migration", world.clock.now());
    // Settles abandoned device-lane stage spans (from fatally failed
    // stages) and accounts the migration-level counters on a terminal
    // path.
    let settle = |world: &mut FluxWorld, prog: &Progress| {
        let now = world.clock.now();
        world.telemetry.finish_lane(mig.home_lane, now);
        world.telemetry.finish_lane(mig.guest_lane, now);
        world
            .telemetry
            .counter_add("flux.migration.attempts", u64::from(prog.attempts));
        world
            .telemetry
            .counter_add("flux.migration.faults", u64::from(prog.faults));
        world.telemetry.exit(mig_span, now);
    };

    loop {
        prog.attempts += 1;
        match run_attempt(world, &mig, &plan, prog, &mut ints) {
            Ok(()) => {
                settle(world, prog);
                Finalise.run(&mut StageCtx::new(world, &mig, &plan, prog, &mut ints))?;
                return Ok(build_report(&mig, prog, ints.take_delivered()));
            }
            Err(StageFailure::FaultAborted { stage, detail, .. }) => {
                prog.faults += 1;
                let now = world.clock.now();
                world.telemetry.emit_kind(
                    now,
                    TraceKind::Fault,
                    "migration.fault",
                    format!("{stage}: {detail}"),
                );
                if prog.attempts >= policy.max_attempts {
                    let attempts = prog.attempts;
                    if let Err(re) = unwind(world, &mig, &plan, prog, &mut ints) {
                        settle(world, prog);
                        return Err(re);
                    }
                    settle(world, prog);
                    return Err(StageFailure::FaultAborted {
                        stage,
                        attempts,
                        detail,
                    }
                    .into());
                }
                let backoff = policy.backoff_after(prog.attempts);
                let backoff_from = world.clock.now();
                let backoff_span =
                    world
                        .telemetry
                        .enter(LaneId::WORLD, "migration.backoff", backoff_from);
                prog.log.enter("backoff", backoff_from);
                world.clock.charge(backoff);
                prog.log.exit(world.clock.now());
                world.telemetry.exit(backoff_span, world.clock.now());
                prog.backoff += backoff;
                world.telemetry.counter_add("flux.migration.retries", 1);
                world.telemetry.emit_kind(
                    world.clock.now(),
                    TraceKind::Retry,
                    "migration.retry",
                    format!(
                        "attempt {} of {} resumes at {stage} after {backoff} backoff",
                        prog.attempts + 1,
                        policy.max_attempts
                    ),
                );
            }
            Err(fatal) => {
                if let Err(re) = unwind(world, &mig, &plan, prog, &mut ints) {
                    settle(world, prog);
                    return Err(re);
                }
                settle(world, prog);
                return Err(fatal.into());
            }
        }
    }
}

/// Runs one attempt: every pipeline stage in order, each through the
/// uniform [`run_stage`] wrapper, resuming from the first incomplete
/// stage.
fn run_attempt(
    world: &mut FluxWorld,
    mig: &MigCtx,
    plan: &FaultPlan,
    prog: &mut Progress,
    ints: &mut InterruptSource,
) -> Result<(), StageFailure> {
    for stage in ATTEMPT_STAGES {
        run_stage(stage, world, mig, plan, prog, ints)?;
    }
    Ok(())
}

/// The one stage wrapper: span entry/exit, busy-time accumulation, and
/// the fatal-versus-retryable span discipline live here and nowhere else.
fn run_stage(
    stage: &dyn Stage,
    world: &mut FluxWorld,
    mig: &MigCtx,
    plan: &FaultPlan,
    prog: &mut Progress,
    ints: &mut InterruptSource,
) -> Result<(), StageFailure> {
    let mut cx = StageCtx::new(world, mig, plan, prog, ints);
    if !stage.pending(&cx) {
        return Ok(());
    }
    // Interrupt specs anchored to this stage become absolute delivery
    // times now, at first entry (a retried stage re-arms nothing).
    if let Some(anchor) = stage.anchor() {
        let now = cx.world.clock.now();
        cx.interrupts.arm(anchor, now);
    }
    let t0 = cx.world.clock.now();
    cx.prog.log.enter(stage.name(), t0);
    let lane = stage.lane(&cx);
    let span = cx.world.telemetry.enter(lane, stage.span_name(), t0);
    let result = run_slices(stage, &mut cx);
    // Whatever the outcome, the stage owned the clock over [t0, now]; the
    // slice log closes the bracket so the fleet scheduler can replay the
    // pipeline stage by stage.
    cx.prog.log.exit(cx.world.clock.now());
    match &result {
        Err(f) if !f.is_retryable() => {
            // Fatal: the span is deliberately left open — the terminal
            // settle's lane finish closes it, so the trace shows the stage
            // as abandoned mid-flight.
            cx.prog.busy_override = None;
        }
        _ => {
            // A faulted stage still did (and charged for) its work, as a
            // completed one did: its busy time counts, and its span
            // closes cleanly.
            let now = cx.world.clock.now();
            let busy = cx.prog.busy_override.take().unwrap_or(now - t0);
            if let Some(slot) = stage.times_slot(&mut cx.prog.times) {
                *slot += busy;
            }
            cx.world.telemetry.exit(span, now);
        }
    }
    result
}

/// Drives one stage slice by slice: due interrupts are delivered at every
/// boundary (entry and completion included) and [`Yield::Progress`]
/// loops. With nothing armed this collapses to exactly one `run` chain
/// with free boundary checks — the undisturbed path.
fn run_slices(stage: &dyn Stage, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
    loop {
        deliver_due(stage, cx)?;
        if stage.run(cx)? == Yield::Done {
            return deliver_due(stage, cx);
        }
    }
}

/// Delivers every armed interrupt due at or before the current instant.
///
/// `Pause`/`Stop` reach the home app's save point and the migration
/// carries on; a `Kill` during the preparation window — before the dump
/// exists — merely resets the quiesce so the cold-restarted process is
/// frozen afresh, while a `Kill` anywhere later is fatal: the in-flight
/// image describes a process that no longer exists, so the attempt
/// returns [`StageFailure::Interrupted`] and the driver rolls back. An
/// event due while the home app is already gone lands on nothing and is
/// dropped (the world relaunches on kill, so this only covers races
/// within a single boundary).
fn deliver_due(stage: &dyn Stage, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
    while let Some(int) = cx.interrupts.pop_due(cx.world.clock.now()) {
        let now = cx.world.clock.now();
        let package = cx.mig.package.as_str();
        if !cx.world.device(cx.mig.home)?.apps.contains_key(package) {
            continue;
        }
        cx.world.telemetry.emit_kind(
            now,
            TraceKind::Fault,
            "migration.interrupt",
            format!(
                "{:?} anchored to {} delivered during {}",
                int.event,
                int.stage,
                stage.name()
            ),
        );
        cx.world.lifecycle_event(cx.mig.home, package, int.event)?;
        cx.interrupts.record(int.stage, now, int.event);
        if int.event == LifecycleEvent::Kill {
            if stage.anchor() == Some(crate::migration::MigrationStage::Preparation)
                && !cx.prog.prep_done
            {
                // Nothing has shipped: quiesce the relaunched process
                // again and the attempt proceeds as if freshly entered.
                cx.prog.prep_quiesced = false;
            } else {
                // The frozen image no longer matches a live process. The
                // prep flags are cleared so rollback skips the foreground
                // re-init — the cold-started app is already foreground.
                cx.prog.prep_quiesced = false;
                cx.prog.prep_done = false;
                return Err(StageFailure::Interrupted {
                    stage: int.stage,
                    event: int.event,
                });
            }
        }
    }
    Ok(())
}

/// Rolls the world back to its pre-migration state: every attempt stage
/// is unwound in reverse pipeline order, then invariant checks verify
/// that the home-side app is foregrounded and running and the guest holds
/// no residue. An invariant failure is the only error.
fn unwind(
    world: &mut FluxWorld,
    mig: &MigCtx,
    plan: &FaultPlan,
    prog: &mut Progress,
    ints: &mut InterruptSource,
) -> Result<(), FluxError> {
    let package = mig.package.as_str();
    let now = world.clock.now();
    prog.log.enter("rollback", now);
    // Stage spans abandoned by the failing attempt must not swallow the
    // rollback work into their duration.
    world.telemetry.finish_lane(mig.home_lane, now);
    world.telemetry.finish_lane(mig.guest_lane, now);
    let span = world
        .telemetry
        .enter(LaneId::WORLD, "migration.rollback", now);
    world.telemetry.counter_add("flux.migration.rollbacks", 1);
    world.telemetry.emit_kind(
        now,
        TraceKind::Rollback,
        "migration.rollback",
        format!(
            "{package}: tearing down guest state, resuming on {}",
            mig.home_name
        ),
    );

    {
        let mut cx = StageCtx::new(world, mig, plan, prog, ints);
        for stage in ATTEMPT_STAGES.iter().rev() {
            stage.rollback(&mut cx)?;
        }
    }

    // Invariant checks: home app foregrounded and running, no guest residue.
    let home_dev = world
        .device(mig.home)
        .map_err(|e| StageFailure::RollbackFailed {
            reason: e.to_string(),
        })?;
    let app = home_dev
        .apps
        .get(package)
        .ok_or_else(|| StageFailure::RollbackFailed {
            reason: "home app missing after rollback".into(),
        })?;
    if app.top_state() != Some(flux_appfw::ActivityState::Resumed) {
        return Err(StageFailure::RollbackFailed {
            reason: format!("home activity not resumed: {:?}", app.top_state()),
        }
        .into());
    }
    if home_dev.kernel.process(app.main_pid).is_err() {
        return Err(StageFailure::RollbackFailed {
            reason: "home process gone after rollback".into(),
        }
        .into());
    }
    let guest_dev = world
        .device(mig.guest)
        .map_err(|e| StageFailure::RollbackFailed {
            reason: e.to_string(),
        })?;
    if guest_dev.apps.contains_key(package) {
        return Err(StageFailure::RollbackFailed {
            reason: "guest still holds the app after rollback".into(),
        }
        .into());
    }
    if guest_dev.fs.exists(&mig.staged_path) {
        return Err(StageFailure::RollbackFailed {
            reason: "staged chunks leaked on the guest".into(),
        }
        .into());
    }
    if guest_dev.fs.exists(&mig.precopy_path) {
        return Err(StageFailure::RollbackFailed {
            reason: "pre-copy data leaked on the guest".into(),
        }
        .into());
    }
    world.telemetry.emit_kind(
        world.clock.now(),
        TraceKind::Rollback,
        "migration.rollback",
        format!("{package}: home-side invariants verified"),
    );
    let done = world.clock.now();
    prog.log.exit(done);
    world.telemetry.exit(span, done);
    Ok(())
}

/// Assembles the success report from the settled progress record.
fn build_report(
    mig: &MigCtx,
    prog: &mut Progress,
    interrupts: Vec<crate::migration::InterruptRecord>,
) -> MigrationReport {
    MigrationReport {
        package: mig.package.clone(),
        from: mig.home_name.clone(),
        to: mig.guest_name.clone(),
        stages: prog.times,
        ledger: prog.ledger(),
        replay: prog.replay.take().expect("reintegration completed"),
        dropped_connections: std::mem::take(&mut prog.dropped_connections),
        redrawn_views: prog.redrawn,
        attempts: prog.attempts,
        faults: prog.faults,
        backoff: prog.backoff,
        interrupts,
    }
}
