//! Mid-stage interrupt delivery, property-tested.
//!
//! The interruptible engine's contract: lifecycle events anchored to
//! in-flight stages land on slice boundaries deterministically — the
//! same schedule replays byte-identically for any interrupt mix — and a
//! schedule that never comes due is indistinguishable from no schedule
//! at all (the arming machinery must cost nothing observable, which is
//! what keeps the golden pins byte-stable).

mod common;

use flux_core::{
    migrate, FleetConfig, FleetScheduler, FluxWorld, LifecycleEvent, MigrationConfig,
    MigrationRequest, MigrationSpec, MigrationStage, RetryPolicy,
};
use flux_simcore::SimDuration;
use flux_telemetry::export::{chrome_trace, json_snapshot};
use proptest::prelude::*;

/// Migratable Table 3 apps (no `multi_process`, no `preserve_egl`).
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];

/// One randomly drawn stage-anchored interrupt. Pause and Stop may
/// anchor anywhere; a Kill delivered after the image ships would race
/// the guest hand-off the paper scopes out, so kills stay on the
/// stages that still own home-side state.
fn interrupt_spec(
    stage_sel: usize,
    event_sel: usize,
    offset_ms: u64,
) -> (MigrationStage, SimDuration, LifecycleEvent) {
    let event = [
        LifecycleEvent::Pause,
        LifecycleEvent::Stop,
        LifecycleEvent::Kill,
    ][event_sel % 3];
    let stages = if event == LifecycleEvent::Kill {
        &[
            MigrationStage::Preparation,
            MigrationStage::Checkpoint,
            MigrationStage::Transfer,
        ][..]
    } else {
        &MigrationStage::ALL[..]
    };
    (
        stages[stage_sel % stages.len()],
        SimDuration::from_millis(offset_ms),
        event,
    )
}

fn requests_for(
    pairs: &[(flux_core::DeviceId, flux_core::DeviceId, String)],
    plans: &[(usize, usize, u64)],
    victim: Option<u64>,
) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req = MigrationRequest::new(id, *home, *guest, pkg);
            if let Some(&(s, e, ms)) = plans.get(i) {
                let (stage, offset, event) = interrupt_spec(s, e, ms);
                req = req.with_interrupt(stage, offset, event);
            }
            if victim == Some(id) {
                req = req
                    .with_faults(common::blanket_drops())
                    .with_config(MigrationConfig {
                        retry: RetryPolicy::none(),
                        ..MigrationConfig::default()
                    });
            }
            req
        })
        .collect()
}

/// Everything observable from one fleet run, rendered to bytes.
fn run_image(
    mut world: FluxWorld,
    requests: Vec<MigrationRequest>,
    limit: usize,
) -> (String, flux_simcore::SimTime, String, String) {
    let report = FleetScheduler::new(FleetConfig {
        max_in_flight: limit,
        ..FleetConfig::default()
    })
    .unwrap()
    .run(&mut world, requests)
    .unwrap();
    let now = world.clock.now();
    world.telemetry.finish(now);
    (
        format!("{report:?}"),
        now,
        chrome_trace(&world.telemetry),
        json_snapshot(&world.telemetry),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mix of stage-anchored interrupts and fault plans replays
    /// byte-identically: a second pass over the same seed produces the
    /// same report, clock and telemetry at every admission limit.
    #[test]
    fn interrupted_fleets_are_deterministic_and_executor_invisible(
        seed in 0..100_000u64,
        n in 2..5usize,
        limit in 1..4usize,
        plans in prop::collection::vec((0..8usize, 0..3usize, 0..4_000u64), 4),
        victim_sel in 0..8u64,
    ) {
        let apps = &POOL[..n];
        let victim = (victim_sel < n as u64).then_some(victim_sel + 1);

        let (world, pairs) = common::fleet_world(apps, seed);
        let baseline = run_image(world, requests_for(&pairs, &plans, victim), limit);

        // Slice-boundary determinism: an identical second pass.
        let (world, pairs) = common::fleet_world(apps, seed);
        let second = run_image(world, requests_for(&pairs, &plans, victim), limit);
        prop_assert_eq!(&baseline, &second, "serial double pass diverged");
    }

    /// An interrupt that never comes due is invisible: the run is
    /// byte-identical to one with no schedule at all. (Arming rides the
    /// timeline; pricing must not change until something is delivered.)
    #[test]
    fn never_due_interrupts_leave_the_run_byte_identical(
        seed in 0..100_000u64,
        app_sel in 0..POOL.len(),
        stage_sel in 0..8usize,
        event_sel in 0..3usize,
    ) {
        let (stage, _, event) = interrupt_spec(stage_sel, event_sel, 0);

        let (mut world, home, guest, pkg) = common::staged(POOL[app_sel], seed);
        let bare = migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
        let bare_clock = world.clock.now();

        let (mut world, home, guest, pkg) = common::staged(POOL[app_sel], seed);
        let spec = MigrationSpec::new(&pkg)
            .between(home, guest)
            // Armed when the stage enters, due an hour after the whole
            // migration has finished: never delivered.
            .interrupt(stage, SimDuration::from_secs(3_600), event);
        let armed = migrate(&mut world, spec).unwrap();

        prop_assert!(armed.interrupts.is_empty(), "nothing may be delivered");
        prop_assert_eq!(format!("{bare:?}"), format!("{armed:?}"));
        prop_assert_eq!(bare_clock, world.clock.now());
    }
}
