//! Table-driven regression scenarios for the fleet migration engine.
//!
//! Each scenario stages one device pair per app, submits the batch through
//! the [`FleetScheduler`] and asserts per-app state integrity through the
//! shared data-loss oracle ([`OracleSnapshot`]) — the conditions
//! Riganelli et al.'s benchmark shows concurrent Android systems get
//! wrong: record logs replayed exactly once, app data trees intact on the
//! target, rolled-back migrations leaving their home device
//! byte-identical and their guest residue-free.
//!
//! The suite also pins the fleet path's fidelity: a single-request fleet
//! must reproduce a direct `migrate` run's report *exactly* (same Debug
//! rendering, same stage times) once the direct run is handed the same
//! forked RNG stream the executor assigns request 1, with the fleet
//! makespan equal to the report's wall total. And it pins the
//! executor's contract with the world it runs in: executing a batch
//! leaves the world's clock, fault plan, telemetry hub, device lanes and
//! pairing keys as it found them.

mod common;

use flux_appfw::ActivityState;
use flux_core::{
    migrate, pair, DeviceId, Executor, FleetConfig, FleetOutcome, FleetScheduler, MigrationConfig,
    MigrationRequest, MigrationSpec, OracleSnapshot, RetryPolicy, ScenarioOutcome, SerialExecutor,
    FLEET_RNG_STREAM,
};
use flux_simcore::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use flux_telemetry::json_snapshot;

struct Scenario {
    name: &'static str,
    apps: &'static [&'static str],
    max_in_flight: usize,
    /// Request id (1-based position) that gets [`blanket_drops`] and a
    /// no-retry policy, forcing a mid-transfer rollback.
    drop_victim: Option<u64>,
    /// Per-request admission priorities.
    priorities: &'static [u8],
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "single request",
        apps: &["WhatsApp"],
        max_in_flight: 2,
        drop_victim: None,
        priorities: &[0],
    },
    Scenario {
        name: "two concurrent",
        apps: &["WhatsApp", "Twitter"],
        max_in_flight: 2,
        drop_victim: None,
        priorities: &[0, 0],
    },
    Scenario {
        name: "three concurrent, one dropped mid-flight",
        apps: &["WhatsApp", "Twitter", "Instagram"],
        max_in_flight: 3,
        drop_victim: Some(2),
        priorities: &[0, 0, 0],
    },
    Scenario {
        name: "serialised with priorities",
        apps: &["WhatsApp", "Twitter"],
        max_in_flight: 1,
        drop_victim: None,
        priorities: &[0, 5],
    },
];

#[test]
fn scenarios_preserve_per_app_state_under_contention() {
    for s in &SCENARIOS {
        let (mut world, pairs) = common::fleet_world(s.apps, 9001);

        // Snapshot each home app's promised state through the shared
        // data-loss oracle (data tree + record-log length).
        let mut pre = Vec::new();
        for (home, guest, pkg) in &pairs {
            let snap = OracleSnapshot::capture(&world, *home, *guest, pkg).unwrap();
            assert!(snap.file_count() > 0, "{}: {pkg} staged no data", s.name);
            pre.push(snap);
        }

        let requests: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, (home, guest, pkg))| {
                let id = i as u64 + 1;
                let mut req =
                    MigrationRequest::new(id, *home, *guest, pkg).with_priority(s.priorities[i]);
                if s.drop_victim == Some(id) {
                    req = req
                        .with_faults(common::blanket_drops())
                        .with_config(MigrationConfig {
                            retry: RetryPolicy::none(),
                            ..MigrationConfig::default()
                        });
                }
                req
            })
            .collect();

        let scheduler = FleetScheduler::new(FleetConfig {
            max_in_flight: s.max_in_flight,
            ..FleetConfig::default()
        })
        .unwrap();
        let report = scheduler.run(&mut world, requests).unwrap();

        assert_eq!(
            report.flights.len(),
            s.apps.len(),
            "{}: every request reaches a terminal outcome",
            s.name
        );
        assert!(report.peak_in_flight <= s.max_in_flight, "{}", s.name);

        for (flight, ((_, guest, pkg), pre)) in report.flights.iter().zip(pairs.iter().zip(&pre)) {
            let ctx = format!("{}: {pkg}", s.name);
            // The shared oracle carries all the data-loss checks: replay
            // coverage, guest-mirror byte-equality, rollback invariants.
            let verdict = pre.verdict_for(&world, &flight.outcome);
            assert!(
                verdict.is_clean(),
                "{ctx}: {:?} -> {:?}",
                verdict.outcome,
                verdict.failures
            );
            if s.drop_victim == Some(flight.id) {
                // The victim — and only the victim — rolled back.
                assert_eq!(
                    verdict.outcome,
                    ScenarioOutcome::RolledBack,
                    "{ctx}: expected rollback, got {:?}",
                    flight.outcome
                );
            } else {
                assert_eq!(
                    verdict.outcome,
                    ScenarioOutcome::Completed,
                    "{ctx}: expected completion, got {:?}",
                    flight.outcome
                );
                // Beyond the oracle's guarantees: the app is foregrounded
                // on the guest.
                let guest_dev = world.device(*guest).unwrap();
                let app = guest_dev.apps.get(pkg).expect("app on guest");
                assert_eq!(app.top_state(), Some(ActivityState::Resumed), "{ctx}");
            }
        }

        // Scheduling-shape assertions.
        match s.name {
            "two concurrent" | "three concurrent, one dropped mid-flight" => {
                // All admitted together at batch open.
                for flight in &report.flights {
                    assert_eq!(flight.admitted_at, report.started_at, "{}", s.name);
                }
                assert!(report.peak_in_flight >= 2, "{}", s.name);
                assert!(
                    report.makespan < report.serialized_makespan,
                    "{}: concurrency must beat serialization",
                    s.name
                );
            }
            "serialised with priorities" => {
                // Priority 5 (request 2) admits before priority 0
                // (request 1) even though its id is larger.
                let by_id = &report.flights;
                assert!(
                    by_id[1].admitted_at < by_id[0].admitted_at,
                    "{}: high priority admits first",
                    s.name
                );
                assert_eq!(report.peak_in_flight, 1, "{}", s.name);
                assert_eq!(report.makespan, report.serialized_makespan, "{}", s.name);
            }
            _ => {}
        }
    }
}

#[test]
fn single_request_fleet_matches_direct_migrate_exactly() {
    // Two identically-seeded worlds: one migrates directly, one through
    // the fleet path. The underlying engine must be indistinguishable.
    let (mut direct, pairs_d) = common::fleet_world(&["WhatsApp"], 4242);
    let (mut fleet, pairs_f) = common::fleet_world(&["WhatsApp"], 4242);
    let (home_d, guest_d, pkg) = pairs_d[0].clone();
    let (home_f, guest_f, _) = pairs_f[0].clone();

    // The executor forks one RNG root off the world's network stream per
    // batch, then gives each request the root's id-keyed fork; hand the
    // direct world request 1's exact stream.
    let mut root = direct.net.fork_rng(FLEET_RNG_STREAM);
    direct.net.set_rng(root.fork(1));
    let reference = migrate(
        &mut direct,
        MigrationSpec::new(&pkg)
            .between(home_d, guest_d)
            .config(MigrationConfig::default()),
    )
    .unwrap();
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(
            &mut fleet,
            vec![MigrationRequest::new(1, home_f, guest_f, &pkg)],
        )
        .unwrap();

    assert_eq!(report.flights.len(), 1);
    let flight = &report.flights[0];
    let fleet_report = flight.outcome.report().expect("completed");

    // The underlying report is byte-identical to the direct run's.
    assert_eq!(format!("{reference:?}"), format!("{fleet_report:?}"));
    // The world clocks marched in lockstep.
    assert_eq!(direct.clock.now(), fleet.clock.now());
    // The fleet timeline reproduces the serial figures exactly: zero
    // queue wait, a transfer window of exactly the transfer stage, and a
    // makespan of exactly the report's wall total.
    assert_eq!(flight.queue_wait(), SimDuration::ZERO);
    assert_eq!(
        flight.transfer_end.since(flight.transfer_start),
        reference.stages.transfer
    );
    assert_eq!(report.makespan, reference.stages.wall_total());
    assert_eq!(report.makespan, report.serialized_makespan);
    assert_eq!(report.completed, 1);
}

/// A congestion spike of `magnitude` from `at_ms` for one second.
fn spike(at_ms: u64, magnitude: f64) -> FaultPlan {
    FaultPlan::from_events(vec![FaultEvent {
        at: SimTime::from_millis(at_ms),
        kind: FaultKind::CongestionSpike,
        duration: SimDuration::from_secs(1),
        magnitude,
    }])
}

#[test]
fn serial_executor_leaves_the_world_context_as_it_found_it() {
    // Guest g00 pairs with two homes: h00 (device 0) and h01 (device 2).
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 5151);
    let (h0, g0, whatsapp) = pairs[0].clone();
    let (h1, _, twitter) = pairs[1].clone();
    pair(&mut world, h1, g0).unwrap();
    world.fault_plan = spike(1_500, 1.5);
    let requests = vec![
        MigrationRequest::new(1, h1, g0, &twitter).with_faults(spike(800, 2.0)),
        MigrationRequest::new(2, h0, DeviceId(99), &whatsapp),
        MigrationRequest::new(3, h0, h0, &whatsapp),
        MigrationRequest::new(4, h0, g0, &whatsapp),
    ];

    let clock = world.clock.now();
    let plan = world.fault_plan.clone();
    let snapshot = json_snapshot(&world.telemetry);
    let lanes: Vec<_> = world.devices.iter().map(|d| d.lane).collect();
    let keys = |world: &flux_core::FluxWorld| -> Vec<Vec<usize>> {
        world
            .devices
            .iter()
            .map(|d| d.pairings.keys().copied().collect())
            .collect()
    };
    let pairing_keys = keys(&world);
    assert_eq!(pairing_keys[g0.0], vec![h0.0, h1.0]);

    let executed = SerialExecutor.execute(&mut world, &requests);
    let statuses: Vec<_> = executed
        .iter()
        .map(|e| match e.outcome() {
            FleetOutcome::Completed(_) => "completed",
            FleetOutcome::RolledBack { .. } => "rolled back",
            FleetOutcome::Refused { .. } => "refused",
        })
        .collect();
    assert_eq!(statuses, ["completed", "refused", "refused", "completed"]);

    assert_eq!(world.clock.now(), clock, "execution moved the world clock");
    assert_eq!(
        world.fault_plan, plan,
        "execution left a request plan behind"
    );
    assert_eq!(
        json_snapshot(&world.telemetry),
        snapshot,
        "execution wrote into the world hub before admission"
    );
    let after: Vec<_> = world.devices.iter().map(|d| d.lane).collect();
    assert_eq!(after, lanes, "a device kept a private lane");
    assert_eq!(keys(&world), pairing_keys, "a pairing moved to another key");
}
