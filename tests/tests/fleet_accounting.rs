//! The fleet's slice-accounting invariant, promoted from a debug
//! assertion to a tested contract.
//!
//! The engine records each migration's slice schedule as its clock
//! moves, and the fleet scheduler re-times those slices on the shared
//! radio medium. Every schedule must tile the wall its executor
//! measured, hold no empty slice and no zero-byte transfer, and come out
//! the same on a second pass. This suite constructs the schedules most
//! likely to break that — saturated admission, mid-flight rollbacks,
//! contended priorities, mid-stage interrupts riding the engine's slice
//! boundaries — and pins two schedules slice by slice.

mod common;

use flux_core::{
    ExecutedMigration, Executor, FleetConfig, FleetScheduler, LifecycleEvent, MigrationConfig,
    MigrationRequest, MigrationStage, RetryPolicy, SerialExecutor, Slice, SliceKind,
};
use flux_simcore::{ByteSize, SimDuration};

/// The Table 3 slice the grid migrates: a size spread wide enough that
/// admitted flights constantly overlap on the radio medium.
const APPS: [&str; 6] = [
    "WhatsApp",
    "Twitter",
    "Instagram",
    "Candy Crush Saga",
    "Snapchat",
    "Vine",
];

fn requests(pairs: &[(flux_core::DeviceId, flux_core::DeviceId, String)]) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req =
                MigrationRequest::new(id, *home, *guest, pkg).with_priority((i % 3) as u8);
            match id % 3 {
                // Every third flight rolls back mid-transfer …
                0 => {
                    req = req
                        .with_faults(common::blanket_drops())
                        .with_config(MigrationConfig {
                            retry: RetryPolicy::none(),
                            ..MigrationConfig::default()
                        });
                }
                // … and every third is interrupted mid-stage, so the
                // re-timed slices include interrupt-shortened windows.
                1 => {
                    req = req
                        .with_interrupt(
                            MigrationStage::Preparation,
                            SimDuration::from_millis(1),
                            LifecycleEvent::Kill,
                        )
                        .with_interrupt(
                            MigrationStage::Transfer,
                            SimDuration::from_secs(1),
                            LifecycleEvent::Pause,
                        );
                }
                _ => {}
            }
            req
        })
        .collect()
}

/// Executes the grid's requests on a fresh world and checks each
/// schedule: it sums to the measured wall, and no slice is empty or a
/// zero-byte transfer.
fn execute() -> Vec<ExecutedMigration> {
    let (mut world, pairs) = common::fleet_world(&APPS, common::SEED);
    let executed = SerialExecutor.execute(&mut world, &requests(&pairs));
    assert_eq!(executed.len(), APPS.len());
    for (i, exec) in executed.iter().enumerate() {
        let what = format!("request {}", i + 1);
        let total = exec
            .schedule()
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.dur);
        assert_eq!(
            total,
            exec.wall(),
            "{what}: schedule does not tile its wall"
        );
        for slice in exec.schedule() {
            assert!(
                slice.dur > SimDuration::ZERO,
                "{what}: empty slice {slice:?}"
            );
            if let SliceKind::Transfer { bytes } = slice.kind {
                assert!(
                    bytes > ByteSize::ZERO,
                    "{what}: zero-byte transfer {slice:?}"
                );
            }
        }
    }
    executed
}

fn schedules(executed: &[ExecutedMigration]) -> Vec<Vec<Slice>> {
    executed.iter().map(|e| e.schedule().to_vec()).collect()
}

#[test]
fn accounting_violations_stay_zero_across_overrun_prone_grids() {
    let serial = execute();
    assert_eq!(
        schedules(&serial),
        schedules(&execute()),
        "two serial passes recorded different schedules"
    );
    // Saturation axis: admit everything at once, serialise fully, and
    // the default in-between — each re-times the schedules differently,
    // and re-timing may only stretch them.
    for max_in_flight in [1, 2, APPS.len()] {
        let (mut world, pairs) = common::fleet_world(&APPS, common::SEED);
        let report = FleetScheduler::new(FleetConfig {
            max_in_flight,
            ..FleetConfig::default()
        })
        .unwrap()
        .run(&mut world, requests(&pairs))
        .unwrap();
        assert_eq!(report.flights.len(), APPS.len());
        for (flight, exec) in report.flights.iter().zip(&serial) {
            assert!(
                flight.finished_at.since(flight.admitted_at) >= exec.wall(),
                "max_in_flight {max_in_flight}: flight {} ran shorter than its executed wall",
                flight.id
            );
        }
        if max_in_flight == 1 {
            assert_eq!(report.makespan, report.serialized_makespan);
        }
    }
}

fn cpu(stage: &'static str, ns: u64) -> Slice {
    Slice {
        stage,
        kind: SliceKind::Cpu,
        dur: SimDuration::from_nanos(ns),
    }
}

fn air(stage: &'static str, bytes: u64, ns: u64) -> Slice {
    Slice {
        stage,
        kind: SliceKind::Transfer {
            bytes: ByteSize::from_bytes(bytes),
        },
        dur: SimDuration::from_nanos(ns),
    }
}

/// A pre-copy migration and a rolled-back one, pinned slice by slice:
/// stage labels, radio payloads and durations to the nanosecond.
#[test]
fn precopy_and_rollback_schedules_are_pinned() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], common::SEED);
    let requests = [
        MigrationRequest::new(1, pairs[0].0, pairs[0].1, &pairs[0].2).with_config(
            MigrationConfig {
                precopy: true,
                ..MigrationConfig::default()
            },
        ),
        MigrationRequest::new(2, pairs[1].0, pairs[1].1, &pairs[1].2)
            .with_faults(common::blanket_drops())
            .with_config(MigrationConfig {
                retry: RetryPolicy::none(),
                ..MigrationConfig::default()
            }),
    ];
    let executed = SerialExecutor.execute(&mut world, &requests);
    assert!(executed[0].outcome().is_completed());
    assert_eq!(
        executed[0].schedule(),
        [
            cpu("precopy", 804_605_856),
            air("precopy", 5_792_686, 2_191_195_862),
            cpu("precopy", 92_738_301),
            air("precopy", 666_091, 369_501_663),
            cpu("preparation", 421_936_836),
            cpu("checkpoint", 14_515_444),
            cpu("transfer", 47_254_732),
            air("transfer", 104_602, 157_727_714),
            cpu("restore", 860_272_830),
            cpu("reintegration", 38_162_000),
        ]
    );
    assert_eq!(executed[0].wall(), SimDuration::from_nanos(4_997_911_238));
    // Every handshake drops, so the one radio window ships nothing and
    // holds the devices as CPU time before the rollback.
    assert!(!executed[1].outcome().is_completed());
    assert_eq!(
        executed[1].schedule(),
        [
            cpu("preparation", 421_936_836),
            cpu("checkpoint", 1_147_555_785),
            cpu("transfer", 38_047_087),
            cpu("transfer", 192_460_292),
            cpu("rollback", 37_894_725),
        ]
    );
    assert_eq!(executed[1].wall(), SimDuration::from_nanos(1_837_894_725));
}
