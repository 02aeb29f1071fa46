//! Fleet-report serialization, property-tested.
//!
//! The `FleetReport` JSON emitted through the vendored `serde` facade
//! must parse with the vendored JSON parser and re-render
//! byte-identically (the parser stores number lexemes verbatim, so this
//! is exact). Rolled-back and refused flights serialize as tagged error
//! objects with their reasons, and documents written by earlier builds
//! still load.

mod common;

use flux_core::{
    FleetConfig, FleetOutcome, FleetReport, FleetScheduler, MigrationConfig, MigrationRequest,
    RetryPolicy,
};
use proptest::prelude::*;

/// Migratable Table 3 apps (no `multi_process`, no `preserve_egl`).
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];

fn requests_for(
    pairs: &[(flux_core::DeviceId, flux_core::DeviceId, String)],
    victim: Option<u64>,
) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req = MigrationRequest::new(id, *home, *guest, pkg);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The serialized `FleetReport` parses with the vendored JSON parser
    /// and re-renders byte-identically.
    #[test]
    fn fleet_report_json_round_trips(
        seed in 0..100_000u64,
        n in 2..4usize,
    ) {
        let apps = &POOL[..n];
        let (mut world, pairs) = common::fleet_world(apps, seed);
        let report = FleetScheduler::new(FleetConfig::default())
            .unwrap()
            .run(&mut world, requests_for(&pairs, None))
            .unwrap();

        let json = serde::to_json(&report);
        let parsed = serde::parse(&json);
        prop_assert!(parsed.is_ok(), "report JSON rejected: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(&serde::to_json(&parsed), &json);

        // Spot-check the tree: one flight object per request, all
        // completed, and the makespan lexeme matches the report.
        let flights = parsed.get("flights").and_then(|f| f.as_arr());
        prop_assert_eq!(flights.map(<[serde::JsonValue]>::len), Some(n));
        for flight in flights.unwrap() {
            let status = flight
                .get("outcome")
                .and_then(|o| o.get("status"))
                .and_then(|s| s.as_str());
            prop_assert_eq!(status, Some("completed"));
        }
        let makespan = parsed.get("makespan").map(serde::to_json);
        prop_assert_eq!(makespan, Some(report.makespan.as_nanos().to_string()));
    }
}

/// Rolled-back and refused flights serialize as tagged error objects.
#[test]
fn failed_flights_serialize_with_reasons() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 7777);
    let mut requests = requests_for(&pairs, Some(1));
    // Request 3 targets a device that does not exist: refused pre-flight.
    requests.push(MigrationRequest::new(
        3,
        pairs[0].0,
        flux_core::DeviceId(99),
        "com.missing",
    ));
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests)
        .unwrap();
    assert_eq!(report.rolled_back, 1);
    assert_eq!(report.refused, 1);

    let json = serde::to_json(&report);
    let parsed = serde::parse(&json).expect("report JSON parses");
    assert_eq!(serde::to_json(&parsed), json);
    let statuses: Vec<_> = parsed
        .get("flights")
        .and_then(|f| f.as_arr())
        .expect("flights array")
        .iter()
        .map(|f| {
            let outcome = f.get("outcome").expect("outcome");
            (
                outcome
                    .get("status")
                    .and_then(|s| s.as_str())
                    .unwrap()
                    .to_owned(),
                outcome
                    .get("error")
                    .and_then(|e| e.as_str())
                    .map(str::to_owned),
            )
        })
        .collect();
    assert_eq!(statuses[0].0, "rolled_back");
    assert!(statuses[0].1.is_some(), "rollback carries a reason");
    assert_eq!(statuses[1].0, "completed");
    assert_eq!(statuses[2].0, "refused");
    assert!(
        statuses[2].1.as_deref().unwrap_or("").contains("no device"),
        "refusal names the missing device: {:?}",
        statuses[2].1
    );
}

/// `FleetOutcome::report` stays `None` on failures (guards the
/// serialization match arms against variant drift).
#[test]
fn outcome_accessors_match_variants() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp"], 31337);
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests_for(&pairs, Some(1)))
        .unwrap();
    let outcome = &report.flights[0].outcome;
    assert!(matches!(outcome, FleetOutcome::RolledBack { .. }));
    assert!(outcome.report().is_none());
    assert!(!outcome.is_completed());
}

/// Earlier builds wrote a top-level `medium` array into every report, a
/// copy of the first cell's segments. Service snapshots from those builds
/// must still recover, so such a document loads, and prints back as the
/// current report without the copy.
#[test]
fn reports_carrying_a_medium_array_still_load() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 31337);
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests_for(&pairs, None))
        .unwrap();
    let json = serde::to_json(&report);
    assert_eq!(json.matches(",\"cells\":").count(), 1);
    let segments = serde::to_json(&report.cells[0].segments);
    let earlier = json.replace(",\"cells\":", &format!(",\"medium\":{segments},\"cells\":"));

    let loaded: FleetReport = serde::from_json(&earlier).expect("earlier report loads");
    assert_eq!(serde::to_json(&loaded), json);
}
