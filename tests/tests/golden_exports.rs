//! Golden pins for the JSON exports: the Chrome trace, the telemetry
//! snapshot and the serialized fleet report.
//!
//! The determinism suites compare two runs of the same build, so an
//! exporter change that shifts a byte — an escape, a float rendering, a
//! field order — passes all of them. These FNV-1a digests pin the bytes
//! across commits instead, the export counterpart of `golden_corpus.rs`.
//! Deliberate format changes must recapture them (`print_pins` with
//! `--ignored --nocapture`) in the same commit that explains why.
//!
//! The committed `BENCH_*.json` artifacts ride along: documents written
//! by earlier builds must still parse and print back byte-identically.

mod common;

use flux_core::{
    migrate, pair, DeviceId, FleetConfig, FleetReport, FleetScheduler, FluxWorld, MigrationConfig,
    MigrationRequest, MigrationSpec, RetryPolicy, WorldBuilder,
};
use flux_device::DeviceProfile;
use flux_net::{Band, RadioTopology};
use flux_simcore::{FaultConfig, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use flux_telemetry::{chrome_trace, json_snapshot};
use flux_workloads::spec;

/// FNV-1a over the export bytes.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn finish(world: &mut FluxWorld) {
    world.harvest_metrics();
    let now = world.clock.now();
    world.telemetry.finish(now);
}

/// The faulted profiling scenario of `telemetry_determinism.rs`:
/// WhatsApp, Nexus 4 → Nexus 7 (2013), seed 7 under a 0.4-rate fault
/// plan, so the run retries and its trace carries fault instants.
fn faulted_migration() -> FluxWorld {
    let plan = FaultPlan::generate(7, &FaultConfig::uniform(0.4, SimDuration::from_secs(120)));
    let (mut world, home, guest, pkg) = common::staged_faulty("WhatsApp", 7, plan);
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).expect("migrate");
    finish(&mut world);
    assert!(world.telemetry.metrics().counter("flux.migration.retries") > 0);
    world
}

/// A two-pair fleet whose first request rolls back under blanket link
/// drops, plus a third request refused pre-flight (its guest does not
/// exist).
fn small_fleet() -> (FluxWorld, FleetReport) {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 7777);
    let [(h1, g1, pkg1), (h2, g2, pkg2)] = &pairs[..] else {
        unreachable!("two apps stage two pairs")
    };
    let no_retry = MigrationConfig {
        retry: RetryPolicy::none(),
        ..MigrationConfig::default()
    };
    let requests = vec![
        MigrationRequest::new(1, *h1, *g1, pkg1)
            .with_faults(common::blanket_drops())
            .with_config(no_retry),
        MigrationRequest::new(2, *h2, *g2, pkg2),
        MigrationRequest::new(3, *h1, DeviceId(99), "com.missing"),
    ];
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests)
        .unwrap();
    assert_eq!((report.rolled_back, report.refused), (1, 1));
    finish(&mut world);
    (world, report)
}

/// A contended fleet that takes every path the scheduler, the medium and
/// the telemetry merge have: three pairs carrying three apps each, two
/// cells with one roam planned into a running transfer, three slots for
/// ten requests (so parked requests admit as earlier flights release
/// their devices), a pre-copy request, a request whose chunks a
/// congestion spike stretches, a blanket-drop rollback and a refusal.
fn contended_fleet() -> (FluxWorld, FleetReport) {
    const PAIRS: [[&str; 3]; 3] = [
        ["WhatsApp", "Twitter", "Instagram"],
        ["Netflix", "WhatsApp", "Twitter"],
        ["Instagram", "Netflix", "WhatsApp"],
    ];
    let mut builder = WorldBuilder::new().seed(4242);
    for (i, apps) in PAIRS.iter().enumerate() {
        builder = builder
            .device(&format!("h{i}"), DeviceProfile::nexus4())
            .device(&format!("g{i}"), DeviceProfile::nexus7_2013());
        for name in apps {
            builder = builder.app(2 * i, spec(name).expect("app in Table 3"));
        }
    }
    let (mut world, ids) = builder.build().unwrap();
    let mut requests = Vec::new();
    for (i, apps) in PAIRS.iter().enumerate() {
        let (home, guest) = (ids[2 * i], ids[2 * i + 1]);
        for name in apps {
            let app = spec(name).expect("app in Table 3");
            world
                .run_script(home, &app.package, &app.actions.clone())
                .unwrap();
            let id = requests.len() as u64 + 1;
            requests.push(MigrationRequest::new(id, home, guest, &app.package));
        }
        pair(&mut world, home, guest).unwrap();
    }
    requests[1] = requests[1]
        .clone()
        .with_faults(common::blanket_drops())
        .with_config(MigrationConfig {
            retry: RetryPolicy::none(),
            ..MigrationConfig::default()
        });
    requests[2] = requests[2]
        .clone()
        .with_faults(FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_millis(2_500),
            kind: FaultKind::CongestionSpike,
            duration: SimDuration::from_secs(2),
            magnitude: 1.8,
        }]));
    requests[4] = requests[4]
        .clone()
        .with_config(MigrationConfig::pipelined());
    requests[7] = requests[7].clone().with_priority(1);
    requests.push(MigrationRequest::new(
        10,
        ids[0],
        DeviceId(99),
        "com.missing",
    ));
    let topology = RadioTopology::new()
        .cell("east", 30.0, Band::Ghz5)
        .cell("west", 36.0, Band::Ghz2_4)
        .associate(ids[0].0 as u64, "east")
        .associate(ids[2].0 as u64, "east")
        .associate(ids[4].0 as u64, "west")
        .roam(SimDuration::from_millis(2_400), ids[0].0 as u64, "west");
    let cfg = FleetConfig {
        max_in_flight: 3,
        ..FleetConfig::default()
    };
    let report = FleetScheduler::new(cfg)
        .unwrap()
        .with_topology(topology)
        .run(&mut world, requests)
        .unwrap();
    assert_eq!(
        (report.completed, report.rolled_back, report.refused),
        (8, 1, 1)
    );
    assert_eq!(report.peak_in_flight, 3);
    assert!(report.cells.iter().all(|c| !c.segments.is_empty()));
    finish(&mut world);
    (world, report)
}

/// A fleet whose guest is paired with two homes, device 0 and device 2,
/// so the engine must find each pairing under its own home's key while
/// the other stays in place. The device-2 request runs first (lower id,
/// same priority). Two home == guest requests, one of them for an app
/// the home does run, are refused pre-flight.
fn shared_guest_fleet() -> (FluxWorld, FleetReport) {
    let whatsapp = spec("WhatsApp").expect("app in Table 3");
    let twitter = spec("Twitter").expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(2626)
        .device("h0", DeviceProfile::nexus4())
        .device("g", DeviceProfile::nexus7_2013())
        .device("h2", DeviceProfile::nexus4())
        .app(0, whatsapp.clone())
        .app(2, twitter.clone())
        .build()
        .unwrap();
    let (h0, guest, h2) = (ids[0], ids[1], ids[2]);
    world
        .run_script(h0, &whatsapp.package, &whatsapp.actions)
        .unwrap();
    world
        .run_script(h2, &twitter.package, &twitter.actions)
        .unwrap();
    pair(&mut world, h0, guest).unwrap();
    pair(&mut world, h2, guest).unwrap();
    let requests = vec![
        MigrationRequest::new(1, h2, guest, &twitter.package),
        MigrationRequest::new(2, h0, guest, &whatsapp.package),
        MigrationRequest::new(3, h2, h2, &twitter.package),
        MigrationRequest::new(4, guest, guest, "com.missing"),
    ];
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests)
        .unwrap();
    assert_eq!((report.completed, report.refused), (2, 2));
    finish(&mut world);
    (world, report)
}

/// A fleet whose last admitted gauge writer is not the last one executed.
/// Requests 1 (priority 2) and 2 (priority 1) share a home, and request 3
/// (priority 0) runs on a pair of its own. They execute in canonical
/// order, 1, 2, 3. Request 2 waits for the shared home, so they admit
/// 1, 3, 2. The world keeps the `flux.net.goodput_mbps` that each
/// request's transfer writes in admission order, so the snapshot holds
/// request 2's value, not request 3's.
fn gauge_order_fleet() -> (FluxWorld, FleetReport) {
    let whatsapp = spec("WhatsApp").expect("app in Table 3");
    let twitter = spec("Twitter").expect("app in Table 3");
    let instagram = spec("Instagram").expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(3131)
        .device("h", DeviceProfile::nexus4())
        .device("g1", DeviceProfile::nexus7_2013())
        .device("g2", DeviceProfile::nexus7_2013())
        .device("h3", DeviceProfile::nexus4())
        .device("g3", DeviceProfile::nexus7_2013())
        .app(0, whatsapp.clone())
        .app(0, twitter.clone())
        .app(3, instagram.clone())
        .build()
        .unwrap();
    let [home, g1, g2, h3, g3] = ids[..] else {
        unreachable!("five devices")
    };
    for (device, app) in [(home, &whatsapp), (home, &twitter), (h3, &instagram)] {
        world
            .run_script(device, &app.package, &app.actions)
            .unwrap();
    }
    for (h, g) in [(home, g1), (home, g2), (h3, g3)] {
        pair(&mut world, h, g).unwrap();
    }
    let requests = vec![
        MigrationRequest::new(1, home, g1, &whatsapp.package).with_priority(2),
        MigrationRequest::new(2, home, g2, &twitter.package).with_priority(1),
        MigrationRequest::new(3, h3, g3, &instagram.package),
    ];
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests)
        .unwrap();
    assert_eq!(report.completed, 3);
    let admitted: Vec<u64> = {
        let mut flights: Vec<_> = report.flights.iter().collect();
        flights.sort_by_key(|f| (f.admitted_at, f.id));
        flights.iter().map(|f| f.id).collect()
    };
    assert_eq!(admitted, [1, 3, 2]);
    finish(&mut world);
    (world, report)
}

/// Two fleet batches on one world. The first batch migrates one app off
/// each of two homes and registers a `fleet.m{id}` lane per flight; the
/// second runs on the same devices after those lanes, migrating the first
/// home's other app beside a refusal, so its runs record on device lanes
/// that precede flight lanes the world registered in between.
fn two_batch_fleet() -> FluxWorld {
    let whatsapp = spec("WhatsApp").expect("app in Table 3");
    let twitter = spec("Twitter").expect("app in Table 3");
    let instagram = spec("Instagram").expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(5353)
        .device("h1", DeviceProfile::nexus4())
        .device("g1", DeviceProfile::nexus7_2013())
        .device("h2", DeviceProfile::nexus4())
        .device("g2", DeviceProfile::nexus7_2013())
        .app(0, whatsapp.clone())
        .app(0, twitter.clone())
        .app(2, instagram.clone())
        .build()
        .unwrap();
    let [h1, g1, h2, g2] = ids[..] else {
        unreachable!("four devices")
    };
    for (device, app) in [(h1, &whatsapp), (h1, &twitter), (h2, &instagram)] {
        world
            .run_script(device, &app.package, &app.actions)
            .unwrap();
    }
    for (h, g) in [(h1, g1), (h2, g2)] {
        pair(&mut world, h, g).unwrap();
    }
    let scheduler = FleetScheduler::new(FleetConfig::default()).unwrap();
    let first = vec![
        MigrationRequest::new(1, h1, g1, &whatsapp.package),
        MigrationRequest::new(2, h2, g2, &instagram.package),
    ];
    let report = scheduler.run(&mut world, first).unwrap();
    assert_eq!(report.completed, 2);
    assert_eq!(world.telemetry.lanes()[5..], ["fleet.m001", "fleet.m002"]);
    let second = vec![
        MigrationRequest::new(3, h1, g1, &twitter.package),
        MigrationRequest::new(4, h2, g2, "com.missing"),
    ];
    let report = scheduler.run(&mut world, second).unwrap();
    assert_eq!((report.completed, report.refused), (1, 1));
    finish(&mut world);
    world
}

/// `(export, byte length, FNV-1a digest)`, in the order [`exports`]
/// renders them.
const PINS: [(&str, usize, u64); 13] = [
    ("migration chrome_trace", 6743, 0xdea8_fbd0_eed8_9d43),
    ("migration json_snapshot", 6996, 0xae87_a95e_8b7d_2787),
    ("fleet chrome_trace", 9574, 0xc382_4220_3a45_9a6f),
    ("fleet json_snapshot", 9688, 0x96a2_d40e_80b6_6043),
    ("fleet report", 1704, 0xd93c_9186_5037_39ca),
    ("contended fleet chrome_trace", 52475, 0xd7c1_dd04_fd7d_2744),
    (
        "contended fleet json_snapshot",
        45671,
        0x1083_64fb_ec32_b666,
    ),
    ("contended fleet report", 11074, 0x6a22_c40b_c90e_d908),
    (
        "shared-guest fleet chrome_trace",
        13358,
        0x7ea2_5bc1_e929_8b8d,
    ),
    (
        "shared-guest fleet json_snapshot",
        12717,
        0xbcc0_1062_df75_e195,
    ),
    ("shared-guest fleet report", 2514, 0xed9d_6e9a_9d5d_ea64),
    (
        "gauge-order fleet json_snapshot",
        18367,
        0xc20d_265c_52d8_2667,
    ),
    (
        "two-batch fleet json_snapshot",
        18381,
        0x89d3_7ccb_a9f8_f0eb,
    ),
];

fn exports() -> [String; 13] {
    let migration = faulted_migration();
    let (fleet, report) = small_fleet();
    let (contended, contended_report) = contended_fleet();
    let (shared, shared_report) = shared_guest_fleet();
    let (gauge_order, _) = gauge_order_fleet();
    let two_batch = two_batch_fleet();
    [
        chrome_trace(&migration.telemetry),
        json_snapshot(&migration.telemetry),
        chrome_trace(&fleet.telemetry),
        json_snapshot(&fleet.telemetry),
        serde::to_json(&report),
        chrome_trace(&contended.telemetry),
        json_snapshot(&contended.telemetry),
        serde::to_json(&contended_report),
        chrome_trace(&shared.telemetry),
        json_snapshot(&shared.telemetry),
        serde::to_json(&shared_report),
        json_snapshot(&gauge_order.telemetry),
        json_snapshot(&two_batch.telemetry),
    ]
}

#[test]
fn exports_are_byte_identical_across_commits() {
    for (doc, (name, len, hash)) in exports().iter().zip(PINS) {
        assert_eq!(
            (doc.len(), fnv(doc)),
            (len, hash),
            "{name} drifted; document:\n{doc}"
        );
    }
}

/// Prints the current pin values — run with `--ignored --nocapture` when
/// a deliberate format change needs the constants above recaptured.
#[test]
#[ignore]
fn print_pins() {
    for (doc, (name, _, _)) in exports().iter().zip(PINS) {
        println!("(\"{name}\", {}, {:#x}),", doc.len(), fnv(doc));
    }
}

/// Every committed `BENCH_*.json` at the repository root parses and prints
/// back byte-identically, ignoring a trailing newline.
#[test]
fn committed_bench_artifacts_round_trip() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let mut checked = 0;
    for entry in std::fs::read_dir(root).expect("repository root") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let doc = text.strip_suffix('\n').unwrap_or(&text);
        let parsed = serde::parse(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(serde::to_json(&parsed), doc, "{name} does not print back");
        checked += 1;
    }
    assert!(checked >= 4, "found only {checked} BENCH_*.json artifacts");
}
