//! Golden-figure pin for the default single-pair migration.
//!
//! The paper-facing numbers — per-stage times, the transfer ledger, replay
//! statistics, the final virtual clock — were captured from the seed
//! implementation at `common::SEED` and are asserted here to the
//! nanosecond and the byte. Any engine change that silently drifts the
//! default path (the exact configuration every figure in EXPERIMENTS.md
//! was recorded under) fails this file, fleet refactors of `migration.rs`
//! included. Deliberate figure changes must update these constants in the
//! same commit that explains why.
//!
//! The §4 pairing cost is pinned the same way: a Nexus 7 → Nexus 7 (2013)
//! `pair` report and a pre-migration `verify_app` report, every file count
//! and byte total plus the virtual time they charge.

mod common;

use flux_core::{migrate, pair, verify_app, MigrationSpec, WorldBuilder};
use flux_device::DeviceProfile;
use flux_fs::SyncReport;
use flux_workloads::spec;

struct Golden {
    app: &'static str,
    prep_ns: u64,
    ckpt_ns: u64,
    xfer_ns: u64,
    rest_ns: u64,
    reint_ns: u64,
    image_raw: u64,
    image_compressed: u64,
    log_compressed: u64,
    replayed: u64,
    proxied: u64,
    skipped: u64,
    dropped_connections: usize,
    redrawn_views: usize,
    clock_ns: u64,
}

/// Captured from the seed implementation: WhatsApp and the largest-image
/// app, both Nexus 4 → Nexus 7 (2013) at `common::SEED`.
const GOLDEN: [Golden; 2] = [
    Golden {
        app: "WhatsApp",
        prep_ns: 421_936_836,
        ckpt_ns: 805_126_978,
        xfer_ns: 2_416_622_955,
        rest_ns: 759_632_388,
        reint_ns: 38_284_000,
        image_raw: 12_331_978,
        image_compressed: 5_795_257,
        log_compressed: 2_251,
        replayed: 1,
        proxied: 1,
        skipped: 1,
        dropped_connections: 1,
        redrawn_views: 45,
        clock_ns: 35_685_116_498,
    },
    Golden {
        app: "Candy Crush Saga",
        prep_ns: 421_936_836,
        ckpt_ns: 1_956_076_117,
        xfer_ns: 5_720_350_352,
        rest_ns: 1_845_595_933,
        reint_ns: 51_128_000,
        image_raw: 29_967_489,
        image_compressed: 14_081_717,
        log_compressed: 8_756,
        replayed: 1,
        proxied: 3,
        skipped: 0,
        dropped_connections: 1,
        redrawn_views: 60,
        clock_ns: 54_034_205_428,
    },
];

#[test]
fn default_single_pair_migrate_matches_the_seed_figures() {
    for g in &GOLDEN {
        let (mut world, home, guest, pkg) = common::staged(g.app, common::SEED);
        let r = migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
        let ctx = g.app;

        // Stage times, to the nanosecond. The default engine has no
        // pre-copy and no overlap.
        assert_eq!(r.stages.precopy.as_nanos(), 0, "{ctx}: precopy");
        assert_eq!(
            r.stages.preparation.as_nanos(),
            g.prep_ns,
            "{ctx}: preparation"
        );
        assert_eq!(
            r.stages.checkpoint.as_nanos(),
            g.ckpt_ns,
            "{ctx}: checkpoint"
        );
        assert_eq!(r.stages.transfer.as_nanos(), g.xfer_ns, "{ctx}: transfer");
        assert_eq!(r.stages.restore.as_nanos(), g.rest_ns, "{ctx}: restore");
        assert_eq!(
            r.stages.reintegration.as_nanos(),
            g.reint_ns,
            "{ctx}: reintegration"
        );
        assert_eq!(r.stages.overlap_saved.as_nanos(), 0, "{ctx}: overlap");
        assert_eq!(
            r.stages.wall_total(),
            r.stages.total(),
            "{ctx}: wall == total"
        );

        // Byte ledger. The default engine streams nothing ahead and hits
        // no cache; the freshly-paired data delta is zero.
        assert_eq!(r.ledger.image_raw.as_u64(), g.image_raw, "{ctx}: image_raw");
        assert_eq!(
            r.ledger.image_compressed.as_u64(),
            g.image_compressed,
            "{ctx}: image_compressed"
        );
        assert_eq!(
            r.ledger.log_compressed.as_u64(),
            g.log_compressed,
            "{ctx}: log_compressed"
        );
        assert_eq!(r.ledger.data_delta.as_u64(), 0, "{ctx}: data_delta");
        assert_eq!(
            r.ledger.precopy_streamed.as_u64(),
            0,
            "{ctx}: precopy_streamed"
        );
        assert_eq!(r.ledger.cache_hit.as_u64(), 0, "{ctx}: cache_hit");

        // Replay and reintegration observables.
        assert_eq!(r.replay.replayed, g.replayed, "{ctx}: replayed");
        assert_eq!(r.replay.proxied, g.proxied, "{ctx}: proxied");
        assert_eq!(r.replay.skipped, g.skipped, "{ctx}: skipped");
        assert_eq!(
            r.dropped_connections.len(),
            g.dropped_connections,
            "{ctx}: dropped"
        );
        assert_eq!(r.redrawn_views, g.redrawn_views, "{ctx}: redrawn");

        // No faults on the quiet plan.
        assert_eq!(
            (r.attempts, r.faults, r.backoff.as_nanos()),
            (1, 0, 0),
            "{ctx}: retries"
        );

        // The whole world: workload + pairing + migration land the virtual
        // clock on exactly the seed instant.
        assert_eq!(
            world.clock.now().as_nanos(),
            g.clock_ns,
            "{ctx}: final clock"
        );
    }
}

/// One sync report's counts, byte totals and CPU charge.
struct SyncGolden {
    total: usize,
    up_to_date: usize,
    hard_linked: usize,
    delta: usize,
    full: usize,
    considered: u64,
    differing: u64,
    shipped: u64,
    cpu_ns: u64,
}

fn assert_sync(ctx: &str, r: &SyncReport, g: &SyncGolden) {
    let counts = (
        r.files_total,
        r.files_up_to_date,
        r.files_hard_linked,
        r.files_delta,
        r.files_full,
    );
    assert_eq!(
        counts,
        (g.total, g.up_to_date, g.hard_linked, g.delta, g.full),
        "{ctx}: file counts (total, up-to-date, linked, delta, full)"
    );
    assert_eq!(
        r.bytes_considered.as_u64(),
        g.considered,
        "{ctx}: considered"
    );
    assert_eq!(r.bytes_differing.as_u64(), g.differing, "{ctx}: differing");
    assert_eq!(r.bytes_shipped.as_u64(), g.shipped, "{ctx}: shipped");
    assert_eq!(r.cpu_time.as_nanos(), g.cpu_ns, "{ctx}: cpu time");
}

/// The §4 experiment's pair (seed 9, as the `pairing` binary runs it) with
/// WhatsApp installed and its script run on the home, so the app sync
/// carries the APK, the seeded database and the file the script wrote.
#[test]
fn nexus7_pairing_report_matches_the_seed_bytes() {
    let app = spec("WhatsApp").expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(9)
        .device("nexus7", DeviceProfile::nexus7_2012())
        .device("nexus7-2013", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .build()
        .unwrap();
    world
        .run_script(ids[0], &app.package, &app.actions.clone())
        .unwrap();
    let r = pair(&mut world, ids[0], ids[1]).unwrap();

    assert_eq!(r.direction, "nexus7 -> nexus7-2013");
    assert_eq!(r.packages, ["com.whatsapp"]);
    assert_sync(
        "system",
        &r.system_sync,
        &SyncGolden {
            total: 460,
            up_to_date: 0,
            hard_linked: 207,
            delta: 252,
            full: 1,
            considered: 225_060_864,
            differing: 126_982_144,
            shipped: 58_259_117,
            cpu_ns: 2_227_165_072,
        },
    );
    assert_sync(
        "apps",
        &r.app_sync,
        &SyncGolden {
            total: 3,
            up_to_date: 0,
            hard_linked: 0,
            delta: 0,
            full: 3,
            considered: 21_479_424,
            differing: 21_479_424,
            shipped: 15_894_772,
            cpu_ns: 519_802_060,
        },
    );
    assert_eq!(r.elapsed.as_nanos(), 58_106_624_528, "elapsed");
    assert_eq!(world.clock.now().as_nanos(), 58_107_214_847, "final clock");
}

/// The verification a migration's transfer stage runs: the standard pair
/// is paired first, then WhatsApp's script writes `msgstore.db`, which is
/// the one file the verification ships.
#[test]
fn verify_after_the_whatsapp_script_matches_the_seed_bytes() {
    let app = spec("WhatsApp").expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(common::SEED)
        .device("h", DeviceProfile::nexus4())
        .device("g", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .pair(0, 1)
        .build()
        .unwrap();
    world
        .run_script(ids[0], &app.package, &app.actions.clone())
        .unwrap();
    let r = verify_app(&mut world, ids[0], ids[1], &app.package).unwrap();

    assert_sync(
        "verify",
        &r,
        &SyncGolden {
            total: 3,
            up_to_date: 2,
            hard_linked: 0,
            delta: 0,
            full: 1,
            considered: 21_479_424,
            differing: 245_760,
            shipped: 181_862,
            cpu_ns: 52_661_452,
        },
    );
    assert_eq!(world.clock.now().as_nanos(), 31_218_684_940, "final clock");
}
