//! Fleet throughput: wall-clock migrations/sec.
//!
//! Runs a fleet batch through `FleetScheduler::run` at several fleet
//! sizes, measuring *real* wall-clock time (world construction is
//! excluded). Each size runs twice and keeps the faster pass; the two
//! passes must produce byte-identical `FleetReport`s, and the bench fails
//! loudly if they diverge. Each report's `Debug` output is compared by an
//! FNV-1a digest taken as the text streams, so no run keeps a copy of its
//! report as a string. Results land in `BENCH_throughput.json` at the
//! repo root.
//!
//! Usage (plain harness, not criterion):
//!
//! ```text
//! cargo bench -p flux-bench --bench throughput            # sizes 1, 100, 10000
//! cargo bench -p flux-bench --bench throughput -- --smoke # sizes 1, 100
//! cargo bench -p flux-bench --bench throughput -- --sizes 1,500
//! ```

use flux_core::{FleetConfig, FleetScheduler, FluxWorld, MigrationRequest, WorldBuilder};
use flux_device::DeviceProfile;
use flux_workloads::spec;
use std::fmt::{self, Write as _};
use std::time::Instant;

/// Migratable Table 3 apps, cycled across the fleet's device pairs.
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];

/// Fleets larger than this skip the per-app workload scripts: staging
/// 10k apps through their canned interaction scripts would dwarf the
/// measured scheduler run, and an empty record log migrates fine.
const SCRIPT_CEILING: usize = 100;

fn fleet(n: usize, seed: u64) -> (FluxWorld, Vec<MigrationRequest>) {
    let apps: Vec<_> = (0..n)
        .map(|i| spec(POOL[i % POOL.len()]).expect("app in Table 3"))
        .collect();
    let mut builder = WorldBuilder::new().seed(seed);
    for (i, app) in apps.iter().enumerate() {
        builder = builder
            .device(&format!("h{i:05}"), DeviceProfile::nexus4())
            .device(&format!("g{i:05}"), DeviceProfile::nexus7_2013())
            .app(2 * i, app.clone());
    }
    let (mut world, ids) = builder.build().expect("fleet world builds");
    let mut requests = Vec::with_capacity(n);
    for (i, app) in apps.iter().enumerate() {
        let (home, guest) = (ids[2 * i], ids[2 * i + 1]);
        if n <= SCRIPT_CEILING {
            world
                .run_script(home, &app.package, &app.actions.clone())
                .expect("workload script runs");
        }
        flux_core::pair(&mut world, home, guest).expect("pairing succeeds");
        requests.push(MigrationRequest::new(
            i as u64 + 1,
            home,
            guest,
            &app.package,
        ));
    }
    (world, requests)
}

/// FNV-1a over every byte written to it.
struct Fnv1a(u64);

impl Fnv1a {
    /// The digest of `value`'s `Debug` output, hashed as it is formatted.
    fn of_debug(value: &impl fmt::Debug) -> u64 {
        let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(hasher, "{value:?}").expect("hashing never fails");
        hasher.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

struct Run {
    /// [`Fnv1a::of_debug`] of the fleet report.
    digest: u64,
    secs: f64,
}

fn run(n: usize, seed: u64) -> Run {
    let (mut world, requests) = fleet(n, seed);
    let scheduler = FleetScheduler::new(FleetConfig::default()).expect("valid config");
    let started = Instant::now();
    let report = scheduler
        .run(&mut world, requests)
        .expect("fleet run succeeds");
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(
        report.completed, n,
        "fleet of {n}: every migration should complete"
    );
    Run {
        digest: Fnv1a::of_debug(&report),
        secs,
    }
}

struct SizeResult {
    fleet_size: usize,
    serial_secs: f64,
    serial_rate: f64,
}

impl serde::Serialize for SizeResult {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("fleet_size", &(self.fleet_size as u64))
            .field("serial_secs", &self.serial_secs)
            .field("serial_migrations_per_sec", &self.serial_rate);
        obj.end();
    }
}

/// Best-of-2 to shed allocator/page-cache warm-up skew; both passes must
/// agree byte-for-byte (determinism across repeated runs is part of the
/// contract).
fn measure(n: usize) -> SizeResult {
    let seed = 0x7417 + n as u64;
    let a = run(n, seed);
    let b = run(n, seed);
    assert_eq!(a.digest, b.digest, "fleet of {n}: repeated run diverged");
    let secs = a.secs.min(b.secs);
    SizeResult {
        fleet_size: n,
        serial_secs: secs,
        serial_rate: n as f64 / secs.max(1e-9),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Cargo's default bench harness flags may leak through; honour only
    // the ones this harness defines and ignore `--bench`.
    let smoke = args.iter().any(|a| a == "--smoke");
    let sizes: Vec<usize> = args
        .iter()
        .position(|a| a == "--sizes")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .map(|v| v.trim().parse().expect("--sizes: integers"))
                .collect()
        })
        .unwrap_or_else(|| {
            if smoke {
                vec![1, 100]
            } else {
                vec![1, 100, 10_000]
            }
        });

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("fleet throughput: sizes {sizes:?}, {cores} cores");

    let mut results = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let r = measure(n);
        println!(
            "  n={:<6} serial {:>8.3}s ({:>9.1}/s)  repeat identical",
            r.fleet_size, r.serial_secs, r.serial_rate,
        );
        results.push(r);
    }

    let mut out = String::new();
    {
        let mut obj = serde::object(&mut out);
        obj.field("bench", &"fleet_throughput")
            .field("cores", &(cores as u64))
            .field("smoke", &smoke)
            .field("results", &results);
        obj.end();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, format!("{out}\n")).expect("write BENCH_throughput.json");
    println!("wrote {path}");
}
