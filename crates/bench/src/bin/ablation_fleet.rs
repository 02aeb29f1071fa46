//! Fleet ablation: fleet size × max-in-flight × radio topology grid over
//! the Table 3 apps, at 10k–100k requests.
//!
//! Each grid cell builds a fresh world in which every device pair
//! (Nexus 4 home, Nexus 7 (2013) guest) hosts the full round of
//! migratable Table 3 apps — one request per installed app, so a
//! 100k-request fleet rides on ~6.3k device pairs. Each app's canned
//! workload runs, the pair is established, and the whole batch drives
//! through the [`FleetScheduler`] as one stage-level event schedule.
//! Requests sharing a pair serialise on the device-exclusivity rule, so
//! queue waits measure both airspace contention and device contention.
//! The topology axis contrasts the single shared cell with a four-AP
//! campus (equal per-cell budgets, homes associated round-robin, a
//! handful of planned mid-run roams).
//!
//! Per cell the table reports the fleet makespan, the serialized makespan
//! (what `max-in-flight = 1` would take under the same per-home-cell
//! budgets), the speedup, the peak concurrency reached, and the queue-wait
//! distribution (mean / p50 / p90 / p99 / max across flights).
//!
//! The binary self-verifies three ways:
//!
//! * the whole grid runs twice and the JSON artifact must come out
//!   byte-identical — stage-level scheduling must not cost determinism;
//! * on roam-free topologies the `max-in-flight = 1` cell's makespan must
//!   *equal* its serialized makespan exactly;
//! * every `max-in-flight > 1` cell must strictly beat its own serialized
//!   makespan.
//!
//! Artifacts: `BENCH_fleet.json` (the machine-readable grid) and
//! `ablation_fleet.txt` (the rendered table), written to `--out` (default
//! the working directory).
//!
//! ```text
//! ablation_fleet [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` is the CI size: the 10k-request row only.

use flux_bench::mean_u64;
use flux_core::{pair, FleetConfig, FleetReport, FleetScheduler, MigrationRequest, WorldBuilder};
use flux_device::DeviceProfile;
use flux_net::{Band, RadioTopology};
use flux_simcore::SimDuration;
use flux_workloads::{top_apps, AppSpec};
use std::fmt::Write as _;
use std::process::ExitCode;

/// One seed; the grid is deterministic, the double pass proves it.
const SEED: u64 = 21;
/// Fleet sizes (requests per batch) on the full grid.
const FULL_FLEETS: [usize; 2] = [10_000, 100_000];
/// The CI smoke size.
const SMOKE_FLEETS: [usize; 1] = [10_000];
/// Admission limits.
const MAX_IN_FLIGHT: [usize; 2] = [1, 64];
/// Cell counts on the topology axis.
const CELL_COUNTS: [usize; 2] = [1, 4];

/// The Table 3 apps the engine can migrate, in table order.
fn migratable_apps() -> Vec<AppSpec> {
    top_apps()
        .into_iter()
        .filter(|a| !a.multi_process && !a.preserve_egl)
        .collect()
}

/// The topology for one grid row: `cells` equal 30 Mbit/s cells with the
/// fleet's home devices associated round-robin. Multi-cell rows also plan
/// eight mid-run roams (each moves one home one cell clockwise) so the
/// roam path is exercised at full scale; single-cell rows stay roam-free
/// so the serialized-equality check applies.
fn topology_for(cells: usize, pairs: usize) -> RadioTopology {
    let band = |c: usize| if c % 2 == 0 { Band::Ghz5 } else { Band::Ghz2_4 };
    let mut topology = RadioTopology::new();
    for c in 0..cells {
        topology = topology.cell(&format!("ap{c}"), 30.0, band(c));
    }
    for p in 0..pairs {
        // Home device ids are even: pair p is devices (2p, 2p + 1).
        topology = topology.associate(2 * p as u64, &format!("ap{}", p % cells));
    }
    if cells > 1 {
        for k in 0..8usize {
            let p = k * (pairs / 8).max(1) % pairs;
            let from = p % cells;
            topology = topology.roam(
                SimDuration::from_secs(30 + 15 * k as u64),
                2 * p as u64,
                &format!("ap{}", (from + 1) % cells),
            );
        }
    }
    topology
}

/// Runs one (fleet size, max-in-flight, cell count) grid cell.
fn run_cell(fleet: usize, max_in_flight: usize, cells: usize) -> Result<FleetReport, String> {
    let apps = migratable_apps();
    let per_pair = apps.len();
    let pairs = fleet.div_ceil(per_pair);
    let apps_on = |p: usize| per_pair.min(fleet - p * per_pair);
    let mut builder = WorldBuilder::new().seed(SEED);
    for p in 0..pairs {
        builder = builder
            .device(&format!("phone{p:05}"), DeviceProfile::nexus4())
            .device(&format!("tablet{p:05}"), DeviceProfile::nexus7_2013());
        for app in &apps[..apps_on(p)] {
            builder = builder.app(2 * p, app.clone());
        }
    }
    let (mut world, ids) = builder.build().map_err(|e| e.to_string())?;
    let mut requests = Vec::with_capacity(fleet);
    for p in 0..pairs {
        let (home, guest) = (ids[2 * p], ids[2 * p + 1]);
        for (j, app) in apps[..apps_on(p)].iter().enumerate() {
            world
                .run_script(home, &app.package, &app.actions.clone())
                .map_err(|e| e.to_string())?;
            requests.push(MigrationRequest::new(
                (p * per_pair + j) as u64 + 1,
                home,
                guest,
                &app.package,
            ));
        }
        pair(&mut world, home, guest).map_err(|e| e.to_string())?;
    }
    FleetScheduler::new(FleetConfig {
        max_in_flight,
        ..FleetConfig::default()
    })
    .map_err(|e| e.to_string())?
    .with_topology(topology_for(cells, pairs))
    .run(&mut world, requests)
    .map_err(|e| e.to_string())
}

/// A duration distribution over the fleet's flights.
struct Dist {
    mean: SimDuration,
    p50: SimDuration,
    p90: SimDuration,
    p99: SimDuration,
    max: SimDuration,
}

impl Dist {
    fn of(mut samples: Vec<SimDuration>) -> Dist {
        if samples.is_empty() {
            let z = SimDuration::ZERO;
            return Dist {
                mean: z,
                p50: z,
                p90: z,
                p99: z,
                max: z,
            };
        }
        samples.sort_unstable();
        let pick = |p: f64| {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        Dist {
            mean: SimDuration::from_nanos(mean_u64(samples.iter().map(|d| d.as_nanos()))),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: *samples.last().unwrap(),
        }
    }
}

impl serde::Serialize for Dist {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("mean_ns", &self.mean.as_nanos())
            .field("p50_ns", &self.p50.as_nanos())
            .field("p90_ns", &self.p90.as_nanos())
            .field("p99_ns", &self.p99.as_nanos())
            .field("max_ns", &self.max.as_nanos());
        obj.end();
    }
}

/// One grid row of the JSON artifact.
struct Row {
    fleet: usize,
    max_in_flight: usize,
    cells: usize,
    makespan: SimDuration,
    serialized: SimDuration,
    peak: usize,
    completed: usize,
    queue_wait: Dist,
    flight_span: Dist,
}

impl serde::Serialize for Row {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("fleet", &(self.fleet as u64))
            .field("max_in_flight", &(self.max_in_flight as u64))
            .field("cells", &(self.cells as u64))
            .field("makespan_ns", &self.makespan.as_nanos())
            .field("serialized_ns", &self.serialized.as_nanos())
            .field(
                "speedup",
                &(self.serialized.as_secs_f64() / self.makespan.as_secs_f64()),
            )
            .field("peak_in_flight", &(self.peak as u64))
            .field("completed", &(self.completed as u64))
            .field("queue_wait", &self.queue_wait)
            .field("flight_span", &self.flight_span);
        obj.end();
    }
}

/// Runs the grid once; returns the rows plus the rendered table.
fn run_grid(fleets: &[usize]) -> Result<(Vec<Row>, String), String> {
    let mut rows = Vec::new();
    let mut out = String::new();
    let apps = migratable_apps().len();
    let _ = writeln!(
        out,
        "Fleet ablation: {apps} migratable Table 3 apps per Nexus 4 -> Nexus 7 (2013) pair, seed {SEED}\n",
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>6} {:>12} {:>12} {:>8} {:>6} {:>11} {:>11} {:>11} {:>10}",
        "fleet",
        "max-in-flt",
        "cells",
        "makespan",
        "serialized",
        "speedup",
        "peak",
        "wait p50",
        "wait p99",
        "wait max",
        "completed"
    );
    for &fleet in fleets {
        for &cells in &CELL_COUNTS {
            for &limit in &MAX_IN_FLIGHT {
                let r = run_cell(fleet, limit, cells)
                    .map_err(|e| format!("fleet {fleet} limit {limit} cells {cells}: {e}"))?;
                let roam_free = cells == 1;
                if limit == 1 && roam_free && r.makespan != r.serialized_makespan {
                    return Err(format!(
                        "fleet {fleet} cells {cells}: max-in-flight 1 makespan {} != serialized {}",
                        r.makespan, r.serialized_makespan
                    ));
                }
                if limit > 1 && fleet > 1 && r.makespan >= r.serialized_makespan {
                    return Err(format!(
                        "fleet {fleet} limit {limit} cells {cells}: makespan {} not below serialized {}",
                        r.makespan, r.serialized_makespan
                    ));
                }
                let queue_wait = Dist::of(r.flights.iter().map(|f| f.queue_wait()).collect());
                let flight_span = Dist::of(
                    r.flights
                        .iter()
                        .map(|f| f.finished_at.since(f.admitted_at))
                        .collect(),
                );
                let _ = writeln!(
                    out,
                    "{:<8} {:>10} {:>6} {:>12} {:>12} {:>7.2}x {:>6} {:>11} {:>11} {:>11} {:>7}/{}",
                    fleet,
                    limit,
                    cells,
                    format!("{}", r.makespan),
                    format!("{}", r.serialized_makespan),
                    r.serialized_makespan.as_secs_f64() / r.makespan.as_secs_f64(),
                    r.peak_in_flight,
                    format!("{}", queue_wait.p50),
                    format!("{}", queue_wait.p99),
                    format!("{}", queue_wait.max),
                    r.completed,
                    r.flights.len(),
                );
                rows.push(Row {
                    fleet,
                    max_in_flight: limit,
                    cells,
                    makespan: r.makespan,
                    serialized: r.serialized_makespan,
                    peak: r.peak_in_flight,
                    completed: r.completed,
                    queue_wait,
                    flight_span,
                });
            }
        }
    }
    Ok((rows, out))
}

fn grid_json(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut obj = serde::object(&mut out);
    obj.field("bench", "ablation_fleet")
        .field("seed", &SEED)
        .field("grid", &rows.iter().collect::<Vec<_>>());
    obj.end();
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut fleets: &[usize] = &FULL_FLEETS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => fleets = &SMOKE_FLEETS,
            "--out" => match it.next() {
                Some(dir) => out_dir = dir.clone(),
                None => {
                    eprintln!("ablation_fleet: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: ablation_fleet [--smoke] [--out DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ablation_fleet: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Two full passes: virtual time owes us a byte-identical artifact.
    let (rows, table) = match run_grid(fleets) {
        Ok(first) => first,
        Err(e) => {
            eprintln!("ablation_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = grid_json(&rows);
    match run_grid(fleets) {
        Ok((second, _)) if grid_json(&second) == json => {}
        Ok(_) => {
            eprintln!("ablation_fleet: two passes over the same seed diverged");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ablation_fleet: repeat pass failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{table}");
    println!("\nall concurrent cells beat their serialized makespan; passes byte-identical");

    let dir = std::path::Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("ablation_fleet: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, body) in [("BENCH_fleet.json", &json), ("ablation_fleet.txt", &table)] {
        if let Err(e) = std::fs::write(dir.join(name), body) {
            eprintln!("ablation_fleet: cannot write {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_wait_mean_does_not_wrap_at_100k_requests() {
        // The limit-1 100k row's shape: 100,000 waits spread evenly over
        // 0..~580,000 s. Their sum, ~2.9e19 ns, is past 2^64 ns.
        let step = 5_800_000_000u64;
        let waits: Vec<SimDuration> = (0..100_000u64)
            .map(|i| SimDuration::from_nanos(i * step))
            .collect();
        assert!(waits
            .iter()
            .try_fold(0u64, |sum, d| sum.checked_add(d.as_nanos()))
            .is_none());
        let dist = Dist::of(waits);
        assert_eq!(dist.mean.as_nanos(), 99_999 * step / 2);
        assert_eq!(dist.p50.as_nanos(), 50_000 * step);
    }
}
