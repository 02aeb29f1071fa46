//! Pipelined-migration ablation: engine (serial vs pipelined) × image
//! cache (cold vs warm), on the same seeds.
//!
//! Grid cells:
//!
//! * **serial / cold** — `MigrationConfig::default()`, a fresh world: the
//!   exact configuration the seed-recorded figures were captured under.
//! * **overlap / cold** — stage overlap alone, so the compression-behind-
//!   the-radio saving is visible before pre-copy shrinks the residue to a
//!   chunk or two.
//! * **serial / warm** — the content-addressed cache enabled; the measured
//!   migration repeats an earlier round trip so the guest already holds
//!   the image's chunks.
//! * **pipelined / cold** — pre-copy plus stage overlap, no cache.
//! * **pipelined / warm** — the full engine: pre-copy, overlap and cache.
//!
//! Per cell the table reports the mean user-perceived wait, wall-clock
//! migration time, post-freeze bytes shipped by the transfer stage,
//! pre-copy streamed bytes, cache-hit bytes and overlap-hidden latency.
//! The binary runs the whole grid twice and fails if the two passes
//! differ by a byte — pipelining and caching must not cost determinism.
//!
//! ```text
//! ablation_pipeline [--smoke] [--out DIR]
//! ```

use flux_bench::mean_u64;
use flux_core::{migrate, pair, MigrationConfig, MigrationReport, MigrationSpec, WorldBuilder};
use flux_device::DeviceProfile;
use flux_simcore::{ByteSize, SimDuration};
use flux_workloads::spec;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Seeds per cell (means are across these; everything is deterministic).
const SEEDS: [u64; 3] = [11, 12, 13];
/// The measured app: a large image with plenty of dirtied heap.
const APP: &str = "Candy Crush Saga";

struct Cell {
    name: &'static str,
    cfg: MigrationConfig,
    warm: bool,
}

fn grid() -> Vec<Cell> {
    let serial = MigrationConfig::default();
    let serial_cache = MigrationConfig {
        image_cache: true,
        ..MigrationConfig::default()
    };
    let overlap_only = MigrationConfig {
        pipeline: true,
        ..MigrationConfig::default()
    };
    let piped_cold = MigrationConfig {
        precopy: true,
        pipeline: true,
        ..MigrationConfig::default()
    };
    vec![
        Cell {
            name: "serial    / cold",
            cfg: serial,
            warm: false,
        },
        Cell {
            name: "overlap   / cold",
            cfg: overlap_only,
            warm: false,
        },
        Cell {
            name: "serial    / warm",
            cfg: serial_cache,
            warm: true,
        },
        Cell {
            name: "pipelined / cold",
            cfg: piped_cold,
            warm: false,
        },
        Cell {
            name: "pipelined / warm",
            cfg: MigrationConfig::pipelined(),
            warm: true,
        },
    ]
}

/// One cell migration. Warm cells round-trip the app (phone → tablet →
/// phone) first so the measured phone → tablet repeat finds the tablet's
/// cache populated.
fn run_one(seed: u64, cfg: &MigrationConfig, warm: bool) -> Result<MigrationReport, String> {
    let app = spec(APP).expect("app is in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(seed)
        .device("phone", DeviceProfile::nexus4())
        .device("tablet", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let (phone, tablet) = (ids[0], ids[1]);
    world
        .run_script(phone, &app.package, &app.actions.clone())
        .map_err(|e| e.to_string())?;
    pair(&mut world, phone, tablet).map_err(|e| e.to_string())?;
    if warm {
        migrate(
            &mut world,
            MigrationSpec::new(&app.package)
                .between(phone, tablet)
                .config(*cfg),
        )
        .map_err(|e| e.to_string())?;
        pair(&mut world, tablet, phone).map_err(|e| e.to_string())?;
        migrate(
            &mut world,
            MigrationSpec::new(&app.package)
                .between(tablet, phone)
                .config(*cfg),
        )
        .map_err(|e| e.to_string())?;
    }
    migrate(
        &mut world,
        MigrationSpec::new(&app.package)
            .between(phone, tablet)
            .config(*cfg),
    )
    .map_err(|e| e.to_string())
}

fn mean_duration(xs: &[SimDuration]) -> SimDuration {
    SimDuration::from_nanos(mean_u64(xs.iter().map(|d| d.as_nanos())))
}

fn mean_bytes(xs: &[ByteSize]) -> ByteSize {
    ByteSize::from_bytes(mean_u64(xs.iter().map(|b| b.as_u64())))
}

/// Runs the full grid and renders the table; returns the rendered report
/// plus the (serial/cold, pipelined/warm) mean user-perceived times.
fn run_grid(seeds: &[u64]) -> Result<(String, SimDuration, SimDuration), String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pipelined-migration ablation: {APP}, Nexus 4 -> Nexus 7 (2013), {} seed(s)\n",
        seeds.len()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "engine / cache", "perceived", "wall", "shipped", "precopy", "cache hit", "overlap"
    );
    let mut serial_cold = SimDuration::ZERO;
    let mut piped_warm = SimDuration::ZERO;
    for cell in grid() {
        let mut perceived = Vec::new();
        let mut wall = Vec::new();
        let mut shipped = Vec::new();
        let mut precopy = Vec::new();
        let mut cache_hit = Vec::new();
        let mut overlap = Vec::new();
        for &seed in seeds {
            let r = run_one(seed, &cell.cfg, cell.warm)
                .map_err(|e| format!("{} seed {seed}: {e}", cell.name))?;
            perceived.push(r.stages.user_perceived());
            wall.push(r.stages.wall_total());
            shipped.push(r.ledger.total());
            precopy.push(r.ledger.precopy_streamed);
            cache_hit.push(r.ledger.cache_hit);
            overlap.push(r.stages.overlap_saved);
        }
        let p = mean_duration(&perceived);
        match cell.name {
            "serial    / cold" => serial_cold = p,
            "pipelined / warm" => piped_warm = p,
            _ => {}
        }
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            cell.name,
            format!("{p}"),
            format!("{}", mean_duration(&wall)),
            format!("{}", mean_bytes(&shipped)),
            format!("{}", mean_bytes(&precopy)),
            format!("{}", mean_bytes(&cache_hit)),
            format!("{}", mean_duration(&overlap)),
        );
    }
    Ok((out, serial_cold, piped_warm))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut seeds: &[u64] = &SEEDS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => seeds = &SEEDS[..1],
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => {
                    eprintln!("ablation_pipeline: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: ablation_pipeline [--smoke] [--out DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ablation_pipeline: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Two full passes: virtual time owes us byte-identical tables.
    let (table, serial_cold, piped_warm) = match run_grid(seeds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ablation_pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_grid(seeds) {
        Ok((second, _, _)) if second == table => {}
        Ok(_) => {
            eprintln!("ablation_pipeline: two passes over the same seeds diverged");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ablation_pipeline: repeat pass failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if piped_warm >= serial_cold {
        eprintln!(
            "ablation_pipeline: pipelined/warm ({piped_warm}) not faster than serial/cold ({serial_cold})"
        );
        return ExitCode::FAILURE;
    }

    print!("{table}");
    println!("\npipelined/warm cuts the perceived wait from {serial_cold} to {piped_warm}; both passes byte-identical");

    if let Some(dir) = out_dir {
        let dir = std::path::Path::new(&dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("ablation_pipeline: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(dir.join("ablation_pipeline.txt"), &table) {
            eprintln!("ablation_pipeline: cannot write artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
