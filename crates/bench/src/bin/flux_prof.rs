//! `flux-prof` — profile one seeded migration and export its telemetry.
//!
//! Runs a single record → pair → migrate scenario (WhatsApp, Nexus 4 →
//! Nexus 7 (2013) by default) with the telemetry hub enabled, then writes
//!
//! * `trace.json` — a Chrome `about://tracing` / Perfetto trace with one
//!   lane per device plus the world lane,
//! * `profile.txt` — the per-stage migration profile table,
//! * `snapshot.json` — the full span/event/metric snapshot.
//!
//! Everything runs in virtual time, so two invocations with the same seed
//! produce byte-identical files — the binary verifies this itself by
//! running the scenario twice, and also checks that the stage spans sum to
//! exactly the migration report's total.
//!
//! ```text
//! flux-prof [--seed N] [--app NAME] [--faults RATE] [--out DIR]
//! ```

use flux_core::{migrate, pair, FluxWorld, MigrationReport, MigrationSpec, WorldBuilder};
use flux_device::DeviceProfile;
use flux_simcore::{FaultConfig, FaultPlan, SimDuration};
use flux_telemetry::{chrome_trace, json_snapshot, MigrationProfile};
use flux_workloads::spec;
use std::process::ExitCode;

/// Command-line options, hand-parsed (the container ships no CLI crates).
struct Options {
    seed: u64,
    app: String,
    fault_rate: Option<f64>,
    out: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            seed: 42,
            app: "WhatsApp".to_owned(),
            fault_rate: None,
            out: ".".to_owned(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--app" => opts.app = value("--app")?,
                "--faults" => {
                    opts.fault_rate = Some(value("--faults")?.parse().map_err(|e| format!("{e}"))?)
                }
                "--out" => opts.out = value("--out")?,
                "--help" | "-h" => {
                    return Err("usage: flux-prof [--seed N] [--app NAME] \
                         [--faults RATE] [--out DIR]"
                        .to_owned())
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(opts)
    }
}

/// One full scenario run; returns the world (telemetry finished and
/// harvested) alongside the migration report.
fn run_scenario(opts: &Options) -> Result<(FluxWorld, MigrationReport), String> {
    let app = spec(&opts.app).ok_or_else(|| format!("unknown app {:?}", opts.app))?;
    let mut builder = WorldBuilder::new()
        .seed(opts.seed)
        .device("home", DeviceProfile::nexus4())
        .device("guest", DeviceProfile::nexus7_2013())
        .app(0, app.clone());
    if let Some(rate) = opts.fault_rate {
        let cfg = FaultConfig::uniform(rate, SimDuration::from_secs(120));
        builder = builder.fault_plan(FaultPlan::generate(opts.seed, &cfg));
    }
    let (mut world, ids) = builder.build().map_err(|e| e.to_string())?;
    let (home, guest) = (ids[0], ids[1]);
    world
        .run_script(home, &app.package, &app.actions.clone())
        .map_err(|e| e.to_string())?;
    pair(&mut world, home, guest).map_err(|e| e.to_string())?;
    let report = migrate(
        &mut world,
        MigrationSpec::new(&app.package).between(home, guest),
    )
    .map_err(|e| e.to_string())?;
    world.harvest_metrics();
    let now = world.clock.now();
    world.telemetry.finish(now);
    Ok((world, report))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("flux-prof: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Run twice: the second run only exists to prove determinism.
    let (world, report) = match run_scenario(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flux-prof: scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (world2, _) = match run_scenario(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flux-prof: repeat run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let trace = chrome_trace(&world.telemetry);
    let snapshot = json_snapshot(&world.telemetry);
    let profile = MigrationProfile::from_telemetry(&world.telemetry);

    if chrome_trace(&world2.telemetry) != trace || json_snapshot(&world2.telemetry) != snapshot {
        eprintln!("flux-prof: two runs with seed {} diverged", opts.seed);
        return ExitCode::FAILURE;
    }
    if profile.total() != report.stages.total() {
        eprintln!(
            "flux-prof: stage spans sum to {} but the report says {}",
            profile.total(),
            report.stages.total()
        );
        return ExitCode::FAILURE;
    }
    if serde::parse(&trace).is_err() || serde::parse(&snapshot).is_err() {
        eprintln!("flux-prof: exported JSON does not parse");
        return ExitCode::FAILURE;
    }

    let dir = std::path::Path::new(&opts.out);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("flux-prof: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, body) in [
        ("trace.json", &trace),
        ("snapshot.json", &snapshot),
        ("profile.txt", &profile.render()),
    ] {
        if let Err(e) = std::fs::write(dir.join(name), body) {
            eprintln!("flux-prof: cannot write {name}: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "flux-prof: {} (seed {}, faults {})",
        opts.app,
        opts.seed,
        opts.fault_rate
            .map_or("off".to_owned(), |r| format!("{r}/s")),
    );
    println!("{}", profile.render());
    println!(
        "report total {} | {} spans | {} instants | {} metrics | outputs in {}",
        report.stages.total(),
        world.telemetry.spans().len(),
        world.telemetry.instants().len(),
        world.telemetry.metrics().len(),
        dir.display(),
    );
    ExitCode::SUCCESS
}
