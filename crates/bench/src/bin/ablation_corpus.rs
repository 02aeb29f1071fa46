//! Corpus ablation: Play-store-scale scenario sweep under the lifecycle
//! data-loss oracle — corpus size × lifecycle schedule × fault plan.
//!
//! Each grid cell generates a seeded [`ProfileCorpus`] (10k–50k full app
//! profiles, sizes and component mixes fitted to the paper's fig. 13/15
//! shapes), samples a deterministic slice of it — evenly spaced ids plus
//! a stratified oversample of the rare refusable minorities
//! (EGL-preserving, multi-process, high-API) so every taxonomy class gets
//! exercised at bench scale — and stages one Nexus 4 → Nexus 7 (2013)
//! pair per sampled profile. The oracle captures each app's promised
//! state, the cell's lifecycle schedule perturbs it (pause / stop / kill
//! between capture and migrate), fault cells give every fifth request a
//! blanket link-drop plan with no retries, and the whole batch drives
//! through the [`FleetScheduler`]. Every flight's terminal world is then
//! judged by [`OracleSnapshot::verdict_for`] and tallied into the
//! five-class failure [`Taxonomy`] (lost-write / stale-replay /
//! rollback-residue / egl-context / incompatible-feature).
//!
//! The binary self-verifies two ways:
//!
//! * the whole grid runs twice and the JSON artifact must come out
//!   byte-identical — corpus generation and scenario scheduling must not
//!   cost determinism;
//! * the aggregate taxonomy must be non-degenerate (at least three
//!   distinct classes populated) and the generated census must sit in
//!   the paper's fig. 13 quantile bands.
//!
//! Artifacts: `BENCH_corpus.json` (the machine-readable grid) and
//! `ablation_corpus.txt` (the rendered table), written to `--out`
//! (default the working directory).
//!
//! ```text
//! ablation_corpus [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` is the CI size: the 10k-profile row with half the sample.

use flux_core::{
    pair, FleetConfig, FleetScheduler, LifecycleEvent, LifecycleSchedule, MigrationConfig,
    MigrationRequest, MigrationStage, OracleSnapshot, RetryPolicy, Taxonomy, WorldBuilder,
};
use flux_device::DeviceProfile;
use flux_playstore::{AppProfile, ProfileCorpus};
use flux_simcore::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use std::fmt::Write as _;
use std::process::ExitCode;

/// One seed; the grid is deterministic, the double pass proves it.
const SEED: u64 = 33;
/// Corpus sizes (generated profiles) on the full grid.
const FULL_CORPORA: [usize; 2] = [10_000, 50_000];
/// The CI smoke size.
const SMOKE_CORPORA: [usize; 1] = [10_000];
/// The lifecycle axis: the three pre-migration schedules that differ
/// observably at fleet scale (pause and stop both flush; stop stands in
/// for either), plus the mid-migration cell — a kill landed inside the
/// preparation stage, the Riganelli window only the interruptible
/// engine reaches.
const SCHEDULES: [LifecycleSchedule; 4] = [
    LifecycleSchedule::Undisturbed,
    LifecycleSchedule::StopThenMigrate,
    LifecycleSchedule::KillThenMigrate,
    LifecycleSchedule::At {
        stage: MigrationStage::Preparation,
        offset: SimDuration::from_millis(1),
        event: LifecycleEvent::Kill,
    },
];
/// Migrated scenarios per cell (full / smoke), before stratification.
const FULL_SAMPLE: usize = 96;
const SMOKE_SAMPLE: usize = 48;
/// Stratified oversample cap per refusable minority.
const STRATUM: usize = 8;
/// In fault cells, every DROP_EVERY-th request gets blanket drops.
const DROP_EVERY: u64 = 5;
/// The guest fleet's API level (every profile above it must refuse).
const GUEST_API: u32 = 19;

/// A blanket link-drop schedule relative to each victim's own migration
/// start: with a no-retry policy the migration deterministically rolls
/// back mid-transfer.
fn blanket_drops() -> FaultPlan {
    FaultPlan::from_events(
        (0..600)
            .map(|i| FaultEvent {
                at: SimTime::from_millis(i * 200),
                kind: FaultKind::LinkDrop,
                duration: SimDuration::ZERO,
                magnitude: 0.0,
            })
            .collect(),
    )
}

/// The cell's scenario slice: `n` evenly spaced ids plus up to
/// [`STRATUM`] ids from each refusable minority, deduplicated in order.
fn sampled_ids(corpus: &ProfileCorpus, n: usize) -> Vec<u32> {
    let mut ids = corpus.sample_ids(n);
    for stratum in [
        corpus.find_ids(STRATUM, |p: &AppProfile| p.spec.preserve_egl),
        corpus.find_ids(STRATUM, |p: &AppProfile| p.spec.multi_process),
        corpus.find_ids(STRATUM, |p: &AppProfile| p.spec.min_api > GUEST_API),
        corpus.find_ids(STRATUM, |p: &AppProfile| p.holds_open_incompatibility()),
    ] {
        for id in stratum {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// One grid cell's tallies.
struct Cell {
    corpus: usize,
    schedule: LifecycleSchedule,
    faulty: bool,
    sampled: usize,
    taxonomy: Taxonomy,
    makespan: SimDuration,
}

impl serde::Serialize for Cell {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("corpus", &(self.corpus as u64))
            .field("schedule", &self.schedule.key())
            .field("faults", &self.faulty)
            .field("sampled", &(self.sampled as u64))
            .field("makespan_ns", &self.makespan.as_nanos())
            .field("taxonomy", &self.taxonomy);
        obj.end();
    }
}

/// Runs one (corpus size, schedule, fault plan) cell.
fn run_cell(
    corpus_size: usize,
    sample: usize,
    schedule: LifecycleSchedule,
    faulty: bool,
) -> Result<Cell, String> {
    let corpus = ProfileCorpus::new(SEED, corpus_size);
    let ids = sampled_ids(&corpus, sample);
    let profiles: Vec<AppProfile> = ids.iter().map(|&id| corpus.profile(id)).collect();

    let mut builder = WorldBuilder::new().seed(SEED);
    for (i, p) in profiles.iter().enumerate() {
        builder = builder
            .device(&format!("phone{i:05}"), DeviceProfile::nexus4())
            .device(&format!("tablet{i:05}"), DeviceProfile::nexus7_2013())
            .app(2 * i, p.spec.clone());
    }
    let (mut world, dev_ids) = builder.build().map_err(|e| e.to_string())?;

    let mut snapshots = Vec::with_capacity(profiles.len());
    let mut requests = Vec::with_capacity(profiles.len());
    for (i, p) in profiles.iter().enumerate() {
        let (home, guest) = (dev_ids[2 * i], dev_ids[2 * i + 1]);
        let pkg = &p.spec.package;
        world
            .run_script(home, pkg, &p.spec.actions.clone())
            .map_err(|e| e.to_string())?;
        pair(&mut world, home, guest).map_err(|e| e.to_string())?;
        // Capture the promise, perturb it, then re-anchor the log length
        // to the migration start (a kill legitimately resets the log).
        let mut snap =
            OracleSnapshot::capture(&world, home, guest, pkg).map_err(|e| e.to_string())?;
        schedule
            .apply(&mut world, home, pkg)
            .map_err(|e| e.to_string())?;
        snap.refresh_log_len(&world);
        snapshots.push(snap);
        let id = i as u64 + 1;
        let mut req = MigrationRequest::new(id, home, guest, pkg);
        // Mid-migration schedules ride the engine's interrupt timeline
        // instead of perturbing the world up front.
        req.interrupts.extend(schedule.interrupts());
        if faulty && id % DROP_EVERY == 0 {
            req = req
                .with_faults(blanket_drops())
                .with_config(MigrationConfig {
                    retry: RetryPolicy::none(),
                    ..MigrationConfig::default()
                });
        }
        requests.push(req);
    }

    let report = FleetScheduler::new(FleetConfig {
        max_in_flight: 16,
        ..FleetConfig::default()
    })
    .map_err(|e| e.to_string())?
    .run(&mut world, requests)
    .map_err(|e| e.to_string())?;

    let mut taxonomy = Taxonomy::default();
    for (flight, snap) in report.flights.iter().zip(&snapshots) {
        taxonomy.record(&snap.verdict_for(&world, &flight.outcome));
    }
    Ok(Cell {
        corpus: corpus_size,
        schedule,
        faulty,
        sampled: profiles.len(),
        taxonomy,
        makespan: report.makespan,
    })
}

/// Runs the grid once; returns the cells plus the rendered table.
fn run_grid(corpora: &[usize], sample: usize) -> Result<(Vec<Cell>, String), String> {
    let mut cells = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Corpus ablation: generated profiles, Nexus 4 -> Nexus 7 (2013) pairs, seed {SEED}\n"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:<7} {:>7} {:>5} {:>5} {:>4} {:>6} {:>6} {:>8} {:>5} {:>7}",
        "corpus",
        "schedule",
        "faults",
        "sampled",
        "done",
        "back",
        "ref",
        "lost",
        "stale",
        "residue",
        "egl",
        "incompat"
    );
    for &corpus in corpora {
        for schedule in SCHEDULES {
            for faulty in [false, true] {
                let cell = run_cell(corpus, sample, schedule, faulty).map_err(|e| {
                    format!("corpus {corpus} {} faults {faulty}: {e}", schedule.key())
                })?;
                let t = &cell.taxonomy;
                let _ = writeln!(
                    out,
                    "{:<8} {:<12} {:<7} {:>7} {:>5} {:>5} {:>4} {:>6} {:>6} {:>8} {:>5} {:>7}",
                    corpus,
                    schedule.key(),
                    if faulty { "drops" } else { "none" },
                    cell.sampled,
                    t.completed,
                    t.rolled_back,
                    t.refused,
                    t.count(flux_core::FailureClass::LostWrite),
                    t.count(flux_core::FailureClass::StaleReplay),
                    t.count(flux_core::FailureClass::RollbackResidue),
                    t.count(flux_core::FailureClass::EglContext),
                    t.count(flux_core::FailureClass::IncompatibleFeature),
                );
                cells.push(cell);
            }
        }
    }
    Ok((cells, out))
}

/// The grid must exercise the taxonomy, not report a wall of zeroes: at
/// least three distinct classes populated across all cells, and the
/// generated census inside the paper's fig. 13 bands.
fn check_non_degenerate(cells: &[Cell], corpora: &[usize]) -> Result<(), String> {
    let mut aggregate = Taxonomy::default();
    for cell in cells {
        aggregate.merge(&cell.taxonomy);
    }
    if aggregate.populated_classes() < 3 {
        return Err(format!(
            "degenerate taxonomy: only {} classes populated in {}",
            aggregate.populated_classes(),
            serde::to_json(&aggregate)
        ));
    }
    for &corpus in corpora {
        let census = ProfileCorpus::new(SEED, corpus).census();
        let q60 = census.quantile(0.60).as_u64();
        let q90 = census.quantile(0.90).as_u64();
        if !(600_000..=1_600_000).contains(&q60) || !(6_000_000..=16_000_000).contains(&q90) {
            return Err(format!(
                "corpus {corpus} census drifted off the paper bands: q60 {q60} q90 {q90}"
            ));
        }
    }
    Ok(())
}

fn grid_json(cells: &[Cell]) -> String {
    let mut aggregate = Taxonomy::default();
    for cell in cells {
        aggregate.merge(&cell.taxonomy);
    }
    let mut out = String::new();
    let mut obj = serde::object(&mut out);
    obj.field("bench", "ablation_corpus")
        .field("seed", &SEED)
        .field("aggregate", &aggregate)
        .field("grid", &cells.iter().collect::<Vec<_>>());
    obj.end();
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut corpora: &[usize] = &FULL_CORPORA;
    let mut sample = FULL_SAMPLE;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                corpora = &SMOKE_CORPORA;
                sample = SMOKE_SAMPLE;
            }
            "--out" => match it.next() {
                Some(dir) => out_dir = dir.clone(),
                None => {
                    eprintln!("ablation_corpus: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: ablation_corpus [--smoke] [--out DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ablation_corpus: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Two full passes: virtual time owes us a byte-identical artifact.
    let (cells, table) = match run_grid(corpora, sample) {
        Ok(first) => first,
        Err(e) => {
            eprintln!("ablation_corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = grid_json(&cells);
    match run_grid(corpora, sample) {
        Ok((second, _)) if grid_json(&second) == json => {}
        Ok(_) => {
            eprintln!("ablation_corpus: two passes over the same seed diverged");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ablation_corpus: repeat pass failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = check_non_degenerate(&cells, corpora) {
        eprintln!("ablation_corpus: {e}");
        return ExitCode::FAILURE;
    }

    print!("{table}");
    println!("\ntaxonomy non-degenerate; passes byte-identical");

    let dir = std::path::Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("ablation_corpus: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, body) in [
        ("BENCH_corpus.json", &json),
        ("ablation_corpus.txt", &table),
    ] {
        if let Err(e) = std::fs::write(dir.join(name), body) {
            eprintln!("ablation_corpus: cannot write {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
