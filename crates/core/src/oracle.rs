//! The lifecycle data-loss oracle and its failure taxonomy.
//!
//! The fleet machinery can sweep thousands of migrations, but a sweep is
//! only as good as its verdicts. This module is the one shared
//! implementation of the per-scenario checks the integration suite and
//! the ablation benches previously duplicated ad hoc:
//!
//! * **capture** — [`OracleSnapshot::capture`] records the app state the
//!   user was promised *before* anything races it: the logical data tree
//!   (persisted files plus writes still buffered in app memory) and the
//!   record-log length;
//! * **perturb** — a [`LifecycleSchedule`] injects the pause/stop/kill
//!   interleavings of Riganelli et al.'s data-loss benchmark, and a
//!   [`FaultPlan`](flux_simcore::FaultPlan) on the migration injects
//!   mid-stage faults;
//! * **verdict** — [`OracleSnapshot::verdict`] checks the terminal world
//!   against the snapshot (guest-vs-home data-tree byte-equality, replay
//!   coverage, rollback invariants) and classifies every violation into a
//!   [`FailureClass`], the taxonomy modeled on the benchmark's bug
//!   classes;
//! * **tally** — [`Taxonomy`] accumulates verdicts into the class counts
//!   the sweeps report instead of a pass/fail list.

use crate::engine::StageFailure;
use crate::errors::FluxError;
use crate::fleet::FleetOutcome;
use crate::migration::{MigrationReport, MigrationSpec, MigrationStage, StageInterrupt};
use crate::record::CallLog;
use crate::world::{DeviceId, FluxWorld};
use flux_appfw::{ActivityState, LifecycleEvent};
use flux_simcore::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// The data-loss bug classes the oracle distinguishes, modeled on the
/// taxonomy of "A Benchmark of Data Loss Bugs for Android Apps"
/// (Riganelli et al.) projected onto migration:
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// State the user was promised is missing or different afterwards — a
    /// write raced by a lifecycle transition and dropped.
    LostWrite,
    /// Record-log replay did not cover the promised log exactly: entries
    /// vanished before replay or the log shrank across a rollback.
    StaleReplay,
    /// A rollback (or a completion) left residue behind: staged chunks on
    /// the guest, a guest-side app after rollback, a home-side app after
    /// completion, or a home app not restored to the foreground.
    RollbackResidue,
    /// Refused because the app preserves its EGL context on pause — the
    /// paper's one GL limitation (§3.4, the Subway Surfers case).
    EglContext,
    /// Refused for any other §3.1–3.4 incompatibility: multi-process,
    /// API level, common SD-card files, ContentProvider interactions,
    /// non-system Binder connections, unpaired devices.
    IncompatibleFeature,
}

impl FailureClass {
    /// All classes, in taxonomy-report order.
    pub const ALL: [FailureClass; 5] = [
        FailureClass::LostWrite,
        FailureClass::StaleReplay,
        FailureClass::RollbackResidue,
        FailureClass::EglContext,
        FailureClass::IncompatibleFeature,
    ];

    /// The stable report key.
    pub fn key(&self) -> &'static str {
        match self {
            FailureClass::LostWrite => "lost-write",
            FailureClass::StaleReplay => "stale-replay",
            FailureClass::RollbackResidue => "rollback-residue",
            FailureClass::EglContext => "egl-context",
            FailureClass::IncompatibleFeature => "incompatible-feature",
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Classifies a refusal into its taxonomy class; `None` for failures that
/// are not refusals (faults, rollback errors, internal errors).
pub fn classify_refusal(failure: &StageFailure) -> Option<FailureClass> {
    match failure {
        StageFailure::PreservedEglContext => Some(FailureClass::EglContext),
        StageFailure::MultiProcess { .. }
        | StageFailure::ApiLevelIncompatible { .. }
        | StageFailure::CommonSdCardFile { .. }
        | StageFailure::ContentProviderActive
        | StageFailure::NonSystemBinder { .. }
        | StageFailure::NotPaired
        | StageFailure::NoSuchApp(_) => Some(FailureClass::IncompatibleFeature),
        StageFailure::FaultAborted { .. }
        | StageFailure::Interrupted { .. }
        | StageFailure::RollbackFailed { .. }
        | StageFailure::Internal(_) => None,
    }
}

/// One classified oracle finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misbehaviour {
    /// The taxonomy class.
    pub class: FailureClass,
    /// What exactly was observed.
    pub detail: String,
}

/// How the migration itself terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioOutcome {
    /// The app runs on the guest.
    Completed,
    /// A fault exhausted the retry budget; the world rolled back.
    RolledBack,
    /// Preflight refused before any state was touched.
    Refused,
}

impl ScenarioOutcome {
    /// The stable report key.
    pub fn key(&self) -> &'static str {
        match self {
            ScenarioOutcome::Completed => "completed",
            ScenarioOutcome::RolledBack => "rolled_back",
            ScenarioOutcome::Refused => "refused",
        }
    }
}

/// The oracle's judgement of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleVerdict {
    /// How the migration terminated.
    pub outcome: ScenarioOutcome,
    /// Every classified violation (empty for a clean scenario). A refusal
    /// records its class here even when the refusal itself was handled
    /// cleanly — the class *is* the taxonomy entry.
    pub failures: Vec<Misbehaviour>,
}

impl OracleVerdict {
    /// No misbehaviour of any class.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Whether some failure of `class` was found.
    pub fn has(&self, class: FailureClass) -> bool {
        self.failures.iter().any(|m| m.class == class)
    }
}

/// The app state the user was promised, captured before a scenario's
/// lifecycle schedule and migration race it.
#[derive(Debug, Clone)]
pub struct OracleSnapshot {
    home: DeviceId,
    guest: DeviceId,
    package: String,
    home_name: String,
    /// The *logical* data tree: persisted files under `/data/data/<pkg>`
    /// plus writes still buffered in app memory (overlaid at the path a
    /// flush would give them).
    tree: BTreeMap<String, flux_fs::Content>,
    /// Record-log length at migration time (refreshable: a kill between
    /// capture and migrate legitimately resets the log).
    log_len: usize,
}

impl OracleSnapshot {
    /// Captures the promised state of `package` on `home` ahead of a
    /// migration to `guest`.
    pub fn capture(
        world: &FluxWorld,
        home: DeviceId,
        guest: DeviceId,
        package: &str,
    ) -> Result<Self, FluxError> {
        let dev = world.device(home)?;
        let root = format!("/data/data/{package}");
        let mut tree: BTreeMap<String, flux_fs::Content> = dev
            .fs
            .list_under(&root)
            .map(|(path, entry)| (path.to_string(), entry.content))
            .collect();
        let mut log_len = 0;
        if let Some(app) = dev.apps.get(package) {
            // Buffered writes are part of the promise: the app told the
            // user "saved" even though the bytes sit in memory.
            for w in &app.pending_writes {
                tree.insert(
                    format!("{root}/files/{}", w.name),
                    flux_fs::Content::new(w.size, w.hash),
                );
            }
            log_len = dev.records.log(app.uid).map_or(0, CallLog::len);
        }
        Ok(Self {
            home,
            guest,
            package: package.to_owned(),
            home_name: dev.name.clone(),
            tree,
            log_len,
        })
    }

    /// Re-reads the record-log length from the world. Call after applying
    /// a lifecycle schedule: a kill legitimately resets the log (the
    /// recorded calls died with the process), and replay coverage must be
    /// judged against the log as it stood when the migration started —
    /// while the data tree keeps judging against the original promise.
    pub fn refresh_log_len(&mut self, world: &FluxWorld) {
        if let Ok(dev) = world.device(self.home) {
            self.log_len = dev
                .apps
                .get(&self.package)
                .map(|app| dev.records.log(app.uid).map_or(0, CallLog::len))
                .unwrap_or(0);
        }
    }

    /// The migrating package.
    pub fn package(&self) -> &str {
        &self.package
    }

    /// Number of files in the promised data tree.
    pub fn file_count(&self) -> usize {
        self.tree.len()
    }

    /// The promised record-log length.
    pub fn log_len(&self) -> usize {
        self.log_len
    }

    /// Judges the terminal world against this snapshot. `outcome` is the
    /// migration's result — a report on success, the error otherwise.
    /// Read-only over the world, so a verdict can be re-taken (the
    /// seeded-bug tests tamper with the world between verdicts).
    pub fn verdict(
        &self,
        world: &FluxWorld,
        outcome: Result<&MigrationReport, &FluxError>,
    ) -> OracleVerdict {
        match outcome {
            Ok(report) => self.verdict_completed(world, report),
            Err(e) => match e.as_migration() {
                Some(failure) => match classify_refusal(failure) {
                    Some(class) => self.verdict_refused(world, failure, class),
                    None => self.verdict_rolled_back(world, failure),
                },
                // Non-migration errors (world/config) never start the
                // pipeline; judge them like refusals without a class.
                None => {
                    let mut v = OracleVerdict {
                        outcome: ScenarioOutcome::Refused,
                        failures: Vec::new(),
                    };
                    self.check_home_promise_intact(world, &mut v.failures);
                    v
                }
            },
        }
    }

    /// Judges a [`FleetOutcome`] — the fleet-path entry point.
    pub fn verdict_for(&self, world: &FluxWorld, outcome: &FleetOutcome) -> OracleVerdict {
        match outcome {
            FleetOutcome::Completed(report) => self.verdict(world, Ok(report)),
            FleetOutcome::RolledBack { error } | FleetOutcome::Refused { error } => {
                self.verdict(world, Err(error))
            }
        }
    }

    fn verdict_completed(&self, world: &FluxWorld, report: &MigrationReport) -> OracleVerdict {
        let mut failures = Vec::new();
        let (Ok(home_dev), Ok(guest_dev)) = (world.device(self.home), world.device(self.guest))
        else {
            return OracleVerdict {
                outcome: ScenarioOutcome::Completed,
                failures: vec![Misbehaviour {
                    class: FailureClass::RollbackResidue,
                    detail: "scenario devices vanished".into(),
                }],
            };
        };
        // Guest-vs-home data-tree byte-equality: every promised file must
        // sit in the guest's pairing mirror with identical content.
        let mirror_root = guest_dev
            .pairings
            .get(&self.home.0)
            .map(|p| p.root.clone())
            .unwrap_or_else(|| format!("/data/flux/{}", self.home_name));
        for (path, content) in &self.tree {
            let mirror_path = format!("{mirror_root}{path}");
            match guest_dev.fs.get(&mirror_path) {
                None => failures.push(Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: format!("{path} missing from the guest mirror"),
                }),
                Some(entry) if entry.content != *content => failures.push(Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: format!(
                        "{path} differs on the guest: {:?} vs promised {:?}",
                        entry.content, content
                    ),
                }),
                Some(_) => {}
            }
        }
        // Replay coverage: every promised log entry visited exactly once.
        // A kill the engine *delivered mid-migration* legitimately wiped
        // the record log after the promise was refreshed (the recorded
        // calls died with the process); the lost buffered writes still
        // surface above as LostWrite, so excusing the replay count here
        // does not mask the data loss.
        let killed_mid_stage = report
            .interrupts
            .iter()
            .any(|i| matches!(i.event, LifecycleEvent::Kill));
        let replay_total = report.replay.total() as usize;
        if replay_total != self.log_len && !killed_mid_stage {
            failures.push(Misbehaviour {
                class: FailureClass::StaleReplay,
                detail: format!(
                    "replay covered {replay_total} of {} promised log entries",
                    self.log_len
                ),
            });
        }
        // The app must actually have moved.
        if !guest_dev.apps.contains_key(&self.package) {
            failures.push(Misbehaviour {
                class: FailureClass::LostWrite,
                detail: "app never arrived on the guest".into(),
            });
        }
        if home_dev.apps.contains_key(&self.package) {
            failures.push(Misbehaviour {
                class: FailureClass::RollbackResidue,
                detail: "home still holds the app after completion".into(),
            });
        }
        OracleVerdict {
            outcome: ScenarioOutcome::Completed,
            failures,
        }
    }

    fn verdict_rolled_back(&self, world: &FluxWorld, failure: &StageFailure) -> OracleVerdict {
        let mut failures = Vec::new();
        if let StageFailure::RollbackFailed { reason } = failure {
            failures.push(Misbehaviour {
                class: FailureClass::RollbackResidue,
                detail: format!("rollback failed: {reason}"),
            });
        }
        // A mid-stage kill cold-restarted the home process: its record
        // log legitimately reset with it, so the rollback invariant on
        // the log length does not apply. Everything else (foregrounded,
        // alive, data tree, guest residue) is still checked in full.
        let killed_mid_stage = matches!(
            failure,
            StageFailure::Interrupted {
                event: LifecycleEvent::Kill,
                ..
            }
        );
        // Home side: the app is back in the foreground, alive, with its
        // promised data tree and its migration-time record log.
        if let Ok(home_dev) = world.device(self.home) {
            match home_dev.apps.get(&self.package) {
                None => failures.push(Misbehaviour {
                    class: FailureClass::RollbackResidue,
                    detail: "home app missing after rollback".into(),
                }),
                Some(app) => {
                    if app.top_state() != Some(ActivityState::Resumed) {
                        failures.push(Misbehaviour {
                            class: FailureClass::RollbackResidue,
                            detail: format!(
                                "home app not foregrounded after rollback: {:?}",
                                app.top_state()
                            ),
                        });
                    }
                    if home_dev.kernel.process(app.main_pid).is_err() {
                        failures.push(Misbehaviour {
                            class: FailureClass::RollbackResidue,
                            detail: "home process gone after rollback".into(),
                        });
                    }
                    let log_len = home_dev.records.log(app.uid).map_or(0, CallLog::len);
                    if log_len != self.log_len && !killed_mid_stage {
                        failures.push(Misbehaviour {
                            class: FailureClass::StaleReplay,
                            detail: format!(
                                "record log holds {log_len} entries after rollback, promised {}",
                                self.log_len
                            ),
                        });
                    }
                }
            }
            self.check_home_tree(home_dev, &mut failures);
        }
        // Guest side: residue-free.
        if let Ok(guest_dev) = world.device(self.guest) {
            if guest_dev.apps.contains_key(&self.package) {
                failures.push(Misbehaviour {
                    class: FailureClass::RollbackResidue,
                    detail: "guest still holds the app after rollback".into(),
                });
            }
            let root = guest_dev
                .pairings
                .get(&self.home.0)
                .map(|p| p.root.clone())
                .unwrap_or_else(|| format!("/data/flux/{}", self.home_name));
            for suffix in ["image", "precopy"] {
                let staged = format!("{root}/.migrate/{}.{suffix}", self.package);
                if guest_dev.fs.exists(&staged) {
                    failures.push(Misbehaviour {
                        class: FailureClass::RollbackResidue,
                        detail: format!("{staged} left behind on the guest"),
                    });
                }
            }
        }
        OracleVerdict {
            outcome: ScenarioOutcome::RolledBack,
            failures,
        }
    }

    fn verdict_refused(
        &self,
        world: &FluxWorld,
        failure: &StageFailure,
        class: FailureClass,
    ) -> OracleVerdict {
        // The refusal class is the taxonomy entry…
        let mut failures = vec![Misbehaviour {
            class,
            detail: failure.to_string(),
        }];
        // …and a refusal must be free: preflight runs before any state is
        // touched, so the promise must be fully intact on the home.
        self.check_home_promise_intact(world, &mut failures);
        OracleVerdict {
            outcome: ScenarioOutcome::Refused,
            failures,
        }
    }

    /// Checks the home data tree and record log still match the promise
    /// (used on paths where the engine claims it touched nothing).
    fn check_home_promise_intact(&self, world: &FluxWorld, failures: &mut Vec<Misbehaviour>) {
        let Ok(home_dev) = world.device(self.home) else {
            return;
        };
        self.check_home_tree(home_dev, failures);
        if let Some(app) = home_dev.apps.get(&self.package) {
            let log_len = home_dev.records.log(app.uid).map_or(0, CallLog::len);
            if log_len != self.log_len {
                failures.push(Misbehaviour {
                    class: FailureClass::StaleReplay,
                    detail: format!(
                        "record log holds {log_len} entries after refusal, promised {}",
                        self.log_len
                    ),
                });
            }
        }
    }

    /// Compares the home's *logical* data tree (disk plus any writes
    /// still buffered in app memory) against the snapshot.
    fn check_home_tree(&self, home_dev: &crate::world::Device, failures: &mut Vec<Misbehaviour>) {
        let root = format!("/data/data/{}", self.package);
        let mut now: BTreeMap<String, flux_fs::Content> = home_dev
            .fs
            .list_under(&root)
            .map(|(path, entry)| (path.to_string(), entry.content))
            .collect();
        if let Some(app) = home_dev.apps.get(&self.package) {
            for w in &app.pending_writes {
                now.insert(
                    format!("{root}/files/{}", w.name),
                    flux_fs::Content::new(w.size, w.hash),
                );
            }
        }
        for (path, content) in &self.tree {
            match now.get(path) {
                None => failures.push(Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: format!("{path} lost from the home data tree"),
                }),
                Some(c) if c != content => failures.push(Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: format!("{path} changed on the home: {c:?} vs promised {content:?}"),
                }),
                Some(_) => {}
            }
        }
    }
}

/// The lifecycle interleavings a scenario schedule injects between
/// capture and migration — or, for [`At`](Self::At), *inside* it — the
/// axis the corpus sweep ablates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LifecycleSchedule {
    /// Migrate the foregrounded app as-is.
    Undisturbed,
    /// `onPause` first (saves), then migrate the paused app.
    PauseThenMigrate,
    /// `onStop` first (saves), then migrate the stopped app.
    StopThenMigrate,
    /// Kill without callbacks (loses buffered writes and the record log),
    /// cold-restart, then migrate the restarted app.
    KillThenMigrate,
    /// Deliver `event` mid-migration, `offset` into the first entry of
    /// the anchor `stage` — the engine lands it on the next slice
    /// boundary. This is the schedule that reaches the Riganelli windows
    /// *inside* a running migration (kill mid-freeze, kill mid-transfer).
    At {
        /// The report stage the interrupt is anchored to.
        stage: MigrationStage,
        /// Offset past the stage's first entry.
        offset: SimDuration,
        /// The lifecycle event to deliver.
        event: LifecycleEvent,
    },
}

impl LifecycleSchedule {
    /// The pre-migration schedules, in sweep order. (`At` schedules are
    /// parameterised and enumerated by the sweeps that ablate them.)
    pub const ALL: [LifecycleSchedule; 4] = [
        LifecycleSchedule::Undisturbed,
        LifecycleSchedule::PauseThenMigrate,
        LifecycleSchedule::StopThenMigrate,
        LifecycleSchedule::KillThenMigrate,
    ];

    /// The stable report key. `At` schedules key as
    /// `mid-<stage>-<event>` (offset deliberately excluded: sweep cells
    /// ablate *where* the event lands, not the exact nanosecond).
    pub fn key(&self) -> String {
        match self {
            LifecycleSchedule::Undisturbed => "undisturbed".into(),
            LifecycleSchedule::PauseThenMigrate => "pause".into(),
            LifecycleSchedule::StopThenMigrate => "stop".into(),
            LifecycleSchedule::KillThenMigrate => "kill".into(),
            LifecycleSchedule::At { stage, event, .. } => {
                let event = match event {
                    LifecycleEvent::Pause => "pause",
                    LifecycleEvent::Stop => "stop",
                    LifecycleEvent::Kill => "kill",
                };
                format!("mid-{}-{event}", stage.name())
            }
        }
    }

    /// Applies the schedule's pre-migration lifecycle transition, if any
    /// ([`At`](Self::At) schedules act inside the migration instead — see
    /// [`interrupts`](Self::interrupts)).
    pub fn apply(
        &self,
        world: &mut FluxWorld,
        home: DeviceId,
        package: &str,
    ) -> Result<(), FluxError> {
        match self {
            LifecycleSchedule::Undisturbed | LifecycleSchedule::At { .. } => Ok(()),
            LifecycleSchedule::PauseThenMigrate => {
                world.lifecycle_event(home, package, LifecycleEvent::Pause)
            }
            LifecycleSchedule::StopThenMigrate => {
                world.lifecycle_event(home, package, LifecycleEvent::Stop)
            }
            LifecycleSchedule::KillThenMigrate => {
                world.lifecycle_event(home, package, LifecycleEvent::Kill)
            }
        }
    }

    /// The stage-anchored interrupts this schedule injects into the
    /// migration itself (empty for the pre-migration schedules).
    pub fn interrupts(&self) -> Vec<StageInterrupt> {
        match *self {
            LifecycleSchedule::At {
                stage,
                offset,
                event,
            } => vec![StageInterrupt::at(stage, offset, event)],
            _ => Vec::new(),
        }
    }
}

/// Runs one full scenario — capture, schedule, migrate, verdict — and
/// returns the oracle's judgement. The spec must carry a route.
pub fn run_scenario(
    world: &mut FluxWorld,
    schedule: LifecycleSchedule,
    mut spec: MigrationSpec,
) -> Result<OracleVerdict, FluxError> {
    let (home, guest) = spec.route.ok_or_else(|| {
        FluxError::Config("scenario spec has no route: set MigrationSpec::between".into())
    })?;
    let mut snap = OracleSnapshot::capture(world, home, guest, &spec.package)?;
    schedule.apply(world, home, &spec.package)?;
    snap.refresh_log_len(world);
    spec.interrupts.extend(schedule.interrupts());
    let result = crate::engine::migrate(world, spec);
    Ok(snap.verdict(world, result.as_ref()))
}

/// Failure-class counts plus outcome totals — what a sweep reports
/// instead of a pass/fail list. All five class keys are always present
/// (zero-filled), so serialized taxonomies compare byte-for-byte across
/// cells and passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    /// Scenarios whose migration completed.
    pub completed: u64,
    /// Scenarios whose migration rolled back.
    pub rolled_back: u64,
    /// Scenarios whose migration was refused.
    pub refused: u64,
    /// Scenarios with no misbehaviour of any class.
    pub clean: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Taxonomy {
    fn default() -> Self {
        let counts = FailureClass::ALL.iter().map(|c| (c.key(), 0)).collect();
        Self {
            completed: 0,
            rolled_back: 0,
            refused: 0,
            clean: 0,
            counts,
        }
    }
}

impl Taxonomy {
    /// Tallies one verdict. A scenario counts at most once per class,
    /// however many files it lost.
    pub fn record(&mut self, verdict: &OracleVerdict) {
        match verdict.outcome {
            ScenarioOutcome::Completed => self.completed += 1,
            ScenarioOutcome::RolledBack => self.rolled_back += 1,
            ScenarioOutcome::Refused => self.refused += 1,
        }
        if verdict.is_clean() {
            self.clean += 1;
        }
        for class in FailureClass::ALL {
            if verdict.has(class) {
                *self.counts.entry(class.key()).or_insert(0) += 1;
            }
        }
    }

    /// Scenarios that hit `class`.
    pub fn count(&self, class: FailureClass) -> u64 {
        self.counts.get(class.key()).copied().unwrap_or(0)
    }

    /// Number of distinct classes with a non-zero count.
    pub fn populated_classes(&self) -> usize {
        self.counts.values().filter(|&&n| n > 0).count()
    }

    /// Total scenarios tallied.
    pub fn total(&self) -> u64 {
        self.completed + self.rolled_back + self.refused
    }

    /// Adds another taxonomy's tallies into this one.
    pub fn merge(&mut self, other: &Taxonomy) {
        self.completed += other.completed;
        self.rolled_back += other.rolled_back;
        self.refused += other.refused;
        self.clean += other.clean;
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }
}

struct ClassCounts<'a>(&'a BTreeMap<&'static str, u64>);

impl serde::Serialize for ClassCounts<'_> {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        for (k, v) in self.0 {
            obj.field(k, v);
        }
        obj.end();
    }
}

impl serde::Serialize for Taxonomy {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("total", &self.total())
            .field("completed", &self.completed)
            .field("rolled_back", &self.rolled_back)
            .field("refused", &self.refused)
            .field("clean", &self.clean)
            .field("classes", &ClassCounts(&self.counts));
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusals_classify_into_the_two_refusal_classes() {
        assert_eq!(
            classify_refusal(&StageFailure::PreservedEglContext),
            Some(FailureClass::EglContext)
        );
        assert_eq!(
            classify_refusal(&StageFailure::MultiProcess { processes: 2 }),
            Some(FailureClass::IncompatibleFeature)
        );
        assert_eq!(
            classify_refusal(&StageFailure::ApiLevelIncompatible {
                required: 21,
                guest: 19
            }),
            Some(FailureClass::IncompatibleFeature)
        );
        assert_eq!(
            classify_refusal(&StageFailure::FaultAborted {
                stage: crate::migration::MigrationStage::Transfer,
                attempts: 3,
                detail: "drop".into()
            }),
            None
        );
    }

    #[test]
    fn taxonomy_counts_once_per_class_per_scenario() {
        let mut t = Taxonomy::default();
        t.record(&OracleVerdict {
            outcome: ScenarioOutcome::Completed,
            failures: vec![
                Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: "a".into(),
                },
                Misbehaviour {
                    class: FailureClass::LostWrite,
                    detail: "b".into(),
                },
            ],
        });
        t.record(&OracleVerdict {
            outcome: ScenarioOutcome::Refused,
            failures: vec![Misbehaviour {
                class: FailureClass::EglContext,
                detail: "egl".into(),
            }],
        });
        assert_eq!(t.count(FailureClass::LostWrite), 1);
        assert_eq!(t.count(FailureClass::EglContext), 1);
        assert_eq!(t.total(), 2);
        assert_eq!(t.clean, 0);
        assert_eq!(t.populated_classes(), 2);
    }

    #[test]
    fn taxonomy_serializes_all_classes_zero_filled() {
        let json = serde::to_json(&Taxonomy::default());
        for class in FailureClass::ALL {
            assert!(json.contains(class.key()), "{json}");
        }
        let merged_json = {
            let mut a = Taxonomy::default();
            a.merge(&Taxonomy::default());
            serde::to_json(&a)
        };
        assert_eq!(json, merged_json);
    }
}
