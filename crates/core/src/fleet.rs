//! Fleet-scale concurrent migration scheduling.
//!
//! The paper's evaluation migrates one app between one device pair; a
//! production deployment has many migrations in flight at once, contending
//! for the same radio. A [`FleetScheduler`] accepts a batch of
//! [`MigrationRequest`]s across N devices and drives them concurrently over
//! virtual time:
//!
//! * **Admission control** — at most [`FleetConfig::max_in_flight`]
//!   migrations on the air, and per-device exclusivity: a device can be the
//!   *source* of one migration and the *target* of one migration at a time,
//!   never two of the same role.
//! * **FIFO-with-priority queueing** — requests admit in descending
//!   [`MigrationRequest::priority`], FIFO (ascending request id) within a
//!   class. A request whose devices are busy is skipped, not head-of-line
//!   blocking: later requests backfill the air.
//! * **Shared medium over a cell topology** — every radio window of every
//!   in-flight migration drains a [`RadioMedium`]: a pre-copy round, the
//!   freeze-phase residue and a failed attempt's partial transfer each
//!   contend for the air individually, so K concurrent transfers in one
//!   cell see ~1/K goodput and concurrency is never free. A
//!   [`RadioTopology`] installed via [`FleetScheduler::with_topology`]
//!   splits the air into named cells with per-cell capacity, per-device
//!   association and deterministic mid-transfer roaming; the default is
//!   the original single-cell medium at
//!   [`FleetConfig::medium_capacity_mbps`].
//! * **Retry/rollback composition** — each request carries its own
//!   [`MigrationConfig`] (hence [`RetryPolicy`](crate::RetryPolicy)) and an
//!   optional [`FaultPlan`] expressed *relative to its own start*; a
//!   migration that exhausts its retries rolls back alone, occupying its
//!   devices for the time the attempts and the rollback actually took.
//!
//! # Execution model and determinism
//!
//! The fleet runs on two levels, split behind the [`Executor`] API. An
//! executor *executes* every request of the batch up front, one at a
//! time in canonical order, on the world's own devices, each under a
//! context of its own swapped into the world for the run: a clock opened
//! at the batch start and a forked RNG stream keyed by the request id,
//! while the whole batch records into one telemetry hub — see the
//! [`executor`](crate::executor) module.
//! Execution yields a stage-level [slice schedule](crate::Slice) per
//! request: every engine stage the run passed through, cut into CPU
//! stretches and radio windows as the engine's clock moved.
//!
//! The scheduler then re-times that schedule on the shared fleet
//! [`Timeline`] with a per-request *stage cursor*: each CPU slice is an
//! event on the timeline, and each radio window is admitted onto the
//! medium individually, in the cell the request's home device is
//! associated with at that instant. Tens of thousands of migrations
//! therefore interleave on one event queue at stage granularity, rather
//! than as monolithic pre/transfer/post blocks. At admission, the
//! request's part of the batch hub moves into the world hub shifted to
//! the admission instant, so spans land where the fleet schedule actually
//! placed them, and its gauge writes apply in admission order. The
//! batch's counters and histograms, which no order changes, merge into
//! the world hub once the batch drains.
//!
//! Per-device exclusivity makes the fleet schedule serialisable, admission
//! order is a pure function of (priority, request id) and completion
//! events, and RNG streams are keyed by request id — never by submission
//! or execution order. A batch therefore produces byte-identical reports
//! and telemetry however its requests were permuted; the fleet proptests
//! pin that permutation invariance. Simultaneous fleet events are
//! interleaved by a [`Timeline`] keyed on the stable request id (planned
//! roams fire after request events at the same instant, keyed from
//! `u64::MAX` downward). When the batch drains, the world clock advances
//! to the end of the fleet schedule (batch start plus makespan).
//!
//! Uncontended, a fleet radio window drains in exactly its serial air
//! time, so a single-request fleet reproduces a lone [`crate::migrate`]
//! run's stage figures to the nanosecond, provided the lone run uses the
//! same forked RNG stream — the scenario suite pins this.
//!
//! # Examples
//!
//! ```
//! use flux_core::{pair, FleetConfig, FleetScheduler, MigrationRequest, WorldBuilder};
//! use flux_device::DeviceProfile;
//! use flux_workloads::spec;
//!
//! let app = spec("WhatsApp").unwrap();
//! let (mut world, ids) = WorldBuilder::new()
//!     .seed(42)
//!     .device("phone", DeviceProfile::nexus4())
//!     .device("tablet", DeviceProfile::nexus7_2013())
//!     .app(0, app.clone())
//!     .pair(0, 1)
//!     .build()
//!     .unwrap();
//! world.run_script(ids[0], &app.package.clone(), &app.actions.clone()).unwrap();
//!
//! let scheduler = FleetScheduler::new(FleetConfig::default()).unwrap();
//! let batch = vec![MigrationRequest::new(1, ids[0], ids[1], &app.package)];
//! let report = scheduler.run(&mut world, batch).unwrap();
//! assert_eq!(report.completed, 1);
//! assert!(report.makespan > flux_simcore::SimDuration::ZERO);
//! ```

use crate::engine::slices::{ArmAction, SliceCursor, SliceKind};
use crate::errors::FluxError;
use crate::executor::{canonical_order, ExecutedMigration, Executor, SerialExecutor};
use crate::migration::{MigrationConfig, MigrationReport, MigrationStage, StageInterrupt};
use crate::world::{DeviceId, FluxWorld};
use flux_appfw::LifecycleEvent;
use flux_net::{CellTrace, RadioMedium, RadioTopology};
use flux_simcore::{FaultPlan, SimDuration, SimTime, Timeline};
use flux_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One migration the fleet should perform.
#[derive(Debug, Clone)]
pub struct MigrationRequest {
    /// Stable id: the determinism key (event ties, FIFO order, RNG stream
    /// fork) and the name of the request's telemetry lane. Unique within a
    /// batch.
    pub id: u64,
    /// Source device.
    pub home: DeviceId,
    /// Target device.
    pub guest: DeviceId,
    /// Package to migrate.
    pub package: String,
    /// Admission priority: higher admits first; FIFO by id within a class.
    pub priority: u8,
    /// Engine configuration (retry policy, pre-copy, pipelining, cache).
    pub cfg: MigrationConfig,
    /// Fault schedule relative to this migration's own start; the
    /// executor shifts it onto the batch-open instant, where the request
    /// executes. [`FaultPlan::none`] inherits the world's ambient plan
    /// instead.
    pub faults: FaultPlan,
    /// Stage-anchored lifecycle interrupts the engine delivers at slice
    /// boundaries inside the running migration (offsets are relative to
    /// the anchor stage's first entry).
    pub interrupts: Vec<StageInterrupt>,
}

impl MigrationRequest {
    /// A default-engine, priority-0, fault-free request.
    pub fn new(id: u64, home: DeviceId, guest: DeviceId, package: &str) -> Self {
        Self {
            id,
            home,
            guest,
            package: package.to_owned(),
            priority: 0,
            cfg: MigrationConfig::default(),
            faults: FaultPlan::none(),
            interrupts: Vec::new(),
        }
    }

    /// Sets the admission priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the engine configuration.
    pub fn with_config(mut self, cfg: MigrationConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the request-relative fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Adds a stage-anchored lifecycle interrupt to deliver mid-migration.
    pub fn with_interrupt(
        mut self,
        stage: MigrationStage,
        offset: SimDuration,
        event: LifecycleEvent,
    ) -> Self {
        self.interrupts
            .push(StageInterrupt::at(stage, offset, event));
        self
    }
}

/// Admission and contention knobs for a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Maximum concurrently in-flight migrations. `1` serialises the batch.
    pub max_in_flight: usize,
    /// Aggregate goodput (Mbit/s) of the shared radio medium when no
    /// explicit topology is installed — the capacity of the default
    /// single cell. The default clears a lone campus-WiFi dual-band
    /// transfer (~22 Mbit/s effective) but makes two concurrent transfers
    /// contend. Ignored when [`FleetScheduler::with_topology`] installs a
    /// cell topology.
    pub medium_capacity_mbps: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 4,
            medium_capacity_mbps: 30.0,
        }
    }
}

/// How one fleet request ended.
// One outcome lives per flight for the whole run either way; boxing the
// report would only move the 296 bytes behind a pointer every consumer
// then has to chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum FleetOutcome {
    /// The migration succeeded; the full single-pair report.
    Completed(MigrationReport),
    /// Faults exhausted the retry budget; the migration was rolled back and
    /// the app runs on its home device again.
    RolledBack {
        /// The terminal migration error.
        error: FluxError,
    },
    /// The engine refused the migration pre-flight (not paired, app not
    /// running, §3.3–3.4 restrictions); no device time or air was consumed.
    Refused {
        /// The refusal.
        error: FluxError,
    },
}

/// Serializes as a tagged object: `{"status": "completed", "report":
/// {..}}`, or `{"status": "rolled_back" | "refused", "error": "<reason>"}`.
impl serde::Serialize for FleetOutcome {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        match self {
            FleetOutcome::Completed(report) => {
                obj.field("status", &"completed").field("report", report);
            }
            FleetOutcome::RolledBack { error } => {
                obj.field("status", &"rolled_back").field("error", error);
            }
            FleetOutcome::Refused { error } => {
                obj.field("status", &"refused").field("error", error);
            }
        }
        obj.end();
    }
}

/// Deserializes the tagged object written by the [`serde::Serialize`]
/// impl. Errors come back as [`FluxError::Recovered`] carrying the
/// serialized reason verbatim.
impl<'de> serde::Deserialize<'de> for FleetOutcome {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        let status: String = v.read("status")?;
        match status.as_str() {
            "completed" => Ok(FleetOutcome::Completed(v.read("report")?)),
            "rolled_back" => Ok(FleetOutcome::RolledBack {
                error: v.read("error")?,
            }),
            "refused" => Ok(FleetOutcome::Refused {
                error: v.read("error")?,
            }),
            other => Err(serde::DeError::msg(format!(
                "unknown fleet outcome status `{other}`"
            ))),
        }
    }
}

impl FleetOutcome {
    /// Whether the request completed successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, FleetOutcome::Completed(_))
    }

    /// The single-pair report, when completed.
    pub fn report(&self) -> Option<&MigrationReport> {
        match self {
            FleetOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// Where one request spent its time on the fleet timeline.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// The request's stable id.
    pub id: u64,
    /// Migrated package.
    pub package: String,
    /// Source device.
    pub home: DeviceId,
    /// Target device.
    pub guest: DeviceId,
    /// Admission priority the request ran at.
    pub priority: u8,
    /// When the batch opened (all requests submit together).
    pub submitted_at: SimTime,
    /// When admission control let the request onto its devices.
    pub admitted_at: SimTime,
    /// When the first slice of its transfer *stage* started (the
    /// verification sync; the freeze-phase radio follows inside the same
    /// bracket). For requests that never reached the transfer stage
    /// (refusals, early rollbacks), the end of their span.
    pub transfer_start: SimTime,
    /// When the last slice of its transfer stage finished draining.
    /// Equals `transfer_start` when the request never reached the stage.
    pub transfer_end: SimTime,
    /// When the request left its devices.
    pub finished_at: SimTime,
    /// How it ended.
    pub outcome: FleetOutcome,
}

impl serde::Serialize for FlightRecord {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("id", &self.id)
            .field("package", &self.package)
            .field("home", &self.home)
            .field("guest", &self.guest)
            .field("priority", &self.priority)
            .field("submitted_at", &self.submitted_at)
            .field("admitted_at", &self.admitted_at)
            .field("transfer_start", &self.transfer_start)
            .field("transfer_end", &self.transfer_end)
            .field("finished_at", &self.finished_at)
            .field("outcome", &self.outcome);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for FlightRecord {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            id: v.read("id")?,
            package: v.read("package")?,
            home: v.read("home")?,
            guest: v.read("guest")?,
            priority: v.read("priority")?,
            submitted_at: v.read("submitted_at")?,
            admitted_at: v.read("admitted_at")?,
            transfer_start: v.read("transfer_start")?,
            transfer_end: v.read("transfer_end")?,
            finished_at: v.read("finished_at")?,
            outcome: v.read("outcome")?,
        })
    }
}

impl FlightRecord {
    /// Time spent queued before admission.
    pub fn queue_wait(&self) -> SimDuration {
        self.admitted_at.since(self.submitted_at)
    }

    /// Admission-to-finish span.
    pub fn span(&self) -> SimDuration {
        self.finished_at.since(self.admitted_at)
    }
}

/// The result of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One record per request, ascending by request id.
    pub flights: Vec<FlightRecord>,
    /// When the batch opened.
    pub started_at: SimTime,
    /// Fleet-timeline span from batch open to the last flight's finish.
    pub makespan: SimDuration,
    /// What the same batch would have taken with `max_in_flight = 1` under
    /// the same medium: the sum of every flight's uncontended span, each
    /// radio window priced at its home cell's capacity (association as of
    /// the flight's admission).
    pub serialized_makespan: SimDuration,
    /// Most migrations simultaneously in flight.
    pub peak_in_flight: usize,
    /// Per-cell traces: each cell's spec plus its constant-rate
    /// allocation segments. A single-cell topology has one entry, the
    /// whole medium's trace.
    pub cells: Vec<CellTrace>,
    /// Requests that completed.
    pub completed: usize,
    /// Requests that rolled back.
    pub rolled_back: usize,
    /// Requests refused pre-flight.
    pub refused: usize,
}

/// Serializes the whole report tree — flights, timing and cell traces —
/// compactly: the form service snapshots persist and the service's
/// `REPORT` reply carries.
impl serde::Serialize for FleetReport {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("flights", &self.flights)
            .field("started_at", &self.started_at)
            .field("makespan", &self.makespan)
            .field("serialized_makespan", &self.serialized_makespan)
            .field("peak_in_flight", &self.peak_in_flight)
            .field("cells", &self.cells)
            .field("completed", &self.completed)
            .field("rolled_back", &self.rolled_back)
            .field("refused", &self.refused);
        obj.end();
    }
}

/// Deserializes the report tree; with [`serde::Serialize`] this gives the
/// byte-identical JSON round-trip that snapshot recovery depends on.
impl<'de> serde::Deserialize<'de> for FleetReport {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            flights: v.read("flights")?,
            started_at: v.read("started_at")?,
            makespan: v.read("makespan")?,
            serialized_makespan: v.read("serialized_makespan")?,
            peak_in_flight: v.read("peak_in_flight")?,
            cells: v.read("cells")?,
            completed: v.read("completed")?,
            rolled_back: v.read("rolled_back")?,
            refused: v.read("refused")?,
        })
    }
}

/// A request occupying its devices, with its [`SliceCursor`] into the
/// executed slice schedule.
struct Active {
    idx: usize,
    admitted_at: SimTime,
    /// The engine-owned walk over the executed schedule: the position and
    /// the transfer bracket live here.
    cursor: SliceCursor,
    outcome: FleetOutcome,
}

/// Per-device exclusivity for one batch: a device is the source of at most
/// one flight and the target of at most one flight at a time. Devices are
/// numbered densely per batch from the ids the requests name, so a check
/// is two flag reads whatever those ids are (a request may name a missing
/// device: preflight refuses it, but it still passes through admission).
struct DeviceClaims {
    /// `(home, guest)` as dense device indices, per request.
    slots: Vec<(usize, usize)>,
    source: Vec<bool>,
    target: Vec<bool>,
}

impl DeviceClaims {
    fn new(requests: &[MigrationRequest]) -> Self {
        let mut dense: BTreeMap<usize, usize> = BTreeMap::new();
        let mut index = |device: DeviceId| {
            let next = dense.len();
            *dense.entry(device.0).or_insert(next)
        };
        let slots: Vec<(usize, usize)> = requests
            .iter()
            .map(|req| (index(req.home), index(req.guest)))
            .collect();
        Self {
            slots,
            source: vec![false; dense.len()],
            target: vec![false; dense.len()],
        }
    }

    /// Claims request `idx`'s home as a source and its guest as a target,
    /// if both are free.
    fn try_claim(&mut self, idx: usize) -> bool {
        let (home, guest) = self.slots[idx];
        if self.source[home] || self.target[guest] {
            return false;
        }
        self.source[home] = true;
        self.target[guest] = true;
        true
    }

    /// Frees request `idx`'s devices.
    fn release(&mut self, idx: usize) {
        let (home, guest) = self.slots[idx];
        self.source[home] = false;
        self.target[guest] = false;
    }
}

/// Fleet-timeline events. Request events are keyed by the request id;
/// planned roams are keyed from `u64::MAX` downward so they fire *after*
/// request events due at the same instant.
enum FleetEvent {
    /// The armed CPU slice of a request ran to completion (or its schedule
    /// drained and the request should finish through the event loop).
    SliceDone,
    /// A planned roam: `device` re-associates with cell `cell`, carrying
    /// its in-flight flows.
    Roam { device: u64, cell: String },
}

/// Drives batches of migrations concurrently over virtual time.
///
/// Execution is delegated to the configured [`Executor`] —
/// [`SerialExecutor`] unless [`FleetScheduler::with_executor`] installs
/// another. See the [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct FleetScheduler {
    cfg: FleetConfig,
    topology: Option<RadioTopology>,
    executor: Arc<dyn Executor>,
}

impl FleetScheduler {
    /// Validates `cfg` and builds a scheduler with the default
    /// [`SerialExecutor`].
    ///
    /// # Errors
    ///
    /// [`FluxError::Config`] when `max_in_flight` is zero or the medium
    /// capacity is not strictly positive and finite.
    pub fn new(cfg: FleetConfig) -> Result<Self, FluxError> {
        if cfg.max_in_flight == 0 {
            return Err(FluxError::Config(
                "fleet max_in_flight must be at least 1".into(),
            ));
        }
        if !(cfg.medium_capacity_mbps > 0.0 && cfg.medium_capacity_mbps.is_finite()) {
            return Err(FluxError::Config(format!(
                "fleet medium capacity must be positive, got {}",
                cfg.medium_capacity_mbps
            )));
        }
        Ok(Self {
            cfg,
            topology: None,
            executor: Arc::new(SerialExecutor),
        })
    }

    /// Replaces the executor the scheduler runs batches through.
    pub fn with_executor(mut self, executor: impl Executor + 'static) -> Self {
        self.executor = Arc::new(executor);
        self
    }

    /// Installs a multi-AP cell topology: radio windows contend per cell
    /// (by the home device's association), and the topology's roam plan
    /// fires deterministically on the fleet timeline. Without this, the
    /// medium is a single cell at [`FleetConfig::medium_capacity_mbps`].
    pub fn with_topology(mut self, topology: RadioTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Runs `requests` to completion and returns the fleet report.
    ///
    /// Every request reaches a terminal [`FleetOutcome`]; an individual
    /// migration failing is reported per-flight, not as an `Err`.
    ///
    /// # Errors
    ///
    /// [`FluxError::Config`] when two requests share an id (the id is the
    /// determinism key, so collisions would make tie-breaking ambiguous),
    /// when an installed topology has no cells, or when a request id
    /// collides with the timeline keys reserved for the roam plan.
    pub fn run(
        &self,
        world: &mut FluxWorld,
        requests: Vec<MigrationRequest>,
    ) -> Result<FleetReport, FluxError> {
        let single_cell;
        let topology = match &self.topology {
            Some(t) => {
                if t.cells().is_empty() {
                    return Err(FluxError::Config(
                        "fleet radio topology needs at least one cell".into(),
                    ));
                }
                t
            }
            None => {
                single_cell = RadioTopology::single_cell(self.cfg.medium_capacity_mbps);
                &single_cell
            }
        };
        // Roam events ride the same timeline as request events, keyed from
        // u64::MAX downward; the id spaces must not meet.
        let roam_key_floor = u64::MAX - topology.roam_plan().len() as u64;
        let mut ids = BTreeSet::new();
        for req in &requests {
            if !ids.insert(req.id) {
                return Err(FluxError::Config(format!(
                    "duplicate fleet request id {}",
                    req.id
                )));
            }
            if req.id >= roam_key_floor {
                return Err(FluxError::Config(format!(
                    "fleet request id {} collides with the timeline keys reserved \
                     for the topology's {} planned roam(s)",
                    req.id,
                    topology.roam_plan().len()
                )));
            }
        }

        let start = world.clock.now();
        world
            .telemetry
            .counter_add("flux.fleet.submitted", requests.len() as u64);

        // Execute the whole batch up front: one measured slice schedule per
        // request, each run on a private clock (see `crate::executor`).
        let mut execs: Vec<Option<ExecutedMigration>> = self
            .executor
            .execute(world, &requests)
            .into_iter()
            .map(Some)
            .collect();
        debug_assert_eq!(execs.len(), requests.len());
        // The batch recorded into one hub; each admission moves its
        // request's part of it into the world hub.
        let batch = execs
            .first()
            .and_then(Option::as_ref)
            .map(|exec| Arc::clone(&exec.batch));

        // Admission follows the executor's canonical order, independent of
        // the order `requests` arrived in.
        let queue = canonical_order(&requests);

        let mut medium = RadioMedium::with_topology(topology, start);
        let mut timeline: Timeline<FleetEvent> = Timeline::new();
        for (i, roam) in topology.roam_plan().iter().enumerate() {
            timeline.schedule(
                start + roam.at,
                u64::MAX - i as u64,
                FleetEvent::Roam {
                    device: roam.device,
                    cell: roam.cell.clone(),
                },
            );
        }
        let mut active: BTreeMap<u64, Active> = BTreeMap::new();
        let mut claims = DeviceClaims::new(&requests);
        let mut flights: BTreeMap<u64, FlightRecord> = BTreeMap::new();
        let mut serialized = SimDuration::ZERO;
        let mut peak = 0usize;
        let mut now = start;
        // Admission bookkeeping: `queue[next_fresh..]` has never been
        // scanned; `parked` holds the already-scanned-but-skipped indices
        // (every parked index precedes every fresh one in canonical order,
        // so scanning parked-then-fresh preserves it). Each pass is
        // O(parked + admitted) instead of O(whole queue).
        let mut parked: Vec<usize> = Vec::new();
        let mut next_fresh = 0usize;
        // A pass runs at batch open and then only at instants where a
        // flight left its devices: a request is held back by a full air
        // or a busy device, and only a release frees either.
        let mut released = true;

        loop {
            // Admission pass: scan parked, then fresh, in canonical order,
            // admitting everything whose devices are free while slots
            // remain.
            let mut admit = |idx: usize,
                             world: &mut FluxWorld,
                             active: &mut BTreeMap<u64, Active>,
                             medium: &mut RadioMedium,
                             timeline: &mut Timeline<FleetEvent>,
                             claims: &mut DeviceClaims,
                             serialized: &mut SimDuration|
             -> bool {
                if active.len() >= self.cfg.max_in_flight || !claims.try_claim(idx) {
                    return false;
                }
                let req = &requests[idx];
                let exec = execs[idx].take().expect("each request admits once");
                let home_cell_capacity =
                    topology.cells()[medium.cell_of(req.home.0 as u64)].capacity_mbps;
                *serialized += isolated_span(&exec, home_cell_capacity);
                let ExecutedMigration {
                    outcome,
                    schedule,
                    batch: hub,
                    part,
                    ..
                } = exec;
                assert!(
                    batch.as_ref().is_some_and(|batch| Arc::ptr_eq(batch, &hub)),
                    "every request of a batch records into one hub"
                );
                // Land the request's part where the fleet schedule
                // actually placed it: its times run from the batch open,
                // so shifting by the queue wait pins the spans to the
                // admission instant, in admission order.
                world
                    .telemetry
                    .admit_part(&mut lock(&hub), part, now.since(start));
                world.telemetry.counter_add("flux.fleet.admitted", 1);
                let mut flight = Active {
                    idx,
                    admitted_at: now,
                    cursor: SliceCursor::new(schedule),
                    outcome,
                };
                arm(&mut flight, req, now, medium, timeline);
                active.insert(req.id, flight);
                true
            };
            if std::mem::take(&mut released) {
                parked.retain(|&idx| {
                    !admit(
                        idx,
                        world,
                        &mut active,
                        &mut medium,
                        &mut timeline,
                        &mut claims,
                        &mut serialized,
                    )
                });
                while active.len() < self.cfg.max_in_flight && next_fresh < queue.len() {
                    let idx = queue[next_fresh];
                    next_fresh += 1;
                    if !admit(
                        idx,
                        world,
                        &mut active,
                        &mut medium,
                        &mut timeline,
                        &mut claims,
                        &mut serialized,
                    ) {
                        parked.push(idx);
                    }
                }
                peak = peak.max(active.len());
                let queued = parked.len() + (queue.len() - next_fresh);
                world
                    .telemetry
                    .gauge_set("flux.fleet.queue_depth", queued as f64);
            }

            if active.is_empty() {
                // Nothing in flight and (with max_in_flight >= 1 and all
                // devices free) nothing admissible: the queue is drained.
                debug_assert!(parked.is_empty() && next_fresh == queue.len());
                break;
            }

            // Advance the fleet clock to the next interesting instant.
            let next = [medium.next_completion().map(|(t, _)| t), timeline.next_at()]
                .into_iter()
                .flatten()
                .min()
                .expect("active flights always have a pending event");
            medium.advance(next);
            now = next;

            // Drained radio windows first (they free air for flows joining
            // at the same instant), then due timeline events, both in
            // ascending key order — so request events precede same-instant
            // roams.
            for id in medium.take_completed() {
                released |= step_flight(
                    id,
                    now,
                    start,
                    world,
                    &requests,
                    &mut active,
                    &mut medium,
                    &mut timeline,
                    &mut claims,
                    &mut flights,
                );
            }
            while let Some((_, key, event)) = timeline.pop_due(now) {
                match event {
                    FleetEvent::SliceDone => {
                        released |= step_flight(
                            key,
                            now,
                            start,
                            world,
                            &requests,
                            &mut active,
                            &mut medium,
                            &mut timeline,
                            &mut claims,
                            &mut flights,
                        )
                    }
                    FleetEvent::Roam { device, cell } => medium.roam(device, &cell),
                }
            }
        }

        if let Some(batch) = batch {
            world.telemetry.merge_batch(&mut lock(&batch));
        }
        let makespan = now.since(start);
        // Execution ran on private request clocks; the world clock owes
        // the fleet schedule's span.
        world.clock.advance_to(start + makespan);
        world
            .telemetry
            .observe("flux.fleet.makespan_ms", makespan.as_millis());
        world
            .telemetry
            .gauge_set("flux.fleet.peak_in_flight", peak as f64);

        let flights: Vec<FlightRecord> = flights.into_values().collect();
        let completed = flights.iter().filter(|f| f.outcome.is_completed()).count();
        let rolled_back = flights
            .iter()
            .filter(|f| matches!(f.outcome, FleetOutcome::RolledBack { .. }))
            .count();
        let refused = flights
            .iter()
            .filter(|f| matches!(f.outcome, FleetOutcome::Refused { .. }))
            .count();
        let cells = medium.into_cell_traces();
        Ok(FleetReport {
            flights,
            started_at: start,
            makespan,
            serialized_makespan: serialized,
            peak_in_flight: peak,
            cells,
            completed,
            rolled_back,
            refused,
        })
    }
}

/// Locks a batch hub. Only the scheduler's own thread ever holds it.
fn lock(batch: &Mutex<Telemetry>) -> std::sync::MutexGuard<'_, Telemetry> {
    batch.lock().expect("batch hub lock poisoned")
}

/// Arms the flight's cursor slice: a CPU slice becomes a timeline event at
/// its completion instant; a radio window is admitted onto the medium in
/// the home device's cell. A drained schedule arms a same-instant
/// [`FleetEvent::SliceDone`] so the flight finishes through the event loop
/// (keeping same-instant ordering keyed by request id).
fn arm(
    flight: &mut Active,
    req: &MigrationRequest,
    now: SimTime,
    medium: &mut RadioMedium,
    timeline: &mut Timeline<FleetEvent>,
) {
    match flight.cursor.arm(now) {
        ArmAction::Cpu { dur } => {
            timeline.schedule(now + dur, req.id, FleetEvent::SliceDone);
        }
        ArmAction::Transfer { bytes, dur } => {
            medium.admit_from(req.id, req.home.0 as u64, bytes, dur);
        }
        ArmAction::Drained => {
            timeline.schedule(now, req.id, FleetEvent::SliceDone);
        }
    }
}

/// Advances one flight past its just-completed slice: marks the transfer
/// bracket, arms the next slice, or — when the schedule has drained —
/// releases the devices and records the flight. Returns whether the
/// flight released its devices.
#[allow(clippy::too_many_arguments)]
fn step_flight(
    id: u64,
    now: SimTime,
    submitted_at: SimTime,
    world: &mut FluxWorld,
    requests: &[MigrationRequest],
    active: &mut BTreeMap<u64, Active>,
    medium: &mut RadioMedium,
    timeline: &mut Timeline<FleetEvent>,
    claims: &mut DeviceClaims,
    flights: &mut BTreeMap<u64, FlightRecord>,
) -> bool {
    let flight = active.get_mut(&id).expect("completed slice has a flight");
    if flight.cursor.step(now) {
        // The cursor advanced; arm the next slice (or, if it drained the
        // tail, the same-instant finishing event — the flight stays
        // active until it fires).
        let req = &requests[flight.idx];
        arm(flight, req, now, medium, timeline);
        return false;
    }
    let flight = active.remove(&id).expect("finished flight is active");
    let req = &requests[flight.idx];
    claims.release(flight.idx);
    let record = finish_flight(world, req, flight, submitted_at, now);
    flights.insert(id, record);
    true
}

/// A flight's span had it run alone in its home cell — exactly the slice a
/// `max_in_flight = 1` schedule would give it on a roam-free topology: CPU
/// slices at face value, radio windows at the cell's solo drain.
fn isolated_span(exec: &ExecutedMigration, home_cell_capacity: f64) -> SimDuration {
    exec.schedule
        .iter()
        .map(|s| match s.kind {
            SliceKind::Cpu => s.dur,
            SliceKind::Transfer { bytes } => {
                RadioMedium::solo_drain(home_cell_capacity, bytes, s.dur)
            }
        })
        .fold(SimDuration::ZERO, |acc, d| acc + d)
}

/// Emits the flight's telemetry lane and builds its record.
fn finish_flight(
    world: &mut FluxWorld,
    req: &MigrationRequest,
    flight: Active,
    submitted_at: SimTime,
    finished_at: SimTime,
) -> FlightRecord {
    let transfer_start = flight.cursor.transfer_start().unwrap_or(finished_at);
    let transfer_end = flight.cursor.transfer_end().unwrap_or(finished_at);
    let lane = world.telemetry.lane(&format!("fleet.m{:03}", req.id));
    world
        .telemetry
        .record_complete(lane, "fleet.queued", submitted_at, flight.admitted_at);
    world
        .telemetry
        .record_complete(lane, "fleet.pre", flight.admitted_at, transfer_start);
    if transfer_end > transfer_start {
        world
            .telemetry
            .record_complete(lane, "fleet.transfer", transfer_start, transfer_end);
    }
    world
        .telemetry
        .record_complete(lane, "fleet.post", transfer_end, finished_at);
    let counter = match flight.outcome {
        FleetOutcome::Completed(_) => "flux.fleet.completed",
        FleetOutcome::RolledBack { .. } => "flux.fleet.rolled_back",
        FleetOutcome::Refused { .. } => "flux.fleet.refused",
    };
    world.telemetry.counter_add(counter, 1);
    world.telemetry.observe(
        "flux.fleet.queue_wait_ms",
        flight.admitted_at.since(submitted_at).as_millis(),
    );
    FlightRecord {
        id: req.id,
        package: req.package.clone(),
        home: req.home,
        guest: req.guest,
        priority: req.priority,
        submitted_at,
        admitted_at: flight.admitted_at,
        transfer_start,
        transfer_end,
        finished_at,
        outcome: flight.outcome,
    }
}
