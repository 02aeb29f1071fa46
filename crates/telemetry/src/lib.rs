//! `flux-telemetry`: the observability subsystem of the Flux reproduction.
//!
//! The paper's whole evaluation (§6, Figures 12–17) is an exercise in
//! explaining *where virtual time and bytes go* during a migration. This
//! crate provides the machinery to answer that from one instrumented run:
//!
//! * [`Telemetry`] — the per-world hub: hierarchical **spans** over virtual
//!   time (enter/exit with parent links, one lane per simulated device)
//!   and lane-attributed **instant events**, the run's event log. Names
//!   are `Cow<'static, str>`, so recording under a name known at compile
//!   time allocates nothing, and an event's [`Detail`] keeps a radio
//!   chunk's numbers until an exporter writes them.
//! * [`batch`] — a *batch hub* that records many runs one after another
//!   on a world hub's lanes, each cut off as a [`Part`] that moves into
//!   that hub later, shifted in time: how a fleet records its requests up
//!   front and lands each one at its admission.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms
//!   under the `flux.<crate>.<name>` naming scheme, held in a `BTreeMap`
//!   so snapshot iteration order — and therefore exporter output — is
//!   byte-stable across runs.
//! * [`export`] — three exporters: Chrome `about://tracing` JSON
//!   ([`export::chrome_trace`]), a per-stage migration profile table
//!   ([`export::MigrationProfile`]) and a plain JSON snapshot
//!   ([`export::json_snapshot`]) for benches and golden tests. The JSON
//!   exporters write through the vendored `serde` codec, and
//!   [`serde::parse`] reads their output back.
//!
//! Everything is deterministic: telemetry consumes no randomness and never
//! charges the virtual clock, which no hub method can reach, so recording
//! cannot perturb an experiment.
//!
//! # Examples
//!
//! ```
//! use flux_simcore::{SimClock, SimDuration};
//! use flux_telemetry::{span, Telemetry};
//!
//! let mut tele = Telemetry::new();
//! let mut clock = SimClock::new();
//! let lane = tele.lane("phone");
//! let total = span!(tele, clock, lane, "migration", {
//!     span!(tele, clock, lane, "checkpoint", {
//!         clock.charge(SimDuration::from_millis(250));
//!     });
//!     tele.counter_add("flux.migration.completed", 1);
//!     clock.now()
//! });
//! assert_eq!(total.as_millis(), 250);
//! assert_eq!(tele.spans().len(), 2);
//! assert_eq!(tele.metrics().counter("flux.migration.completed"), 1);
//! ```

pub mod batch;
pub mod export;
pub mod metrics;

pub use batch::Part;
pub use export::{
    chrome_trace, json_snapshot, stage_metric_name, stage_span_name, static_name, MigrationProfile,
    REPORT_STAGES, STAGE_SPAN_PREFIX,
};
pub use metrics::{Histogram, Metric, MetricsRegistry};

use flux_simcore::{ByteSize, SimDuration, SimTime, TraceKind};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one lane (a simulated device or process) in the span tree
/// and the Chrome trace. Lane 0 is always the world lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(pub u32);

impl LaneId {
    /// The implicit world lane every hub starts with.
    pub const WORLD: LaneId = LaneId(0);

    /// The lane at position `ix` of [`Telemetry::lanes`]. Panics rather
    /// than wrap if `ix` does not fit the id.
    fn at(ix: usize) -> LaneId {
        LaneId(u32::try_from(ix).expect("lane index fits in a u32 LaneId"))
    }
}

/// Identifies one span within a [`Telemetry`] hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The position of this span in [`Telemetry::spans`]. Lets consumers
    /// of an exported span list resolve [`Span::parent`] links.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hierarchical span: a named interval of virtual time on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"migration.stage.transfer"`. Names known at compile
    /// time are borrowed, so recording one allocates nothing.
    pub name: Cow<'static, str>,
    /// Lane (device/process) the span ran on.
    pub lane: LaneId,
    /// Enclosing span on the same lane, if any.
    pub parent: Option<SpanId>,
    /// Virtual time the span was entered.
    pub start: SimTime,
    /// Virtual time the span was exited; `None` while still open.
    pub end: Option<SimTime>,
}

impl Span {
    /// The span's duration (zero while still open).
    pub fn duration(&self) -> SimDuration {
        self.end
            .map(|e| e - self.start)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// A lane-attributed instant event (a Chrome "i" event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Lane it is attributed to.
    pub lane: LaneId,
    /// Event class (generic/fault/retry/rollback).
    pub kind: TraceKind,
    /// Dot-separated event name, e.g. `"net.chunk"`.
    pub name: Cow<'static, str>,
    /// What the event says; exporters write it as one string.
    pub detail: Detail,
}

/// The detail of an [`InstantEvent`].
///
/// Most events carry free text. A radio chunk keeps its numbers instead,
/// and the exporters format them only when they write the event, so a
/// fleet run records hundreds of thousands of chunks without formatting
/// one. [`Display`](fmt::Display) renders either form as the exported
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// Free-form text.
    Text(String),
    /// One radio chunk: `"<bytes> in <duration>"`, suffixed
    /// `" (congested)"` when congestion stretched it.
    Chunk {
        /// Payload the chunk carried.
        bytes: ByteSize,
        /// Air time it took.
        duration: SimDuration,
        /// Whether congestion stretched it.
        congested: bool,
    },
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Text(text) => f.write_str(text),
            Detail::Chunk {
                bytes,
                duration,
                congested,
            } => write!(
                f,
                "{bytes} in {duration}{}",
                if *congested { " (congested)" } else { "" }
            ),
        }
    }
}

impl From<String> for Detail {
    fn from(text: String) -> Self {
        Detail::Text(text)
    }
}

impl From<&str> for Detail {
    fn from(text: &str) -> Self {
        Detail::Text(text.to_owned())
    }
}

/// The per-world telemetry hub. See the [crate docs](self); a batch hub
/// ([`Telemetry::batch`]) records like any other, except as the [`batch`]
/// module says.
#[derive(Debug, Clone)]
pub struct Telemetry {
    lanes: Vec<String>,
    /// `lanes` by name, so interning is a lookup rather than a scan.
    lane_index: BTreeMap<String, LaneId>,
    spans: Vec<Span>,
    /// Per-lane stack of open spans (indices into `spans`).
    open: Vec<Vec<u32>>,
    instants: Vec<InstantEvent>,
    /// Cap on `instants.len()`; `None` means unbounded.
    event_capacity: Option<usize>,
    /// Instant events discarded because the cap was reached.
    dropped_events: u64,
    metrics: MetricsRegistry,
    /// What a batch hub records beyond a world hub; `None` on a world hub.
    batch: Option<batch::BatchLog>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates a hub with the world lane registered.
    pub fn new() -> Self {
        Self {
            lanes: vec!["world".to_owned()],
            lane_index: BTreeMap::from([("world".to_owned(), LaneId::WORLD)]),
            spans: Vec::new(),
            open: vec![Vec::new()],
            instants: Vec::new(),
            event_capacity: None,
            dropped_events: 0,
            metrics: MetricsRegistry::new(),
            batch: None,
        }
    }

    /// Caps the instant-event list at `limit` entries; events beyond the
    /// cap are counted as dropped (see [`Telemetry::dropped_events`])
    /// instead of growing memory without bound during long fault sweeps.
    pub fn set_event_capacity(&mut self, limit: usize) {
        self.event_capacity = Some(limit);
    }

    /// Events dropped by the capacity limit so far. Exported as the
    /// `flux.telemetry.events_dropped` metric in snapshots.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    // ---- lanes ----------------------------------------------------------

    /// Interns a lane by name, returning its id. Registering the same name
    /// twice returns the same lane. Panics on a batch hub, which records
    /// on the lanes of the hub it was opened from: a lane created there
    /// could alias one that hub registers later (see [`batch`]).
    pub fn lane(&mut self, name: &str) -> LaneId {
        assert!(
            self.batch.is_none(),
            "lane `{name}` interned on a batch hub, which records only on its world hub's lanes"
        );
        if let Some(&id) = self.lane_index.get(name) {
            return id;
        }
        let id = LaneId::at(self.lanes.len());
        self.lanes.push(name.to_owned());
        self.lane_index.insert(name.to_owned(), id);
        self.open.push(Vec::new());
        id
    }

    /// Registered lane names, in registration order.
    pub fn lanes(&self) -> &[String] {
        &self.lanes
    }

    /// The position of `lane` in [`Telemetry::lanes`]. Panics, printing
    /// the lane and the lane count, when the hub has no such lane, rather
    /// than record onto another one.
    fn lane_ix(&self, lane: LaneId) -> usize {
        let ix = lane.0 as usize;
        assert!(
            ix < self.lanes.len(),
            "lane {} is not registered: the hub has {} lanes",
            lane.0,
            self.lanes.len()
        );
        ix
    }

    // ---- spans ----------------------------------------------------------

    /// Opens a span on `lane` at virtual time `at`. The parent is the
    /// innermost span still open on the same lane. Panics when the hub
    /// has no such lane.
    pub fn enter(
        &mut self,
        lane: LaneId,
        name: impl Into<Cow<'static, str>>,
        at: SimTime,
    ) -> SpanId {
        let lane_ix = self.lane_ix(lane);
        let parent = self.open[lane_ix].last().map(|&i| SpanId(i));
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: name.into(),
            lane,
            parent,
            start: at,
            end: None,
        });
        self.open[lane_ix].push(id);
        SpanId(id)
    }

    /// Closes span `id` at virtual time `at`. Any children still open on
    /// the same lane are closed at the same instant, so spans always nest
    /// strictly. Exiting an already-closed span is a no-op.
    pub fn exit(&mut self, id: SpanId, at: SimTime) {
        let Some(span) = self.spans.get(id.0 as usize) else {
            return;
        };
        let lane_ix = span.lane.0 as usize;
        if !self.open[lane_ix].contains(&id.0) {
            return;
        }
        while let Some(top) = self.open[lane_ix].pop() {
            if self.spans[top as usize].end.is_none() {
                self.spans[top as usize].end = Some(at);
            }
            if top == id.0 {
                break;
            }
        }
    }

    /// Records an already-completed span `[start, end]` on `lane`, parented
    /// under the lane's innermost open span without touching the stack.
    /// Used to attribute a lump-charged cost window after the fact (e.g.
    /// splitting a CRIU checkpoint charge into per-driver sub-spans).
    /// Panics when the hub has no such lane.
    pub fn record_complete(
        &mut self,
        lane: LaneId,
        name: impl Into<Cow<'static, str>>,
        start: SimTime,
        end: SimTime,
    ) {
        let lane_ix = self.lane_ix(lane);
        let parent = self.open[lane_ix].last().map(|&i| SpanId(i));
        self.spans.push(Span {
            name: name.into(),
            lane,
            parent,
            start,
            end: Some(end),
        });
    }

    /// Closes every span still open on `lane`, at virtual time `at`.
    /// Error paths use this to settle a device lane whose stage spans were
    /// abandoned by an early return before continuing on another lane.
    /// Panics when the hub has no such lane.
    pub fn finish_lane(&mut self, lane: LaneId, at: SimTime) {
        let lane_ix = self.lane_ix(lane);
        while let Some(top) = self.open[lane_ix].pop() {
            if self.spans[top as usize].end.is_none() {
                self.spans[top as usize].end = Some(at);
            }
        }
    }

    /// Closes every span still open, at virtual time `at`. Call before
    /// exporting so the trace contains no dangling intervals.
    pub fn finish(&mut self, at: SimTime) {
        for stack in &mut self.open {
            while let Some(top) = stack.pop() {
                if self.spans[top as usize].end.is_none() {
                    self.spans[top as usize].end = Some(at);
                }
            }
        }
    }

    /// All spans recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all *closed* spans whose name is exactly `name`.
    pub fn span_total(&self, name: &str) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    // ---- events ---------------------------------------------------------

    /// Records a lane-attributed instant event. Subject to the event
    /// capacity. Panics when the hub has no such lane, even past the cap.
    pub fn instant(
        &mut self,
        lane: LaneId,
        kind: TraceKind,
        name: impl Into<Cow<'static, str>>,
        at: SimTime,
        detail: impl Into<Detail>,
    ) {
        self.lane_ix(lane);
        if self
            .event_capacity
            .is_some_and(|cap| self.instants.len() >= cap)
        {
            self.dropped_events += 1;
            return;
        }
        self.instants.push(InstantEvent {
            at,
            lane,
            kind,
            name: name.into(),
            detail: detail.into(),
        });
    }

    /// A generic instant event on the world lane.
    pub fn emit(
        &mut self,
        at: SimTime,
        category: impl Into<Cow<'static, str>>,
        detail: impl Into<Detail>,
    ) {
        self.instant(LaneId::WORLD, TraceKind::Generic, category, at, detail);
    }

    /// A typed instant event on the world lane.
    pub fn emit_kind(
        &mut self,
        at: SimTime,
        kind: TraceKind,
        category: impl Into<Cow<'static, str>>,
        detail: impl Into<Detail>,
    ) {
        self.instant(LaneId::WORLD, kind, category, at, detail);
    }

    /// Lane-attributed instant events, in emission order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    // ---- metrics --------------------------------------------------------

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Adds `delta` to the counter `name`, creating it at zero on first
    /// use.
    pub fn counter_add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Sets the counter `name` to an absolute value (idempotent harvest;
    /// see [`MetricsRegistry::counter_set`]). Panics on a batch hub, whose
    /// counters sum every run's: a set there would overwrite the other
    /// runs' counts.
    pub fn counter_set(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        assert!(
            self.batch.is_none(),
            "counter_set on a batch hub would overwrite its other runs' counts"
        );
        self.metrics.counter_set(name, value);
    }

    /// Sets the gauge `name` to `value`. A batch hub logs the write
    /// instead, so each run's writes reach the world hub when its part is
    /// admitted (see [`batch`]).
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        match &mut self.batch {
            Some(batch) => batch.gauges.push((name.into(), value)),
            None => self.metrics.gauge_set(name, value),
        }
    }

    /// Observes `value` in the histogram `name`, creating it on first use.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.metrics.observe(name, value);
    }
}

/// Brackets `$body` in a span: enters on `$lane` at `$clock.now()`,
/// evaluates the body, exits at the (possibly advanced) `$clock.now()`.
///
/// The telemetry and clock expressions are re-evaluated around the body, so
/// `span!(world.telemetry, world.clock, lane, "x", { use_world(world) })`
/// borrows cleanly. Early returns inside the body skip the exit; the span
/// is then closed when its parent exits (or at [`Telemetry::finish`]).
#[macro_export]
macro_rules! span {
    ($tele:expr, $clock:expr, $lane:expr, $name:expr, $body:expr) => {{
        let __flux_span = {
            let __flux_now = $clock.now();
            $tele.enter($lane, $name, __flux_now)
        };
        let __flux_out = $body;
        {
            let __flux_now = $clock.now();
            $tele.exit(__flux_span, __flux_now);
        }
        __flux_out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn spans_link_parents_per_lane() {
        let mut tele = Telemetry::new();
        let a = tele.lane("a");
        let b = tele.lane("b");
        let outer = tele.enter(a, "outer", t(0));
        let inner = tele.enter(a, "inner", t(1));
        let other = tele.enter(b, "other", t(1));
        assert_eq!(tele.spans()[1].parent, Some(outer));
        assert_eq!(tele.spans()[2].parent, None);
        tele.exit(inner, t(2));
        tele.exit(outer, t(3));
        tele.exit(other, t(4));
        assert_eq!(tele.spans()[0].duration(), SimDuration::from_millis(3));
        assert_eq!(tele.spans()[1].duration(), SimDuration::from_millis(1));
    }

    #[test]
    fn exiting_parent_closes_open_children() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        let outer = tele.enter(lane, "outer", t(0));
        let _inner = tele.enter(lane, "inner", t(1));
        tele.exit(outer, t(5));
        assert!(tele
            .spans()
            .iter()
            .all(|s| s.end == Some(t(5)) || s.end == Some(t(5))));
        assert_eq!(tele.spans()[1].end, Some(t(5)));
        // Double exit is a no-op.
        tele.exit(outer, t(9));
        assert_eq!(tele.spans()[0].end, Some(t(5)));
    }

    #[test]
    fn lane_interning_is_idempotent() {
        let mut tele = Telemetry::new();
        let a = tele.lane("phone");
        let b = tele.lane("phone");
        assert_eq!(a, b);
        assert_eq!(tele.lanes(), &["world".to_owned(), "phone".to_owned()]);
    }

    #[test]
    fn lane_ids_do_not_wrap_past_u16() {
        // 65,537 lanes with the world lane: the last one's index is 2^16,
        // which a 16-bit id would wrap onto the world lane.
        let mut tele = Telemetry::new();
        let mut last = LaneId::WORLD;
        for i in 1..65_537u32 {
            last = tele.lane(&format!("lane{i}"));
        }
        assert_eq!(tele.lanes().len(), 65_537);
        assert_ne!(last, LaneId::WORLD);
        assert_eq!(last, LaneId(65_536));
        assert_eq!(tele.lane("lane65536"), last);
        assert_eq!(tele.lane("world"), LaneId::WORLD);
    }

    #[test]
    fn span_total_sums_across_attempts() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        for i in 0..3u64 {
            let s = tele.enter(lane, "stage.transfer", t(10 * i));
            tele.exit(s, t(10 * i + 4));
        }
        assert_eq!(
            tele.span_total("stage.transfer"),
            SimDuration::from_millis(12)
        );
    }

    #[test]
    fn capacity_caps_instants_and_counts_drops() {
        let mut tele = Telemetry::new();
        tele.set_event_capacity(2);
        for i in 0..5 {
            tele.emit(t(i), "spam", "x");
        }
        assert_eq!(tele.instants().len(), 2);
        assert_eq!(tele.dropped_events(), 3);
    }

    #[test]
    fn record_complete_parents_under_open_span() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        let stage = tele.enter(lane, "stage.checkpoint", t(0));
        tele.record_complete(lane, "criu.dump", t(0), t(3));
        tele.exit(stage, t(5));
        assert_eq!(tele.spans()[1].parent, Some(stage));
        assert_eq!(tele.spans()[1].duration(), SimDuration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "lane 2 is not registered: the hub has 2 lanes")]
    fn enter_refuses_an_unknown_lane() {
        let mut tele = Telemetry::new();
        tele.lane("dev");
        tele.enter(LaneId(2), "x", t(0));
    }

    #[test]
    #[should_panic(expected = "lane 5 is not registered: the hub has 1 lanes")]
    fn record_complete_refuses_an_unknown_lane() {
        Telemetry::new().record_complete(LaneId(5), "x", t(0), t(1));
    }

    #[test]
    #[should_panic(expected = "lane 1 is not registered: the hub has 1 lanes")]
    fn finish_lane_refuses_an_unknown_lane() {
        Telemetry::new().finish_lane(LaneId(1), t(0));
    }

    #[test]
    #[should_panic(expected = "lane 3 is not registered: the hub has 1 lanes")]
    fn instant_refuses_an_unknown_lane_even_past_the_cap() {
        let mut tele = Telemetry::new();
        tele.set_event_capacity(0);
        tele.instant(LaneId(3), TraceKind::Fault, "f", t(0), "x");
    }

    #[test]
    fn finish_closes_everything() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        tele.enter(lane, "a", t(0));
        tele.enter(lane, "b", t(1));
        tele.finish(t(7));
        assert!(tele.spans().iter().all(|s| s.end == Some(t(7))));
    }
}

/// Tests of the instant-event log, the run's trace: its capacity and its
/// drop count.
#[cfg(test)]
mod trace {
    mod tests {
        use crate::{json_snapshot, Telemetry};
        use flux_simcore::{SimTime, TraceKind};

        fn t(ms: u64) -> SimTime {
            SimTime::from_millis(ms)
        }

        #[test]
        fn capacity_drops_and_counts_overflow() {
            // One cap covers every instant entry point; the first events
            // are kept in order and the rest only counted.
            let mut tele = Telemetry::new();
            let lane = tele.lane("dev");
            tele.set_event_capacity(2);
            tele.emit(t(0), "a", "1");
            tele.instant(lane, TraceKind::Fault, "b", t(1), "2");
            tele.emit_kind(t(2), TraceKind::Retry, "c", "3");
            tele.instant(lane, TraceKind::Rollback, "d", t(3), "4");
            let names: Vec<&str> = tele.instants().iter().map(|e| &*e.name).collect();
            assert_eq!(names, ["a", "b"]);
            assert_eq!(tele.dropped_events(), 2);
            // Spans are not subject to the event cap.
            let s = tele.enter(lane, "s", t(4));
            tele.exit(s, t(5));
            assert_eq!(tele.spans().len(), 1);
            // A cap lowered below the log's length keeps what is recorded.
            tele.set_event_capacity(1);
            tele.emit(t(6), "e", "5");
            assert_eq!(tele.instants().len(), 2);
            assert_eq!(tele.dropped_events(), 3);
            let snap = serde::parse(&json_snapshot(&tele)).unwrap();
            assert_eq!(snap.read::<u64>("dropped_events").unwrap(), 3);
        }

        #[test]
        fn unbounded_trace_never_drops() {
            let mut tele = Telemetry::new();
            for i in 0..1_000 {
                tele.emit(t(i), "spam", "x");
            }
            assert_eq!(tele.instants().len(), 1_000);
            assert_eq!(tele.dropped_events(), 0);
        }
    }
}

/// Tests of the JSON contract between the exporters and [`serde::parse`].
#[cfg(test)]
mod json {
    mod tests {
        use crate::{chrome_trace, json_snapshot, Telemetry};
        use flux_simcore::{SimTime, TraceKind};
        use serde::JsonValue;

        fn lexeme(v: Option<&JsonValue>) -> Option<&str> {
            match v {
                Some(JsonValue::Num(s)) => Some(s),
                _ => None,
            }
        }

        #[test]
        fn parses_scalars() {
            // Each scalar form the exporters write reads back as that scalar.
            let mut tele = Telemetry::new();
            let lane = tele.lane("dev");
            tele.enter(lane, "open", SimTime::from_nanos(1_234_567));
            let detail = "a\"b\nc\u{1}";
            tele.instant(lane, TraceKind::Retry, "net.chunk", SimTime::ZERO, detail);
            tele.counter_add("flux.c", u64::MAX);
            tele.gauge_set("flux.g", -1.5e-3);

            let snap = serde::parse(&json_snapshot(&tele)).unwrap();
            let span = &snap.get("spans").unwrap().as_arr().unwrap()[0];
            assert_eq!(lexeme(span.get("start_ns")), Some("1234567"));
            assert_eq!(span.get("parent"), Some(&JsonValue::Null));
            assert_eq!(span.get("end_ns"), Some(&JsonValue::Null));
            let instant = &snap.get("instants").unwrap().as_arr().unwrap()[0];
            assert_eq!(instant.get("kind").unwrap().as_str(), Some("retry"));
            assert_eq!(instant.get("detail").unwrap().as_str(), Some(detail));
            let metrics = snap.get("metrics").unwrap();
            assert_eq!(metrics.get("flux.c").unwrap().as_u64(), Some(u64::MAX));
            assert_eq!(lexeme(metrics.get("flux.g")), Some("-0.0015"));
            assert_eq!(lexeme(snap.get("dropped_events")), Some("0"));

            let trace = serde::parse(&chrome_trace(&tele)).unwrap();
            let span = &trace.get("traceEvents").unwrap().as_arr().unwrap()[2];
            assert_eq!(lexeme(span.get("ts")), Some("1234.567"));
            assert_eq!(lexeme(span.get("dur")), Some("0.000"));
        }

        #[test]
        fn rejects_garbage() {
            // `Display` of a non-finite f64 is not JSON, which is why the
            // exporters write such gauges as `null`.
            for bad in ["NaN", "inf", "-inf", r#"{"flux.g":NaN}"#] {
                assert!(serde::parse(bad).is_err(), "{bad}");
            }
            // A cut or doubled export is not one document.
            let mut tele = Telemetry::new();
            tele.emit(SimTime::ZERO, "net.chunk", "chunk 0");
            for doc in [chrome_trace(&tele), json_snapshot(&tele)] {
                for cut in 1..doc.len() {
                    assert!(serde::parse(&doc[..cut]).is_err(), "{}", &doc[..cut]);
                }
                assert!(serde::parse(&format!("{doc}{doc}")).is_err());
            }
        }
    }
}
