//! Exporters: Chrome trace JSON, per-stage migration profiles and plain
//! JSON snapshots.
//!
//! All three are deterministic functions of a [`Telemetry`] hub: spans and
//! instant events are written in emission order and metrics in name order,
//! so two runs with the same seed produce byte-identical output. Call
//! [`Telemetry::finish`] before exporting so no span is left open (open
//! spans export with zero duration). The JSON exporters write through the
//! vendored `serde` codec, which escapes every string and renders every
//! gauge; [`serde::parse`] reads their output back.

use crate::metrics::{Histogram, Metric, MetricsRegistry};
use crate::{Detail, InstantEvent, Span, Telemetry};
use flux_simcore::{SimDuration, TraceKind};
use serde::Serialize;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Span-name prefix shared by every migration stage span. The suffix is
/// the engine's declared stage name (`Stage::name()` in `flux-core`), so
/// span names are derived, never hand-written per call site.
pub const STAGE_SPAN_PREFIX: &str = "migration.stage.";

/// The stage names that carry a slot in the migration report, in pipeline
/// order. [`STAGE_SPANS`] is exactly this list run through
/// [`stage_span_name`]; a unit test pins the correspondence.
pub const REPORT_STAGES: [&str; 5] = [
    "preparation",
    "checkpoint",
    "transfer",
    "restore",
    "reintegration",
];

/// Prefix of the histogram metrics a stage's busy milliseconds are
/// observed under.
const STAGE_METRIC_PREFIX: &str = "flux.migration.stage_ms.";

/// The histogram names the engine observes each migration's stage times
/// under: the report stages plus pre-copy. [`stage_metric_name`] hands
/// these out borrowed.
const STAGE_METRICS: [&str; 6] = [
    "flux.migration.stage_ms.preparation",
    "flux.migration.stage_ms.checkpoint",
    "flux.migration.stage_ms.transfer",
    "flux.migration.stage_ms.restore",
    "flux.migration.stage_ms.reintegration",
    "flux.migration.stage_ms.precopy",
];

/// The name `prefix` + `suffix`: borrowed from `table` when listed there,
/// composed otherwise. Callers keep the composed names they record for
/// every migration in a const table, so recording one allocates nothing.
pub fn static_name(table: &[&'static str], prefix: &str, suffix: &str) -> Cow<'static, str> {
    table
        .iter()
        .find(|name| name.strip_prefix(prefix) == Some(suffix))
        .map_or_else(
            || Cow::Owned(format!("{prefix}{suffix}")),
            |&name| Cow::Borrowed(name),
        )
}

/// The span name a stage named `stage` records under:
/// `migration.stage.<stage>`. Borrowed from [`STAGE_SPANS`] for the report
/// stages, so opening a stage span allocates nothing.
pub fn stage_span_name(stage: &str) -> Cow<'static, str> {
    static_name(&STAGE_SPANS, STAGE_SPAN_PREFIX, stage)
}

/// The histogram metric a stage's busy milliseconds are observed under:
/// `flux.migration.stage_ms.<stage>`. Borrowed for the report stages and
/// pre-copy.
pub fn stage_metric_name(stage: &str) -> Cow<'static, str> {
    static_name(&STAGE_METRICS, STAGE_METRIC_PREFIX, stage)
}

/// The canonical stage-span names the migration pipeline emits, in
/// pipeline order. [`MigrationProfile`] aggregates over exactly these.
pub const STAGE_SPANS: [&str; 5] = [
    "migration.stage.preparation",
    "migration.stage.checkpoint",
    "migration.stage.transfer",
    "migration.stage.restore",
    "migration.stage.reintegration",
];

fn kind_str(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Generic => "generic",
        TraceKind::Fault => "fault",
        TraceKind::Retry => "retry",
        TraceKind::Rollback => "rollback",
    }
}

/// Nanoseconds rendered as a JSON microsecond literal with fixed
/// sub-microsecond precision (`1234567` ns → `1234.567`), the unit Chrome's
/// `about://tracing` expects.
struct Micros(u64);

impl Serialize for Micros {
    fn serialize(&self, out: &mut String) {
        let _ = write!(out, "{}.{:03}", self.0 / 1_000, self.0 % 1_000);
    }
}

/// A one-member object, the shape of a Chrome event's `args`.
struct Arg<'a, T: ?Sized>(&'static str, &'a T);

impl<T: Serialize + ?Sized> Serialize for Arg<'_, T> {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field(self.0, self.1);
        obj.end();
    }
}

/// Opens the next object in the `traceEvents` array.
fn event(out: &mut String) -> serde::ObjectWriter<'_> {
    if !out.ends_with('[') {
        out.push(',');
    }
    serde::object(out)
}

/// Exports the hub as Chrome `about://tracing` JSON.
///
/// Each lane becomes one trace "process" (named via a `process_name`
/// metadata event), spans become complete (`"X"`) events and instant
/// events become thread-scoped (`"i"`) events. Load the output via
/// chrome://tracing or <https://ui.perfetto.dev>.
pub fn chrome_trace(tele: &Telemetry) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (pid, lane) in tele.lanes().iter().enumerate() {
        let mut ev = event(&mut out);
        ev.field("name", "process_name")
            .field("ph", "M")
            .field("pid", &pid)
            .field("tid", &0)
            .field("args", &Arg("name", lane));
        ev.end();
    }
    for span in tele.spans() {
        let mut ev = event(&mut out);
        ev.field("name", &*span.name)
            .field("cat", "span")
            .field("ph", "X")
            .field("ts", &Micros(span.start.as_nanos()))
            .field("dur", &Micros(span.duration().as_nanos()))
            .field("pid", &span.lane.0)
            .field("tid", &0);
        ev.end();
    }
    for instant in tele.instants() {
        let mut ev = event(&mut out);
        ev.field("name", &*instant.name)
            .field("cat", kind_str(instant.kind))
            .field("ph", "i")
            .field("s", "t")
            .field("ts", &Micros(instant.at.as_nanos()))
            .field("pid", &instant.lane.0)
            .field("tid", &0)
            .field("args", &Arg("detail", &instant.detail));
        ev.end();
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Exports the hub as a plain JSON snapshot: lanes, spans, instant events
/// and metrics. Used by benches and golden tests; parse it back with
/// [`serde::parse`].
pub fn json_snapshot(tele: &Telemetry) -> String {
    let mut out = String::new();
    let mut obj = serde::object(&mut out);
    obj.field("lanes", tele.lanes())
        .field("spans", tele.spans())
        .field("instants", tele.instants())
        .field("metrics", tele.metrics())
        .field("dropped_events", &tele.dropped_events());
    obj.end();
    out
}

/// Snapshot form: `{"name", "lane", "parent", "start_ns", "end_ns"}`, with
/// `null` for a missing parent or a still-open end.
impl Serialize for Span {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("name", &*self.name)
            .field("lane", &self.lane.0)
            .field("parent", &self.parent.map(|p| p.0))
            .field("start_ns", &self.start)
            .field("end_ns", &self.end);
        obj.end();
    }
}

/// Snapshot form: `{"at_ns", "lane", "kind", "name", "detail"}`.
impl Serialize for InstantEvent {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("at_ns", &self.at)
            .field("lane", &self.lane.0)
            .field("kind", kind_str(self.kind))
            .field("name", &*self.name)
            .field("detail", &self.detail);
        obj.end();
    }
}

/// The detail's text as a JSON string. A chunk's text is formatted
/// straight into the output, here and nowhere earlier.
impl Serialize for Detail {
    fn serialize(&self, out: &mut String) {
        serde::write_display(out, self);
    }
}

/// One object member per metric, in name order.
impl Serialize for MetricsRegistry {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        for (name, metric) in self.iter() {
            obj.field(name, metric);
        }
        obj.end();
    }
}

/// A counter as its integer, a gauge as a float (`null` when not finite),
/// a histogram as its buckets and totals.
impl Serialize for Metric {
    fn serialize(&self, out: &mut String) {
        match self {
            Metric::Counter(c) => c.serialize(out),
            Metric::Gauge(g) => serde::write_f64(out, *g),
            Metric::Histogram(h) => h.serialize(out),
        }
    }
}

/// `{"bounds", "counts", "count", "sum"}`.
impl Serialize for Histogram {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("bounds", self.bounds())
            .field("counts", self.counts())
            .field("count", &self.count())
            .field("sum", &self.sum());
        obj.end();
    }
}

/// A per-stage migration profile: Figure 13's stage breakdown computed
/// from one instrumented run's span totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationProfile {
    /// `(stage name, accumulated duration)` in pipeline order. Durations
    /// accumulate across retry attempts, exactly like
    /// `MigrationReport::stages`.
    pub stages: Vec<(String, SimDuration)>,
    /// Retry backoff charged outside the stages.
    pub backoff: SimDuration,
    /// `flux.migration.attempts` at export time.
    pub attempts: u64,
    /// `flux.migration.faults` at export time.
    pub faults: u64,
    /// `flux.migration.rollbacks` at export time.
    pub rollbacks: u64,
    /// `flux.net.bytes_transferred` at export time.
    pub bytes_over_air: u64,
}

impl MigrationProfile {
    /// Builds the profile from a hub's `migration.stage.*` span totals and
    /// migration metrics.
    pub fn from_telemetry(tele: &Telemetry) -> Self {
        Self {
            stages: STAGE_SPANS
                .iter()
                .map(|name| {
                    (
                        name.trim_start_matches("migration.stage.").to_owned(),
                        tele.span_total(name),
                    )
                })
                .collect(),
            backoff: tele.span_total("migration.backoff"),
            attempts: tele.metrics().counter("flux.migration.attempts"),
            faults: tele.metrics().counter("flux.migration.faults"),
            rollbacks: tele.metrics().counter("flux.migration.rollbacks"),
            bytes_over_air: tele.metrics().counter("flux.net.bytes_transferred"),
        }
    }

    /// Sum of the stage durations. For a successful migration this equals
    /// `MigrationReport::stages.total()`.
    pub fn total(&self) -> SimDuration {
        self.stages
            .iter()
            .map(|(_, d)| *d)
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    /// Renders the profile as an aligned plain-text table.
    pub fn render(&self) -> String {
        let total_ns = self.total().as_nanos();
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>12} {:>7}", "stage", "time", "share");
        let _ = writeln!(out, "{:-<16} {:->12} {:->7}", "", "", "");
        for (name, d) in &self.stages {
            let share = if total_ns == 0 {
                0.0
            } else {
                d.as_nanos() as f64 * 100.0 / total_ns as f64
            };
            let _ = writeln!(out, "{:<16} {:>12} {:>6.1}%", name, d.to_string(), share);
        }
        let _ = writeln!(out, "{:-<16} {:->12} {:->7}", "", "", "");
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>6.1}%",
            "total",
            self.total().to_string(),
            if total_ns == 0 { 0.0 } else { 100.0 }
        );
        let _ = writeln!(out, "backoff (outside stages): {}", self.backoff);
        let _ = writeln!(
            out,
            "attempts: {}  faults: {}  rollbacks: {}  bytes over air: {}",
            self.attempts, self.faults, self.rollbacks, self.bytes_over_air
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LaneId;
    use flux_simcore::{ByteSize, SimTime};
    use serde::JsonValue;

    fn hub() -> Telemetry {
        let mut tele = Telemetry::new();
        let home = tele.lane("home");
        let s = tele.enter(home, "migration.stage.checkpoint", SimTime::from_millis(5));
        tele.instant(
            home,
            TraceKind::Fault,
            "kernel.fault",
            SimTime::from_millis(7),
            "stall of 1ms",
        );
        tele.exit(s, SimTime::from_millis(30));
        tele.counter_add("flux.migration.attempts", 1);
        tele.counter_add("flux.net.bytes_transferred", 4096);
        tele.gauge_set("flux.net.goodput_mbps", 12.5);
        tele.observe("flux.migration.stage_ms", 25);
        tele
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lane_processes() {
        let tele = hub();
        let doc = serde::parse(&chrome_trace(&tele)).expect("valid json");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // 2 process_name metadata + 1 span + 1 instant.
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].get("args").unwrap().get("name").unwrap().as_str(),
            Some("home")
        );
        let span = &events[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(5_000.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(25_000.0));
    }

    #[test]
    fn snapshot_round_trips_and_is_stable() {
        let tele = hub();
        let snap = json_snapshot(&tele);
        let parsed = serde::parse(&snap).expect("valid json");
        assert_eq!(serde::to_json(&parsed), snap);
        assert_eq!(json_snapshot(&hub()), snap);
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.get("flux.net.goodput_mbps"),
            Some(&JsonValue::Num("12.5".into()))
        );
    }

    #[test]
    fn disabled_hub_exports_empty_but_valid_documents() {
        // A hub that recorded nothing still exports valid documents.
        let tele = Telemetry::new();
        assert!(serde::parse(&chrome_trace(&tele)).is_ok());
        let snap = serde::parse(&json_snapshot(&tele)).unwrap();
        assert_eq!(snap.get("spans").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn profile_totals_match_span_totals() {
        let tele = hub();
        let profile = MigrationProfile::from_telemetry(&tele);
        assert_eq!(profile.total(), SimDuration::from_millis(25));
        assert_eq!(profile.attempts, 1);
        assert_eq!(profile.bytes_over_air, 4096);
        let rendered = profile.render();
        assert!(rendered.contains("checkpoint"));
        assert!(rendered.contains("100.0%"));
    }

    #[test]
    fn gauge_rendering_marks_integral_values_as_floats() {
        let mut tele = Telemetry::new();
        tele.gauge_set("flux.x", 3.0);
        tele.gauge_set("flux.y", 42.25);
        let snap = json_snapshot(&tele);
        assert!(snap.contains("\"flux.x\":3.0,\"flux.y\":42.25"));
    }

    #[test]
    fn non_finite_gauges_snapshot_as_null_and_parse_back() {
        let mut tele = Telemetry::new();
        tele.gauge_set("flux.nan", f64::NAN);
        tele.gauge_set("flux.inf", f64::INFINITY);
        let snap = serde::parse(&json_snapshot(&tele)).expect("valid json");
        let metrics = snap.get("metrics").unwrap();
        assert_eq!(metrics.get("flux.nan"), Some(&JsonValue::Null));
        assert_eq!(metrics.get("flux.inf"), Some(&JsonValue::Null));
        assert!(metrics.read::<f64>("flux.inf").unwrap().is_nan());
    }

    #[test]
    fn instant_on_world_lane_keeps_lane_zero() {
        let mut tele = Telemetry::new();
        tele.emit(SimTime::from_millis(1), "net.chunk", "chunk 0");
        assert_eq!(tele.instants()[0].lane, LaneId::WORLD);
    }

    #[test]
    fn stage_spans_derive_from_the_report_stage_names() {
        for (span, stage) in STAGE_SPANS.iter().zip(REPORT_STAGES) {
            assert_eq!(*span, stage_span_name(stage));
            assert_eq!(span.strip_prefix(STAGE_SPAN_PREFIX), Some(stage));
            assert_eq!(
                stage_metric_name(stage),
                format!("flux.migration.stage_ms.{stage}")
            );
        }
    }

    #[test]
    fn tabled_stage_names_are_borrowed_and_others_composed() {
        for stage in REPORT_STAGES {
            let span = stage_span_name(stage);
            assert!(matches!(span, Cow::Borrowed(_)), "{stage}");
            assert_eq!(span, format!("{STAGE_SPAN_PREFIX}{stage}"));
        }
        for stage in ["precopy"].into_iter().chain(REPORT_STAGES) {
            let metric = stage_metric_name(stage);
            assert!(matches!(metric, Cow::Borrowed(_)), "{stage}");
            assert_eq!(metric, format!("flux.migration.stage_ms.{stage}"));
        }
        // A prefix match alone must not borrow a longer table entry.
        for (name, composed) in [
            (stage_span_name("trans"), "migration.stage.trans"),
            (stage_span_name("finalise"), "migration.stage.finalise"),
            (
                stage_metric_name("finalise"),
                "flux.migration.stage_ms.finalise",
            ),
        ] {
            assert!(matches!(name, Cow::Owned(_)), "{composed}");
            assert_eq!(name, composed);
        }
    }

    /// The text the chunk emitter wrote before chunks kept their numbers.
    fn old_chunk_text(bytes: ByteSize, duration: SimDuration, congested: bool) -> String {
        format!(
            "{} in {}{}",
            bytes,
            duration,
            if congested { " (congested)" } else { "" }
        )
    }

    #[test]
    fn chunk_details_export_the_formatted_text_byte_for_byte() {
        // Byte sizes either side of the KiB and MiB unit switches, and
        // durations from sub-microsecond to multi-second, both congested
        // and not: a numeric chunk exports exactly what the formatted
        // text did, in both exporters.
        let sizes = [
            0,
            1,
            1_023,
            1_024,
            1_025,
            262_144,
            1_048_575,
            1_048_576,
            1_048_577,
            5 << 20,
        ];
        let durations = [
            0,
            999,
            1_000,
            999_999,
            1_000_000,
            91_937_465,
            999_999_999,
            1_000_000_000,
            12_345_678_901,
        ];
        let record = |numeric: bool| {
            let mut tele = Telemetry::new();
            let lane = tele.lane("dev");
            let mut at = 0u64;
            for &bytes in &sizes {
                for &ns in &durations {
                    for congested in [false, true] {
                        let (bytes, duration) =
                            (ByteSize::from_bytes(bytes), SimDuration::from_nanos(ns));
                        let detail = if numeric {
                            Detail::Chunk {
                                bytes,
                                duration,
                                congested,
                            }
                        } else {
                            Detail::Text(old_chunk_text(bytes, duration, congested))
                        };
                        tele.instant(
                            lane,
                            TraceKind::Generic,
                            "net.chunk",
                            SimTime::from_nanos(at),
                            detail,
                        );
                        at += 1;
                    }
                }
            }
            tele
        };
        let (numeric, text) = (record(true), record(false));
        assert_eq!(numeric.instants().len(), sizes.len() * durations.len() * 2);
        for (n, t) in numeric.instants().iter().zip(text.instants()) {
            assert_eq!(n.detail.to_string(), t.detail.to_string());
        }
        assert_eq!(chrome_trace(&numeric), chrome_trace(&text));
        assert_eq!(json_snapshot(&numeric), json_snapshot(&text));
        // Spot-check the rendered forms themselves.
        let snap = json_snapshot(&numeric);
        for needle in [
            "\"detail\":\"0 B in 0us\"",
            "\"detail\":\"1023 B in 999us (congested)\"",
            "\"detail\":\"1023 B in 1000.0ms\"",
            "\"detail\":\"1.0 KB in 1.00s\"",
            "\"detail\":\"256.0 KB in 91.9ms\"",
            "\"detail\":\"1024.0 KB in 12.35s (congested)\"",
            "\"detail\":\"1.0 MB in 1us\"",
        ] {
            assert!(snap.contains(needle), "{needle}");
        }
    }
}
