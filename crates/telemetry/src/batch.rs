//! Recording a batch of runs into one hub, and moving each run's part of
//! it into a world hub.
//!
//! A fleet executes every request of a batch up front and admits the
//! requests later, one at a time, each at an instant of its own. A *batch
//! hub* ([`Telemetry::batch`]) opens with the world hub's lanes and
//! records the runs one after another, each as it would have recorded
//! into a fresh hub of its own, and [`Telemetry::end_part`] cuts each
//! run's record off as a [`Part`]: its spans, its instants and its gauge
//! writes. At the run's admission, [`Telemetry::admit_part`] moves the
//! part into the world hub with every timestamp shifted by the same
//! amount. Once the last part is in, [`Telemetry::merge_batch`] merges the
//! batch's counters and histograms in one pass.
//!
//! The result is byte-identical to recording each run into a fresh hub,
//! finishing that hub at the run's end and folding it in whole at the
//! run's admission, matching its lanes to the world hub's by name:
//!
//! * the runs record on the world hub's own lanes, so a part's records
//!   keep their lanes; a batch hub interns no lane
//!   ([`Telemetry::lane`] panics on one), because a lane created there
//!   could alias one the world hub registers after the batch opens;
//! * spans are appended in creation order with parent links rebased to
//!   the part's start, so the span *tree* arrives intact;
//! * instants pass through [`Telemetry::instant`], so the world hub's
//!   event cap and drop count apply;
//! * gauge writes apply in admission order, the last write winning;
//!   counters add and histograms merge bucket-wise, which no order
//!   changes, so they fold in the batch hub and merge once.
//!
//! A run may record only on the world lane and the lanes it names to
//! [`Telemetry::end_part`]. That call panics on a span or instant
//! anywhere else, rather than let it land on another run's lane.

use crate::{Detail, LaneId, Span, SpanId, Telemetry};
use flux_simcore::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// What a batch hub records beyond a world hub.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchLog {
    /// Every gauge write, in write order. A world hub keeps only each
    /// gauge's last value, but each run's writes must reach the world hub
    /// at that run's admission.
    pub(crate) gauges: Vec<(Cow<'static, str>, f64)>,
    /// Where the current run's part begins.
    from: Marks,
    /// Whether the world hub has reserved room for the whole batch, which
    /// the first admission does.
    reserved: bool,
}

/// Lengths of a batch hub's records at a cut between two runs.
#[derive(Debug, Clone, Copy, Default)]
struct Marks {
    spans: usize,
    instants: usize,
    gauges: usize,
}

/// One run's record in a batch hub: its spans, instants and gauge writes
/// between two cuts. [`Telemetry::end_part`] makes it and
/// [`Telemetry::admit_part`] consumes it, so a part moves at most once.
#[derive(Debug)]
pub struct Part {
    from: Marks,
    to: Marks,
}

impl Telemetry {
    /// A hub to record a batch of runs into, on this hub's lanes. See the
    /// [module docs](self).
    pub fn batch(&self) -> Telemetry {
        Telemetry {
            lanes: self.lanes.clone(),
            // A batch hub interns no lane, so it needs no index.
            lane_index: BTreeMap::new(),
            open: vec![Vec::new(); self.lanes.len()],
            batch: Some(BatchLog::default()),
            ..Telemetry::new()
        }
    }

    /// Cuts the current run's part off this batch hub at virtual time
    /// `at`. `lanes` are the run's lanes besides the world lane (the
    /// devices it ran on). Every span still open on the world lane or on
    /// `lanes` closes at `at`, as finishing a fresh hub at the run's end
    /// would. The next run's part begins here.
    ///
    /// Panics on a world hub, and when the part holds a span or an
    /// instant on a lane that is neither the world lane nor in `lanes`.
    pub fn end_part(&mut self, at: SimTime, lanes: &[LaneId]) -> Part {
        let from = self
            .batch
            .as_ref()
            .expect("end_part needs a batch hub")
            .from;
        for &lane in std::iter::once(&LaneId::WORLD).chain(lanes) {
            self.finish_lane(lane, at);
        }
        let on_run_lane = |lane: LaneId| lane == LaneId::WORLD || lanes.contains(&lane);
        for span in &self.spans[from.spans..] {
            assert!(
                on_run_lane(span.lane),
                "span `{}` is on lane {}, which is not one of the run's lanes",
                span.name,
                span.lane.0
            );
        }
        for ev in &self.instants[from.instants..] {
            assert!(
                on_run_lane(ev.lane),
                "instant `{}` is on lane {}, which is not one of the run's lanes",
                ev.name,
                ev.lane.0
            );
        }
        let log = self.batch.as_mut().expect("a batch hub");
        let to = Marks {
            spans: self.spans.len(),
            instants: self.instants.len(),
            gauges: log.gauges.len(),
        };
        log.from = to;
        Part { from, to }
    }

    /// Moves `part` of the batch hub `batch`, which must have been opened
    /// from this hub, into this hub, displacing every timestamp `shift`
    /// later. The part's names and details move here rather than being
    /// copied. The first admission from a batch reserves room for all of
    /// its spans and instants. See the [module docs](self) for the merge
    /// contract.
    pub fn admit_part(&mut self, batch: &mut Telemetry, part: Part, shift: SimDuration) {
        let log = batch.batch.as_mut().expect("admit_part needs a batch hub");
        if !log.reserved {
            log.reserved = true;
            assert!(
                self.lanes.starts_with(&batch.lanes),
                "a batch hub's parts move only into the hub it was opened from"
            );
            self.spans.reserve(batch.spans.len());
            // A cap lowered below the log's length leaves no room.
            let room = self
                .event_capacity
                .map_or(usize::MAX, |cap| cap.saturating_sub(self.instants.len()));
            self.instants.reserve(batch.instants.len().min(room));
        }

        let base = self.spans.len() as u32;
        let first = part.from.spans as u32;
        let spans = &mut batch.spans[part.from.spans..part.to.spans];
        self.spans.extend(spans.iter_mut().map(|span| Span {
            name: std::mem::take(&mut span.name),
            lane: span.lane,
            parent: span.parent.map(|p| SpanId(base + (p.0 - first))),
            start: span.start + shift,
            end: span.end.map(|e| e + shift),
        }));
        for ev in &mut batch.instants[part.from.instants..part.to.instants] {
            let detail = std::mem::replace(&mut ev.detail, Detail::Text(String::new()));
            let name = std::mem::take(&mut ev.name);
            self.instant(ev.lane, ev.kind, name, ev.at + shift, detail);
        }
        for (name, value) in &mut log.gauges[part.from.gauges..part.to.gauges] {
            self.metrics.gauge_set(std::mem::take(name), *value);
        }
    }

    /// Merges the counters and histograms every run recorded into
    /// `batch`: counters add and histograms merge bucket-wise, as folding
    /// each run's in at its admission would have. Call once, after the
    /// batch's last part is admitted.
    pub fn merge_batch(&mut self, batch: &mut Telemetry) {
        assert!(batch.batch.is_some(), "merge_batch needs a batch hub");
        self.metrics.merge_from(std::mem::take(&mut batch.metrics));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chrome_trace, json_snapshot};
    use flux_simcore::{ByteSize, TraceKind};
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn part_moves_records_under_the_merge_contract() {
        let mut world = Telemetry::new();
        let phone = world.lane("phone");
        let tablet = world.lane("tablet");
        let before = world.enter(phone, "before", t(0));
        world.exit(before, t(1));
        world.emit(t(0), "first", "kept");
        world.set_event_capacity(2);
        world.counter_add("flux.c", 1);
        world.observe("flux.h", 5);

        let mut batch = world.batch();
        // The first run records on the world lane only and admits last.
        batch.counter_add("flux.c", 4);
        batch.gauge_set("flux.g", 1.0);
        let first = batch.end_part(t(1), &[]);
        batch.enter(phone, "outer", t(1));
        batch.enter(phone, format!("replay.svc.{}", "alarm"), t(2));
        let chunk = Detail::Chunk {
            bytes: ByteSize::from_kib(256),
            duration: SimDuration::from_millis(92),
            congested: true,
        };
        batch.instant(tablet, TraceKind::Generic, "net.chunk", t(2), chunk.clone());
        batch.emit(t(3), "over", "past the cap");
        batch.counter_add("flux.c", 2);
        batch.gauge_set("flux.g", 7.5);
        batch.observe("flux.h", 50);
        batch.counter_add("flux.new", 3);
        let second = batch.end_part(t(3), &[phone, tablet]);

        // The world registers a lane after the batch opened, as each
        // flight's `fleet.m{id}` lane is; the runs' records keep theirs.
        world.lane("fleet.m001");
        world.admit_part(&mut batch, second, SimDuration::from_millis(10));
        assert_eq!(world.lanes(), ["world", "phone", "tablet", "fleet.m001"]);
        let spans = world.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (
                &*spans[1].name,
                spans[1].lane,
                spans[1].parent,
                spans[1].start
            ),
            ("outer", phone, None, t(11))
        );
        // Parent links are rebased past the spans already here, the open
        // spans closed at the part's end, and the names move as they
        // were: borrowed stays borrowed.
        assert_eq!(spans[2].parent, Some(SpanId(1)));
        assert_eq!(spans[2].end, Some(t(13)));
        assert!(matches!(spans[1].name, Cow::Borrowed("outer")));
        assert!(matches!(&spans[2].name, Cow::Owned(n) if n == "replay.svc.alarm"));
        // Instants pass through `instant`, so this hub's cap applies.
        assert_eq!(world.instants().len(), 2);
        assert_eq!(world.dropped_events(), 1);
        let moved = &world.instants()[1];
        assert_eq!((moved.lane, moved.at), (tablet, t(12)));
        assert_eq!(moved.detail, chunk);
        // Gauges apply at admission: the later admission wins, whatever
        // order the runs executed in.
        assert_eq!(world.metrics().gauge("flux.g"), Some(7.5));
        world.admit_part(&mut batch, first, SimDuration::from_millis(20));
        assert_eq!(world.metrics().gauge("flux.g"), Some(1.0));
        // Counters and histograms arrive with the batch's merge.
        assert_eq!(world.metrics().counter("flux.c"), 1);
        world.merge_batch(&mut batch);
        let m = world.metrics();
        assert_eq!((m.counter("flux.c"), m.counter("flux.new")), (7, 3));
        assert_eq!(
            m.histogram("flux.h").map(|h| (h.count(), h.sum())),
            Some((2, 55))
        );
    }

    #[test]
    #[should_panic(expected = "span `stray` is on lane 1, which is not one of the run's lanes")]
    fn end_part_refuses_a_span_on_a_lane_the_run_did_not_intern() {
        let mut world = Telemetry::new();
        let a = world.lane("a");
        let b = world.lane("b");
        let mut batch = world.batch();
        batch.end_part(t(0), &[a]);
        // The second run, on lane b, records on the first run's lane.
        batch.enter(a, "stray", t(1));
        batch.end_part(t(2), &[b]);
    }

    #[test]
    #[should_panic(expected = "lane `fleet.m001` interned on a batch hub")]
    fn lane_panics_on_a_batch_hub() {
        let mut world = Telemetry::new();
        world.lane("phone");
        let mut batch = world.batch();
        // Lane 2 here would alias the next lane the world registers.
        batch.lane("fleet.m001");
    }

    #[test]
    #[should_panic(expected = "move only into the hub it was opened from")]
    fn admit_part_refuses_a_batch_of_another_hub() {
        let mut other = Telemetry::new();
        other.lane("tablet");
        let mut batch = other.batch();
        let part = batch.end_part(t(1), &[]);
        let mut world = Telemetry::new();
        world.lane("phone");
        world.admit_part(&mut batch, part, SimDuration::ZERO);
    }

    /// The whole-hub merge that parts replaced, kept as the reference
    /// model: `other` is one run's fresh hub, finished at the run's end.
    fn absorb(hub: &mut Telemetry, other: Telemetry, shift: SimDuration) {
        let lane_map: Vec<LaneId> = other.lanes.iter().map(|n| hub.lane(n)).collect();
        let base = hub.spans.len() as u32;
        hub.spans.extend(other.spans.into_iter().map(|span| Span {
            name: span.name,
            lane: lane_map[span.lane.0 as usize],
            parent: span.parent.map(|p| SpanId(base + p.0)),
            start: span.start + shift,
            end: span.end.map(|e| e + shift),
        }));
        for ev in other.instants {
            hub.instant(
                lane_map[ev.lane.0 as usize],
                ev.kind,
                ev.name,
                ev.at + shift,
                ev.detail,
            );
        }
        hub.metrics.merge_from(other.metrics);
    }

    /// Lane names runs and the world hub draw from.
    const LANES: [&str; 4] = ["a", "b", "c", "d"];
    const COUNTERS: [&str; 2] = ["flux.c0", "flux.c1"];
    const HISTOGRAMS: [&str; 2] = ["flux.h0", "flux.h1"];
    const GAUGES: [&str; 2] = ["flux.g0", "flux.g1"];

    /// One recording step of a run. Lanes are slots: 0 is the world lane,
    /// 1 the run's home lane and 2 its guest lane.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Advance(u64),
        Enter(usize, bool),
        Exit(usize),
        Complete(usize, u64),
        FinishLane(usize),
        Instant(usize, u64),
        Counter(usize, u64),
        Observe(usize, u64),
        Gauge(usize, u64),
    }

    #[derive(Debug, Clone)]
    struct Run {
        home: Option<&'static str>,
        guest: Option<&'static str>,
        ops: Vec<Op>,
    }

    fn random_run(rng: &mut TestRng) -> Run {
        // One end in six names no device, as a refused request's can.
        let pick = |rng: &mut TestRng| match rng.usize_in(0, 6) {
            5 => None,
            i => Some(LANES[i % LANES.len()]),
        };
        let home = pick(rng);
        // One run in four is a home == guest run.
        let guest = if rng.usize_in(0, 4) == 0 {
            home
        } else {
            pick(rng)
        };
        let ops = (0..rng.usize_in(0, 24))
            .map(|_| {
                let slot = rng.usize_in(0, 3);
                let n = rng.next_u64() % 1_000;
                match rng.usize_in(0, 9) {
                    0 => Op::Advance(n),
                    1 | 2 => Op::Enter(slot, n % 2 == 0),
                    3 => Op::Exit(n as usize),
                    4 => Op::Complete(slot, n),
                    5 => match n % 4 {
                        0 => Op::FinishLane(slot),
                        _ => Op::Instant(slot, n),
                    },
                    6 => Op::Counter(slot % 2, n),
                    7 => Op::Observe(slot % 2, n),
                    _ => Op::Gauge(slot % 2, n),
                }
            })
            .collect();
        Run { home, guest, ops }
    }

    /// Records `run` into `hub` from `t0` on, on `lanes` (its world, home
    /// and guest lanes), and returns the run's end.
    fn record(hub: &mut Telemetry, run: &Run, lanes: [LaneId; 3], t0: SimTime) -> SimTime {
        let mut now = t0;
        let mut opened = Vec::new();
        for &op in &run.ops {
            match op {
                Op::Advance(n) => now += ms(n),
                Op::Enter(slot, owned) => {
                    let name: Cow<'static, str> = if owned {
                        format!("replay.svc.{}", opened.len()).into()
                    } else {
                        "migration.stage".into()
                    };
                    opened.push(hub.enter(lanes[slot], name, now));
                }
                Op::Exit(k) if !opened.is_empty() => hub.exit(opened[k % opened.len()], now),
                Op::Exit(_) => {}
                Op::Complete(slot, n) => {
                    hub.record_complete(lanes[slot], "criu.dump", now, now + ms(n))
                }
                Op::FinishLane(slot) => hub.finish_lane(lanes[slot], now),
                Op::Instant(slot, n) if n % 2 == 0 => {
                    let chunk = Detail::Chunk {
                        bytes: ByteSize::from_kib(n),
                        duration: ms(n),
                        congested: n % 3 == 0,
                    };
                    hub.instant(lanes[slot], TraceKind::Generic, "net.chunk", now, chunk);
                }
                Op::Instant(slot, n) => {
                    hub.instant(lanes[slot], TraceKind::Fault, "fault", now, format!("#{n}"))
                }
                Op::Counter(i, n) => hub.counter_add(COUNTERS[i], n),
                Op::Observe(i, n) => hub.observe(HISTOGRAMS[i], n),
                Op::Gauge(i, n) => hub.gauge_set(GAUGES[i], n as f64 / 8.0),
            }
        }
        now
    }

    /// A run's lanes in `hub`, interning its devices' names there; a
    /// missing device records on the world lane.
    fn run_lanes(hub: &mut Telemetry, run: &Run) -> [LaneId; 3] {
        let mut lane = |name: Option<&str>| name.map_or(LaneId::WORLD, |n| hub.lane(n));
        [LaneId::WORLD, lane(run.home), lane(run.guest)]
    }

    /// The world hub both paths start from: every device lane registered,
    /// as booting each device does, a record of its own, maybe an event
    /// cap.
    fn world_hub(lanes: &[&str], cap: Option<usize>) -> Telemetry {
        let mut hub = Telemetry::new();
        for name in lanes {
            let lane = hub.lane(name);
            hub.record_complete(lane, "boot", t(0), t(1));
        }
        hub.emit(t(0), "world.open", "batch");
        hub.counter_add(COUNTERS[0], 1);
        hub.gauge_set(GAUGES[1], 0.5);
        if let Some(cap) = cap {
            hub.set_event_capacity(cap);
        }
        hub
    }

    /// What the world records between two admissions, as the fleet
    /// records its own flight lanes, counters and gauges.
    fn world_step(hub: &mut Telemetry, k: usize, at: SimTime, step: u64) {
        let lane = hub.lane(&format!("fleet.m{k:03}"));
        hub.record_complete(lane, "fleet.queued", t(0), at);
        hub.counter_add(COUNTERS[step as usize % 2], 1);
        hub.observe(HISTOGRAMS[0], step);
        if step % 3 == 0 {
            hub.gauge_set(GAUGES[0], step as f64);
        }
        if step % 4 == 0 {
            hub.emit(at, "fleet.admit", format!("m{k}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn part_move_matches_whole_hub_absorb(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let mut pre = LANES;
            for i in (1..pre.len()).rev() {
                pre.swap(i, rng.usize_in(0, i + 1));
            }
            let cap = match rng.usize_in(0, 3) {
                0 => None,
                _ => Some(rng.usize_in(0, 60)),
            };
            let runs: Vec<Run> = (0..rng.usize_in(1, 7)).map(|_| random_run(&mut rng)).collect();
            let mut order: Vec<usize> = (0..runs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.usize_in(0, i + 1));
            }
            let steps: Vec<(u64, u64)> = order
                .iter()
                .map(|_| (rng.next_u64() % 50_000, rng.next_u64() % 12))
                .collect();
            let t0 = t(rng.next_u64() % 5_000);

            // The reference: a fresh hub per run, finished at the run's
            // end and absorbed whole at its admission.
            let mut reference = world_hub(&pre, cap);
            let mut fresh: Vec<Option<Telemetry>> = runs
                .iter()
                .map(|run| {
                    let mut hub = Telemetry::new();
                    let lanes = run_lanes(&mut hub, run);
                    let end = record(&mut hub, run, lanes, t0);
                    hub.finish(end);
                    Some(hub)
                })
                .collect();
            for (k, (&i, &(shift, step))) in order.iter().zip(&steps).enumerate() {
                absorb(&mut reference, fresh[i].take().unwrap(), ms(shift));
                world_step(&mut reference, k, t0 + ms(shift), step);
            }

            // Parts: one batch hub on the world's lanes, each run's part
            // moved at its admission.
            let mut moved = world_hub(&pre, cap);
            let mut batch = moved.batch();
            let mut parts: Vec<Option<Part>> = runs
                .iter()
                .map(|run| {
                    let lanes = run_lanes(&mut moved, run);
                    let end = record(&mut batch, run, lanes, t0);
                    Some(batch.end_part(end, &lanes[1..]))
                })
                .collect();
            for (k, (&i, &(shift, step))) in order.iter().zip(&steps).enumerate() {
                moved.admit_part(&mut batch, parts[i].take().unwrap(), ms(shift));
                world_step(&mut moved, k, t0 + ms(shift), step);
            }
            moved.merge_batch(&mut batch);

            for hub in [&mut reference, &mut moved] {
                hub.finish(t(60_000));
            }
            prop_assert_eq!(chrome_trace(&moved), chrome_trace(&reference));
            prop_assert_eq!(json_snapshot(&moved), json_snapshot(&reference));
            prop_assert_eq!(moved.dropped_events(), reference.dropped_events());
        }
    }
}
