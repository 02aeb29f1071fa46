//! A virtual-time pipeline scheduler.
//!
//! The serial migration path charges every cost to the single [`SimClock`](crate::SimClock)
//! in sequence, so checkpoint compression, radio transfer and filesystem
//! sync can never overlap. A [`Pipeline`] models the overlap the real
//! system gets from running those on separate hardware resources (CPU,
//! radio, flash): each *lane* keeps its own cursor, work items charge only
//! their lane, and the pipeline ends at the maximum cursor. The difference
//! between the summed busy time and the wall-clock span is exactly the
//! latency the overlap hid.
//!
//! The scheduler is purely arithmetic over [`SimTime`] — no threads, no
//! interleaving nondeterminism — so pipelined runs stay byte-identical for
//! a fixed seed, the repo's core invariant.
//!
//! # Examples
//!
//! ```
//! use flux_simcore::pipeline::Pipeline;
//! use flux_simcore::{SimDuration, SimTime};
//!
//! let mut p = Pipeline::begin(SimTime::ZERO);
//! let cpu = p.lane();
//! let radio = p.lane();
//! // 4s of compression and 6s of transfer, started together:
//! p.run(cpu, SimDuration::from_secs(4));
//! p.run(radio, SimDuration::from_secs(6));
//! assert_eq!(p.wall(), SimDuration::from_secs(6));
//! assert_eq!(p.busy(), SimDuration::from_secs(10));
//! assert_eq!(p.overlap_saved(), SimDuration::from_secs(4));
//! ```

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Handle to one pipeline lane (an independent resource: CPU, radio, flash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeLane(usize);

/// A set of concurrent lanes advancing through virtual time together.
#[derive(Debug, Clone)]
pub struct Pipeline {
    start: SimTime,
    lanes: Vec<SimTime>,
    busy: SimDuration,
}

impl Pipeline {
    /// Opens a pipeline; every lane's cursor starts at `now`.
    pub fn begin(now: SimTime) -> Self {
        Self {
            start: now,
            lanes: Vec::new(),
            busy: SimDuration::ZERO,
        }
    }

    /// Adds a lane and returns its handle.
    pub fn lane(&mut self) -> PipeLane {
        self.lanes.push(self.start);
        PipeLane(self.lanes.len() - 1)
    }

    /// Charges `work` to `lane` starting at its current cursor.
    /// Returns the `(start, end)` window the work occupied.
    pub fn run(&mut self, lane: PipeLane, work: SimDuration) -> (SimTime, SimTime) {
        self.run_after(lane, self.start, work)
    }

    /// Charges `work` to `lane`, starting no earlier than `ready` (e.g. the
    /// moment the first compressed chunk exists for the radio to send).
    /// The work begins at `max(lane cursor, ready)` — lanes are in-order —
    /// and the lane cursor advances to its end.
    pub fn run_after(
        &mut self,
        lane: PipeLane,
        ready: SimTime,
        work: SimDuration,
    ) -> (SimTime, SimTime) {
        let cursor = &mut self.lanes[lane.0];
        let begin = if *cursor > ready { *cursor } else { ready };
        let end = begin + work;
        *cursor = end;
        self.busy += work;
        (begin, end)
    }

    /// The virtual time at which the pipeline opened.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// A lane's current cursor.
    pub fn cursor(&self, lane: PipeLane) -> SimTime {
        self.lanes[lane.0]
    }

    /// The virtual time at which every lane has drained: the pipeline's
    /// end, to which the caller advances its [`SimClock`](crate::SimClock).
    pub fn end(&self) -> SimTime {
        self.lanes.iter().copied().max().unwrap_or(self.start)
    }

    /// Wall-clock span of the pipeline (`end - start`).
    pub fn wall(&self) -> SimDuration {
        self.end().since(self.start)
    }

    /// Total work charged across all lanes — what a serial schedule would
    /// have cost.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Latency hidden by the overlap: `busy - wall`. Zero when nothing
    /// overlapped (single lane, or strictly dependent work).
    pub fn overlap_saved(&self) -> SimDuration {
        self.busy.saturating_sub(self.wall())
    }
}

/// The fused CPU/radio window a pipelined migration stage schedules on:
/// deferred CPU work (checkpoint compression) overlapping an in-order
/// radio flow that may only start once the first of `items` equal outputs
/// exists — a `cpu_work / items` lead after the window opens.
///
/// This is the lane arithmetic the transfer stage feeds its chunked radio
/// flow through; keeping it here makes the
/// overlap model a scheduler *input* rather than ad-hoc code at the call
/// site, and keeps it byte-identical across callers.
///
/// # Examples
///
/// ```
/// use flux_simcore::pipeline::FusedLanes;
/// use flux_simcore::{SimDuration, SimTime};
///
/// // 4s of compression into 4 chunks: the radio may start after 1s.
/// let mut w = FusedLanes::begin(SimTime::ZERO, SimDuration::from_secs(4), 4);
/// assert_eq!(w.radio_ready(), SimTime::from_secs(1));
/// w.run_radio(SimDuration::from_secs(6));
/// assert_eq!(w.end(), SimTime::from_secs(7));
/// assert_eq!(w.overlap_saved(), SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone)]
pub struct FusedLanes {
    pipe: Pipeline,
    radio: PipeLane,
    radio_ready: SimTime,
    cpu_window: (SimTime, SimTime),
}

impl FusedLanes {
    /// Opens the window at `start`: `cpu_work` charges the CPU lane from
    /// `start`, and the radio becomes ready one item's worth of CPU time
    /// later (`start + cpu_work / max(items, 1)`).
    pub fn begin(start: SimTime, cpu_work: SimDuration, items: u64) -> Self {
        let mut pipe = Pipeline::begin(start);
        let cpu = pipe.lane();
        let radio = pipe.lane();
        let lead = cpu_work / items.max(1);
        let cpu_window = pipe.run(cpu, cpu_work);
        Self {
            pipe,
            radio,
            radio_ready: start + lead,
            cpu_window,
        }
    }

    /// The instant the radio flow may begin (first output available).
    pub fn radio_ready(&self) -> SimTime {
        self.radio_ready
    }

    /// Charges the radio flow's air time to the radio lane, starting no
    /// earlier than [`radio_ready`](Self::radio_ready).
    pub fn run_radio(&mut self, work: SimDuration) {
        self.pipe.run_after(self.radio, self.radio_ready, work);
    }

    /// The `(start, end)` window the CPU work occupied — what the caller
    /// records its compression span over.
    pub fn cpu_window(&self) -> (SimTime, SimTime) {
        self.cpu_window
    }

    /// The instant both lanes have drained; advance the clock here.
    pub fn end(&self) -> SimTime {
        self.pipe.end()
    }

    /// Latency the CPU/radio overlap hid (see [`Pipeline::overlap_saved`]).
    pub fn overlap_saved(&self) -> SimDuration {
        self.pipe.overlap_saved()
    }
}

/// A deterministic discrete-event queue over virtual time.
///
/// [`Pipeline`] handles a *fixed* set of lanes whose work is scheduled
/// up-front; a [`Timeline`] generalises it to a *dynamic* population of
/// concurrent lanes — the fleet scheduler's in-flight migrations — whose
/// next step is only known as earlier steps complete. Events fire in
/// virtual-time order; simultaneous events fire in ascending `key` order
/// (the fleet uses the stable request id), never in insertion order, so a
/// run is byte-identical however the caller discovered the events.
///
/// Scheduling a second event with the same `(at, key)` replaces the first,
/// mirroring `BTreeMap` semantics.
///
/// # Examples
///
/// ```
/// use flux_simcore::pipeline::Timeline;
/// use flux_simcore::SimTime;
///
/// let mut tl = Timeline::new();
/// tl.schedule(SimTime::from_secs(5), 2, "b");
/// tl.schedule(SimTime::from_secs(5), 1, "a"); // same instant, smaller key
/// tl.schedule(SimTime::from_secs(3), 9, "first");
/// assert_eq!(tl.next_at(), Some(SimTime::from_secs(3)));
/// assert_eq!(tl.pop(), Some((SimTime::from_secs(3), 9, "first")));
/// assert_eq!(tl.pop(), Some((SimTime::from_secs(5), 1, "a")));
/// assert_eq!(tl.pop(), Some((SimTime::from_secs(5), 2, "b")));
/// assert_eq!(tl.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Timeline<T> {
    events: BTreeMap<(SimTime, u64), T>,
}

impl<T> Timeline<T> {
    /// An empty timeline.
    pub fn new() -> Self {
        Self {
            events: BTreeMap::new(),
        }
    }

    /// Schedules `payload` to fire at `at`; among events at the same
    /// instant, smaller `key`s fire first. Returns the payload it
    /// replaced, if `(at, key)` was already scheduled.
    pub fn schedule(&mut self, at: SimTime, key: u64, payload: T) -> Option<T> {
        self.events.insert((at, key), payload)
    }

    /// The instant of the earliest pending event.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.keys().next().map(|&(at, _)| at)
    }

    /// Removes and returns the earliest pending event (ties by key).
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.events
            .pop_first()
            .map(|((at, key), payload)| (at, key, payload))
    }

    /// The earliest pending event, without removing it (ties by key).
    pub fn peek(&self) -> Option<(SimTime, u64, &T)> {
        self.events
            .first_key_value()
            .map(|(&(at, key), payload)| (at, key, payload))
    }

    /// Like [`Timeline::pop`], but only if the earliest event fires at or
    /// before `now` — the fleet loop's "drain everything due" helper.
    ///
    /// One tree descent, not two: with a stage-level fleet this runs once
    /// per slice across 10k–100k in-flight migrations, so the lookup is on
    /// the event loop's hot path.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64, T)> {
        let first = self.events.first_entry()?;
        if first.key().0 <= now {
            let ((at, key), payload) = first.remove_entry();
            Some((at, key, payload))
        } else {
            None
        }
    }

    /// The instant of the earliest pending event, if it fires strictly
    /// before `horizon` — the interrupt-delivery probe: a stage about to
    /// charge an indivisible window `[now, horizon)` asks whether anything
    /// on the timeline must land inside it, and cuts the window at a slice
    /// boundary if so.
    pub fn next_before(&self, horizon: SimTime) -> Option<SimTime> {
        self.next_at().filter(|&at| at < horizon)
    }

    /// Whether any event is pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_matches_serial() {
        let mut p = Pipeline::begin(SimTime::from_secs(5));
        let l = p.lane();
        p.run(l, SimDuration::from_secs(2));
        p.run(l, SimDuration::from_secs(3));
        assert_eq!(p.end(), SimTime::from_secs(10));
        assert_eq!(p.wall(), SimDuration::from_secs(5));
        assert_eq!(p.busy(), SimDuration::from_secs(5));
        assert_eq!(p.overlap_saved(), SimDuration::ZERO);
    }

    #[test]
    fn parallel_lanes_overlap() {
        let mut p = Pipeline::begin(SimTime::ZERO);
        let cpu = p.lane();
        let radio = p.lane();
        let flash = p.lane();
        p.run(cpu, SimDuration::from_millis(400));
        p.run(radio, SimDuration::from_millis(900));
        p.run(flash, SimDuration::from_millis(250));
        assert_eq!(p.wall(), SimDuration::from_millis(900));
        assert_eq!(p.busy(), SimDuration::from_millis(1550));
        assert_eq!(p.overlap_saved(), SimDuration::from_millis(650));
    }

    #[test]
    fn run_after_waits_for_readiness() {
        let mut p = Pipeline::begin(SimTime::ZERO);
        let cpu = p.lane();
        let radio = p.lane();
        let (_, compressed) = p.run(cpu, SimDuration::from_secs(2));
        // The radio can only start once the first output exists.
        let (start, end) = p.run_after(radio, compressed, SimDuration::from_secs(3));
        assert_eq!(start, SimTime::from_secs(2));
        assert_eq!(end, SimTime::from_secs(5));
        // Lane cursors are in-order: later work on the radio lane queues
        // behind the first even if its input was ready earlier.
        let (s2, _) = p.run_after(radio, SimTime::from_secs(1), SimDuration::from_secs(1));
        assert_eq!(s2, SimTime::from_secs(5));
        assert_eq!(p.end(), SimTime::from_secs(6));
    }

    #[test]
    fn empty_pipeline_spans_nothing() {
        let p = Pipeline::begin(SimTime::from_secs(7));
        assert_eq!(p.end(), SimTime::from_secs(7));
        assert_eq!(p.wall(), SimDuration::ZERO);
        assert_eq!(p.overlap_saved(), SimDuration::ZERO);
    }

    #[test]
    fn fused_lanes_match_a_hand_built_pipeline() {
        let start = SimTime::from_secs(10);
        let cpu_work = SimDuration::from_millis(4000);
        let air = SimDuration::from_millis(9000);
        let items = 7u64;

        let mut manual = Pipeline::begin(start);
        let cpu = manual.lane();
        let radio = manual.lane();
        let lead = cpu_work / items;
        let cpu_window = manual.run(cpu, cpu_work);
        manual.run_after(radio, start + lead, air);

        let mut fused = FusedLanes::begin(start, cpu_work, items);
        assert_eq!(fused.radio_ready(), start + lead);
        assert_eq!(fused.cpu_window(), cpu_window);
        fused.run_radio(air);
        assert_eq!(fused.end(), manual.end());
        assert_eq!(fused.overlap_saved(), manual.overlap_saved());
    }

    #[test]
    fn fused_lanes_with_no_cpu_work_add_no_lead_and_no_overlap() {
        let mut w = FusedLanes::begin(SimTime::from_secs(3), SimDuration::ZERO, 0);
        assert_eq!(w.radio_ready(), SimTime::from_secs(3));
        w.run_radio(SimDuration::from_secs(2));
        assert_eq!(w.end(), SimTime::from_secs(5));
        assert_eq!(w.overlap_saved(), SimDuration::ZERO);
    }

    #[test]
    fn timeline_orders_by_time_then_key_regardless_of_insertion() {
        let mut a = Timeline::new();
        a.schedule(SimTime::from_secs(2), 7, "x");
        a.schedule(SimTime::from_secs(2), 3, "y");
        a.schedule(SimTime::from_secs(1), 9, "z");
        let mut b = Timeline::new();
        b.schedule(SimTime::from_secs(1), 9, "z");
        b.schedule(SimTime::from_secs(2), 3, "y");
        b.schedule(SimTime::from_secs(2), 7, "x");
        fn drain(mut t: Timeline<&'static str>) -> Vec<(SimTime, u64, &'static str)> {
            let mut out = Vec::new();
            while let Some(e) = t.pop() {
                out.push(e);
            }
            out
        }
        assert_eq!(drain(a), drain(b));
    }

    #[test]
    fn timeline_pop_due_respects_now() {
        let mut t = Timeline::new();
        t.schedule(SimTime::from_secs(4), 1, ());
        t.schedule(SimTime::from_secs(6), 2, ());
        assert!(t.pop_due(SimTime::from_secs(3)).is_none());
        assert_eq!(
            t.pop_due(SimTime::from_secs(4)),
            Some((SimTime::from_secs(4), 1, ()))
        );
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn timeline_next_before_is_strict() {
        let mut t = Timeline::new();
        t.schedule(SimTime::from_secs(5), 1, ());
        assert_eq!(
            t.next_before(SimTime::from_secs(6)),
            Some(SimTime::from_secs(5))
        );
        // The horizon itself is outside the window: an event *at* the end
        // of a charge window lands at the natural stage boundary.
        assert_eq!(t.next_before(SimTime::from_secs(5)), None);
        assert_eq!(
            Timeline::<()>::new().next_before(SimTime::from_secs(9)),
            None
        );
    }

    #[test]
    fn timeline_peek_does_not_remove() {
        let mut t = Timeline::new();
        t.schedule(SimTime::from_secs(2), 8, "later");
        t.schedule(SimTime::from_secs(1), 4, "first");
        assert_eq!(t.peek(), Some((SimTime::from_secs(1), 4, &"first")));
        assert_eq!(t.len(), 2);
        assert_eq!(t.pop(), Some((SimTime::from_secs(1), 4, "first")));
        assert_eq!(t.peek(), Some((SimTime::from_secs(2), 8, &"later")));
    }

    #[test]
    fn timeline_schedule_replaces_same_slot() {
        let mut t = Timeline::new();
        assert_eq!(t.schedule(SimTime::from_secs(1), 5, "old"), None);
        assert_eq!(t.schedule(SimTime::from_secs(1), 5, "new"), Some("old"));
        assert_eq!(t.pop(), Some((SimTime::from_secs(1), 5, "new")));
    }
}
