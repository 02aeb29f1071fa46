//! Virtual-time scheduling primitives: the fused CPU/radio window a
//! pipelined migration stage charges, and the discrete-event timeline the
//! fleet scheduler and the interrupt source run on.
//!
//! Both are purely arithmetic over [`SimTime`] — no threads, no
//! interleaving nondeterminism — so pipelined runs stay byte-identical for
//! a fixed seed, the repo's core invariant.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The fused CPU/radio window a pipelined migration stage schedules on:
/// deferred CPU work (checkpoint compression) overlapping an in-order
/// radio flow that may only start once the first of `items` equal outputs
/// exists — a `cpu_work / items` lead after the window opens.
///
/// The serial migration path charges every cost to the single
/// [`SimClock`](crate::SimClock) in sequence, so compression and radio
/// transfer can never overlap. Here each of the two lanes keeps its own
/// cursor, work charges only its lane, and the window ends at the later
/// cursor; the difference between the summed work and the window's span
/// is exactly the latency the overlap hid. The transfer stage feeds its
/// chunked radio flow through this window, which keeps the overlap model
/// a scheduler *input* rather than ad-hoc code at the call site.
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
    start: SimTime,
    /// Where the CPU lane's one piece of work ends.
    cpu_end: SimTime,
    radio_ready: SimTime,
    /// The radio lane's cursor: where its last flow ended.
    radio_end: SimTime,
    /// Work charged across both lanes — what a serial schedule would have
    /// cost.
    busy: SimDuration,
}

impl FusedLanes {
    /// Opens the window at `start`: `cpu_work` charges the CPU lane from
    /// `start`, and the radio becomes ready one item's worth of CPU time
    /// later (`start + cpu_work / max(items, 1)`).
    pub fn begin(start: SimTime, cpu_work: SimDuration, items: u64) -> Self {
        Self {
            start,
            cpu_end: start + cpu_work,
            radio_ready: start + cpu_work / items.max(1),
            radio_end: start,
            busy: cpu_work,
        }
    }

    /// The instant the radio flow may begin (first output available).
    pub fn radio_ready(&self) -> SimTime {
        self.radio_ready
    }

    /// Charges the radio flow's air time to the radio lane, starting no
    /// earlier than [`radio_ready`](Self::radio_ready) and, the lane being
    /// in-order, no earlier than the lane's previous flow ended.
    pub fn run_radio(&mut self, work: SimDuration) {
        self.radio_end = self.radio_end.max(self.radio_ready) + work;
        self.busy += work;
    }

    /// The `(start, end)` window the CPU work occupied — what the caller
    /// records its compression span over.
    pub fn cpu_window(&self) -> (SimTime, SimTime) {
        (self.start, self.cpu_end)
    }

    /// The instant both lanes have drained; advance the clock here.
    pub fn end(&self) -> SimTime {
        self.cpu_end.max(self.radio_end)
    }

    /// Latency the CPU/radio overlap hid: the work charged across both
    /// lanes less the window's span. Zero when nothing overlapped.
    pub fn overlap_saved(&self) -> SimDuration {
        self.busy.saturating_sub(self.end().since(self.start))
    }
}

/// A deterministic discrete-event queue over virtual time.
///
/// [`FusedLanes`] handles a *fixed* pair of lanes whose work is scheduled
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
    fn fused_lanes_overlap_the_radio_from_one_items_lead() {
        let start = SimTime::from_secs(10);
        let mut fused = FusedLanes::begin(start, SimDuration::from_millis(4000), 7);
        // The lead is one of seven items' CPU time, truncated to the
        // nanosecond: 571,428,571 ns.
        assert_eq!(fused.radio_ready(), SimTime::from_nanos(10_571_428_571));
        assert_eq!(fused.cpu_window(), (start, SimTime::from_secs(14)));
        fused.run_radio(SimDuration::from_millis(9000));
        assert_eq!(fused.end(), SimTime::from_nanos(19_571_428_571));
        // 13 s of work over a 9.571428571 s window.
        assert_eq!(
            fused.overlap_saved(),
            SimDuration::from_nanos(3_428_571_429)
        );
        // The radio lane is in-order: a second flow queues behind the
        // first, although its input was ready long before.
        fused.run_radio(SimDuration::from_secs(1));
        assert_eq!(fused.end(), SimTime::from_nanos(20_571_428_571));
        assert_eq!(
            fused.overlap_saved(),
            SimDuration::from_nanos(3_428_571_429)
        );
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
