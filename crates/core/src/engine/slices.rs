//! The engine's slice vocabulary: the stage-level [`Slice`] schedule an
//! executed migration is cut into, the `build_schedule` cutter that
//! turns [`ExecProbe`](crate::probe::ExecProbe) windows into it, and the
//! [`SliceCursor`] the fleet scheduler walks to re-time those slices on
//! its timeline.
//!
//! This used to be split across `executor.rs` (the cutter) and `fleet.rs`
//! (a hand-rolled cursor inside `step_flight`); it now lives with the
//! engine, the one owner of slice semantics — the same boundaries the
//! driver yields at for mid-stage interrupt delivery.

use crate::probe::{RadioWindow, StageWindow};
use flux_simcore::{ByteSize, SimDuration, SimTime};

/// What one schedulable stretch of an executed migration occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Device-local work: holds the migration's devices, not the air.
    Cpu,
    /// A radio payload: `bytes` the serial transfer model priced at the
    /// slice's duration of air time. The scheduler admits it onto the
    /// medium, where contention may stretch it.
    Transfer {
        /// Payload bytes delivered in this window.
        bytes: ByteSize,
    },
}

/// One stage-level stretch of an executed migration — the unit the fleet
/// scheduler re-times. Consecutive slices run back to back; `Transfer`
/// slices contend for the air individually (a pre-copy round and another
/// request's freeze-phase residue genuinely interleave on the medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The engine stage the stretch belongs to (`Stage::name`, or a
    /// driver label like `"backoff"`/`"rollback"`; `""` between stages).
    pub stage: &'static str,
    /// What the stretch occupies.
    pub kind: SliceKind,
    /// Isolated duration (for `Transfer` slices, the serial air time —
    /// medium contention not yet applied).
    pub dur: SimDuration,
}

/// Cuts `[start, start + wall]` into [`Slice`]s at every stage and radio
/// window boundary: stretches inside a radio window become `Transfer`
/// slices carrying that window's payload, everything else is `Cpu`, and
/// each slice is labeled with the stage that owned the clock there.
///
/// The builder checks — rather than trusts — the probe invariants: radio
/// windows must be chronological, non-overlapping and inside the wall.
/// Every violation is counted and the offending window clamped, so the
/// returned schedule always tiles the wall exactly; callers surface the
/// count (`flux.fleet.accounting_violations`) instead of masking it.
pub(crate) fn build_schedule(
    stages: &[StageWindow],
    radios: &[RadioWindow],
    start: SimTime,
    wall: SimDuration,
) -> (Vec<Slice>, u32) {
    let end = start + wall;
    let mut violations = 0u32;
    let label_at = |t: SimTime| -> &'static str {
        stages
            .iter()
            .find(|w| w.from <= t && t < w.to)
            .map(|w| w.stage)
            .unwrap_or("")
    };
    // Emits the CPU stretch `[from, to)`, split at stage boundaries so a
    // slice never spans two stages (the scheduler brackets the transfer
    // stage by its labeled slices).
    let emit_cpu = |slices: &mut Vec<Slice>, from: SimTime, to: SimTime| {
        let mut at = from;
        while at < to {
            let mut next = to;
            for w in stages {
                for b in [w.from, w.to] {
                    if b > at && b < next {
                        next = b;
                    }
                }
            }
            slices.push(Slice {
                stage: label_at(at),
                kind: SliceKind::Cpu,
                dur: next.since(at),
            });
            at = next;
        }
    };
    let mut slices = Vec::new();
    let mut cursor = start;
    for r in radios {
        let (mut from, mut to) = (r.from, r.from + r.duration);
        if from < cursor || to > end {
            violations += 1;
            from = from.max(cursor).min(end);
            to = to.max(from).min(end);
        }
        if to <= from {
            continue; // clamped away entirely
        }
        emit_cpu(&mut slices, cursor, from);
        // A window that delivered nothing (handshake drop) held the
        // devices but never got a payload onto the air: schedule it as
        // CPU time rather than admitting a zero-byte flow.
        let kind = if r.bytes.as_u64() > 0 {
            SliceKind::Transfer { bytes: r.bytes }
        } else {
            SliceKind::Cpu
        };
        slices.push(Slice {
            stage: label_at(from),
            kind,
            dur: to.since(from),
        });
        cursor = to;
    }
    emit_cpu(&mut slices, cursor, end);
    debug_assert_eq!(
        slices
            .iter()
            .map(|s| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d),
        wall,
        "slice schedule must tile the wall exactly"
    );
    (slices, violations)
}

/// What the fleet scheduler should do for the cursor's current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmAction {
    /// Hold the migration's devices for `dur`, then step the cursor.
    Cpu {
        /// Isolated duration of the slice.
        dur: SimDuration,
    },
    /// Admit `bytes` onto the medium, priced at an isolated air time of
    /// `dur` (contention may stretch it).
    Transfer {
        /// Payload bytes of the slice.
        bytes: ByteSize,
        /// Isolated air time of the slice.
        dur: SimDuration,
    },
    /// The schedule has drained; the flight is done.
    Drained,
}

/// A cursor over an executed migration's [`Slice`] schedule.
///
/// The scheduler re-times slices one at a time on the fleet timeline;
/// the cursor owns the walk — zero-duration skips, the position, and the
/// first/last-transfer bracket (`transfer_start`/`transfer_end`, the
/// flight record's transfer phase) — so `fleet.rs::step_flight` carries
/// no slice bookkeeping of its own.
#[derive(Debug)]
pub struct SliceCursor {
    slices: Vec<Slice>,
    pos: usize,
    first_transfer: Option<usize>,
    last_transfer: Option<usize>,
    transfer_start: Option<SimTime>,
    transfer_end: Option<SimTime>,
}

impl SliceCursor {
    /// A cursor at the start of `slices`.
    pub fn new(slices: Vec<Slice>) -> Self {
        let first_transfer = slices.iter().position(|s| s.stage == "transfer");
        let last_transfer = slices.iter().rposition(|s| s.stage == "transfer");
        Self {
            slices,
            pos: 0,
            first_transfer,
            last_transfer,
            transfer_start: None,
            transfer_end: None,
        }
    }

    /// Advances past zero-duration slices (marking the transfer bracket
    /// at `now` as it crosses it) and reports what to arm for the first
    /// armable slice — or [`ArmAction::Drained`] when none remains.
    pub fn arm(&mut self, now: SimTime) -> ArmAction {
        while let Some(slice) = self.slices.get(self.pos) {
            if self.first_transfer == Some(self.pos) && self.transfer_start.is_none() {
                self.transfer_start = Some(now);
            }
            if slice.dur == SimDuration::ZERO {
                if self.last_transfer == Some(self.pos) {
                    self.transfer_end = Some(now);
                }
                self.pos += 1;
                continue;
            }
            return match slice.kind {
                SliceKind::Cpu => ArmAction::Cpu { dur: slice.dur },
                SliceKind::Transfer { bytes } => ArmAction::Transfer {
                    bytes,
                    dur: slice.dur,
                },
            };
        }
        ArmAction::Drained
    }

    /// Steps past the just-completed slice, marking the transfer bracket.
    /// Returns `false` when the cursor had already drained — the flight
    /// is finished.
    pub fn step(&mut self, now: SimTime) -> bool {
        if self.pos >= self.slices.len() {
            return false;
        }
        if self.last_transfer == Some(self.pos) {
            self.transfer_end = Some(now);
        }
        self.pos += 1;
        true
    }

    /// When the first transfer-stage slice was armed, if it has been.
    pub fn transfer_start(&self) -> Option<SimTime> {
        self.transfer_start
    }

    /// When the last transfer-stage slice completed, if it has.
    pub fn transfer_end(&self) -> Option<SimTime> {
        self.transfer_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn stage_w(stage: &'static str, from: u64, to: u64) -> StageWindow {
        StageWindow {
            stage,
            from: t(from),
            to: t(to),
        }
    }

    fn radio_w(from: u64, dur: u64, mib: u64) -> RadioWindow {
        RadioWindow {
            from: t(from),
            duration: SimDuration::from_secs(dur),
            bytes: ByteSize::from_mib(mib),
        }
    }

    #[test]
    fn schedule_tiles_the_wall_and_labels_stages() {
        // precopy [0,4) with a radio round [1,3); transfer [5,9) with its
        // verify head [5,6) and radio [6,9); a bare gap [4,5).
        let stages = vec![stage_w("precopy", 0, 4), stage_w("transfer", 5, 9)];
        let radios = vec![radio_w(1, 2, 8), radio_w(6, 3, 64)];
        let (slices, violations) =
            build_schedule(&stages, &radios, t(0), SimDuration::from_secs(9));
        assert_eq!(violations, 0);
        let shape: Vec<(&str, bool, u64)> = slices
            .iter()
            .map(|s| {
                (
                    s.stage,
                    matches!(s.kind, SliceKind::Transfer { .. }),
                    s.dur.as_nanos() / 1_000_000_000,
                )
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                ("precopy", false, 1),
                ("precopy", true, 2),
                ("precopy", false, 1),
                ("", false, 1),
                ("transfer", false, 1),
                ("transfer", true, 3),
            ]
        );
        let total = slices
            .iter()
            .map(|s| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(total, SimDuration::from_secs(9));
    }

    #[test]
    fn zero_byte_radio_windows_become_cpu_slices() {
        // A handshake drop held the devices but shipped nothing: it must
        // not become a zero-byte medium flow.
        let stages = vec![stage_w("transfer", 0, 3)];
        let radios = vec![radio_w(1, 1, 0)];
        let (slices, violations) =
            build_schedule(&stages, &radios, t(0), SimDuration::from_secs(3));
        assert_eq!(violations, 0);
        assert!(slices.iter().all(|s| matches!(s.kind, SliceKind::Cpu)));
    }

    #[test]
    fn escaping_radio_windows_are_counted_not_masked() {
        // Regression for the silent `pre = wall.saturating_sub(transfer +
        // post)` clamp: a probe window past the measured wall used to
        // vanish into a zero pre-phase. Now it is clamped *and counted*.
        let stages = vec![stage_w("transfer", 0, 4)];
        let radios = vec![radio_w(2, 10, 64)]; // escapes a 4 s wall
        let (slices, violations) =
            build_schedule(&stages, &radios, t(0), SimDuration::from_secs(4));
        assert_eq!(violations, 1);
        let total = slices
            .iter()
            .map(|s| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(total, SimDuration::from_secs(4), "still tiles the wall");
        // Overlapping windows are the other corruption shape.
        let radios = vec![radio_w(0, 3, 8), radio_w(2, 1, 8)];
        let (_, violations) = build_schedule(&stages, &radios, t(0), SimDuration::from_secs(4));
        assert_eq!(violations, 1);
    }

    #[test]
    fn empty_probe_yields_one_cpu_slice_or_nothing() {
        let (slices, v) = build_schedule(&[], &[], t(0), SimDuration::from_secs(2));
        assert_eq!(v, 0);
        assert_eq!(
            slices,
            vec![Slice {
                stage: "",
                kind: SliceKind::Cpu,
                dur: SimDuration::from_secs(2)
            }]
        );
        let (slices, v) = build_schedule(&[], &[], t(0), SimDuration::ZERO);
        assert_eq!(v, 0);
        assert!(slices.is_empty());
    }

    #[test]
    fn cursor_walks_slices_and_brackets_the_transfer_phase() {
        let mib = ByteSize::from_mib(8);
        let slices = vec![
            Slice {
                stage: "preparation",
                kind: SliceKind::Cpu,
                dur: SimDuration::from_secs(1),
            },
            Slice {
                stage: "transfer",
                kind: SliceKind::Cpu,
                dur: SimDuration::ZERO,
            },
            Slice {
                stage: "transfer",
                kind: SliceKind::Transfer { bytes: mib },
                dur: SimDuration::from_secs(2),
            },
            Slice {
                stage: "restore",
                kind: SliceKind::Cpu,
                dur: SimDuration::from_secs(1),
            },
        ];
        let mut cursor = SliceCursor::new(slices);
        assert_eq!(
            cursor.arm(t(10)),
            ArmAction::Cpu {
                dur: SimDuration::from_secs(1)
            }
        );
        assert!(cursor.step(t(11)));
        // The zero-duration verify head is skipped in the same arm call
        // that admits the radio slice; the bracket opens there.
        assert_eq!(
            cursor.arm(t(11)),
            ArmAction::Transfer {
                bytes: mib,
                dur: SimDuration::from_secs(2)
            }
        );
        assert_eq!(cursor.transfer_start(), Some(t(11)));
        assert_eq!(cursor.transfer_end(), None);
        assert!(cursor.step(t(13)));
        assert_eq!(cursor.transfer_end(), Some(t(13)));
        assert_eq!(
            cursor.arm(t(13)),
            ArmAction::Cpu {
                dur: SimDuration::from_secs(1)
            }
        );
        assert!(cursor.step(t(14)));
        assert_eq!(cursor.arm(t(14)), ArmAction::Drained);
        assert!(!cursor.step(t(14)), "drained cursor reports finished");
    }

    #[test]
    fn empty_cursor_drains_immediately() {
        let mut cursor = SliceCursor::new(Vec::new());
        assert_eq!(cursor.arm(t(0)), ArmAction::Drained);
        assert!(!cursor.step(t(0)));
        assert_eq!(cursor.transfer_start(), None);
        assert_eq!(cursor.transfer_end(), None);
    }
}
