//! The engine's slice vocabulary: the stage-level [`Slice`] schedule an
//! executed migration is cut into, the `SliceLog` the driver and the
//! radio-keying stages record it into as the clock moves, and the
//! `SliceCursor` the fleet scheduler walks to re-time those slices on
//! its timeline.
//!
//! The slice boundaries are the driver's stage brackets and the radio
//! windows the pre-copy and transfer stages key, the same boundaries the
//! driver yields at for mid-stage interrupt delivery.

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

/// The slice schedule of one engine run, recorded as its clock moves.
///
/// The driver brackets every stage, the backoff and the rollback with
/// [`enter`](Self::enter) and [`exit`](Self::exit); the pre-copy and
/// transfer stages report each radio window with [`radio`](Self::radio).
/// Every record closes the stretch since the previous one, so the
/// schedule tiles `[start, end]` by construction: time inside a radio
/// window becomes a `Transfer` slice carrying its payload, and the rest
/// becomes `Cpu` slices labelled with the stage that owned the clock
/// (`""` between stages).
#[derive(Debug, Default)]
pub(crate) struct SliceLog {
    slices: Vec<Slice>,
    /// Where the last slice ended.
    at: SimTime,
    /// The stage owning the clock since `at`; `""` between stages.
    stage: &'static str,
}

impl SliceLog {
    /// An empty log whose first slice starts at `start`.
    pub(crate) fn new(start: SimTime) -> Self {
        Self {
            slices: Vec::new(),
            at: start,
            stage: "",
        }
    }

    /// `stage` takes the clock at `at`.
    pub(crate) fn enter(&mut self, stage: &'static str, at: SimTime) {
        self.cpu_until(at, stage);
        self.stage = stage;
    }

    /// The current stage releases the clock at `at`.
    pub(crate) fn exit(&mut self, at: SimTime) {
        self.cpu_until(at, self.stage);
        self.stage = "";
    }

    /// The radio was keyed at `from` for `dur` and delivered `bytes`.
    ///
    /// A window that delivered nothing (a handshake drop) held the
    /// devices but never got a payload onto the air, so it is a `Cpu`
    /// slice rather than a zero-byte medium flow. A zero-length window
    /// records nothing and leaves the stretch around it whole.
    pub(crate) fn radio(&mut self, from: SimTime, dur: SimDuration, bytes: ByteSize) {
        if dur == SimDuration::ZERO {
            return;
        }
        self.cpu_until(from, self.stage);
        let kind = if bytes.as_u64() > 0 {
            SliceKind::Transfer { bytes }
        } else {
            SliceKind::Cpu
        };
        self.slices.push(Slice {
            stage: self.stage,
            kind,
            dur,
        });
        self.at = from + dur;
    }

    /// Closes the log at `end` and returns its schedule.
    pub(crate) fn finish(mut self, end: SimTime) -> Vec<Slice> {
        self.cpu_until(end, self.stage);
        self.slices
    }

    /// Closes the CPU stretch `[self.at, to)` under the current stage.
    /// A record behind the log means the engine's clock ran backwards or
    /// a radio window escaped its stage: a bug, never a schedule to clamp.
    fn cpu_until(&mut self, to: SimTime, stage: &str) {
        assert!(
            to >= self.at,
            "slice log: `{stage}` recorded at {to:?}, behind the log at {:?}",
            self.at
        );
        if to > self.at {
            self.slices.push(Slice {
                stage: self.stage,
                kind: SliceKind::Cpu,
                dur: to.since(self.at),
            });
            self.at = to;
        }
    }
}

/// What the fleet scheduler should do for the cursor's current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArmAction {
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
/// the cursor owns the walk — the position and the first/last-transfer
/// bracket (`transfer_start`/`transfer_end`, the flight record's transfer
/// phase) — so `fleet.rs::step_flight` carries no slice bookkeeping of
/// its own.
#[derive(Debug)]
pub(crate) struct SliceCursor {
    slices: Vec<Slice>,
    pos: usize,
    first_transfer: Option<usize>,
    last_transfer: Option<usize>,
    transfer_start: Option<SimTime>,
    transfer_end: Option<SimTime>,
}

impl SliceCursor {
    /// A cursor at the start of `slices`.
    ///
    /// `SliceLog` never records an empty slice, so one here is an engine
    /// bug: it panics rather than be stepped over.
    pub(crate) fn new(slices: Vec<Slice>) -> Self {
        if let Some(empty) = slices.iter().find(|s| s.dur == SimDuration::ZERO) {
            panic!("slice cursor: empty slice {empty:?} in the schedule");
        }
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

    /// Reports what to arm for the current slice — or
    /// [`ArmAction::Drained`] when none remains — opening the transfer
    /// bracket at `now` if it is the first transfer-stage slice.
    pub(crate) fn arm(&mut self, now: SimTime) -> ArmAction {
        let Some(slice) = self.slices.get(self.pos) else {
            return ArmAction::Drained;
        };
        if self.first_transfer == Some(self.pos) {
            self.transfer_start = Some(now);
        }
        match slice.kind {
            SliceKind::Cpu => ArmAction::Cpu { dur: slice.dur },
            SliceKind::Transfer { bytes } => ArmAction::Transfer {
                bytes,
                dur: slice.dur,
            },
        }
    }

    /// Steps past the just-completed slice, marking the transfer bracket.
    /// Returns `false` when the cursor had already drained — the flight
    /// is finished.
    pub(crate) fn step(&mut self, now: SimTime) -> bool {
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
    pub(crate) fn transfer_start(&self) -> Option<SimTime> {
        self.transfer_start
    }

    /// When the last transfer-stage slice completed, if it has.
    pub(crate) fn transfer_end(&self) -> Option<SimTime> {
        self.transfer_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// `(stage, is_transfer, whole seconds)` per slice.
    fn shape(slices: &[Slice]) -> Vec<(&'static str, bool, u64)> {
        slices
            .iter()
            .map(|s| {
                (
                    s.stage,
                    matches!(s.kind, SliceKind::Transfer { .. }),
                    s.dur.as_nanos() / 1_000_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn schedule_tiles_the_wall_and_labels_stages() {
        // precopy [0,4) with a radio round [1,3); transfer [5,9) with its
        // verify head [5,6) and radio [6,9); a bare gap [4,5).
        let mut log = SliceLog::new(t(0));
        log.enter("precopy", t(0));
        log.radio(t(1), secs(2), ByteSize::from_mib(8));
        log.exit(t(4));
        // A stage that charged nothing leaves no slice.
        log.enter("checkpoint", t(4));
        log.exit(t(4));
        log.enter("transfer", t(5));
        log.radio(t(6), secs(3), ByteSize::from_mib(64));
        log.exit(t(9));
        let slices = log.finish(t(9));
        assert_eq!(
            shape(&slices),
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
        assert_eq!(total, secs(9));
    }

    #[test]
    fn zero_byte_radio_windows_become_cpu_slices() {
        // A handshake drop held the devices but shipped nothing: it must
        // not become a zero-byte medium flow.
        let mut log = SliceLog::new(t(0));
        log.enter("transfer", t(0));
        log.radio(t(1), secs(1), ByteSize::ZERO);
        log.exit(t(3));
        let slices = log.finish(t(3));
        assert_eq!(
            shape(&slices),
            vec![
                ("transfer", false, 1),
                ("transfer", false, 1),
                ("transfer", false, 1),
            ]
        );
    }

    #[test]
    fn zero_length_radio_windows_leave_the_cpu_stretch_whole() {
        let mut log = SliceLog::new(t(0));
        log.enter("transfer", t(0));
        log.radio(t(1), SimDuration::ZERO, ByteSize::from_mib(8));
        log.exit(t(3));
        assert_eq!(shape(&log.finish(t(3))), vec![("transfer", false, 3)]);
    }

    #[test]
    #[should_panic(expected = "behind the log")]
    fn a_record_behind_the_log_panics() {
        // A radio window running past its stage's exit would have the
        // next record land inside it: an engine bug, never clamped.
        let mut log = SliceLog::new(t(0));
        log.enter("transfer", t(0));
        log.radio(t(2), secs(10), ByteSize::from_mib(64));
        log.exit(t(4));
    }

    #[test]
    fn empty_probe_yields_one_cpu_slice_or_nothing() {
        assert_eq!(
            SliceLog::new(t(0)).finish(t(2)),
            vec![Slice {
                stage: "",
                kind: SliceKind::Cpu,
                dur: secs(2)
            }]
        );
        assert!(SliceLog::new(t(0)).finish(t(0)).is_empty());
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
        // Arming the first transfer-stage slice opens the bracket.
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
    #[should_panic(expected = "empty slice")]
    fn cursor_refuses_an_empty_slice() {
        SliceCursor::new(vec![Slice {
            stage: "transfer",
            kind: SliceKind::Cpu,
            dur: SimDuration::ZERO,
        }]);
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
