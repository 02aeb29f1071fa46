//! Virtual time for the simulation.
//!
//! All costs in the Flux migration pipeline — trim-memory cascades, CRIU
//! image serialisation, WiFi transfer, replaying the record log — are
//! charged against a [`SimClock`]. Wall-clock time never leaks into
//! experiment results, which keeps the figures deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Serializes as raw nanoseconds since the epoch.
impl serde::Serialize for SimTime {
    fn serialize(&self, out: &mut String) {
        serde::Serialize::serialize(&self.0, out);
    }
}

/// Serializes as raw nanoseconds.
impl serde::Serialize for SimDuration {
    fn serialize(&self, out: &mut String) {
        serde::Serialize::serialize(&self.0, out);
    }
}

/// Deserializes from raw nanoseconds since the epoch.
impl<'de> serde::Deserialize<'de> for SimTime {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        u64::deserialize(v).map(SimTime)
    }
}

/// Deserializes from raw nanoseconds.
impl<'de> serde::Deserialize<'de> for SimDuration {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        u64::deserialize(v).map(SimDuration)
    }
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// If `earlier` is later than `self`, printing both: virtual time
    /// never runs backwards, so a negative span is a bug, not a zero.
    #[track_caller]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        self - earlier
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9) as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// Panics if `rhs` is later than `self`, printing both; see
/// [`SimTime::since`].
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[track_caller]
    fn sub(self, rhs: SimTime) -> SimDuration {
        match self.0.checked_sub(rhs.0) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimTime underflow: {self:?} - {rhs:?}"),
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.0 / 1_000)
        }
    }
}

/// The virtual clock shared by one simulation run.
///
/// Components *charge* time to the clock rather than sleeping:
///
/// ```
/// use flux_simcore::{SimClock, SimDuration};
///
/// let mut clock = SimClock::new();
/// clock.charge(SimDuration::from_millis(250));
/// assert_eq!(clock.now().as_millis(), 250);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d`, returning the new instant.
    pub fn charge(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise no-op.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Creates a clock already advanced to `t` — the restore half of clock
    /// persistence (the save half is just `clock.now()`).
    pub fn at(t: SimTime) -> Self {
        Self { now: t }
    }
}

/// Serializes as the current instant in raw nanoseconds.
impl serde::Serialize for SimClock {
    fn serialize(&self, out: &mut String) {
        serde::Serialize::serialize(&self.now, out);
    }
}

/// Deserializes from raw nanoseconds, yielding a clock at that instant.
impl<'de> serde::Deserialize<'de> for SimClock {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        SimTime::deserialize(v).map(SimClock::at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(1_500);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_millis(), 1_750);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.since(t), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow: SimTime(1500000000) - SimTime(1750000000)")]
    fn since_panics_when_earlier_is_later() {
        let t = SimTime::from_millis(1_500);
        let _ = t.since(t + SimDuration::from_millis(250));
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn time_subtraction_panics_on_underflow() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn duration_display_picks_sane_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.00s");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.0ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
    }

    #[test]
    fn clock_charges_accumulate() {
        let mut c = SimClock::new();
        c.charge(SimDuration::from_secs(1));
        c.charge(SimDuration::from_millis(500));
        assert_eq!(c.now().as_millis(), 1_500);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut c = SimClock::new();
        c.charge(SimDuration::from_secs(5));
        c.advance_to(SimTime::from_secs(3));
        assert_eq!(c.now(), SimTime::from_secs(5));
        c.advance_to(SimTime::from_secs(8));
        assert_eq!(c.now(), SimTime::from_secs(8));
    }

    #[test]
    fn duration_from_secs_f64_saturates_at_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.001).as_millis(), 1);
    }
}
