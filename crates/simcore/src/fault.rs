//! Seeded fault schedules for migration experiments.
//!
//! A [`FaultPlan`] is a deterministic, pre-generated timeline of adverse
//! events — WiFi link drops, congestion spikes and kernel stalls — that the
//! transfer and migration paths consult while they run. The plan is built
//! once from its own seed, so injecting faults never perturbs any other
//! RNG stream: a world constructed with [`FaultPlan::none`] produces
//! byte-identical results to one that predates fault injection.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The WiFi link drops instantaneously; any transfer in flight loses
    /// its current chunk and must reconnect.
    LinkDrop,
    /// Background traffic multiplies transfer times by `magnitude` for
    /// `duration`.
    CongestionSpike,
    /// The kernel stalls (memory pressure, cgroup freeze contention) for
    /// `duration`, delaying — or, past a watchdog, aborting — a CRIU
    /// checkpoint or restore in progress.
    KernelStall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LinkDrop => write!(f, "link-drop"),
            FaultKind::CongestionSpike => write!(f, "congestion-spike"),
            FaultKind::KernelStall => write!(f, "kernel-stall"),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault begins.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
    /// How long the condition lasts. Zero for instantaneous link drops.
    pub duration: SimDuration,
    /// Kind-specific severity: the slowdown factor of a congestion spike
    /// (>1.0); unused (0.0) for the other kinds.
    pub magnitude: f64,
}

impl FaultEvent {
    /// End of the fault's active window.
    pub fn until(&self) -> SimTime {
        self.at + self.duration
    }
}

/// Poisson rates (events per virtual second) for each fault kind, plus the
/// horizon the schedule covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Length of virtual time the plan covers from t = 0.
    pub horizon: SimDuration,
    /// Link drops per second.
    pub link_drop_rate: f64,
    /// Congestion spikes per second.
    pub congestion_rate: f64,
    /// Kernel stalls per second.
    pub stall_rate: f64,
}

impl FaultConfig {
    /// A config injecting all three kinds at the same `rate`, covering
    /// `horizon` of virtual time.
    pub fn uniform(rate: f64, horizon: SimDuration) -> Self {
        Self {
            horizon,
            link_drop_rate: rate,
            congestion_rate: rate,
            stall_rate: rate,
        }
    }

    /// A config that injects nothing.
    pub fn quiet() -> Self {
        Self {
            horizon: SimDuration::ZERO,
            link_drop_rate: 0.0,
            congestion_rate: 0.0,
            stall_rate: 0.0,
        }
    }
}

/// A deterministic schedule of fault events, sorted by start time.
///
/// # Examples
///
/// ```
/// use flux_simcore::{FaultConfig, FaultPlan, SimDuration};
///
/// let plan = FaultPlan::generate(7, &FaultConfig::uniform(0.5, SimDuration::from_secs(60)));
/// let again = FaultPlan::generate(7, &FaultConfig::uniform(0.5, SimDuration::from_secs(60)));
/// assert_eq!(plan.events(), again.events());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, fully transparent to all transfer and
    /// migration paths.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit events (tests, hand-crafted scenarios).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events }
    }

    /// Generates a plan from `seed` and `cfg`.
    ///
    /// Each kind draws exponential inter-arrival gaps from its own forked
    /// RNG stream, so enabling one kind never reshuffles another.
    pub fn generate(seed: u64, cfg: &FaultConfig) -> Self {
        let mut root = SimRng::seed(seed ^ 0xfa17_fa17_fa17_fa17);
        let mut events = Vec::new();
        let kinds = [
            (FaultKind::LinkDrop, cfg.link_drop_rate),
            (FaultKind::CongestionSpike, cfg.congestion_rate),
            (FaultKind::KernelStall, cfg.stall_rate),
        ];
        for (stream, (kind, rate)) in kinds.into_iter().enumerate() {
            let mut rng = root.fork(stream as u64 + 1);
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0f64;
            let horizon = cfg.horizon.as_secs_f64();
            loop {
                // Exponential inter-arrival: -ln(1 - u) / rate.
                let u = rng.next_f64().min(1.0 - 1e-12);
                t += -(1.0 - u).ln() / rate;
                if t > horizon {
                    break;
                }
                let (duration, magnitude) = match kind {
                    FaultKind::LinkDrop => (SimDuration::ZERO, 0.0),
                    FaultKind::CongestionSpike => (
                        SimDuration::from_secs_f64(rng.range_f64(0.5, 3.0)),
                        rng.range_f64(2.0, 5.0),
                    ),
                    FaultKind::KernelStall => {
                        (SimDuration::from_secs_f64(rng.log_normal(-1.2, 0.8)), 0.0)
                    }
                };
                events.push(FaultEvent {
                    at: SimTime::from_nanos((t * 1e9) as u64),
                    kind,
                    duration,
                    magnitude,
                });
            }
        }
        Self::from_events(events)
    }

    /// The same schedule displaced `offset` later in virtual time.
    ///
    /// The fleet scheduler expresses per-request plans *relative to the
    /// migration's own start* and shifts them onto the world clock at
    /// admission, so a request behaves identically whenever it is admitted.
    pub fn shifted_by(&self, offset: SimDuration) -> Self {
        Self {
            events: self
                .events
                .iter()
                .map(|e| FaultEvent {
                    at: e.at + offset,
                    ..*e
                })
                .collect(),
        }
    }

    /// All events, ordered by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The first link drop with `from <= at < to`, if any.
    pub fn link_drop_in(&self, from: SimTime, to: SimTime) -> Option<&FaultEvent> {
        self.events
            .iter()
            .find(|e| e.kind == FaultKind::LinkDrop && e.at >= from && e.at < to)
    }

    /// The combined congestion slowdown factor active at `t` (1.0 when no
    /// spike covers it).
    pub fn congestion_factor_at(&self, t: SimTime) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == FaultKind::CongestionSpike && e.at <= t && t < e.until())
            .map(|e| e.magnitude.max(1.0))
            .product()
    }

    /// Kernel stalls that begin within `[from, to)`.
    pub fn stalls_in<'a>(
        &'a self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &'a FaultEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.kind == FaultKind::KernelStall && e.at >= from && e.at < to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = FaultConfig::uniform(0.8, SimDuration::from_secs(120));
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        let c = FaultPlan::generate(43, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let cfg = FaultConfig::uniform(2.0, SimDuration::from_secs(30));
        let plan = FaultPlan::generate(7, &cfg);
        let horizon = SimTime::ZERO + cfg.horizon;
        for pair in plan.events().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(plan.events().iter().all(|e| e.at <= horizon));
    }

    #[test]
    fn rate_scales_event_count() {
        let horizon = SimDuration::from_secs(600);
        let sparse = FaultPlan::generate(1, &FaultConfig::uniform(0.01, horizon));
        let dense = FaultPlan::generate(1, &FaultConfig::uniform(1.0, horizon));
        assert!(
            dense.len() > sparse.len() * 5,
            "{} vs {}",
            dense.len(),
            sparse.len()
        );
    }

    #[test]
    fn window_queries_find_the_right_events() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(5),
                kind: FaultKind::LinkDrop,
                duration: SimDuration::ZERO,
                magnitude: 0.0,
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::CongestionSpike,
                duration: SimDuration::from_secs(4),
                magnitude: 3.0,
            },
            FaultEvent {
                at: SimTime::from_secs(8),
                kind: FaultKind::KernelStall,
                duration: SimDuration::from_millis(400),
                magnitude: 0.0,
            },
        ]);
        assert!(plan
            .link_drop_in(SimTime::ZERO, SimTime::from_secs(4))
            .is_none());
        assert!(plan
            .link_drop_in(SimTime::from_secs(4), SimTime::from_secs(6))
            .is_some());
        assert_eq!(plan.congestion_factor_at(SimTime::from_secs(3)), 3.0);
        assert_eq!(plan.congestion_factor_at(SimTime::from_secs(7)), 1.0);
        assert_eq!(
            plan.stalls_in(SimTime::ZERO, SimTime::from_secs(10))
                .count(),
            1
        );
    }

    #[test]
    fn quiet_config_generates_nothing() {
        assert!(FaultPlan::generate(9, &FaultConfig::quiet()).is_empty());
    }

    #[test]
    fn shifted_by_displaces_every_event() {
        let cfg = FaultConfig::uniform(0.5, SimDuration::from_secs(60));
        let plan = FaultPlan::generate(3, &cfg);
        let off = SimDuration::from_secs(90);
        let shifted = plan.shifted_by(off);
        assert_eq!(shifted.len(), plan.len());
        for (a, b) in plan.events().iter().zip(shifted.events()) {
            assert_eq!(b.at, a.at + off);
            assert_eq!(b.kind, a.kind);
            assert_eq!(b.duration, a.duration);
            assert_eq!(b.magnitude, a.magnitude);
        }
        assert!(FaultPlan::none().shifted_by(off).is_empty());
    }
}
