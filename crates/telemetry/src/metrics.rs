//! Counters, gauges and fixed-bucket histograms.
//!
//! All metrics live in one [`MetricsRegistry`] keyed by name under the
//! `flux.<crate>.<name>` scheme (e.g. `flux.net.bytes_transferred`). The
//! registry stores metrics in a `BTreeMap`, so iteration — and therefore
//! every exporter's output — is in deterministic name order regardless of
//! registration order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Bucket upper bounds every histogram shares, for millisecond-scale
/// latencies: 1 ms .. ~2 min.
const BOUNDS: [u64; 16] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 30_000, 60_000, 120_000,
];

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are cumulative-style: `counts[i]` counts observations `v`
/// with `v <= bounds()[i]` that fell in no earlier bucket; the final slot
/// (`counts[bounds().len()]`) is the overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn empty() -> Self {
        Self {
            counts: vec![0; BOUNDS.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[BOUNDS.partition_point(|&b| b < value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Folds `other`'s observations into this histogram, bucket-wise.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (slot, n) in self.counts.iter_mut().zip(&other.counts) {
            *slot += n;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket upper bounds, the same for every histogram.
    pub fn bounds(&self) -> &'static [u64] {
        &BOUNDS
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic `u64` counter.
    Counter(u64),
    /// Last-write-wins `f64` gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(v) => write!(f, "{v}"),
            Metric::Gauge(v) => write!(f, "{v}"),
            Metric::Histogram(h) => write!(f, "count={} sum={}", h.count(), h.sum()),
        }
    }
}

/// A name-ordered registry of metrics. See the [module docs](self).
///
/// Names known at compile time are borrowed, so writing a metric under
/// one allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<Cow<'static, str>, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    /// Writing a counter over an existing gauge/histogram replaces it —
    /// names are expected to be used consistently.
    pub fn counter_add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        let name = name.into();
        match self.metrics.get_mut(&*name) {
            Some(Metric::Counter(v)) => *v += delta,
            _ => {
                self.metrics.insert(name, Metric::Counter(delta));
            }
        }
    }

    /// Sets the counter `name` to an absolute value. Used by idempotent
    /// harvest passes that scrape an already-accumulated counter out of a
    /// component (e.g. the binder driver's transaction count) without
    /// double-counting on repeated harvests.
    pub fn counter_set(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.metrics.insert(name.into(), Metric::Counter(value));
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.metrics.insert(name.into(), Metric::Gauge(value));
    }

    /// Observes `value` in the histogram `name`, creating it on first use.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let name = name.into();
        match self.metrics.get_mut(&*name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = Histogram::empty();
                h.observe(value);
                self.metrics.insert(name, Metric::Histogram(h));
            }
        }
    }

    /// Folds every metric of `other` into this registry, by kind:
    /// counters add, gauges take `other`'s value (last-write-wins, with the
    /// merged registry as the later writer), histograms merge bucket-wise.
    /// On a kind mismatch `other`'s value replaces this one, mirroring what
    /// replaying `other`'s writes against this registry would do. `other`
    /// is consumed, so a replacing metric moves here with its name.
    pub fn merge_from(&mut self, other: MetricsRegistry) {
        for (name, theirs) in other.metrics {
            match (self.metrics.get_mut(&*name), theirs) {
                (Some(Metric::Counter(mine)), Metric::Counter(v)) => *mine += v,
                (Some(Metric::Histogram(mine)), Metric::Histogram(h)) => mine.merge_from(&h),
                (_, theirs) => {
                    self.metrics.insert(name, theirs);
                }
            }
        }
    }

    /// The value of counter `name`, or 0 if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Looks up any metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Iterates metrics in deterministic (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (&**k, v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("flux.fs.files_shipped", 3);
        m.counter_add("flux.fs.files_shipped", 4);
        assert_eq!(m.counter("flux.fs.files_shipped"), 7);
        assert_eq!(m.counter("flux.fs.absent"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("flux.net.goodput_mbps", 10.5);
        m.gauge_set("flux.net.goodput_mbps", 42.25);
        assert_eq!(m.gauge("flux.net.goodput_mbps"), Some(42.25));
    }

    #[test]
    fn histogram_buckets_observations() {
        let mut h = Histogram::empty();
        // Both ends of the (5, 10] and (50, 100] buckets, and the
        // overflow bucket past the last bound.
        for v in [6, 10, 51, 100, 120_001] {
            h.observe(v);
        }
        assert_eq!(h.bounds(), BOUNDS);
        let mut want = [0u64; 17];
        want[3] = 2;
        want[6] = 2;
        want[16] = 1;
        assert_eq!(h.counts(), want);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 120_168);
    }

    #[test]
    fn observe_auto_registers_default_buckets() {
        let mut m = MetricsRegistry::new();
        m.observe("flux.migration.total_ms", 750);
        let h = m.histogram("flux.migration.total_ms").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 750);
    }

    #[test]
    fn iteration_is_name_ordered_regardless_of_insertion() {
        let mut m = MetricsRegistry::new();
        m.counter_add("flux.z", 1);
        m.counter_add("flux.a", 1);
        m.gauge_set("flux.m", 0.0);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["flux.a", "flux.m", "flux.z"]);
    }
}
