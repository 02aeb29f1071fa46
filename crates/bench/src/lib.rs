//! Benchmark harnesses for every table and figure of the Flux paper.
//!
//! Each `src/bin/*.rs` binary regenerates one artifact of §4:
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table 2 — decorated services (methods, decoration LOC) |
//! | `table3` | Table 3 — top apps and workloads |
//! | `fig12` | Figure 12 — overall migration times |
//! | `fig13` | Figure 13 — stage breakdown |
//! | `fig14` | Figure 14 — user-perceived time excluding transfer |
//! | `fig15` | Figure 15 — data transferred + APK sizes |
//! | `fig16` | Figure 16 — Quadrant/SunSpider normalized to AOSP |
//! | `fig17` | Figure 17 — Play-store installation-size CDF + EGL census |
//! | `pairing` | §4 pairing-cost paragraph |
//! | `ablations` | DESIGN.md's design-choice ablations |
//! | `flux-prof` | one profiled migration: Chrome trace + stage profile |
//!
//! The Criterion benches under `benches/` measure the *real* cost of this
//! implementation's hot paths (record interposition, checkpoint codec,
//! replay, rsync, parcels).

pub mod evaluation;
pub mod quadrant;
pub mod table;

pub use evaluation::{run_full_evaluation, Evaluation, MigRow, PAIR_LABELS};
pub use quadrant::{run_quadrant_suite, QuadrantScores};
pub use table::Table;

/// The mean of `values`, rounded down. The sum is taken in `u128`, so
/// values whose sum passes `u64::MAX` (100k queue waits of days each, in
/// nanoseconds) average exactly instead of wrapping.
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn mean_u64(values: impl IntoIterator<Item = u64>) -> u64 {
    let (sum, n) = values
        .into_iter()
        .fold((0u128, 0u128), |(sum, n), v| (sum + u128::from(v), n + 1));
    assert!(n > 0, "mean of no values");
    u64::try_from(sum / n).expect("a mean of u64 values fits in a u64")
}

#[cfg(test)]
mod tests {
    use super::mean_u64;

    #[test]
    fn mean_sums_past_u64_max_without_wrapping() {
        let values = [u64::MAX - 1, u64::MAX - 3, u64::MAX - 5];
        assert!(values
            .iter()
            .try_fold(0u64, |a, &v| a.checked_add(v))
            .is_none());
        assert_eq!(mean_u64(values), u64::MAX - 3);
        assert_eq!(mean_u64([7, 8]), 7);
        assert_eq!(mean_u64([u64::MAX]), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mean of no values")]
    fn mean_of_nothing_panics() {
        mean_u64([]);
    }
}
