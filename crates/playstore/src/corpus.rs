//! Corpus generation and analysis.

use flux_simcore::{ByteSize, SimRng};

/// Number of apps PlayDrone downloaded for the paper (§4).
pub const PAPER_CORPUS_SIZE: usize = 488_259;

/// Apps the paper found calling `setPreserveEGLContextOnPause` (§4).
pub const PAPER_PRESERVE_EGL_COUNT: usize = 3_300;

/// Log-normal parameters (over KB) solved from the paper's quantiles:
/// `P(X < 1 MB) = 0.6` and `P(X < 10 MB) = 0.9`.
///
/// With `Φ⁻¹(0.6) = 0.2533` and `Φ⁻¹(0.9) = 1.2816`:
/// `σ = ln(10) / (1.2816 − 0.2533) = 2.2393`,
/// `μ = ln(1024) − 0.2533·σ = 6.3643`.
pub(crate) const SIZE_MU: f64 = 6.3643;
pub(crate) const SIZE_SIGMA: f64 = 2.2393;

/// One app of the corpus.
///
/// Package names are derived from the id on demand, keeping half a million
/// entries cheap to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayApp {
    /// Stable corpus id.
    pub id: u32,
    /// Installation size. The paper verified installation size matches the
    /// actual APK size for a random selection.
    pub install_size: ByteSize,
    /// Whether the decompiled sources call `setPreserveEGLContextOnPause`.
    pub preserves_egl_context: bool,
}

impl PlayApp {
    /// The synthetic package name.
    pub fn package(&self) -> String {
        format!("com.playdrone.app{:06}", self.id)
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    apps: Vec<PlayApp>,
}

impl Corpus {
    /// Generates a corpus of `count` apps with the given seed.
    pub fn generate(seed: u64, count: usize) -> Self {
        let mut rng = SimRng::seed(seed);
        let egl_probability = PAPER_PRESERVE_EGL_COUNT as f64 / PAPER_CORPUS_SIZE as f64;
        let apps = (0..count)
            .map(|i| {
                // Sizes clamp to the paper's x-axis: 10 KB to 10 GB.
                let kb = rng
                    .log_normal(SIZE_MU, SIZE_SIGMA)
                    .clamp(10.0, 10_000_000.0);
                PlayApp {
                    id: i as u32,
                    install_size: ByteSize::from_bytes((kb * 1024.0) as u64),
                    preserves_egl_context: rng.chance(egl_probability),
                }
            })
            .collect();
        Self { apps }
    }

    /// Generates the paper-sized corpus (488,259 apps).
    pub fn paper_sized(seed: u64) -> Self {
        Self::generate(seed, PAPER_CORPUS_SIZE)
    }

    /// All apps.
    pub fn apps(&self) -> &[PlayApp] {
        &self.apps
    }

    /// Corpus size.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Fraction of apps no larger than `size` (one point of Figure 17).
    pub fn cdf_at(&self, size: ByteSize) -> f64 {
        if self.apps.is_empty() {
            return 0.0;
        }
        let below = self.apps.iter().filter(|a| a.install_size <= size).count();
        below as f64 / self.apps.len() as f64
    }

    /// The full CDF evaluated at logarithmically spaced sizes from 10 KB
    /// to 10 GB (Figure 17's x-axis).
    pub fn cdf_curve(&self, points_per_decade: usize) -> Vec<(ByteSize, f64)> {
        let mut out = Vec::new();
        let decades = 6; // 10 KB .. 10 GB.
        for d in 0..decades {
            for p in 0..points_per_decade {
                let kb = 10.0_f64 * 10.0_f64.powf(d as f64 + p as f64 / points_per_decade as f64);
                let size = ByteSize::from_bytes((kb * 1024.0) as u64);
                out.push((size, self.cdf_at(size)));
            }
        }
        out
    }

    /// The `setPreserveEGLContextOnPause` census (§4): how many apps Flux
    /// cannot migrate because of the preserved-context limitation.
    pub fn preserve_egl_census(&self) -> usize {
        self.apps.iter().filter(|a| a.preserves_egl_context).count()
    }

    /// Median installation size: [`Corpus::quantile`] at `q = 0.5`, so an
    /// even-length corpus interpolates between its two middle sizes.
    pub fn median_size(&self) -> ByteSize {
        self.quantile(0.5)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of installation sizes, linearly
    /// interpolated between order statistics (the "linear" / type-7
    /// estimator): position `q · (n − 1)` in the sorted sizes, with the
    /// fractional part blending the two neighbouring samples.
    pub fn quantile(&self, q: f64) -> ByteSize {
        if self.apps.is_empty() {
            return ByteSize::from_bytes(0);
        }
        let mut sizes: Vec<u64> = self.apps.iter().map(|a| a.install_size.as_u64()).collect();
        sizes.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (sizes.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let blended = sizes[lo] as f64 + (sizes[hi] as f64 - sizes[lo] as f64) * frac;
        ByteSize::from_bytes(blended.round() as u64)
    }
}

impl Corpus {
    /// Wraps an explicit app list (used by the profile generator's census
    /// view and by tests that need hand-crafted size sets).
    pub fn from_apps(apps: Vec<PlayApp>) -> Self {
        Self { apps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(7, 50_000)
    }

    #[test]
    fn cdf_matches_paper_quantiles() {
        let c = small_corpus();
        let at_1mb = c.cdf_at(ByteSize::from_mib(1));
        let at_10mb = c.cdf_at(ByteSize::from_mib(10));
        assert!((0.57..0.63).contains(&at_1mb), "P(<1MB) = {at_1mb}");
        assert!((0.87..0.93).contains(&at_10mb), "P(<10MB) = {at_10mb}");
    }

    #[test]
    fn cdf_is_monotonic() {
        let c = small_corpus();
        let curve = c.cdf_curve(4);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
        assert!(curve.last().unwrap().1 > 0.999);
    }

    #[test]
    fn egl_census_is_proportionally_tiny() {
        let c = small_corpus();
        let census = c.preserve_egl_census();
        let frac = census as f64 / c.len() as f64;
        let paper_frac = PAPER_PRESERVE_EGL_COUNT as f64 / PAPER_CORPUS_SIZE as f64;
        assert!(
            (frac - paper_frac).abs() < paper_frac,
            "census fraction {frac} vs paper {paper_frac}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(11, 1000);
        let b = Corpus::generate(11, 1000);
        assert_eq!(a.apps(), b.apps());
        let c = Corpus::generate(12, 1000);
        assert_ne!(a.apps(), c.apps());
    }

    #[test]
    fn sizes_stay_on_the_figure_axis() {
        let c = small_corpus();
        for app in c.apps() {
            assert!(app.install_size >= ByteSize::from_kib(10));
            assert!(app.install_size <= ByteSize::from_kib(10_000_000));
        }
    }

    #[test]
    fn package_names_are_stable() {
        let c = Corpus::generate(1, 10);
        assert_eq!(c.apps()[3].package(), "com.playdrone.app000003");
    }

    fn corpus_of_kib(kibs: &[u64]) -> Corpus {
        Corpus::from_apps(
            kibs.iter()
                .enumerate()
                .map(|(i, k)| PlayApp {
                    id: i as u32,
                    install_size: ByteSize::from_kib(*k),
                    preserves_egl_context: false,
                })
                .collect(),
        )
    }

    #[test]
    fn even_length_median_interpolates() {
        // Middle pair is (20, 30) KiB: the median must land between them,
        // not on the upper element as the old index-only lookup did.
        let c = corpus_of_kib(&[10, 20, 30, 40]);
        assert_eq!(c.median_size(), ByteSize::from_kib(25));
        // Odd length still hits the middle element exactly.
        let c = corpus_of_kib(&[10, 20, 30]);
        assert_eq!(c.median_size(), ByteSize::from_kib(20));
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let c = corpus_of_kib(&[10, 20, 30, 40]);
        assert_eq!(c.quantile(0.0), ByteSize::from_kib(10));
        assert_eq!(c.quantile(1.0), ByteSize::from_kib(40));
        // q = 1/3 lands exactly on the second order statistic.
        assert_eq!(c.quantile(1.0 / 3.0), ByteSize::from_kib(20));
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(c.quantile(-1.0), ByteSize::from_kib(10));
        assert_eq!(c.quantile(2.0), ByteSize::from_kib(40));
        // Empty corpus stays well-defined.
        assert_eq!(Corpus::from_apps(Vec::new()).quantile(0.5).as_u64(), 0);
    }

    #[test]
    fn quantiles_bracket_the_paper_cdf() {
        let c = small_corpus();
        // P(<1MB) = 0.6 and P(<10MB) = 0.9 imply the matching quantiles.
        let q60 = c.quantile(0.6);
        let q90 = c.quantile(0.9);
        assert!(
            q60 >= ByteSize::from_kib(700) && q60 <= ByteSize::from_kib(1400),
            "q60 = {q60}"
        );
        assert!(
            q90 >= ByteSize::from_kib(7_000) && q90 <= ByteSize::from_kib(14_000),
            "q90 = {q90}"
        );
        assert!(c.median_size() <= q60);
    }
}
