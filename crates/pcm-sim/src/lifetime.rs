//! Cell endurance model: normally distributed lifetimes and the
//! differential-write wear model.

use sim_rng::Rng;

/// Per-cell lifetime distribution: `Normal(mean, (cv·mean)²)`, truncated to
/// positive values by resampling.
///
/// The paper (§3.1): "this lifetime follows the normal distribution with a
/// mean lifetime of 10^8 and a 25% coefficient of variance. There is no
/// correlation between neighboring cells."
///
/// The offline crate set has no `rand_distr`, so the normal variate is drawn
/// with the exact Box–Muller transform.
///
/// # Examples
///
/// ```
/// use pcm_sim::LifetimeModel;
/// use sim_rng::{SeedableRng, SmallRng};
///
/// let model = LifetimeModel::paper_default();
/// let mut rng = SmallRng::seed_from_u64(42);
/// let sample = model.sample(&mut rng);
/// assert!(sample > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    mean: f64,
    std_dev: f64,
}

impl LifetimeModel {
    /// Mean cell lifetime used throughout the paper's evaluation.
    pub const PAPER_MEAN: f64 = 1.0e8;
    /// Coefficient of variation used throughout the paper's evaluation.
    pub const PAPER_CV: f64 = 0.25;

    /// Creates a model with the given mean and coefficient of variation
    /// (`std_dev = cv · mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `cv < 0`, or either is not finite.
    #[must_use]
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(cv.is_finite() && cv >= 0.0, "cv must be non-negative");
        Self {
            mean,
            std_dev: cv * mean,
        }
    }

    /// The paper's configuration: `Normal(1e8, 25% CV)`.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_MEAN, Self::PAPER_CV)
    }

    /// Mean lifetime.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the lifetime.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one cell lifetime (count of actual programming pulses survived).
    ///
    /// Non-positive draws — possible in the far left tail of the normal —
    /// are rejected and resampled, matching the physical constraint that a
    /// cell survives at least its first write.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let draw = self.at(standard_normal(rng));
            if draw > 0.0 {
                return draw;
            }
        }
    }

    /// The (untruncated) lifetime at standard-normal deviate `z`:
    /// `mean + std_dev · z`.
    #[inline]
    #[must_use]
    pub(crate) fn at(&self, z: f64) -> f64 {
        self.mean + self.std_dev * z
    }
}

impl Default for LifetimeModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One standard-normal variate via the Box–Muller transform.
///
/// Uses `1 - U` to move the open interval to `(0, 1]` so the logarithm is
/// finite.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    box_muller(u1, u2)
}

/// The Box–Muller deviate `sqrt(−2 ln u1) · cos(2π u2)` of one uniform pair,
/// `u1 ∈ (0, 1]`, `u2 ∈ [0, 1)`.
///
/// The single definition of the arithmetic: [`standard_normal`] and the
/// timeline sampler (which draws the pairs first and evaluates only the
/// ones that can matter) both call it, so their deviates agree to the bit.
#[inline]
#[must_use]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Converts a cell lifetime into a fault-arrival time in *block writes*.
///
/// The paper assumes a read-before-write that excludes each cell from a
/// given write with 50% probability; a cell that survives `L` pulses
/// therefore fails around block write `L / participation`. Using the
/// expectation is exact to within the negligible binomial spread at
/// `L ≈ 1e8` (`σ/μ ≈ 1e-4`).
///
/// # Examples
///
/// ```
/// use pcm_sim::WearModel;
/// let wear = WearModel::paper_default();
/// assert_eq!(wear.fault_time(50.0), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    participation: f64,
}

impl WearModel {
    /// Probability that a given cell is actually programmed by a block
    /// write, per the paper: 50%.
    pub const PAPER_PARTICIPATION: f64 = 0.5;

    /// Creates a wear model with the given participation probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < participation <= 1`.
    #[must_use]
    pub fn new(participation: f64) -> Self {
        assert!(
            participation > 0.0 && participation <= 1.0,
            "participation must be in (0, 1]"
        );
        Self { participation }
    }

    /// The paper's 50% differential-write model.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_PARTICIPATION)
    }

    /// Per-write participation probability.
    #[must_use]
    pub fn participation(&self) -> f64 {
        self.participation
    }

    /// Block-write count at which a cell of the given lifetime fails.
    #[must_use]
    pub fn fault_time(&self, lifetime: f64) -> f64 {
        lifetime / self.participation
    }
}

impl Default for WearModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_rng::{SeedableRng, SmallRng};

    #[test]
    fn sample_mean_and_spread_match_model() {
        let model = LifetimeModel::new(100.0, 0.25);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| model.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        assert!((var.sqrt() - 25.0).abs() < 1.0, "std {}", var.sqrt());
    }

    #[test]
    fn samples_are_always_positive_even_with_huge_cv() {
        let model = LifetimeModel::new(1.0, 10.0);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..5_000 {
            assert!(model.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn paper_default_matches_constants() {
        let m = LifetimeModel::paper_default();
        assert_eq!(m.mean(), 1.0e8);
        assert_eq!(m.std_dev(), 2.5e7);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn zero_mean_panics() {
        let _ = LifetimeModel::new(0.0, 0.25);
    }

    #[test]
    fn wear_scales_lifetime() {
        let w = WearModel::new(0.25);
        assert_eq!(w.fault_time(100.0), 400.0);
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn wear_rejects_zero() {
        let _ = WearModel::new(0.0);
    }

    #[test]
    fn standard_normal_is_standard() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
