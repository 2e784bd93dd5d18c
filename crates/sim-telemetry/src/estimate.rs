//! Streaming uncertainty quantification: moment accumulators and
//! confidence intervals for Monte Carlo estimates.
//!
//! Every figure the harness reproduces is a sample mean over per-page
//! Monte Carlo outcomes. This module turns those means into *intervals*:
//! a [`Moments`] accumulator ingests samples one at a time (the streaming
//! ergonomics of Welford's algorithm) and reports the mean, the standard
//! error, the 95% confidence half-width and the relative standard error
//! (RSE) at any point; [`wilson_interval`] covers Bernoulli proportions,
//! where the normal approximation collapses near 0 and 1.
//!
//! # Determinism
//!
//! The textbook Welford recurrence keeps a running f64 mean and M2; its
//! merge (Chan's parallel axis step) is *not* bitwise commutative, and a
//! merged result differs from a single pass in the last ulps — which
//! would break the repo's byte-identity contract the moment a sharded
//! campaign pools its moments. [`Moments`] instead carries the count and
//! the exact integer power sums Σx and Σx² in 128-bit integers: u64
//! samples accumulate without rounding, so [`Moments::merge`] is exactly
//! associative and commutative, and `merge(a, b)`, `merge(b, a)` and a
//! single pass over the concatenated samples produce bit-identical
//! statistics (pinned by the `estimates` property suite). Every derived
//! statistic is a pure function of `(count, Σx, Σx²)`, evaluated in one
//! fixed expression order — the same samples give the same bits no
//! matter how the accumulation was split across chunks, shards or
//! resumed sessions.
//!
//! # Early stopping
//!
//! `--target-rse` stops a `(block_bits, scheme)` unit at the first
//! page-count barrier where [`Moments::converged`] holds. Because the
//! decision reads only the samples of pages already processed — never a
//! clock, a thread id or a scheduling artifact — the stopped stream is
//! byte-identical across `--threads N`, tracing modes and SIGINT +
//! `--resume` (see DESIGN.md §15).

use crate::json::escape;

/// Two-sided 95% standard-normal quantile (z such that Φ(z) − Φ(−z) = 0.95).
pub const Z95: f64 = 1.959_963_984_540_054;

/// Minimum samples before an RSE is considered meaningful: below two
/// samples the variance is undefined, and early stopping never fires.
pub const MIN_SAMPLES: u64 = 2;

/// Streaming moment accumulator over u64 samples with an exactly
/// order-independent merge. See the module docs for why the power sums
/// are carried as exact integers instead of the f64 Welford recurrence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moments {
    count: u64,
    sum: u128,
    sum_sq: u128,
}

impl Moments {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates every sample of a slice, in slice order (the order is
    /// irrelevant to the result — see the module docs — but fixed-order
    /// iteration keeps the hot path branch-predictable).
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut m = Self::new();
        for &x in samples {
            m.push(x);
        }
        m
    }

    /// Adds one sample.
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += u128::from(x);
        self.sum_sq += u128::from(x) * u128::from(x);
    }

    /// Pools another accumulator into this one. Exactly commutative and
    /// associative: integer addition of counts and power sums.
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Number of samples accumulated.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Unbiased sample variance, or 0 below [`MIN_SAMPLES`].
    ///
    /// The numerator `n·Σx² − (Σx)²` is evaluated in exact 128-bit
    /// integer arithmetic when it fits (it always does for page
    /// lifetimes), falling back to the algebraically identical f64
    /// expression on overflow — still a pure function of the sums, so
    /// determinism is unaffected.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn variance(&self) -> f64 {
        if self.count < MIN_SAMPLES {
            return 0.0;
        }
        let n = u128::from(self.count);
        let denom = (self.count as f64) * ((self.count - 1) as f64);
        match n
            .checked_mul(self.sum_sq)
            .and_then(|nsq| self.sum.checked_mul(self.sum).map(|sq| (nsq, sq)))
        {
            // Σ(x − mean)² ≥ 0, so the exact numerator cannot go negative;
            // saturate anyway rather than trust it.
            Some((nsq, sq)) => (nsq.saturating_sub(sq) as f64) / denom,
            None => {
                let (n, sum, sum_sq) = (self.count as f64, self.sum as f64, self.sum_sq as f64);
                ((n * sum_sq - sum * sum) / denom).max(0.0)
            }
        }
    }

    /// Standard error of the mean, or 0 below [`MIN_SAMPLES`].
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn stderr(&self) -> f64 {
        if self.count < MIN_SAMPLES {
            0.0
        } else {
            (self.variance() / self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        Z95 * self.stderr()
    }

    /// Relative standard error `stderr / mean`.
    ///
    /// Infinite below [`MIN_SAMPLES`] (no variance estimate yet) and for
    /// a zero mean with spread; 0 for a zero mean with zero spread (a
    /// degenerate but fully converged sample).
    #[must_use]
    pub fn rse(&self) -> f64 {
        if self.count < MIN_SAMPLES {
            return f64::INFINITY;
        }
        let stderr = self.stderr();
        if self.sum == 0 {
            if stderr == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            stderr / self.mean()
        }
    }

    /// The early-stop predicate: at least [`MIN_SAMPLES`] samples and an
    /// RSE at or below `target`. A pure function of the accumulated
    /// samples — the determinism contract for `--target-rse` rests on
    /// stop decisions being exactly this, evaluated only at page-count
    /// barriers.
    #[must_use]
    pub fn converged(&self, target: f64) -> bool {
        self.count >= MIN_SAMPLES && self.rse() <= target
    }
}

/// Wilson score interval for a Bernoulli proportion: `(lo, hi)` bounds
/// for the success probability after `successes` out of `trials`, at
/// normal quantile `z` ([`Z95`] for 95%). Unlike the Wald interval it
/// stays inside `[0, 1]` and keeps near-nominal coverage for p near 0
/// or 1 — the regime capped-page and fault-rate proportions live in.
/// Returns `(0.0, 1.0)` for zero trials.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Convergence state of one estimate against an RSE target, as shown by
/// `experiments monitor` and recorded in status heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Convergence {
    /// Fewer than [`MIN_SAMPLES`] samples: no variance estimate yet.
    Insufficient,
    /// RSE above the target.
    Converging,
    /// RSE at or below the target.
    Converged,
}

impl Convergence {
    /// Classifies `moments` against `target`.
    #[must_use]
    pub fn of(moments: &Moments, target: f64) -> Self {
        if moments.count() < MIN_SAMPLES {
            Convergence::Insufficient
        } else if moments.rse() <= target {
            Convergence::Converged
        } else {
            Convergence::Converging
        }
    }

    /// Stable lowercase tag used in status files and the monitor table.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Convergence::Insufficient => "insufficient",
            Convergence::Converging => "converging",
            Convergence::Converged => "converged",
        }
    }
}

/// Default RSE target used purely for *display* classification when a
/// run carries no `--target-rse`: the monitor still needs a line between
/// "converging" and "converged". 5% relative standard error — a ±10%
/// 95% interval — is the conventional "good enough to read the figure"
/// bar. Never used for early stopping.
pub const DISPLAY_TARGET_RSE: f64 = 0.05;

/// One named estimate snapshotted at a unit barrier: the unit label
/// (`scheme#block_bits`), the metric (`lifetime`, `faults`), and the
/// moments accumulated over the pages processed so far.
#[derive(Debug, Clone)]
pub struct UnitEstimate {
    /// Unit label, e.g. `Aegis 9x61#512`.
    pub unit: String,
    /// Metric name within the unit, e.g. `lifetime`.
    pub metric: &'static str,
    /// Moments over the samples processed so far.
    pub moments: Moments,
}

impl UnitEstimate {
    /// Series/status key `unit.metric` — e.g. `Aegis 9x61#512.lifetime`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}.{}", self.unit, self.metric)
    }
}

/// Formats an f64 for deterministic JSON embedding: Rust's shortest
/// round-trip representation for finite values (bit-stable for the
/// deterministic inputs this crate feeds it), `null` otherwise (JSON
/// has no Infinity/NaN).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one estimate as the fields shared by series lines and status
/// heartbeats: `"name": …, "pages": …, "count": …, "mean": …, "rse": …,
/// "ci95": …` (no braces, so callers can prepend an event tag).
#[must_use]
pub fn estimate_fields(name: &str, pages: u64, moments: &Moments) -> String {
    format!(
        "{}: {{\"pages\": {pages}, \"count\": {}, \"mean\": {}, \"rse\": {}, \"ci95\": {}}}",
        escape(name),
        moments.count(),
        json_f64(moments.mean()),
        json_f64(moments.rse()),
        json_f64(moments.ci95_half_width()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_closed_form() {
        let m = Moments::from_samples(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(m.count(), 8);
        assert_eq!(m.mean(), 5.0);
        // Σ(x−5)² = 9+1+1+1+0+0+4+16 = 32; unbiased variance 32/7.
        assert_eq!(m.variance(), 32.0 / 7.0);
        assert_eq!(m.stderr(), (32.0 / 7.0 / 8.0f64).sqrt());
        assert_eq!(m.ci95_half_width(), Z95 * m.stderr());
        assert_eq!(m.rse(), m.stderr() / 5.0);
    }

    #[test]
    fn empty_and_single_sample_are_guarded() {
        let empty = Moments::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        assert!(empty.rse().is_infinite());
        assert!(!empty.converged(f64::INFINITY));

        let mut one = Moments::new();
        one.push(7);
        assert_eq!(one.mean(), 7.0);
        assert_eq!(one.variance(), 0.0);
        assert!(one.rse().is_infinite(), "one sample has no spread estimate");
        assert!(!one.converged(1e9), "never stop on a single sample");
    }

    #[test]
    fn zero_mean_rse_is_zero_only_when_degenerate() {
        let zeros = Moments::from_samples(&[0, 0, 0]);
        assert_eq!(zeros.rse(), 0.0);
        assert!(zeros.converged(0.0));
    }

    #[test]
    fn merge_is_bitwise_order_independent() {
        let all = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9];
        for split in 0..=all.len() {
            let a = Moments::from_samples(&all[..split]);
            let b = Moments::from_samples(&all[split..]);
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            let single = Moments::from_samples(&all);
            assert_eq!(ab, single, "split {split}: merge(a,b) != single pass");
            assert_eq!(ba, single, "split {split}: merge(b,a) != single pass");
            assert_eq!(ab.variance().to_bits(), single.variance().to_bits());
            assert_eq!(ab.rse().to_bits(), single.rse().to_bits());
        }
    }

    #[test]
    fn variance_overflow_falls_back_to_f64() {
        // Samples near 2^63: Σx² still fits a u128, but n·Σx² and (Σx)²
        // do not — the f64 fallback must stay finite and non-negative.
        let m = Moments::from_samples(&[1 << 63, 1 << 63, (1 << 63) + 2]);
        let v = m.variance();
        assert!(v.is_finite() && v >= 0.0, "fallback variance {v}");
    }

    #[test]
    fn wilson_brackets_the_proportion() {
        let (lo, hi) = wilson_interval(50, 100, Z95);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));

        // Near-zero proportion: interval stays inside [0, 1] and open
        // above zero (the Wald interval would collapse to a point).
        let (lo, hi) = wilson_interval(0, 100, Z95);
        assert!(lo.abs() < 1e-12, "lo collapses to ~0, got {lo}");
        assert!(hi > 0.0 && hi < 0.1);

        let (lo, hi) = wilson_interval(100, 100, Z95);
        assert!(lo > 0.9 && lo < 1.0);
        assert!((hi - 1.0).abs() < 1e-12, "hi collapses to ~1, got {hi}");

        assert_eq!(wilson_interval(0, 0, Z95), (0.0, 1.0));
    }

    #[test]
    fn convergence_classifies_against_target() {
        let m = Moments::from_samples(&[10, 10, 10, 10]);
        assert_eq!(Convergence::of(&m, 0.01), Convergence::Converged);
        let spread = Moments::from_samples(&[1, 100]);
        assert_eq!(Convergence::of(&spread, 0.01), Convergence::Converging);
        let mut one = Moments::new();
        one.push(5);
        assert_eq!(Convergence::of(&one, 0.01), Convergence::Insufficient);
        assert_eq!(Convergence::Converged.as_str(), "converged");
    }

    #[test]
    fn estimate_fields_render_deterministic_json() {
        let m = Moments::from_samples(&[1, 2, 3]);
        let fields = estimate_fields("Aegis 9x61#512.lifetime", 3, &m);
        let wrapped = format!("{{{fields}}}");
        let parsed = crate::Json::parse(&wrapped).expect("valid JSON");
        let est = parsed.get("Aegis 9x61#512.lifetime").expect("keyed");
        assert_eq!(est.u64_field("pages"), Some(3));
        assert_eq!(est.u64_field("count"), Some(3));
        assert_eq!(est.get("mean").and_then(crate::Json::as_f64), Some(2.0));

        // Non-finite statistics serialize as null, not invalid JSON.
        let mut one = Moments::new();
        one.push(1);
        let fields = estimate_fields("x.y", 1, &one);
        let parsed = crate::Json::parse(&format!("{{{fields}}}")).expect("valid JSON");
        assert_eq!(
            parsed.get("x.y").unwrap().get("rse"),
            Some(&crate::Json::Null)
        );
    }
}
