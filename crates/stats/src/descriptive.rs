//! Descriptive statistics: moments, quantiles and summaries.

use crate::error::{check_finite, check_len};
use crate::float::exactly_zero;
use crate::StatsError;

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty sample and
/// [`StatsError::NonFiniteData`] if any value is NaN or infinite.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), proxima_stats::StatsError> {
/// let m = proxima_stats::descriptive::mean(&[1.0, 2.0, 3.0])?;
/// assert_eq!(m, 2.0);
/// # Ok(())
/// # }
/// ```
pub fn mean(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 1)?;
    Ok(sample.iter().sum::<f64>() / sample.len() as f64)
}

/// Unbiased (n−1) sample variance.
///
/// Uses a two-pass algorithm for numerical stability on the large,
/// tightly-clustered samples produced by timing campaigns.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if fewer than two observations.
pub fn variance(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 2)?;
    let m = mean(sample)?;
    let ss: f64 = sample.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (sample.len() - 1) as f64)
}

/// Sample standard deviation (square root of the unbiased variance).
pub fn std_dev(sample: &[f64]) -> Result<f64, StatsError> {
    Ok(variance(sample)?.sqrt())
}

/// Coefficient of variation `σ / μ`.
///
/// # Errors
///
/// Returns [`StatsError::DegenerateSample`] if the mean is zero.
pub fn coefficient_of_variation(sample: &[f64]) -> Result<f64, StatsError> {
    let m = mean(sample)?;
    if exactly_zero(m) {
        return Err(StatsError::DegenerateSample);
    }
    Ok(std_dev(sample)? / m)
}

/// Minimum of a sample.
pub fn min(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 1)?;
    Ok(sample.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum of a sample — the *high watermark* in timing-analysis terms.
pub fn max(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 1)?;
    Ok(sample.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Linear-interpolation quantile (type 7, the R default) at probability `p`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] unless `0 ≤ p ≤ 1`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), proxima_stats::StatsError> {
/// let q = proxima_stats::descriptive::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5)?;
/// assert_eq!(q, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn quantile(sample: &[f64], p: f64) -> Result<f64, StatsError> {
    check_len(sample, 1)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidArgument {
            what: "quantile probability must be in [0, 1]",
        });
    }
    Ok(quantile_select(&mut sample.to_vec(), p))
}

/// Type-7 quantile of an already ascending-sorted sample (no allocation).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = type7_position(n, p);
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// Type-7 quantile of an unsorted sample, reordering it in place (no
/// allocation): it selects the two order statistics
/// [`quantile_sorted`] interpolates instead of sorting. Elements that
/// compare equal under [`f64::total_cmp`] have identical bits, so a
/// selected order statistic is exactly the one an ascending
/// `total_cmp` sort puts at its rank, and the result has the bits of
/// [`quantile_sorted`] over that sort — NaN and infinities included.
///
/// # Panics
///
/// If `xs` is empty or `p > 1` (as [`quantile_sorted`] does).
pub fn quantile_select(xs: &mut [f64], p: f64) -> f64 {
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let (lo, hi, frac) = type7_position(n, p);
    let (_, &mut low, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    // The next order statistic is the least element above rank `lo`.
    let high = if hi == lo {
        low
    } else {
        above.iter().copied().min_by(f64::total_cmp).unwrap_or(low)
    };
    low + frac * (high - low)
}

/// The ranks a type-7 quantile interpolates between over `n ≥ 2`
/// ascending values, and the weight of the upper one.
fn type7_position(n: usize, p: f64) -> (usize, usize, f64) {
    let h = p * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    (lo, hi, h - lo as f64)
}

/// Median (the 0.5 quantile).
pub fn median(sample: &[f64]) -> Result<f64, StatsError> {
    quantile(sample, 0.5)
}

/// Sample skewness (adjusted Fisher–Pearson, as in common stats packages).
pub fn skewness(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 3)?;
    let n = sample.len() as f64;
    let m = mean(sample)?;
    let sd = std_dev(sample)?;
    if exactly_zero(sd) {
        return Err(StatsError::DegenerateSample);
    }
    let m3: f64 = sample.iter().map(|x| ((x - m) / sd).powi(3)).sum::<f64>();
    Ok(m3 * n / ((n - 1.0) * (n - 2.0)))
}

/// Excess kurtosis (0 for a normal distribution), bias-adjusted.
pub fn excess_kurtosis(sample: &[f64]) -> Result<f64, StatsError> {
    check_len(sample, 4)?;
    let n = sample.len() as f64;
    let m = mean(sample)?;
    let sd = std_dev(sample)?;
    if exactly_zero(sd) {
        return Err(StatsError::DegenerateSample);
    }
    let m4: f64 = sample.iter().map(|x| ((x - m) / sd).powi(4)).sum::<f64>();
    let g2 = m4 * n * (n + 1.0) / ((n - 1.0) * (n - 2.0) * (n - 3.0));
    Ok(g2 - 3.0 * (n - 1.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0)))
}

/// One-line summary of a sample, convenient for experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum observation (high watermark).
    pub max: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Errors
    ///
    /// Returns an error for samples with fewer than two observations or
    /// containing non-finite values.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), proxima_stats::StatsError> {
    /// let s = proxima_stats::descriptive::Summary::of(&[1.0, 2.0, 3.0])?;
    /// assert_eq!(s.max, 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn of(sample: &[f64]) -> Result<Self, StatsError> {
        check_len(sample, 2)?;
        Ok(Summary {
            n: sample.len(),
            mean: mean(sample)?,
            std_dev: std_dev(sample)?,
            min: min(sample)?,
            median: median(sample)?,
            max: max(sample)?,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} med={:.3} max={:.3}",
            self.n, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

/// Probability-weighted moment `b_r` of an ascending-sorted sample.
///
/// `b_r = n⁻¹ Σ_i [(i−1)(i−2)…(i−r) / ((n−1)(n−2)…(n−r))] x_(i)` with 1-based
/// ranks — the unbiased estimator of Landwehr/Hosking used by the EVT fits.
pub fn pwm_sorted(sorted: &[f64], r: usize) -> f64 {
    let n = sorted.len();
    let mut acc = 0.0;
    for (idx, &x) in sorted.iter().enumerate() {
        let i = (idx + 1) as f64; // 1-based rank
        let mut w = 1.0;
        for k in 0..r {
            w *= (i - 1.0 - k as f64) / (n as f64 - 1.0 - k as f64);
        }
        acc += w * x;
    }
    acc / n as f64
}

/// Check a sample for finiteness (re-exported convenience).
pub fn validate(sample: &[f64]) -> Result<(), StatsError> {
    check_finite(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [f64; 8] = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];

    #[test]
    fn mean_and_variance_textbook() {
        assert_eq!(mean(&SAMPLE).unwrap(), 5.0);
        // Population variance of this classic sample is 4; unbiased is 32/7.
        let v = variance(&SAMPLE).unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_type7_matches_r() {
        // R: quantile(c(1,2,3,4), 0.25, type=7) == 1.75
        let q = quantile(&[1.0, 2.0, 3.0, 4.0], 0.25).unwrap();
        assert!((q - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_extremes_are_min_max() {
        assert_eq!(quantile(&SAMPLE, 0.0).unwrap(), 2.0);
        assert_eq!(quantile(&SAMPLE, 1.0).unwrap(), 9.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn skewness_of_symmetric_sample_is_zero() {
        let s = skewness(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn kurtosis_flat_sample_is_negative() {
        // A uniform-ish sample is platykurtic.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(excess_kurtosis(&xs).unwrap() < 0.0);
    }

    #[test]
    fn cv_scale_invariant() {
        let a: Vec<f64> = vec![10.0, 12.0, 14.0, 16.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1000.0).collect();
        let ca = coefficient_of_variation(&a).unwrap();
        let cb = coefficient_of_variation(&b).unwrap();
        assert!((ca - cb).abs() < 1e-12);
    }

    #[test]
    fn errors_on_empty_and_nan() {
        assert!(mean(&[]).is_err());
        assert!(mean(&[f64::NAN]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn summary_fields_consistent() {
        let s = Summary::of(&SAMPLE).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.min <= s.median && s.median <= s.max);
        let line = s.to_string();
        assert!(line.contains("n=8"));
    }

    #[test]
    fn pwm_b0_is_mean() {
        let mut sorted = SAMPLE.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((pwm_sorted(&sorted, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pwm_b1_uniform_closed_form() {
        // For Uniform(0,1): b_r = E[X Fʳ] = 1/(r+2)·(r+1)/(r+1) = 1/(r+2)
        // over binomial weights — concretely b1 = E[X·F(X)] = ∫x² = 1/3.
        let n = 20_000;
        let sorted: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let b1 = pwm_sorted(&sorted, 1);
        assert!((b1 - 1.0 / 3.0).abs() < 1e-3, "b1={b1}");
        let b2 = pwm_sorted(&sorted, 2);
        assert!((b2 - 0.25).abs() < 1e-3, "b2={b2}"); // E[X F²] = 1/4
    }
}
