//! Sample autocorrelation, the ingredient of the Ljung-Box test.

use crate::error::check_len;
use crate::float::exactly_zero;
use crate::StatsError;

/// Sample autocorrelation `ρ̂_k` at lags `1..=max_lag`.
///
/// Uses the standard biased estimator (divisor `n`, not `n−k`), the one the
/// Ljung-Box statistic is defined over:
///
/// `ρ̂_k = Σ_{t=1}^{n−k} (x_t − x̄)(x_{t+k} − x̄) / Σ_t (x_t − x̄)²`.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] if `sample.len() <= max_lag + 1`;
/// * [`StatsError::DegenerateSample`] if the sample has zero variance;
/// * [`StatsError::InvalidArgument`] if `max_lag == 0`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), proxima_stats::StatsError> {
/// use proxima_stats::autocorr::autocorrelation;
///
/// // A strongly alternating series has ρ̂₁ close to −1.
/// let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let rho = autocorrelation(&xs, 1)?;
/// assert!(rho[0] < -0.9);
/// # Ok(())
/// # }
/// ```
pub fn autocorrelation(sample: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    if max_lag == 0 {
        return Err(StatsError::InvalidArgument {
            what: "max_lag must be at least 1",
        });
    }
    check_len(sample, max_lag + 2)?;
    let n = sample.len();
    let mean = sample.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = sample.iter().map(|x| x - mean).collect();
    let denom: f64 = centered.iter().map(|c| c * c).sum();
    if exactly_zero(denom) {
        return Err(StatsError::DegenerateSample);
    }
    // One sweep over `t` feeds every lag's numerator. Each lag still
    // adds its products in `t` order from the `-0.0` that `Sum<f64>`
    // starts at, so every ρ̂_k has the bits of summing that lag alone;
    // the lags' add chains are independent and run side by side.
    let mut num = vec![-0.0f64; max_lag];
    for (t, &c) in centered.iter().enumerate() {
        let ahead = &centered[t + 1..(t + 1 + max_lag).min(n)];
        for (acc, &d) in num.iter_mut().zip(ahead) {
            *acc += c * d;
        }
    }
    Ok(num.into_iter().map(|s| s / denom).collect())
}

/// The default Ljung-Box lag count used across the workspace:
/// `min(20, n/5)` but at least 1 — a common rule of thumb for samples the
/// size of an MBPTA campaign (the paper uses R = 3,000 runs, giving lag 20).
pub fn default_lag(n: usize) -> usize {
    (n / 5).clamp(1, 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iid_sample_has_small_autocorrelation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        let rho = autocorrelation(&xs, 10).unwrap();
        // 95% band for iid data is about ±2/√n ≈ ±0.045.
        for (k, r) in rho.iter().enumerate() {
            assert!(r.abs() < 0.08, "lag {} rho {}", k + 1, r);
        }
    }

    #[test]
    fn linear_trend_has_high_lag1() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let rho = autocorrelation(&xs, 1).unwrap();
        assert!(rho[0] > 0.98);
    }

    #[test]
    fn constant_sample_is_degenerate() {
        let xs = vec![3.0; 100];
        assert_eq!(
            autocorrelation(&xs, 2).unwrap_err(),
            StatsError::DegenerateSample
        );
    }

    #[test]
    fn lag_zero_rejected() {
        assert!(autocorrelation(&[1.0, 2.0, 3.0], 0).is_err());
    }

    #[test]
    fn too_short_sample_rejected() {
        assert!(autocorrelation(&[1.0, 2.0], 5).is_err());
    }

    #[test]
    fn default_lag_rules() {
        assert_eq!(default_lag(3000), 20);
        assert_eq!(default_lag(50), 10);
        assert_eq!(default_lag(4), 1);
    }

    #[test]
    fn rho_bounded_by_one() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * i) % 71) as f64).collect();
        let rho = autocorrelation(&xs, 20).unwrap();
        for r in rho {
            assert!(r.abs() <= 1.0 + 1e-12);
        }
    }
}
