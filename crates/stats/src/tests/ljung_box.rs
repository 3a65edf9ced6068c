//! Ljung-Box test for serial independence.

use super::TestResult;
use crate::autocorr::autocorrelation;
use crate::dist::{ChiSquared, ContinuousDistribution};
use crate::StatsError;

/// Ljung-Box portmanteau test of serial independence at lags `1..=max_lag`.
///
/// `Q = n (n + 2) Σ_{k=1}^{h} ρ̂_k² / (n − k)`; under the null of
/// independence `Q ~ χ²(h)`, and the p-value is the χ² survival probability
/// at `Q`.
///
/// This is the independence half of the MBPTA i.i.d. gate: the paper runs it
/// at a 5% significance level over the 3,000 measured execution times and
/// reports a p-value of 0.83.
///
/// # Errors
///
/// * [`StatsError::InvalidArgument`] if `max_lag == 0`;
/// * [`StatsError::InsufficientData`] if the sample is shorter than
///   `max_lag + 2`;
/// * [`StatsError::DegenerateSample`] if the sample has no variance.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), proxima_stats::StatsError> {
/// use proxima_stats::tests::ljung_box;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let xs: Vec<f64> = (0..500).map(|_| rng.gen::<f64>()).collect();
/// let r = ljung_box(&xs, 20)?;
/// assert!(r.passes(0.05));
/// # Ok(())
/// # }
/// ```
pub fn ljung_box(sample: &[f64], max_lag: usize) -> Result<TestResult, StatsError> {
    let rho = autocorrelation(sample, max_lag)?;
    ljung_box_from_autocorr(&rho, sample.len())
}

/// The Ljung-Box step after the autocorrelation: `Q` and its χ² p-value
/// from `rho = [ρ̂_1, …, ρ̂_h]` (as [`autocorrelation`] returns them) of
/// a sample of `n` observations, at `h = rho.len()` degrees of freedom.
///
/// A caller that needs `ρ̂` for something else too computes it once and
/// passes it here; [`ljung_box`] is exactly `autocorrelation` followed by
/// this step.
///
/// # Errors
///
/// * [`StatsError::InvalidArgument`] if `rho` is empty;
/// * [`StatsError::InsufficientData`] if `n < rho.len() + 2`, the
///   shortest sample [`autocorrelation`] accepts at that lag count.
pub fn ljung_box_from_autocorr(rho: &[f64], n: usize) -> Result<TestResult, StatsError> {
    if n < rho.len() + 2 {
        return Err(StatsError::InsufficientData {
            needed: rho.len() + 2,
            got: n,
        });
    }
    let chi2 = ChiSquared::new(rho.len() as f64)?;
    let n = n as f64;
    let q: f64 = n
        * (n + 2.0)
        * rho
            .iter()
            .enumerate()
            .map(|(i, r)| r * r / (n - (i + 1) as f64))
            .sum::<f64>();
    Ok(TestResult {
        statistic: q,
        p_value: chi2.survival(q),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded iid uniform noise.
    fn white_noise_seeded(n: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn white_noise(n: usize) -> Vec<f64> {
        white_noise_seeded(n, 0xBEEF)
    }

    #[test]
    fn white_noise_passes() {
        let r = ljung_box(&white_noise(2000), 20).unwrap();
        assert!(r.passes(0.05), "p={}", r.p_value);
    }

    #[test]
    fn ar1_process_fails() {
        // Strongly autocorrelated series: x_{t+1} = 0.9 x_t + noise.
        let noise = white_noise(2000);
        let mut xs = vec![0.0f64];
        for i in 1..2000 {
            let prev = xs[i - 1];
            xs.push(0.9 * prev + 0.1 * noise[i]);
        }
        let r = ljung_box(&xs, 20).unwrap();
        assert!(!r.passes(0.05), "p={}", r.p_value);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn periodic_series_fails() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let r = ljung_box(&xs, 20).unwrap();
        assert!(!r.passes(0.05));
    }

    #[test]
    fn statistic_nonnegative() {
        let r = ljung_box(&white_noise(500), 10).unwrap();
        assert!(r.statistic >= 0.0);
        assert!((0.0..=1.0).contains(&r.p_value));
    }

    #[test]
    fn errors_propagate() {
        assert!(ljung_box(&[1.0, 2.0], 20).is_err());
        assert!(ljung_box(&vec![5.0; 100], 10).is_err()); // constant
        assert!(ljung_box(&white_noise(100), 0).is_err());
    }

    #[test]
    fn the_step_after_the_autocorrelation_is_the_whole_test() {
        let xs = white_noise(500);
        for lags in [1, 7, 20] {
            let rho = autocorrelation(&xs, lags).unwrap();
            let split = ljung_box_from_autocorr(&rho, xs.len()).unwrap();
            let whole = ljung_box(&xs, lags).unwrap();
            assert_eq!(split.statistic.to_bits(), whole.statistic.to_bits());
            assert_eq!(split.p_value.to_bits(), whole.p_value.to_bits());
        }
        assert!(ljung_box_from_autocorr(&[], 100).is_err());
        assert!(ljung_box_from_autocorr(&[0.1; 20], 21).is_err());
        assert!(ljung_box_from_autocorr(&[0.1; 20], 22).is_ok());
    }

    #[test]
    fn p_value_approximately_uniform_on_null() {
        // Over many independent white-noise windows, p-values should spread
        // out over (0,1) rather than cluster: check that we see both small
        // and large ones but few below 0.01.
        let mut below_05 = 0;
        let runs = 40;
        for s in 0..runs {
            let xs = white_noise_seeded(400, 1000 + s);
            let r = ljung_box(&xs, 10).unwrap();
            if r.p_value < 0.05 {
                below_05 += 1;
            }
        }
        // Expect ~5%: tolerate up to 20% on 40 windows.
        assert!(below_05 <= 8, "{below_05}/{runs} windows rejected");
    }
}
