//! Bootstrap confidence intervals for pWCET estimates.
//!
//! A pWCET budget is a point estimate from ~60 block maxima; certification
//! argumentation (Stephenson et al., INDIN 2013) wants to know how much
//! the estimate itself could move. This module computes percentile
//! bootstrap intervals: resample the block maxima with replacement,
//! refit the Gumbel, re-evaluate the budget, and report the empirical
//! quantiles of the resampled budgets.
//!
//! Resampling is **sharded** over the same engine as the measurement
//! campaigns: resample `r` draws its indices from a private [`Mwc64`]
//! seeded with the `r`-th element of the master seed's SplitMix64 stream
//! ([`SplitMix64::stream_seed`], an O(1) random access), so the interval is
//! a deterministic function of `(data, seed)` — **bit-identical for every
//! `jobs` setting**, exactly like [`CampaignRunner`](crate::CampaignRunner).
//!
//! The maxima are tie-compressed once per interval ([`TiedSample`]: the
//! distinct values plus one value index per maximum). A resample makes
//! the same [`Mwc64`] draws in the same order as a resampler that copies
//! the drawn values, but only counts how often each distinct value is
//! drawn, and each shard worker fits those counts with one reused
//! [`GumbelKernel`]: no allocation per resample, work per fit in the
//! number of distinct values, and budgets bit-identical to fitting the
//! drawn values with [`fit_gumbel`](proxima_stats::evt::fit_gumbel)
//! (the fit depends only on the multiset of its maxima).

use proxima_prng::{Mwc64, RandomSource, SplitMix64};
use proxima_stats::evt::{block_maxima, GumbelKernel, TiedSample};

use crate::campaign::run_sharded;
use crate::pwcet::Pwcet;
use crate::{MbptaError, MbptaReport};

/// A two-sided confidence interval for a pWCET budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetInterval {
    /// The point estimate from the full sample.
    pub estimate: f64,
    /// Lower confidence bound.
    pub lower: f64,
    /// Upper confidence bound.
    pub upper: f64,
    /// The confidence level (e.g. 0.95).
    pub level: f64,
    /// Number of bootstrap resamples used.
    pub resamples: usize,
}

impl BudgetInterval {
    /// Width of the interval relative to the estimate.
    pub fn relative_width(&self) -> f64 {
        (self.upper - self.lower) / self.estimate
    }
}

/// Percentile-bootstrap confidence interval for the pWCET budget at
/// exceedance probability `p`, resampling on all available cores.
///
/// Resamples the campaign's block maxima `resamples` times (seeded,
/// deterministic, independent of the thread count), refits the Gumbel and
/// recomputes the budget each time. Resamples whose fit degenerates
/// (all-equal maxima) are skipped.
///
/// # Errors
///
/// * [`MbptaError::InvalidConfig`] for `level` outside (0, 1) or zero
///   `resamples`;
/// * [`MbptaError::Stats`] if no resample, or fewer than half of them,
///   produces a valid fit.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::confidence::budget_interval;
/// use proxima_mbpta::MbptaConfig;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// let times: Vec<f64> = (0..2000)
///     .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
///     .collect();
/// let report = MbptaConfig::default().analyze(&times)?;
/// let ci = budget_interval(&times, &report, 1e-12, 0.95, 200, 42)?;
/// assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
pub fn budget_interval(
    times: &[f64],
    report: &MbptaReport,
    p: f64,
    level: f64,
    resamples: usize,
    seed: u64,
) -> Result<BudgetInterval, MbptaError> {
    let block = report.fit.block_size;
    let maxima = block_maxima(times, block)?;
    let estimate = report.budget_for(p)?;
    interval_from_maxima(&maxima, block, estimate, p, level, resamples, seed, 0)
}

/// Percentile-bootstrap interval straight from a block-maxima vector — the
/// entry point the streaming analyzer refits through on every snapshot
/// (it maintains the maxima incrementally and must not re-extract them).
///
/// `estimate` is the caller's point estimate at `p`; `jobs = 0` uses all
/// cores. Deterministic in `(maxima, seed)` for every `jobs`.
///
/// # Errors
///
/// Same as [`budget_interval`].
#[allow(clippy::too_many_arguments)]
pub fn interval_from_maxima(
    maxima: &[f64],
    block_size: usize,
    estimate: f64,
    p: f64,
    level: f64,
    resamples: usize,
    seed: u64,
    jobs: usize,
) -> Result<BudgetInterval, MbptaError> {
    if !(level > 0.0 && level < 1.0) {
        return Err(MbptaError::InvalidConfig {
            what: "confidence level must be in (0, 1)",
        });
    }
    if resamples == 0 {
        return Err(MbptaError::InvalidConfig {
            what: "resamples must be positive",
        });
    }
    let mut budgets = resample_budgets(maxima, block_size, p, resamples, seed, jobs);
    // `resamples / 2` is 0 at one resample: the emptiness check keeps a
    // lone degenerate resample from reaching the quantile code.
    if budgets.is_empty() || budgets.len() < resamples / 2 {
        return Err(MbptaError::Stats(
            proxima_stats::StatsError::DegenerateSample,
        ));
    }
    budgets.sort_by(|a, b| a.total_cmp(b));
    let alpha = 1.0 - level;
    let lower = proxima_stats::descriptive::quantile_sorted(&budgets, alpha / 2.0);
    let upper = proxima_stats::descriptive::quantile_sorted(&budgets, 1.0 - alpha / 2.0);
    Ok(BudgetInterval {
        estimate,
        lower,
        upper,
        level,
        resamples: budgets.len(),
    })
}

/// Compute the resampled budgets, sharding the resample indices over
/// `jobs` scoped workers. Resample `r` depends only on `(maxima, seed, r)`,
/// so the concatenation in index order is identical at every `jobs`.
fn resample_budgets(
    maxima: &[f64],
    block_size: usize,
    p: f64,
    resamples: usize,
    seed: u64,
    jobs: usize,
) -> Vec<f64> {
    let sample = TiedSample::new(maxima);
    let value_index = sample.indices();
    run_sharded(resamples, jobs, |shard| {
        let n = value_index.len();
        let mut kernel = GumbelKernel::default();
        let mut counts = vec![0usize; sample.values().len()];
        shard
            .filter_map(|r| {
                let mut rng = Mwc64::new(SplitMix64::stream_seed(seed, r as u64));
                counts.fill(0);
                for _ in 0..n {
                    counts[value_index[rng.below(n as u64) as usize]] += 1;
                }
                let gumbel = kernel.fit(&sample, &counts).ok()?;
                Pwcet::new(gumbel, block_size).budget_for(p).ok()
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MbptaConfig;
    use rand::{Rng, SeedableRng};

    fn campaign(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    #[test]
    fn interval_brackets_estimate() {
        let times = campaign(2000, 1);
        let report = MbptaConfig::default().analyze(&times).unwrap();
        let ci = budget_interval(&times, &report, 1e-12, 0.95, 300, 7).unwrap();
        assert!(ci.lower <= ci.estimate);
        assert!(ci.estimate <= ci.upper);
        assert!(ci.relative_width() > 0.0 && ci.relative_width() < 0.5);
    }

    #[test]
    fn interval_is_seed_deterministic() {
        // Seed chosen to pass the 5%-level iid gate deterministically with
        // the vendored StdRng stream.
        let times = campaign(1500, 5);
        let report = MbptaConfig::default().analyze(&times).unwrap();
        let a = budget_interval(&times, &report, 1e-9, 0.95, 200, 11).unwrap();
        let b = budget_interval(&times, &report, 1e-9, 0.95, 200, 11).unwrap();
        assert_eq!(a, b);
        let c = budget_interval(&times, &report, 1e-9, 0.95, 200, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn interval_bit_identical_across_job_counts() {
        // The sharded resampler must reproduce the serial interval exactly:
        // per-resample seeds come from the SplitMix64 stream, never from a
        // worker-local sequential RNG.
        let times = campaign(1500, 5);
        let report = MbptaConfig::default().analyze(&times).unwrap();
        let block = report.fit.block_size;
        let maxima = block_maxima(&times, block).unwrap();
        let estimate = report.budget_for(1e-12).unwrap();
        let interval = |jobs| {
            interval_from_maxima(&maxima, block, estimate, 1e-12, 0.95, 301, 13, jobs).unwrap()
        };
        let serial = interval(1);
        assert_eq!(
            serial,
            budget_interval(&times, &report, 1e-12, 0.95, 301, 13).unwrap()
        );
        for jobs in [2, 3, 8] {
            assert_eq!(serial, interval(jobs), "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        // Seed chosen to pass the 5%-level iid gate deterministically.
        let times = campaign(1500, 6);
        let report = MbptaConfig::default().analyze(&times).unwrap();
        let ci90 = budget_interval(&times, &report, 1e-12, 0.90, 400, 5).unwrap();
        let ci99 = budget_interval(&times, &report, 1e-12, 0.99, 400, 5).unwrap();
        assert!(ci99.upper - ci99.lower >= ci90.upper - ci90.lower);
    }

    #[test]
    fn more_data_narrows_interval() {
        // Seed chosen to pass the 5%-level iid gate at both sizes with the
        // vendored StdRng stream.
        let small = campaign(800, 9);
        let large = campaign(3200, 9);
        let rs = MbptaConfig::default().analyze(&small).unwrap();
        let rl = MbptaConfig::default().analyze(&large).unwrap();
        let cis = budget_interval(&small, &rs, 1e-12, 0.95, 300, 9).unwrap();
        let cil = budget_interval(&large, &rl, 1e-12, 0.95, 300, 9).unwrap();
        assert!(
            cil.relative_width() < cis.relative_width(),
            "large {} vs small {}",
            cil.relative_width(),
            cis.relative_width()
        );
    }

    /// The value-copying resampler the counting one replaced, verbatim:
    /// copy each drawn maximum, fit the copy with `fit_gumbel`.
    fn oracle_budgets(
        maxima: &[f64],
        block_size: usize,
        p: f64,
        resamples: usize,
        seed: u64,
    ) -> Vec<f64> {
        let n = maxima.len();
        let mut resample = vec![0.0f64; n];
        (0..resamples)
            .filter_map(|r| {
                let mut rng = Mwc64::new(SplitMix64::stream_seed(seed, r as u64));
                for slot in resample.iter_mut() {
                    *slot = maxima[rng.below(n as u64) as usize];
                }
                let gumbel = proxima_stats::evt::fit_gumbel(&resample).ok()?;
                Pwcet::new(gumbel, block_size).budget_for(p).ok()
            })
            .collect()
    }

    /// The interval the pre-change code built from the oracle budgets.
    fn oracle_interval(
        maxima: &[f64],
        block_size: usize,
        estimate: f64,
        p: f64,
        level: f64,
        resamples: usize,
        seed: u64,
    ) -> BudgetInterval {
        let mut budgets = oracle_budgets(maxima, block_size, p, resamples, seed);
        assert!(budgets.len() >= resamples / 2 && !budgets.is_empty());
        budgets.sort_by(|a, b| a.total_cmp(b));
        let alpha = 1.0 - level;
        BudgetInterval {
            estimate,
            lower: proxima_stats::descriptive::quantile_sorted(&budgets, alpha / 2.0),
            upper: proxima_stats::descriptive::quantile_sorted(&budgets, 1.0 - alpha / 2.0),
            level,
            resamples: budgets.len(),
        }
    }

    fn assert_same_bits(a: &BudgetInterval, b: &BudgetInterval, label: &str) {
        assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "{label}: lower");
        assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "{label}: upper");
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{label}");
        assert_eq!(a.resamples, b.resamples, "{label}: resamples");
    }

    #[test]
    fn tie_compressed_resampler_matches_the_oracle_at_every_job_count() {
        // Tied integer cycle-count maxima (few distinct values) and
        // tie-free ones: the budgets and the interval must be the
        // value-copying resampler's, bit for bit, at every `jobs`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let tied: Vec<f64> = (0..120)
            .map(|_| {
                let mut k = 0u32;
                while rng.gen::<f64>() >= 0.05 {
                    k += 1;
                }
                100_000.0 + 16.0 * f64::from(k)
            })
            .collect();
        let continuous = block_maxima(&campaign(6000, 4), 50).unwrap();
        for (label, maxima) in [("tied", tied), ("continuous", continuous)] {
            let fit = proxima_stats::evt::fit_gumbel(&maxima).unwrap();
            let estimate = Pwcet::new(fit, 50).budget_for(1e-12).unwrap();
            let want_budgets = oracle_budgets(&maxima, 50, 1e-12, 101, 29);
            let want = oracle_interval(&maxima, 50, estimate, 1e-12, 0.95, 101, 29);
            for jobs in [1, 2, 3, 8] {
                let got_budgets = resample_budgets(&maxima, 50, 1e-12, 101, 29, jobs);
                assert_eq!(
                    got_budgets.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
                    want_budgets.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
                    "{label} jobs={jobs}: budgets"
                );
                let got = interval_from_maxima(&maxima, 50, estimate, 1e-12, 0.95, 101, 29, jobs)
                    .unwrap();
                assert_same_bits(&got, &want, &format!("{label} jobs={jobs}"));
            }
        }
    }

    #[test]
    fn single_degenerate_resample_is_an_error_not_a_panic() {
        // Regression: with one resample, `resamples / 2` is 0, so a lone
        // degenerate resample used to pass the "too few fits" check and
        // hand an empty budget vector to the quantile code. Seeds 15 and
        // 19 draw an all-2.0 resample from this sample.
        let mut maxima = vec![1.0];
        maxima.extend([2.0; 9]);
        for seed in [15, 19] {
            assert!(
                oracle_budgets(&maxima, 50, 1e-9, 1, seed).is_empty(),
                "seed {seed} must degenerate"
            );
            assert_eq!(
                interval_from_maxima(&maxima, 50, 2.0, 1e-9, 0.95, 1, seed, 1),
                Err(MbptaError::Stats(
                    proxima_stats::StatsError::DegenerateSample
                )),
                "seed {seed}"
            );
        }
        // A resample that does fit still yields a (point) interval.
        let fitted = (0..64u64)
            .find(|&seed| !oracle_budgets(&maxima, 50, 1e-9, 1, seed).is_empty())
            .expect("some seed draws both values");
        let ci = interval_from_maxima(&maxima, 50, 2.0, 1e-9, 0.95, 1, fitted, 1).unwrap();
        assert_eq!(ci.resamples, 1);
        assert_eq!(ci.lower.to_bits(), ci.upper.to_bits());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let times = campaign(800, 5);
        let report = MbptaConfig::default().analyze(&times).unwrap();
        assert!(budget_interval(&times, &report, 1e-12, 0.0, 100, 1).is_err());
        assert!(budget_interval(&times, &report, 1e-12, 1.0, 100, 1).is_err());
        assert!(budget_interval(&times, &report, 1e-12, 0.95, 0, 1).is_err());
    }
}
