//! The MBPTA-CV analysis pipeline (Abella et al., TODAES 2017).
//!
//! An alternative to the block-maxima process of [`MbptaConfig::analyze`](crate::MbptaConfig::analyze): the
//! residual coefficient of variation selects the exceedance threshold, and
//! an exponential tail (GPD with ξ = 0) is fitted over it. MBPTA-CV needs
//! no block-size parameter and refuses heavy-looking tails by
//! construction, at the price of committing to the exponential shape.
//! Ablation **A7** (`exp_cv`) compares the two methods on the same
//! campaigns.

use proxima_stats::evt::{fit_cv_tail, CvFit};

use crate::config::MbptaConfig;
use crate::iid::{self, IidReport};
use crate::{Campaign, MbptaError};

/// Result of an MBPTA-CV analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CvReport {
    /// The i.i.d. gate outcome (same gate as the block-maxima pipeline).
    pub iid: IidReport,
    /// The CV threshold selection and exponential tail fit.
    pub fit: CvFit,
    /// Number of observations analysed.
    pub runs: usize,
    /// The campaign's high watermark.
    pub high_watermark: f64,
}

impl CvReport {
    /// The execution-time budget exceeded with per-run probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] unless `0 < p <` the tail fraction.
    pub fn budget_for(&self, p: f64) -> Result<f64, MbptaError> {
        Ok(self.fit.budget_for(p)?)
    }

    /// The per-run probability of exceeding `budget`.
    pub fn exceedance_probability(&self, budget: f64) -> f64 {
        self.fit.exceedance_probability(budget)
    }
}

/// Run the MBPTA-CV pipeline: i.i.d. gate → residual-CV threshold
/// selection → exponential tail fit.
///
/// `min_tail`/`max_tail` bound the exceedance-set sizes scanned; the
/// customary setting for 3,000-run campaigns scans 20…10% of the sample.
///
/// # Errors
///
/// * the same gate errors as [`MbptaConfig::analyze`](crate::MbptaConfig::analyze);
/// * [`MbptaError::Stats`] with `NoConvergence` if no threshold has an
///   exponential-compatible residual CV (heavy tail — the method refuses
///   rather than underestimates).
///
/// # Examples
///
/// ```
/// use proxima_mbpta::cv::analyze_cv;
/// use proxima_mbpta::MbptaConfig;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let times: Vec<f64> = (0..2000)
///     .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
///     .collect();
/// let report = analyze_cv(&times, &MbptaConfig::default())?;
/// assert!(report.budget_for(1e-12)? > report.high_watermark);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
pub fn analyze_cv(times: &[f64], config: &MbptaConfig) -> Result<CvReport, MbptaError> {
    config.validate()?;
    if times.len() < config.min_runs {
        return Err(MbptaError::CampaignTooSmall {
            needed: config.min_runs,
            got: times.len(),
        });
    }
    let campaign = Campaign::from_times(times.to_vec())?;
    let iid = iid::validate_strict(campaign.times(), config.alpha, config.ljung_box_lags)?;
    let min_tail = 20;
    let max_tail = (times.len() / 10).max(min_tail + 1);
    let fit = fit_cv_tail(campaign.times(), min_tail, max_tail)?;
    Ok(CvReport {
        iid,
        fit,
        runs: times.len(),
        high_watermark: campaign.high_watermark(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn campaign(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    #[test]
    fn cv_pipeline_succeeds_on_iid_campaign() {
        let times = campaign(3000, 1);
        let r = analyze_cv(&times, &MbptaConfig::default()).unwrap();
        assert!(r.iid.passed);
        assert!(r.fit.tail_size >= 20);
        let b = r.budget_for(1e-12).unwrap();
        assert!(b > r.high_watermark);
    }

    #[test]
    fn cv_and_block_maxima_agree_on_order_of_magnitude() {
        let times = campaign(3000, 2);
        let bm = MbptaConfig::default().analyze(&times).unwrap();
        let cv = analyze_cv(&times, &MbptaConfig::default()).unwrap();
        let b_bm = bm.budget_for(1e-12).unwrap();
        let b_cv = cv.budget_for(1e-12).unwrap();
        let ratio = b_cv / b_bm;
        assert!(
            (0.8..1.25).contains(&ratio),
            "bm={b_bm:.0} cv={b_cv:.0} ratio={ratio:.3}"
        );
    }

    #[test]
    fn non_iid_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let times: Vec<f64> = (0..2000)
            .map(|i| 1e5 + i as f64 * 10.0 + rng.gen::<f64>())
            .collect();
        assert!(matches!(
            analyze_cv(&times, &MbptaConfig::default()),
            Err(MbptaError::IidRejected { .. })
        ));
    }

    #[test]
    fn small_campaign_rejected() {
        let times = campaign(50, 4);
        assert!(matches!(
            analyze_cv(&times, &MbptaConfig::default()),
            Err(MbptaError::CampaignTooSmall { .. })
        ));
    }

    #[test]
    fn budgets_monotone() {
        let times = campaign(2000, 5);
        let r = analyze_cv(&times, &MbptaConfig::default()).unwrap();
        let b9 = r.budget_for(1e-9).unwrap();
        let b15 = r.budget_for(1e-15).unwrap();
        assert!(b15 > b9);
        // Round trip.
        let p = r.exceedance_probability(b9);
        assert!((p / 1e-9 - 1.0).abs() < 1e-6);
    }
}
