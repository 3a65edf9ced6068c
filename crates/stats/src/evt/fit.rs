//! Parameter estimation for the extreme-value family.
//!
//! The production pWCET model is the Gumbel, fitted by [`fit_gumbel`]:
//! its maximum-likelihood estimate, found by a safeguarded Newton solve
//! of the Gumbel score equation from a probability-weighted-moment (PWM)
//! start. Its one implementation is [`GumbelKernel`], which takes a
//! sample as its distinct values ([`TiedSample`]) plus one count per
//! value. Block maxima of integer cycle counts repeat heavily (a few
//! dozen distinct values among hundreds of maxima), so a Newton step
//! costs one `exp()` and a few multiply-adds per distinct value, and a
//! fit takes about four steps.
//!
//! The kernel reads only the (value, count) multiset, so the fit of a
//! sample does not depend on the order of its elements. The bootstrap in
//! `proxima_mbpta::confidence` compresses the maxima once and fits every
//! resample as a count vector over the same [`TiedSample`], which gives
//! the bits [`fit_gumbel`] gives on the drawn values.

use std::cmp::Ordering;

use crate::descriptive::pwm_sorted;
use crate::dist::{ContinuousDistribution, Gev, Gpd, Gumbel};
use crate::error::check_len;
use crate::float::exactly_zero;
use crate::special::{gamma, EULER_GAMMA};
use crate::tests::{anderson_darling, ks_one_sample};
use crate::StatsError;

/// Fewest maxima a Gumbel fit accepts.
const GUMBEL_MIN_MAXIMA: usize = 10;

/// The Gumbel MLE solve stops once the score `|g(β)|` is at most this
/// fraction of `β`.
const GUMBEL_MLE_TOLERANCE: f64 = 1e-12;

fn sorted_copy(sample: &[f64]) -> Vec<f64> {
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Fit a [`Gumbel`] distribution by probability-weighted moments
/// (Landwehr, Matalas & Wallis 1979):
///
/// `β̂ = (2 b₁ − b₀)/ln 2`, `μ̂ = b₀ − γ β̂`.
///
/// PWM estimates are robust on the small maxima samples MBPTA works with
/// (60 maxima for the paper's 3,000 runs at block size 50);
/// [`fit_gumbel`] starts its likelihood solve from this estimate.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] if fewer than 10 maxima;
/// * [`StatsError::NonFiniteData`] if a maximum is NaN or infinite;
/// * [`StatsError::DegenerateSample`] if all maxima are equal.
pub fn fit_gumbel_pwm(maxima: &[f64]) -> Result<Gumbel, StatsError> {
    check_len(maxima, GUMBEL_MIN_MAXIMA)?;
    let sorted = sorted_copy(maxima);
    let b0 = pwm_sorted(&sorted, 0);
    let b1 = pwm_sorted(&sorted, 1);
    let beta = (2.0 * b1 - b0) / std::f64::consts::LN_2;
    if !(beta.is_finite() && beta > 0.0) {
        return Err(StatsError::DegenerateSample);
    }
    let mu = b0 - EULER_GAMMA * beta;
    Gumbel::new(mu, beta)
}

/// Fit a [`Gumbel`] distribution by maximum likelihood.
///
/// With `zᵢ = xᵢ − min x` and `wᵢ = e^{−zᵢ/β}`, the MLE scale is the
/// root of the score
/// `g(β) = β − z̄ + Σ zᵢ wᵢ / Σ wᵢ`,
/// and `μ = min x − β ln(n⁻¹ Σ wᵢ)`. `g` rises with slope
/// `g′(β) = 1 + Var_w(z)/β² ≥ 1` from `g(0⁺) = −z̄ < 0` to `g(z̄) ≥ 0`,
/// so every sample with two distinct values has exactly one root, in
/// `(0, z̄]`. The solve starts at the PWM estimate ([`fit_gumbel_pwm`]),
/// keeps a bracket of the root, takes Newton steps inside it and bisects
/// whenever a step would leave it (or fails to halve the step before
/// last). It stops at `|g(β)| ≤ 10⁻¹² β`, or where rounding leaves no
/// double between the bracket ends; either way it returns the
/// likelihood root, never the PWM start.
///
/// This compresses `maxima` into a [`TiedSample`] and runs the
/// [`GumbelKernel`] on its counts, so the result depends only on the
/// multiset of maxima, not on their order; callers fitting many
/// resamples of one sample should compress once and drive the kernel
/// directly.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] if fewer than 10 maxima;
/// * [`StatsError::NonFiniteData`] if a maximum is NaN or infinite, or
///   the range `max − min` overflows;
/// * [`StatsError::DegenerateSample`] if all maxima are equal;
/// * the [`Gumbel::new`] error if a fitted parameter is not
///   representable (a scale that underflows to zero on a range of a few
///   subnormal steps, or a location past `f64::MAX`).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), proxima_stats::StatsError> {
/// use proxima_stats::dist::ContinuousDistribution;
/// use proxima_stats::evt::fit_gumbel;
///
/// // Maxima drawn (by inverse CDF) from Gumbel(100, 5).
/// let truth = proxima_stats::dist::Gumbel::new(100.0, 5.0)?;
/// let maxima: Vec<f64> = (1..200)
///     .map(|i| truth.quantile(i as f64 / 200.0))
///     .collect::<Result<_, _>>()?;
/// let fitted = fit_gumbel(&maxima)?;
/// assert!((fitted.mu() - 100.0).abs() < 1.0);
/// assert!((fitted.beta() - 5.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
pub fn fit_gumbel(maxima: &[f64]) -> Result<Gumbel, StatsError> {
    let sample = TiedSample::new(maxima);
    let mut counts = vec![0; sample.values.len()];
    for &k in &sample.indices {
        counts[k] += 1;
    }
    GumbelKernel::default().fit(&sample, &counts)
}

/// A sample stored as its distinct values plus, per element, the index of
/// its value: the input form of [`GumbelKernel`].
///
/// Values are distinct under [`f64::total_cmp`] and ascending in that
/// order, so `-0.0` and `0.0` (and every NaN payload) keep separate
/// entries and every element maps back to its exact bits.
///
/// # Examples
///
/// ```
/// use proxima_stats::evt::TiedSample;
///
/// let sample = TiedSample::new(&[3.0, 1.0, 3.0, 2.0, 1.0]);
/// assert_eq!(sample.values(), &[1.0, 2.0, 3.0]);
/// assert_eq!(sample.indices(), &[2, 0, 2, 1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct TiedSample {
    values: Vec<f64>,
    indices: Vec<usize>,
}

impl TiedSample {
    /// Compress `sample`: sort and deduplicate a copy, then look each
    /// element up in it.
    pub fn new(sample: &[f64]) -> Self {
        let mut values = sample.to_vec();
        values.sort_unstable_by(f64::total_cmp);
        values.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
        let indices = sample
            .iter()
            .map(|x| {
                // Every element is in `values`, so the search always hits.
                let (Ok(k) | Err(k)) = values.binary_search_by(|v| v.total_cmp(x));
                k
            })
            .collect();
        TiedSample { values, indices }
    }

    /// The distinct values, ascending in [`f64::total_cmp`] order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Per element, in the original order, the index of its value in
    /// [`values`](Self::values).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// The Gumbel fit kernel behind [`fit_gumbel`]. Its scratch buffer
/// persists across calls: a kernel reused for many fits allocates only
/// while the buffer grows.
///
/// A fit costs one `exp()` and a few multiply-adds per distinct value
/// present and Newton step.
#[derive(Debug, Default)]
pub struct GumbelKernel {
    /// Per distinct value present, ascending: `(z, count)`, with `z` the
    /// value's offset above the smallest one as a fraction of the range.
    terms: Vec<(f64, f64)>,
}

impl GumbelKernel {
    /// Fit a [`Gumbel`] to the sample holding `counts[j]` copies of
    /// `sample.values()[j]`: the fit [`fit_gumbel`] returns on any vector
    /// of those elements.
    ///
    /// Values with a zero count are neither checked nor used, so a
    /// bootstrap resample is any count vector over the values of the
    /// sample it was drawn from.
    ///
    /// # Errors
    ///
    /// Same as [`fit_gumbel`].
    ///
    /// # Panics
    ///
    /// If `counts` and `sample.values()` differ in length.
    pub fn fit(&mut self, sample: &TiedSample, counts: &[usize]) -> Result<Gumbel, StatsError> {
        assert_eq!(counts.len(), sample.values.len(), "one count per value");
        let n: usize = counts.iter().sum();
        if n < GUMBEL_MIN_MAXIMA {
            return Err(StatsError::InsufficientData {
                needed: GUMBEL_MIN_MAXIMA,
                got: n,
            });
        }
        self.terms.clear();
        for (&v, &c) in sample.values.iter().zip(counts).filter(|(_, &c)| c > 0) {
            if !v.is_finite() {
                return Err(StatsError::NonFiniteData);
            }
            self.terms.push((v, c as f64));
        }
        // At least ten elements, so the first and last terms exist.
        let low = self.terms[0].0;
        let range = self.terms[self.terms.len() - 1].0 - low;
        if !range.is_finite() {
            return Err(StatsError::NonFiniteData);
        }
        if exactly_zero(range) {
            return Err(StatsError::DegenerateSample);
        }
        // Solve in units of the range: every z lies in [0, 1], so no sum,
        // square or exponent over- or underflows at any magnitude of the
        // data. The PWM start comes from the counts: the copies of a value
        // hold the 1-based ranks below+1 ..= below+c, whose (rank − 1)
        // sum to c·below + c(c − 1)/2.
        let nf = n as f64;
        let (mut below, mut sum_z, mut sum_rank_z) = (0.0, 0.0, 0.0);
        for (v, c) in &mut self.terms {
            *v = (*v - low) / range;
            sum_z += *c * *v;
            sum_rank_z += (*c * below + 0.5 * *c * (*c - 1.0)) * *v;
            below += *c;
        }
        let mean = sum_z / nf;
        let pwm = (2.0 * sum_rank_z / (nf - 1.0) - sum_z) / nf / std::f64::consts::LN_2;
        // Newton on the score g inside the bracket (lo, hi) of its root;
        // a step that would leave the bracket, or not halve the step before
        // last, bisects instead.
        let (mut lo, mut hi) = (0.0, mean);
        let mut beta = if pwm > 0.0 && pwm < mean {
            pwm
        } else {
            mean / 2.0
        };
        let (mut step, mut step_before) = (f64::INFINITY, f64::INFINITY);
        let sum_w = loop {
            let rate = beta.recip();
            let (mut sum_w, mut sum_zw, mut sum_zzw) = (0.0, 0.0, 0.0);
            for &(z, c) in &self.terms {
                let w = c * (-z * rate).exp();
                sum_w += w;
                sum_zw += w * z;
                sum_zzw += w * z * z;
            }
            // The smallest value has z = 0, so sum_w ≥ 1.
            let weighted_mean = sum_zw / sum_w;
            let g = beta - mean + weighted_mean;
            if g.abs() <= GUMBEL_MLE_TOLERANCE * beta {
                break sum_w;
            }
            (lo, hi) = if g < 0.0 { (beta, hi) } else { (lo, beta) };
            let weighted_var = (sum_zzw / sum_w - weighted_mean * weighted_mean).max(0.0);
            let newton = beta - g / (1.0 + weighted_var * rate * rate);
            let bisect = !(newton > lo && newton < hi) || 2.0 * (newton - beta).abs() > step_before;
            let next = if bisect { (lo + hi) / 2.0 } else { newton };
            if next <= lo || next >= hi {
                // No double lies strictly inside the bracket.
                break sum_w;
            }
            (step_before, step) = (step, (next - beta).abs());
            beta = next;
        };
        let beta = beta * range;
        Gumbel::new(low - beta * (sum_w / nf).ln(), beta)
    }
}

/// Fit a [`Gev`] distribution by probability-weighted moments
/// (Hosking, Wallis & Wood 1985).
///
/// With `b₀, b₁, b₂` the first three PWMs, the Hosking shape `k = −ξ` is
/// approximated by `k ≈ 7.8590 c + 2.9554 c²` where
/// `c = (2b₁−b₀)/(3b₂−b₀) − ln2/ln3`; scale and location follow in closed
/// form. Accurate for `−0.5 < k < 0.5`, the regime of interest for timing
/// data.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] if fewer than 20 maxima;
/// * [`StatsError::DegenerateSample`] on zero-variation samples.
pub fn fit_gev(maxima: &[f64]) -> Result<Gev, StatsError> {
    check_len(maxima, 20)?;
    let sorted = sorted_copy(maxima);
    let b0 = pwm_sorted(&sorted, 0);
    let b1 = pwm_sorted(&sorted, 1);
    let b2 = pwm_sorted(&sorted, 2);
    let denom = 3.0 * b2 - b0;
    if exactly_zero(denom) || exactly_zero(2.0 * b1 - b0) {
        return Err(StatsError::DegenerateSample);
    }
    let c = (2.0 * b1 - b0) / denom - std::f64::consts::LN_2 / 3f64.ln();
    let k = 7.8590 * c + 2.9554 * c * c; // Hosking shape, k = −ξ
                                         // On near-degenerate samples the PWM differences are pure rounding
                                         // noise and their ratio can land far outside the Hosking domain
                                         // (|k| < 0.5). The closed forms below need Γ(1+k), so a shape at or
                                         // below −1 is a fit failure, never a panic.
    if k <= -1.0 {
        return Err(StatsError::NoConvergence {
            what: "gev pwm shape outside the Hosking domain",
        });
    }
    let (sigma, mu) = if k.abs() < 1e-6 {
        // Gumbel limit.
        let sigma = (2.0 * b1 - b0) / std::f64::consts::LN_2;
        (sigma, b0 - EULER_GAMMA * sigma)
    } else {
        let g = gamma(1.0 + k);
        let sigma = (2.0 * b1 - b0) * k / (g * (1.0 - 2f64.powf(-k)));
        let mu = b0 + sigma * (g - 1.0) / k;
        (sigma, mu)
    };
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(StatsError::DegenerateSample);
    }
    Gev::new(mu, sigma, -k)
}

/// Fit a [`Gpd`] to exceedances of `threshold` by probability-weighted
/// moments (Hosking & Wallis 1987).
///
/// With excesses `y = x − u` and `a₀ = E[Y]`, `a₁ = E[Y(1−F(Y))]` their
/// type-A PWMs: Hosking shape `k = a₀/(a₀ − 2a₁) − 2` (again `k = −ξ`) and
/// `σ = 2 a₀ a₁/(a₀ − 2a₁)`.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] if fewer than 10 exceedances;
/// * [`StatsError::DegenerateSample`] on zero-variation excesses.
pub fn fit_gpd(sample: &[f64], threshold: f64) -> Result<Gpd, StatsError> {
    let peaks = super::peaks_over_threshold(sample, threshold)?;
    let excesses: Vec<f64> = peaks.iter().map(|&p| p - threshold).collect();
    let sorted = sorted_copy(&excesses);
    let b0 = pwm_sorted(&sorted, 0);
    let b1 = pwm_sorted(&sorted, 1);
    // Type-A PWM: a₁ = E[Y(1−F)] = b₀ − b₁ (b₁ is the type-B PWM E[Y·F]).
    let a0 = b0;
    let a1 = b0 - b1;
    let denom = a0 - 2.0 * a1;
    if exactly_zero(denom) {
        return Err(StatsError::DegenerateSample);
    }
    let k = a0 / denom - 2.0; // Hosking shape, k = −ξ
    let sigma = 2.0 * a0 * a1 / denom;
    if !(sigma.is_finite() && sigma > 0.0) {
        return Err(StatsError::DegenerateSample);
    }
    Gpd::new(threshold, sigma, -k)
}

/// Goodness-of-fit report for a fitted tail model.
#[derive(Debug, Clone, PartialEq)]
pub struct GofReport {
    /// One-sample KS result against the fitted model.
    pub ks: crate::tests::TestResult,
    /// Anderson-Darling result against the fitted model (may be absent if
    /// the model's support does not cover the data).
    pub ad: Option<crate::tests::TestResult>,
}

impl GofReport {
    /// `true` if the fit is acceptable at level `alpha` (KS must pass; AD
    /// must pass when available).
    pub fn acceptable(&self, alpha: f64) -> bool {
        self.ks.passes(alpha) && self.ad.is_none_or(|ad| ad.passes(alpha))
    }
}

/// Run the KS + AD goodness-of-fit battery of `sample` against `dist`.
///
/// Both tests treat `dist` as fully specified; with parameters estimated
/// from the same sample the resulting p-values are conservative, which is
/// the safe direction for an acceptance gate.
///
/// # Errors
///
/// Returns an error if the sample is too small for the KS test.
pub fn goodness_of_fit<D: ContinuousDistribution + ?Sized>(
    sample: &[f64],
    dist: &D,
) -> Result<GofReport, StatsError> {
    let ks = ks_one_sample(sample, dist)?;
    let ad = anderson_darling(sample, dist).ok();
    Ok(GofReport { ks, ad })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "draws" from a distribution: inverse-CDF of a scrambled
    /// uniform grid (no RNG needed, stable across runs).
    fn quantile_grid<D: ContinuousDistribution>(d: &D, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let u = ((i as f64 + 0.5) * 0.618_033_988_749_894_9) % 1.0;
                d.quantile(u.clamp(1e-12, 1.0 - 1e-12)).unwrap()
            })
            .collect()
    }

    #[test]
    fn gumbel_pwm_recovers_parameters() {
        let truth = Gumbel::new(1000.0, 30.0).unwrap();
        let xs = quantile_grid(&truth, 500);
        let fit = fit_gumbel_pwm(&xs).unwrap();
        assert!((fit.mu() - 1000.0).abs() < 5.0, "mu={}", fit.mu());
        assert!((fit.beta() - 30.0).abs() < 3.0, "beta={}", fit.beta());
    }

    #[test]
    fn gumbel_mle_at_least_as_good_as_pwm() {
        let truth = Gumbel::new(50.0, 4.0).unwrap();
        let xs = quantile_grid(&truth, 300);
        let pwm = fit_gumbel_pwm(&xs).unwrap();
        let mle = fit_gumbel(&xs).unwrap();
        let ll = |g: &Gumbel| xs.iter().map(|&x| g.pdf(x).ln()).sum::<f64>();
        assert!(
            ll(&mle) >= ll(&pwm) - 1e-6,
            "MLE log-lik {} < PWM log-lik {}",
            ll(&mle),
            ll(&pwm)
        );
    }

    #[test]
    fn gev_recovers_negative_shape() {
        let truth = Gev::new(200.0, 10.0, -0.2).unwrap();
        let xs = quantile_grid(&truth, 2000);
        let fit = fit_gev(&xs).unwrap();
        assert!((fit.xi() + 0.2).abs() < 0.06, "xi={}", fit.xi());
        assert!((fit.mu() - 200.0).abs() < 2.0, "mu={}", fit.mu());
        assert!((fit.sigma() - 10.0).abs() < 1.5, "sigma={}", fit.sigma());
    }

    #[test]
    fn gev_recovers_positive_shape() {
        let truth = Gev::new(0.0, 1.0, 0.25).unwrap();
        let xs = quantile_grid(&truth, 3000);
        let fit = fit_gev(&xs).unwrap();
        assert!((fit.xi() - 0.25).abs() < 0.08, "xi={}", fit.xi());
    }

    #[test]
    fn gev_on_gumbel_data_finds_near_zero_shape() {
        let truth = Gumbel::new(10.0, 2.0).unwrap();
        let xs = quantile_grid(&truth, 3000);
        let fit = fit_gev(&xs).unwrap();
        assert!(fit.xi().abs() < 0.05, "xi={}", fit.xi());
    }

    #[test]
    fn gpd_recovers_parameters() {
        let truth = Gpd::new(100.0, 5.0, 0.1).unwrap();
        let tail = quantile_grid(&truth, 2000);
        let fit = fit_gpd(&tail, 100.0).unwrap();
        assert!((fit.sigma() - 5.0).abs() < 0.6, "sigma={}", fit.sigma());
        assert!((fit.xi() - 0.1).abs() < 0.08, "xi={}", fit.xi());
    }

    #[test]
    fn gpd_on_exponential_data_finds_zero_shape() {
        let truth = crate::dist::Exponential::new(0.5).unwrap();
        let xs: Vec<f64> = quantile_grid(&truth, 3000)
            .into_iter()
            .map(|x| 10.0 + x)
            .collect();
        let fit = fit_gpd(&xs, 10.0).unwrap();
        assert!(fit.xi().abs() < 0.06, "xi={}", fit.xi());
        assert!((fit.sigma() - 2.0).abs() < 0.2, "sigma={}", fit.sigma());
    }

    #[test]
    fn fitted_gumbel_passes_gof_on_its_own_data() {
        let truth = Gumbel::new(100.0, 8.0).unwrap();
        let xs = quantile_grid(&truth, 400);
        let fit = fit_gumbel(&xs).unwrap();
        let gof = goodness_of_fit(&xs, &fit).unwrap();
        assert!(gof.acceptable(0.05), "{gof:?}");
    }

    #[test]
    fn gumbel_fit_rejects_degenerate() {
        let xs = vec![5.0; 50];
        assert!(fit_gumbel_pwm(&xs).is_err());
        assert!(fit_gumbel(&xs).is_err());
    }

    #[test]
    fn small_samples_rejected() {
        let xs = vec![1.0, 2.0, 3.0];
        assert!(fit_gumbel_pwm(&xs).is_err());
        assert!(fit_gev(&xs).is_err());
    }

    #[test]
    fn gev_fit_on_constant_sample_errors_instead_of_panicking() {
        // PWM differences on a constant sample are rounding noise; the
        // implied Hosking shape can land below −1, where Γ(1+k) is
        // undefined. Regression: this used to panic inside ln_gamma.
        for n in [20usize, 64, 100, 500] {
            let xs = vec![500.0f64; n];
            assert!(fit_gev(&xs).is_err(), "n={n}");
        }
    }

    #[test]
    fn extrapolated_tail_upper_bounds_empirical_tail() {
        // Soundness shape-check: the fitted Gumbel exceedance at the
        // empirical 1/n level should not be far below the observed maximum.
        let truth = Gumbel::new(1000.0, 20.0).unwrap();
        let xs = quantile_grid(&truth, 1000);
        let fit = fit_gumbel(&xs).unwrap();
        let observed_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let q = fit.exceedance_quantile(1e-4).unwrap();
        assert!(
            q > observed_max - 3.0 * fit.beta(),
            "q={q} max={observed_max}"
        );
    }
}
