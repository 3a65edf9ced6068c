//! Oracle battery for the Gumbel fit kernel.
//!
//! [`fit_gumbel`] and [`GumbelKernel::fit`] solve the Gumbel likelihood
//! equation with a safeguarded Newton iteration on tie counts. The
//! per-element fixed-point iteration it replaced is kept below, verbatim,
//! as the oracle. Every fit must
//!
//! * reach the likelihood root: `|g(β)| ≤ 1e-12·β` for the score
//!   `g(β) = β − z̄ + Σ zᵢ wᵢ / Σ wᵢ`, evaluated here element by element,
//!   with `μ` the closed form at that `β`;
//! * agree with the oracle to 1e-9 relative in `μ` and `β` wherever the
//!   oracle converged (after 200 iterations it returns its PWM start);
//! * fail only where the oracle fails, with the oracle's error (the
//!   oracle also fails where its PWM start overflows, which the kernel
//!   fits);
//! * depend only on the multiset of maxima: a permuted sample, and a
//!   count vector over a [`TiedSample`], give the same bits.

use proptest::prelude::*;
use proxima_stats::descriptive::pwm_sorted;
use proxima_stats::dist::Gumbel;
use proxima_stats::evt::{fit_gumbel, GumbelKernel, TiedSample};
use proxima_stats::special::EULER_GAMMA;
use proxima_stats::StatsError;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The oracle: the per-element PWM + MLE fixed point the Newton solve
// replaced, verbatim but for the crate-private `check_len` inlined and
// its PWM estimate named `start`.
// ---------------------------------------------------------------------

fn oracle_check_len(sample: &[f64], needed: usize) -> Result<(), StatsError> {
    if sample.len() < needed {
        return Err(StatsError::InsufficientData {
            needed,
            got: sample.len(),
        });
    }
    if sample.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    Ok(())
}

fn oracle_sorted_copy(sample: &[f64]) -> Vec<f64> {
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

fn oracle_fit_gumbel_pwm(maxima: &[f64]) -> Result<Gumbel, StatsError> {
    oracle_check_len(maxima, 10)?;
    let sorted = oracle_sorted_copy(maxima);
    let b0 = pwm_sorted(&sorted, 0);
    let b1 = pwm_sorted(&sorted, 1);
    let beta = (2.0 * b1 - b0) / std::f64::consts::LN_2;
    if !(beta.is_finite() && beta > 0.0) {
        return Err(StatsError::DegenerateSample);
    }
    let mu = b0 - EULER_GAMMA * beta;
    Gumbel::new(mu, beta)
}

fn oracle_fit_gumbel(maxima: &[f64]) -> Result<Gumbel, StatsError> {
    let start = oracle_fit_gumbel_pwm(maxima)?;
    let n = maxima.len() as f64;
    let mean: f64 = maxima.iter().sum::<f64>() / n;
    let ys: Vec<f64> = maxima.iter().map(|&x| x - mean).collect();
    let mut beta = start.beta();
    let mut converged = false;
    for _ in 0..200 {
        let mut sum_e = 0.0;
        let mut sum_ye = 0.0;
        for &y in &ys {
            let e = (-y / beta).exp();
            sum_e += e;
            sum_ye += y * e;
        }
        let next_beta = -sum_ye / sum_e;
        let next_beta = if next_beta.is_finite() && next_beta > 0.0 {
            next_beta
        } else {
            beta * 0.5
        };
        if (next_beta - beta).abs() <= 1e-10 * beta {
            beta = next_beta;
            converged = true;
            break;
        }
        beta = next_beta;
    }
    if !converged {
        return Ok(start);
    }
    let sum_e: f64 = ys.iter().map(|&y| (-y / beta).exp()).sum();
    let mu = mean - beta * (sum_e / n).ln();
    Gumbel::new(mu, beta).or(Ok(start))
}

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

/// `|g(β)|/β` for the score `g` of `sample`, summed element by element in
/// units of `β` (`tᵢ = (xᵢ − min x)/β`), so no term over- or underflows.
fn relative_score(sample: &[f64], beta: f64) -> f64 {
    let low = sample.iter().copied().fold(f64::INFINITY, f64::min);
    let (mut sum_t, mut sum_w, mut sum_tw) = (0.0, 0.0, 0.0);
    for &x in sample {
        let t = (x - low) / beta;
        let w = (-t).exp();
        sum_t += t;
        sum_w += w;
        sum_tw += t * w;
    }
    (1.0 - sum_t / sample.len() as f64 + sum_tw / sum_w).abs()
}

/// The oracle's fit where its fixed point converged to the root of the
/// score; `None` where it failed or returned its PWM start, or where its
/// centring on a rounded mean moved the fixed point off the root (data
/// offset near 1e15, where `x̄` is off by several units: the fixed point
/// `β = −Σ yᵢ wᵢ / Σ wᵢ` assumes `Σ yᵢ = 0`).
fn oracle_root(sample: &[f64]) -> Option<Gumbel> {
    let fit = oracle_fit_gumbel(sample).ok()?;
    let pwm = oracle_fit_gumbel_pwm(sample).ok()?;
    let fell_back =
        fit.mu().to_bits() == pwm.mu().to_bits() && fit.beta().to_bits() == pwm.beta().to_bits();
    (!fell_back && relative_score(sample, fit.beta()) <= 1e-9).then_some(fit)
}

fn relative_gap(a: f64, b: f64) -> f64 {
    ((a - b) / b).abs()
}

/// Assert that `got`, a fit of `sample`, is the likelihood root (and the
/// oracle's root wherever the oracle converged), or the oracle's error.
fn assert_root(label: &str, sample: &[f64], got: &Result<Gumbel, StatsError>) {
    let fit = match (got, oracle_fit_gumbel(sample)) {
        (Ok(fit), _) => fit,
        (Err(g), Err(w)) => {
            assert_eq!(*g, w, "{label}: error");
            return;
        }
        (Err(g), Ok(w)) => panic!("{label}: kernel {g:?}, oracle {w:?}"),
    };
    let (mu, beta) = (fit.mu(), fit.beta());
    // A subnormal β carries its own rounding of up to half a spacing.
    let tolerance = 1e-12 + 8.0 * f64::from_bits(1) / beta;
    let score = relative_score(sample, beta);
    assert!(score <= tolerance, "{label}: |g(β)|/β = {score:e}");
    let low = sample.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_w = sample
        .iter()
        .map(|&x| (-(x - low) / beta).exp())
        .sum::<f64>()
        / sample.len() as f64;
    let want_mu = low - beta * mean_w.ln();
    assert!(
        (mu - want_mu).abs() <= 1e-12 * (mu.abs() + beta),
        "{label}: mu {mu} vs closed form {want_mu}"
    );
    if let Some(oracle) = oracle_root(sample) {
        assert!(
            relative_gap(beta, oracle.beta()) <= 1e-9,
            "{label}: beta {beta} vs oracle {}",
            oracle.beta()
        );
        assert!(
            relative_gap(mu, oracle.mu()) <= 1e-9,
            "{label}: mu {mu} vs oracle {}",
            oracle.mu()
        );
    }
}

/// The whole of `tied` as a count vector over its values.
fn counts_of(tied: &TiedSample) -> Vec<usize> {
    let mut counts = vec![0; tied.values().len()];
    for &k in tied.indices() {
        counts[k] += 1;
    }
    counts
}

/// The same outcome, down to the bits of `μ` and `β`.
fn assert_same(label: &str, got: &Result<Gumbel, StatsError>, want: &Result<Gumbel, StatsError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.mu().to_bits(), w.mu().to_bits(), "{label}: mu");
            assert_eq!(g.beta().to_bits(), w.beta().to_bits(), "{label}: beta");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error"),
        _ => panic!("{label}: {got:?} vs {want:?}"),
    }
}

/// `fit_gumbel` on `sample`, checked against the oracle.
fn check(label: &str, sample: &[f64]) -> Result<Gumbel, StatsError> {
    let got = fit_gumbel(sample);
    assert_root(label, sample, &got);
    got
}

/// Bootstrap-style resamples of `sample` as count vectors through one
/// reused kernel: each gives the bits of `fit_gumbel` on the materialized
/// resample, and that fit is checked against the oracle.
fn check_resamples(label: &str, sample: &[f64], kernel: &mut GumbelKernel, seed: u64) {
    let tied = TiedSample::new(sample);
    let n = sample.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; tied.values().len()];
    let mut materialized = Vec::with_capacity(n);
    for r in 0..12 {
        counts.fill(0);
        materialized.clear();
        for _ in 0..n {
            let k = tied.indices()[(rng.gen::<u64>() % n as u64) as usize];
            counts[k] += 1;
            materialized.push(tied.values()[k]);
        }
        let label = format!("{label} resample {r}");
        let want = fit_gumbel(&materialized);
        assert_same(&label, &kernel.fit(&tied, &counts), &want);
        assert_root(&label, &materialized, &want);
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Block maxima of integer cycle counts `base + step·K`, `K` geometric
/// with success probability `q`: heavily tied, exponential tail.
fn tied_maxima(blocks: usize, block: usize, q: f64, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..blocks)
        .map(|_| {
            (0..block)
                .map(|_| {
                    let mut k = 0u32;
                    while rng.gen::<f64>() >= q {
                        k += 1;
                    }
                    100_000.0 + 16.0 * f64::from(k)
                })
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// Block maxima of sums of uniforms: tie-free.
fn continuous_maxima(blocks: usize, block: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..blocks)
        .map(|_| {
            (0..block)
                .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

fn distinct(sample: &[f64]) -> usize {
    TiedSample::new(sample).values().len()
}

/// `sample` in a random order.
fn shuffled(sample: &[f64], seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = sample.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (rng.gen::<u64>() % (i as u64 + 1)) as usize);
    }
    out
}

/// `n` draws from `truth` by inverse CDF, rounded to whole cycles.
fn rounded_gumbel(truth: &Gumbel, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>().clamp(1e-300, 1.0 - 1e-16);
            (truth.mu() - truth.beta() * (-u.ln()).ln()).round()
        })
        .collect()
}

// ---------------------------------------------------------------------
// The battery.
// ---------------------------------------------------------------------

#[test]
fn tied_cycle_count_maxima_reach_the_root() {
    let mut kernel = GumbelKernel::default();
    for (seed, blocks) in [(1u64, 402usize), (2, 60), (3, 42), (4, 51), (5, 10)] {
        let maxima = tied_maxima(blocks, 50, 0.2, seed);
        assert!(
            distinct(&maxima) < blocks,
            "seed {seed}: the sample must tie"
        );
        check(&format!("tied seed {seed}"), &maxima).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_resamples(&format!("tied seed {seed}"), &maxima, &mut kernel, seed);
    }
}

#[test]
fn continuous_maxima_reach_the_root() {
    let mut kernel = GumbelKernel::default();
    for (seed, blocks) in [(11u64, 402usize), (12, 60), (13, 10)] {
        let maxima = continuous_maxima(blocks, 50, seed);
        assert_eq!(distinct(&maxima), blocks, "seed {seed}: tie-free");
        check(&format!("continuous seed {seed}"), &maxima)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_resamples(
            &format!("continuous seed {seed}"),
            &maxima,
            &mut kernel,
            seed,
        );
    }
}

#[test]
fn one_kernel_reused_across_samples_of_different_shapes() {
    // Stale scratch from a wide sample must never leak into a narrow one.
    let mut kernel = GumbelKernel::default();
    let wide = continuous_maxima(300, 20, 21);
    let narrow = tied_maxima(40, 50, 0.3, 22);
    for (label, sample) in [("wide", &wide), ("narrow", &narrow), ("wide again", &wide)] {
        let tied = TiedSample::new(sample);
        let got = kernel.fit(&tied, &counts_of(&tied));
        assert_same(label, &got, &fit_gumbel(sample));
        assert_root(label, sample, &got);
    }
}

#[test]
fn two_valued_samples_reach_the_root() {
    for n in [10usize, 11, 40, 402] {
        for high in 1..n {
            let sample: Vec<f64> = (0..n)
                .map(|i| if (i * 7) % n < high { 250.0 } else { 200.0 })
                .collect();
            check(&format!("two-valued n={n} high={high}"), &sample)
                .unwrap_or_else(|e| panic!("n={n} high={high}: {e}"));
        }
    }
}

#[test]
fn exactly_ten_elements_reach_the_root() {
    let mut kernel = GumbelKernel::default();
    for seed in 30..40u64 {
        let tied = tied_maxima(10, 20, 0.4, seed);
        check(&format!("ten tied seed {seed}"), &tied).ok();
        check_resamples(&format!("ten tied seed {seed}"), &tied, &mut kernel, seed);
        let smooth = continuous_maxima(10, 20, seed);
        check(&format!("ten continuous seed {seed}"), &smooth)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn extreme_magnitudes_reach_the_root() {
    let mut kernel = GumbelKernel::default();
    let tied = tied_maxima(120, 50, 0.2, 41);
    let smooth = continuous_maxima(120, 50, 42);
    for (label, base) in [("tied", &tied), ("continuous", &smooth)] {
        for scale in [1e10, 1e-305, 1e-313] {
            let scaled: Vec<f64> = base.iter().map(|&x| x * scale).collect();
            check(&format!("{label} x {scale:e}"), &scaled)
                .unwrap_or_else(|e| panic!("{label} x {scale:e}: {e}"));
            check_resamples(&format!("{label} x {scale:e}"), &scaled, &mut kernel, 43);
        }
        // Offsets near 1e15: the spread survives, the low bits do not.
        // The oracle's mean-centred fixed point settles off the root there;
        // the solve on offsets from the minimum does not.
        let shifted: Vec<f64> = base.iter().map(|&x| x + 1e15).collect();
        check(&format!("{label} + 1e15"), &shifted)
            .unwrap_or_else(|e| panic!("{label} + 1e15: {e}"));
        let oracle = oracle_fit_gumbel(&shifted).unwrap();
        assert!(
            relative_score(&shifted, oracle.beta()) > 1e-6,
            "{label} + 1e15: the oracle now reaches the root"
        );
        check_resamples(&format!("{label} + 1e15"), &shifted, &mut kernel, 44);
        // Near the top of the range, where sums of the raw values and the
        // PWM differences overflow: the scaled solve still fits.
        let huge: Vec<f64> = base.iter().map(|&x| x * 1.5e302).collect();
        check(&format!("{label} x 1.5e302"), &huge)
            .unwrap_or_else(|e| panic!("{label} x 1.5e302: {e}"));
        check_resamples(&format!("{label} x 1.5e302"), &huge, &mut kernel, 46);
    }
    // Tiny values straddling zero, spread over the subnormals.
    let subnormal: Vec<f64> = (0..40).map(|i| f64::from(i % 9 - 4) * 1e-310).collect();
    check("subnormal", &subnormal).unwrap();
    check_resamples("subnormal", &subnormal, &mut kernel, 45);
    // A range past f64::MAX is refused, not fitted to infinities.
    let wide: Vec<f64> = (0..20)
        .map(|i| if i % 2 == 0 { -1.5e308 } else { 1.5e308 })
        .collect();
    assert_eq!(fit_gumbel(&wide).unwrap_err(), StatsError::NonFiniteData);
}

#[test]
fn signed_zero_mixes_reach_the_root() {
    // total_cmp keeps -0.0 and 0.0 apart, so they are distinct values.
    let mixed: Vec<f64> = (0..30)
        .map(|i| match i % 5 {
            0 => -0.0,
            1 => 0.0,
            2 => 1.0,
            3 => 3.0,
            _ => 2.0,
        })
        .collect();
    assert_eq!(distinct(&mixed), 5);
    check("signed zeros", &mixed).unwrap();
    check_resamples("signed zeros", &mixed, &mut GumbelKernel::default(), 50);
    let zeros: Vec<f64> = (0..12)
        .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
        .collect();
    assert_eq!(
        check("only zeros", &zeros).unwrap_err(),
        StatsError::DegenerateSample
    );
    let negative: Vec<f64> = (0..20).map(|i| -f64::from(i % 4)).collect();
    check("non-positive", &negative).unwrap();
}

#[test]
fn low_outliers_reach_the_likelihood_root_where_the_oracle_fell_back() {
    // One low outlier under equal or near-equal maxima: the oracle's
    // fixed point does not settle within 200 iterations and returns its
    // PWM start. The Newton solve reaches the root of the score.
    let sample = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let shifted: Vec<f64> = (0..49).map(|i| 1e9 + f64::from(i)).chain([0.0]).collect();
    for (label, sample) in [("low outlier", &sample[..]), ("shifted", &shifted[..])] {
        assert!(
            oracle_root(sample).is_none(),
            "{label}: the oracle falls back"
        );
        let fit = check(label, sample).unwrap();
        let pwm = oracle_fit_gumbel_pwm(sample).unwrap();
        assert!(relative_score(sample, fit.beta()) <= 1e-12, "{label}");
        assert!(
            relative_gap(fit.beta(), pwm.beta()) > 1e-3,
            "{label}: the root is not the PWM start"
        );
    }
}

#[test]
fn error_ladder_matches_the_oracle() {
    let nine = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
    assert!(matches!(
        check("nine", &nine),
        Err(StatsError::InsufficientData { needed: 10, got: 9 })
    ));
    assert!(matches!(
        check("empty", &[]),
        Err(StatsError::InsufficientData { needed: 10, got: 0 })
    ));
    // Too short wins over non-finite.
    let short_nan = [1.0, f64::NAN, 3.0];
    assert!(matches!(
        check("short nan", &short_nan),
        Err(StatsError::InsufficientData { .. })
    ));
    for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [0usize, 5, 11] {
            let mut sample: Vec<f64> = (0..12).map(f64::from).collect();
            sample[at] = bad;
            assert_eq!(
                check(&format!("{bad} at {at}"), &sample).unwrap_err(),
                StatsError::NonFiniteData
            );
        }
    }
    // Non-finite wins over degenerate.
    let mut flat_nan = vec![7.0; 15];
    flat_nan[3] = f64::NAN;
    assert_eq!(
        check("flat nan", &flat_nan).unwrap_err(),
        StatsError::NonFiniteData
    );
    assert_eq!(
        check("all equal", &[5.0; 50]).unwrap_err(),
        StatsError::DegenerateSample
    );
}

#[test]
fn resamples_check_only_the_values_they_reach() {
    // A non-finite distinct value the counts never reach must not fail
    // the fit, exactly as the materialized resample would not contain it.
    let mut sample: Vec<f64> = tied_maxima(30, 50, 0.2, 60);
    sample.push(f64::NAN);
    let tied = TiedSample::new(&sample);
    let nan_slot = tied.values().len() - 1;
    assert!(tied.values()[nan_slot].is_nan());
    let mut counts = vec![0usize; tied.values().len()];
    for &k in &tied.indices()[..30] {
        counts[k] += 1;
    }
    let materialized: Vec<f64> = tied.indices()[..30]
        .iter()
        .map(|&k| tied.values()[k])
        .collect();
    let mut kernel = GumbelKernel::default();
    let got = kernel.fit(&tied, &counts);
    assert_same("unreached nan", &got, &fit_gumbel(&materialized));
    assert_root("unreached nan", &materialized, &got);
    assert!(got.is_ok());
    counts[nan_slot] = 1;
    assert_eq!(
        kernel.fit(&tied, &counts).unwrap_err(),
        StatsError::NonFiniteData
    );
}

#[test]
fn permuted_samples_fit_to_identical_bits() {
    let inputs = [
        tied_maxima(402, 50, 0.2, 70),
        continuous_maxima(60, 50, 71),
        tied_maxima(10, 20, 0.4, 72),
        (0..40)
            .map(|i| if i % 3 == 0 { 250.0 } else { 200.0 })
            .collect(),
        continuous_maxima(120, 50, 73)
            .iter()
            .map(|&x| x * 1e-313)
            .collect(),
    ];
    for (i, sample) in inputs.iter().enumerate() {
        let want = fit_gumbel(sample);
        assert!(want.is_ok(), "input {i}: {want:?}");
        for seed in 0..5u64 {
            assert_same(
                &format!("input {i} permutation {seed}"),
                &fit_gumbel(&shuffled(sample, seed)),
                &want,
            );
        }
    }
}

#[test]
fn tied_sample_round_trips_every_bit_pattern() {
    let sample = [
        3.0,
        -0.0,
        f64::NAN,
        0.0,
        3.0,
        -f64::NAN,
        f64::INFINITY,
        -0.0,
        1e-310,
        f64::NEG_INFINITY,
    ];
    let tied = TiedSample::new(&sample);
    assert_eq!(tied.indices().len(), sample.len());
    for (x, &k) in sample.iter().zip(tied.indices()) {
        assert_eq!(tied.values()[k].to_bits(), x.to_bits());
    }
    for pair in tied.values().windows(2) {
        assert_eq!(pair[0].total_cmp(&pair[1]), std::cmp::Ordering::Less);
    }
    assert_eq!(tied.values().len(), 8);
}

proptest! {
    /// Tied, tie-free, two-valued and heavily rounded samples of 10 to
    /// 2,000 maxima: every fit is the likelihood root (and the oracle's,
    /// wherever the oracle converged).
    #[test]
    fn every_fit_reaches_the_likelihood_root(
        n in 10usize..2001,
        shape in 0u32..4,
        seed in any::<u64>(),
    ) {
        let sample: Vec<f64> = match shape {
            0 => tied_maxima(n, 20, 0.15 + (seed % 7) as f64 * 0.05, seed),
            1 => continuous_maxima(n, 20, seed),
            2 => {
                let high = 1 + (seed as usize) % (n - 1);
                (0..n).map(|i| if (i * 13) % n < high { 1e5 + 48.0 } else { 1e5 }).collect()
            }
            _ => {
                let beta = 0.5 + (seed % 40) as f64;
                rounded_gumbel(&Gumbel::new(80_000.0, beta).unwrap(), n, seed)
            }
        };
        let label = format!("shape {shape} n={n} seed={seed}");
        match fit_gumbel(&sample) {
            Ok(fit) => assert_root(&label, &sample, &Ok(fit)),
            Err(e) => {
                // Only an all-equal draw may fail.
                prop_assert_eq!(e, StatsError::DegenerateSample);
                prop_assert!(distinct(&sample) == 1, "{}", label);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Calibration: the bootstrap CI around the Newton fit covers the true
// budget at least as often as the one around the oracle.
// ---------------------------------------------------------------------

/// The per-run budget at exceedance `p` of Gumbel block maxima of block
/// size 50: the block-level exceedance quantile.
fn budget(gumbel: &Gumbel, p: f64) -> f64 {
    let block_sf = -(50.0 * (-p).ln_1p()).exp_m1();
    gumbel.exceedance_quantile(block_sf).unwrap()
}

/// 95 % percentile-bootstrap intervals of the budget at 1e-12 with 200
/// resamples, the Newton kernel on counts and the oracle on the
/// materialized resample sharing every draw: `[newton, oracle]`.
fn bootstrap_intervals(sample: &[f64], seed: u64, kernel: &mut GumbelKernel) -> [(f64, f64); 2] {
    let tied = TiedSample::new(sample);
    let n = sample.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; tied.values().len()];
    let mut materialized = Vec::with_capacity(n);
    let mut budgets = [Vec::new(), Vec::new()];
    for _ in 0..200 {
        counts.fill(0);
        materialized.clear();
        for _ in 0..n {
            let k = tied.indices()[(rng.gen::<u64>() % n as u64) as usize];
            counts[k] += 1;
            materialized.push(tied.values()[k]);
        }
        if let Ok(fit) = kernel.fit(&tied, &counts) {
            budgets[0].push(budget(&fit, 1e-12));
        }
        if let Ok(fit) = oracle_fit_gumbel(&materialized) {
            budgets[1].push(budget(&fit, 1e-12));
        }
    }
    budgets.map(|mut b| {
        b.sort_by(f64::total_cmp);
        (
            proxima_stats::descriptive::quantile_sorted(&b, 0.025),
            proxima_stats::descriptive::quantile_sorted(&b, 0.975),
        )
    })
}

#[test]
fn bootstrap_coverage_is_no_worse_than_the_oracle() {
    // Campaign maxima drawn from a known Gumbel and rounded to whole
    // cycles (β = 8 cycles, so the maxima tie heavily), in the two
    // bucket sizes where the oracle fell back most: the first refit (10
    // maxima) and a serve rig's verdict (51).
    const SEEDS: u64 = 400;
    let truth = Gumbel::new(80_000.0, 8.0).unwrap();
    let target = budget(&truth, 1e-12);
    let mut kernel = GumbelKernel::default();
    for maxima in [10usize, 51] {
        let mut covered = [0u32; 2];
        for seed in 0..SEEDS {
            let sample = rounded_gumbel(&truth, maxima, 1_000 * maxima as u64 + seed);
            let intervals = bootstrap_intervals(&sample, seed, &mut kernel);
            for (hits, (lower, upper)) in covered.iter_mut().zip(intervals) {
                *hits += u32::from(lower <= target && target <= upper);
            }
        }
        let [newton, oracle] = covered.map(|c| f64::from(c) / SEEDS as f64);
        let sigma = (oracle * (1.0 - oracle) / SEEDS as f64).sqrt();
        println!(
            "{maxima} maxima: coverage newton {newton:.4}, oracle {oracle:.4} ({SEEDS} seeds)"
        );
        assert!(
            newton >= oracle - 3.0 * sigma,
            "{maxima} maxima: coverage {newton} < oracle {oracle} - 3 sigma ({sigma})"
        );
    }
}
