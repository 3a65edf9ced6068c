//! Bit-identity battery for the tie-compressed Gumbel fit kernel.
//!
//! [`fit_gumbel`] and [`GumbelKernel::fit`] must return exactly what the
//! per-element maximum-likelihood loop they replaced returns: the same
//! `μ` and `β` bits on success, the same error on failure. That loop is
//! kept below, verbatim, as the oracle.

use proxima_stats::descriptive::pwm_sorted;
use proxima_stats::dist::Gumbel;
use proxima_stats::evt::{fit_gumbel, GumbelKernel, TiedSample};
use proxima_stats::special::EULER_GAMMA;
use proxima_stats::StatsError;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The oracle: the per-element PWM + MLE fit, verbatim (the crate-private
// `check_len` inlined).
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
    let pwm = oracle_fit_gumbel_pwm(maxima)?;
    let n = maxima.len() as f64;
    let mean: f64 = maxima.iter().sum::<f64>() / n;
    let ys: Vec<f64> = maxima.iter().map(|&x| x - mean).collect();
    let mut beta = pwm.beta();
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
        return Ok(pwm);
    }
    let sum_e: f64 = ys.iter().map(|&y| (-y / beta).exp()).sum();
    let mu = mean - beta * (sum_e / n).ln();
    Gumbel::new(mu, beta).or(Ok(pwm))
}

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

/// The same outcome, down to the bits of `μ` and `β`.
fn assert_same(label: &str, got: &Result<Gumbel, StatsError>, want: &Result<Gumbel, StatsError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.mu().to_bits(), w.mu().to_bits(), "{label}: mu");
            assert_eq!(g.beta().to_bits(), w.beta().to_bits(), "{label}: beta");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error"),
        _ => panic!("{label}: kernel {got:?} vs oracle {want:?}"),
    }
}

/// `fit_gumbel` against the oracle on `sample`.
fn check(label: &str, sample: &[f64]) -> Result<Gumbel, StatsError> {
    let want = oracle_fit_gumbel(sample);
    assert_same(label, &fit_gumbel(sample), &want);
    want
}

/// Bootstrap-style resamples of `sample` through one reused kernel,
/// each against the oracle on the materialized resample.
fn check_resamples(label: &str, sample: &[f64], kernel: &mut GumbelKernel, seed: u64) {
    let tied = TiedSample::new(sample);
    let n = sample.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut draw = vec![0usize; n];
    for r in 0..12 {
        for slot in draw.iter_mut() {
            *slot = tied.indices()[(rng.gen::<u64>() % n as u64) as usize];
        }
        let materialized: Vec<f64> = draw.iter().map(|&k| tied.values()[k]).collect();
        let want = oracle_fit_gumbel(&materialized);
        assert_same(
            &format!("{label} resample {r}"),
            &kernel.fit(&tied, &draw),
            &want,
        );
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

// ---------------------------------------------------------------------
// The battery.
// ---------------------------------------------------------------------

#[test]
fn tied_cycle_count_maxima_match_the_oracle() {
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
fn continuous_maxima_match_the_oracle() {
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
        assert_same(
            label,
            &kernel.fit(&tied, tied.indices()),
            &oracle_fit_gumbel(sample),
        );
    }
}

#[test]
fn two_valued_samples_match_the_oracle() {
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
fn exactly_ten_elements_match_the_oracle() {
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
fn extreme_magnitudes_match_the_oracle() {
    let mut kernel = GumbelKernel::default();
    let tied = tied_maxima(120, 50, 0.2, 41);
    let smooth = continuous_maxima(120, 50, 42);
    for (label, base) in [("tied", &tied), ("continuous", &smooth)] {
        for scale in [1e10, 1e-305, 1e-313] {
            let scaled: Vec<f64> = base.iter().map(|&x| x * scale).collect();
            check(&format!("{label} x {scale:e}"), &scaled).ok();
            check_resamples(&format!("{label} x {scale:e}"), &scaled, &mut kernel, 43);
        }
        // Offsets near 1e15: the spread survives, the low bits do not.
        let shifted: Vec<f64> = base.iter().map(|&x| x + 1e15).collect();
        check(&format!("{label} + 1e15"), &shifted).ok();
        check_resamples(&format!("{label} + 1e15"), &shifted, &mut kernel, 44);
        // Near the top of the range: sums and PWM differences overflow.
        let huge: Vec<f64> = base.iter().map(|&x| x * 1.5e302).collect();
        check(&format!("{label} x 1.5e302"), &huge).ok();
    }
    // Tiny values straddling zero, spread over the subnormals.
    let subnormal: Vec<f64> = (0..40).map(|i| f64::from(i % 9 - 4) * 1e-310).collect();
    check("subnormal", &subnormal).ok();
    check_resamples("subnormal", &subnormal, &mut kernel, 45);
}

#[test]
fn signed_zero_mixes_match_the_oracle() {
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
fn non_converging_fit_falls_back_to_pwm_like_the_oracle() {
    // One low outlier under nine equal maxima: the MLE fixed point does
    // not settle within 200 iterations, so both sides return the PWM.
    let sample = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let fit = check("low outlier", &sample).unwrap();
    let pwm = oracle_fit_gumbel_pwm(&sample).unwrap();
    assert_eq!(fit.mu().to_bits(), pwm.mu().to_bits());
    assert_eq!(fit.beta().to_bits(), pwm.beta().to_bits());
    let shifted: Vec<f64> = (0..49).map(|i| 1e9 + f64::from(i)).chain([0.0]).collect();
    let fit = check("shifted low outlier", &shifted).unwrap();
    let pwm = oracle_fit_gumbel_pwm(&shifted).unwrap();
    assert_eq!(fit.beta().to_bits(), pwm.beta().to_bits());
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
    // A non-finite distinct value the draw never reaches must not fail
    // the fit, exactly as the materialized resample would not contain it.
    let mut sample: Vec<f64> = tied_maxima(30, 50, 0.2, 60);
    sample.push(f64::NAN);
    let tied = TiedSample::new(&sample);
    let nan_slot = tied.values().len() - 1;
    assert!(tied.values()[nan_slot].is_nan());
    let draw: Vec<usize> = tied.indices()[..30].to_vec();
    let materialized: Vec<f64> = draw.iter().map(|&k| tied.values()[k]).collect();
    let mut kernel = GumbelKernel::default();
    assert_same(
        "unreached nan",
        &kernel.fit(&tied, &draw),
        &oracle_fit_gumbel(&materialized),
    );
    assert!(kernel.fit(&tied, &draw).is_ok());
    let mut with_nan = draw.clone();
    with_nan[4] = nan_slot;
    assert_eq!(
        kernel.fit(&tied, &with_nan).unwrap_err(),
        StatsError::NonFiniteData
    );
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
