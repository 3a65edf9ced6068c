//! Oracle battery for the i.i.d. kernels.
//!
//! [`autocorrelation`] sums every lag in one sweep over `t`, and
//! [`quantile`] (so also `median` and [`runs_test`]) selects the order
//! statistics it interpolates instead of sorting a copy. The code they
//! replaced is kept below, verbatim but for the crate-private
//! `check_len` inlined, as the oracle. Every result must have the
//! oracle's bits — errors included — across the whole `f64` domain:
//! tied integers, non-integers, magnitudes near 1e-300 and 1e300,
//! signed zeros, runs of duplicates, a constant stretch with one outlier
//! and, for the quantile, NaN and infinities; every lag 1–20 from the
//! shortest sample it accepts up.

use proxima_stats::autocorr::autocorrelation;
use proxima_stats::descriptive::{median, quantile, quantile_select};
use proxima_stats::dist::{ChiSquared, ContinuousDistribution};
use proxima_stats::float::exactly_zero;
use proxima_stats::special::std_normal_sf;
use proxima_stats::tests::{ljung_box, runs_test, TestResult};
use proxima_stats::StatsError;

// ---------------------------------------------------------------------
// The oracle: the per-lag `Sum` autocorrelation, the Ljung-Box over it,
// and the sort-based quantile with the runs test over its median.
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

fn oracle_autocorrelation(sample: &[f64], max_lag: usize) -> Result<Vec<f64>, StatsError> {
    if max_lag == 0 {
        return Err(StatsError::InvalidArgument {
            what: "max_lag must be at least 1",
        });
    }
    oracle_check_len(sample, max_lag + 2)?;
    let n = sample.len();
    let mean = sample.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = sample.iter().map(|x| x - mean).collect();
    let denom: f64 = centered.iter().map(|c| c * c).sum();
    if exactly_zero(denom) {
        return Err(StatsError::DegenerateSample);
    }
    let mut rho = Vec::with_capacity(max_lag);
    for k in 1..=max_lag {
        let num: f64 = (0..n - k).map(|t| centered[t] * centered[t + k]).sum();
        rho.push(num / denom);
    }
    Ok(rho)
}

fn oracle_ljung_box(sample: &[f64], max_lag: usize) -> Result<TestResult, StatsError> {
    let rho = oracle_autocorrelation(sample, max_lag)?;
    let n = sample.len() as f64;
    let q: f64 = n
        * (n + 2.0)
        * rho
            .iter()
            .enumerate()
            .map(|(i, r)| r * r / (n - (i + 1) as f64))
            .sum::<f64>();
    let chi2 = ChiSquared::new(max_lag as f64)?;
    Ok(TestResult {
        statistic: q,
        p_value: chi2.survival(q),
    })
}

fn oracle_quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// The sort half of the replaced `quantile`, without its checks, so it
/// runs on NaN and infinities too.
fn oracle_quantile_unchecked(sample: &[f64], p: f64) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    oracle_quantile_sorted(&sorted, p)
}

fn oracle_quantile(sample: &[f64], p: f64) -> Result<f64, StatsError> {
    oracle_check_len(sample, 1)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidArgument {
            what: "quantile probability must be in [0, 1]",
        });
    }
    Ok(oracle_quantile_unchecked(sample, p))
}

fn oracle_runs_test(sample: &[f64]) -> Result<TestResult, StatsError> {
    oracle_check_len(sample, 20)?;
    let med = oracle_quantile(sample, 0.5)?;
    let signs: Vec<bool> = sample
        .iter()
        .filter(|&&x| x != med)
        .map(|&x| x > med)
        .collect();
    if signs.len() < 20 {
        return Err(StatsError::InsufficientData {
            needed: 20,
            got: signs.len(),
        });
    }
    let n_pos = signs.iter().filter(|&&s| s).count() as f64;
    let n_neg = signs.len() as f64 - n_pos;
    if exactly_zero(n_pos) || exactly_zero(n_neg) {
        return Err(StatsError::DegenerateSample);
    }
    let runs = 1 + signs.windows(2).filter(|w| w[0] != w[1]).count();
    let n = n_pos + n_neg;
    let mean = 2.0 * n_pos * n_neg / n + 1.0;
    let var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0));
    let z = (runs as f64 - mean) / var.sqrt();
    let p = 2.0 * std_normal_sf(z.abs());
    Ok(TestResult {
        statistic: z,
        p_value: p.min(1.0),
    })
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// SplitMix64: a deterministic uniform stream (no clock, no OS entropy).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const FAMILIES: [&str; 10] = [
    "tied integers",
    "non-integers",
    "near 1e-300",
    "near 1e300",
    "mixed magnitudes",
    "signed zeros",
    "only signed zeros",
    "runs of duplicates",
    "constant with one outlier",
    "decimal constant with one outlier",
];

/// `n` finite values of input family `family`.
fn sample(family: &str, n: usize, seed: u64) -> Vec<f64> {
    let mut mix = Mix(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ n as u64);
    let outlier = mix.below(n as u64) as usize;
    let mut run_left = 0u64;
    let mut run_value = 0.0;
    (0..n)
        .map(|i| match family {
            "tied integers" => 78_000.0 + 24.0 * mix.below(6) as f64,
            "non-integers" => 1e5 + 150.0 * mix.unit(),
            "near 1e-300" => 1e-300 * (1.0 + mix.unit()),
            "near 1e300" => 1e300 * (1.0 + mix.unit()),
            "mixed magnitudes" => {
                let sign = if mix.below(2) == 0 { 1.0 } else { -1.0 };
                sign * 10f64.powf(600.0 * mix.unit() - 300.0)
            }
            "signed zeros" => [0.0, -0.0, 1.0, -1.0][mix.below(4) as usize],
            "only signed zeros" => [0.0, -0.0][mix.below(2) as usize],
            "runs of duplicates" => {
                if run_left == 0 {
                    run_left = 1 + mix.below(8);
                    run_value = [3.5, 7.25, 1e3, -2.0][mix.below(4) as usize];
                }
                run_left -= 1;
                run_value
            }
            "constant with one outlier" => {
                if i == outlier {
                    1e6
                } else {
                    5.0
                }
            }
            "decimal constant with one outlier" => {
                if i == outlier {
                    0.3
                } else {
                    0.1
                }
            }
            other => panic!("unknown family {other}"),
        })
        .collect()
}

/// `xs` with NaN (both signs, two payloads) and infinities written over
/// a few seeded positions.
fn with_non_finite(mut xs: Vec<f64>, seed: u64) -> Vec<f64> {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut mix = Mix(seed ^ 0x5EED);
    let count = 1 + mix.below(specials.len() as u64) as usize;
    for _ in 0..count {
        let at = mix.below(xs.len() as u64) as usize;
        xs[at] = specials[mix.below(specials.len() as u64) as usize];
    }
    xs
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn test_bits(r: Result<TestResult, StatsError>) -> Result<(u64, u64), StatsError> {
    r.map(|t| (t.statistic.to_bits(), t.p_value.to_bits()))
}

const PROBABILITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

// ---------------------------------------------------------------------
// The battery.
// ---------------------------------------------------------------------

#[test]
fn autocorrelation_and_ljung_box_match_the_per_lag_sums() {
    let mut degenerate = 0;
    let mut non_finite = 0;
    let mut checked = 0;
    for family in FAMILIES {
        for seed in 0..3 {
            for max_lag in 1..=20 {
                let lengths = (max_lag + 2..=max_lag + 12).chain([50, 137, 500]);
                for n in lengths.filter(|&n| n >= max_lag + 2) {
                    let xs = sample(family, n, seed);
                    let got = autocorrelation(&xs, max_lag).map(|r| bits(&r));
                    let want = oracle_autocorrelation(&xs, max_lag).map(|r| bits(&r));
                    assert_eq!(got, want, "{family}, seed {seed}, n {n}, lag {max_lag}");
                    checked += 1;
                    match &want {
                        Err(_) => degenerate += 1,
                        Ok(rho) if rho.iter().any(|r| !f64::from_bits(*r).is_finite()) => {
                            // Squares near 1e300 overflow, so ρ̂ is NaN;
                            // the χ² survival asserts on a NaN Q, in the
                            // oracle as in the kernel, so these inputs
                            // check the autocorrelation alone.
                            non_finite += 1;
                            continue;
                        }
                        Ok(_) => {}
                    }
                    assert_eq!(
                        test_bits(ljung_box(&xs, max_lag)),
                        test_bits(oracle_ljung_box(&xs, max_lag)),
                        "Ljung-Box: {family}, seed {seed}, n {n}, lag {max_lag}"
                    );
                }
            }
        }
    }
    // The domain reached degenerate and overflowing inputs, not only
    // well-behaved ones.
    assert!(degenerate > 0 && non_finite > 0 && checked > degenerate + non_finite);
}

#[test]
fn autocorrelation_errors_match_the_oracle() {
    let xs = sample("non-integers", 30, 1);
    for (sample, max_lag) in [
        (&xs[..], 0),
        (&xs[..5], 4),
        (&xs[..], 29),
        (&[1.0, f64::NAN, 3.0, 4.0][..], 1),
        (&[2.0, f64::INFINITY, 3.0, 4.0][..], 2),
    ] {
        assert_eq!(
            autocorrelation(sample, max_lag).map(|r| bits(&r)),
            oracle_autocorrelation(sample, max_lag).map(|r| bits(&r)),
            "lag {max_lag} over {} values",
            sample.len()
        );
    }
}

/// A lag whose products are all `-0.0` sums to `-0.0` only from the
/// `-0.0` that `Sum<f64>` starts at; from `+0.0` it would be `+0.0`.
#[test]
fn a_lag_of_negative_zero_products_keeps_its_sign() {
    // Mean 10 exactly, so the centered values are -1, -1, 2, +0, +0 and
    // lag 3 multiplies each -1 by a +0.
    let xs = [9.0, 9.0, 12.0, 10.0, 10.0];
    let got = autocorrelation(&xs, 3).unwrap();
    assert_eq!(bits(&got), bits(&oracle_autocorrelation(&xs, 3).unwrap()));
    assert_eq!(got[2].to_bits(), (-0.0f64).to_bits());
}

#[test]
fn quantile_by_selection_matches_the_sorted_copy() {
    for family in FAMILIES {
        for seed in 0..3 {
            for n in (1..=12).chain([50, 137, 500]) {
                let finite = sample(family, n, seed);
                let inputs = [finite.clone(), with_non_finite(finite, seed + n as u64)];
                for xs in &inputs {
                    for p in PROBABILITIES {
                        let got = quantile_select(&mut xs.clone(), p);
                        let want = oracle_quantile_unchecked(xs, p);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{family}, seed {seed}, n {n}, p {p}: {got} vs {want}"
                        );
                        assert_eq!(
                            quantile(xs, p).map(f64::to_bits),
                            oracle_quantile(xs, p).map(f64::to_bits),
                            "checked: {family}, seed {seed}, n {n}, p {p}"
                        );
                    }
                    assert_eq!(
                        median(xs).map(f64::to_bits),
                        oracle_quantile(xs, 0.5).map(f64::to_bits)
                    );
                }
            }
        }
    }
}

#[test]
fn quantile_of_non_finite_values_follows_total_order() {
    // Negative NaN sorts first and positive NaN last under `total_cmp`;
    // an infinite endpoint interpolates to NaN. Selection must agree.
    let cases: [&[f64]; 5] = [
        &[f64::NAN, 1.0, -f64::NAN, 2.0],
        &[f64::INFINITY, 3.0, f64::NEG_INFINITY, 0.0, -0.0],
        &[f64::INFINITY; 3],
        &[-f64::NAN, f64::from_bits(0xFFF0_0000_0000_0001), 7.0],
        &[f64::NAN],
    ];
    for xs in cases {
        for p in PROBABILITIES.into_iter().chain([0.1, 0.9, 0.999]) {
            assert_eq!(
                quantile_select(&mut xs.to_vec(), p).to_bits(),
                oracle_quantile_unchecked(xs, p).to_bits(),
                "{xs:?} at p {p}"
            );
        }
        assert_eq!(
            quantile(xs, 0.5).map(f64::to_bits),
            Err(StatsError::NonFiniteData)
        );
    }
}

#[test]
fn runs_test_matches_the_sorted_median() {
    for family in FAMILIES {
        for seed in 0..3 {
            for n in [19, 20, 21, 50, 137, 500] {
                let xs = sample(family, n, seed);
                assert_eq!(
                    test_bits(runs_test(&xs)),
                    test_bits(oracle_runs_test(&xs)),
                    "{family}, seed {seed}, n {n}"
                );
            }
        }
    }
}
