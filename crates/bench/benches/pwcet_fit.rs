//! Criterion bench for experiment E2: the EVT fit behind Figure 2.
//!
//! Benchmarks block-maxima extraction, the Gumbel PWM and MLE fits, the
//! full `fit_tail` stage, pWCET curve evaluation, and the bootstrap
//! interval (200 resamples of 400 maxima) on tied and tie-free maxima.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxima_bench::{tvca_campaign, BASE_SEED};
use proxima_mbpta::confidence::interval_from_maxima;
use proxima_mbpta::evt_fit::fit_tail;
use proxima_mbpta::{BlockSpec, MbptaConfig, Pipeline, Pwcet};
use proxima_prng::{RandomSource, SplitMix64};
use proxima_sim::PlatformConfig;
use proxima_stats::evt::{block_maxima, fit_gumbel, fit_gumbel_pwm};
use proxima_workload::tvca::ControlMode;
use std::hint::black_box;

/// 400 block maxima of 50 values each. Tied: integer cycle counts
/// `100000 + 16·K`, `K` geometric (a few dozen distinct maxima); tie-free:
/// the same shape plus a uniform fraction of a cycle.
fn bootstrap_maxima(tied: bool) -> Vec<f64> {
    let mut rng = SplitMix64::new(BASE_SEED);
    (0..400)
        .map(|_| {
            (0..50)
                .map(|_| {
                    let mut k = 0u32;
                    while rng.next_f64() >= 0.2 {
                        k += 1;
                    }
                    let jitter = if tied { 0.0 } else { rng.next_f64() };
                    100_000.0 + 16.0 * (f64::from(k) + jitter)
                })
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_bootstrap");
    for (name, tied) in [("tied_200x400", true), ("continuous_200x400", false)] {
        let maxima = bootstrap_maxima(tied);
        let fit = fit_gumbel(&maxima).expect("fit");
        let estimate = Pwcet::new(fit, 50).budget_for(1e-12).expect("budget");
        group.bench_function(name, |b| {
            b.iter(|| {
                interval_from_maxima(black_box(&maxima), 50, estimate, 1e-12, 0.95, 200, 7, 1)
                    .expect("interval")
            })
        });
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let campaign = tvca_campaign(
        PlatformConfig::mbpta_compliant(),
        ControlMode::Nominal,
        3000,
        BASE_SEED,
    );
    let times = campaign.times().to_vec();
    let maxima = block_maxima(&times, 50).expect("maxima");

    let mut group = c.benchmark_group("e2_evt_fit");
    group.bench_function("block_maxima_3000/50", |b| {
        b.iter(|| block_maxima(black_box(&times), 50).expect("maxima"))
    });
    group.bench_function("gumbel_pwm_60", |b| {
        b.iter(|| fit_gumbel_pwm(black_box(&maxima)).expect("pwm"))
    });
    group.bench_function("gumbel_mle_60", |b| {
        b.iter(|| fit_gumbel(black_box(&maxima)).expect("mle"))
    });
    for block in [20usize, 50, 100] {
        group.bench_with_input(
            BenchmarkId::new("fit_tail_fixed", block),
            &block,
            |b, &bs| b.iter(|| fit_tail(black_box(&times), &BlockSpec::Fixed(bs)).expect("fit")),
        );
    }
    group.bench_function("full_pipeline_analyze", |b| {
        b.iter(|| {
            Pipeline::new(MbptaConfig::default())
                .analyze(black_box(&times))
                .expect("analysis")
        })
    });

    let fit = fit_tail(&times, &BlockSpec::Fixed(50)).expect("fit");
    let pwcet = Pwcet::new(fit.gumbel, fit.block_size);
    let probs: Vec<f64> = (3..=15).map(|e| 10f64.powi(-e)).collect();
    group.bench_function("pwcet_curve_13pts", |b| {
        b.iter(|| pwcet.curve(black_box(&probs)).expect("curve"))
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_bootstrap);
criterion_main!(benches);
