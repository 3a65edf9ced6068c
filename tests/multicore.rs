//! Multicore bus-contention behaviour (experiment A8 as assertions).

use proxima::prelude::*;
use proxima::sim::bus::BusModel;

fn contended_campaign(interfering: u64, runs: usize) -> Vec<f64> {
    let mut config = PlatformConfig::mbpta_compliant();
    config.bus = BusModel::leon3(interfering);
    let mut platform = Platform::new(config);
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    platform
        .campaign(&trace, runs, 10_000_000)
        .into_iter()
        .map(|o| o.cycles as f64)
        .collect()
}

#[test]
fn interference_raises_mean_monotonically() {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mut prev = 0.0;
    for k in 0..=3 {
        let m = mean(&contended_campaign(k, 120));
        assert!(m > prev, "mean must grow with interferers (k={k})");
        prev = m;
    }
}

#[test]
fn contended_campaign_remains_analysable() {
    // Randomized arbitration keeps the campaign i.i.d.: the full MBPTA
    // pipeline must run under worst contention.
    let times = contended_campaign(3, 600);
    let report = MbptaConfig::default()
        .analyze(&times)
        .expect("analysis under contention");
    assert!(report.iid.passed);
    let b = report.budget_for(1e-12).expect("budget");
    assert!(b > report.high_watermark());
}

#[test]
fn contention_increment_is_bounded() {
    // The worst-case increment per interferer is one bus slot per L1 miss:
    // mean(k=3) stays within a modest factor of mean(k=0).
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let m0 = mean(&contended_campaign(0, 100));
    let m3 = mean(&contended_campaign(3, 100));
    assert!(m3 < m0 * 1.5, "m0={m0} m3={m3}");
}

#[test]
fn contended_pwcet_dominates_uncontended() {
    let uncontended = MbptaConfig::default()
        .analyze(&contended_campaign(0, 600))
        .unwrap();
    let contended = MbptaConfig::default()
        .analyze(&contended_campaign(3, 600))
        .unwrap();
    let b0 = uncontended.budget_for(1e-12).unwrap();
    let b3 = contended.budget_for(1e-12).unwrap();
    assert!(b3 > b0, "contention must raise the pWCET ({b0} vs {b3})");
}
