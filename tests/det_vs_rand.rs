//! The DET-vs-RAND comparisons behind Figure 3 and the average-performance
//! claim.

use proxima::prelude::*;

fn measure(config: PlatformConfig, layout_seed: u64, runs: usize, seed: u64) -> Vec<f64> {
    let mut platform = Platform::new(config);
    let tvca = Tvca::new(TvcaConfig {
        scale: Scale::Full,
        layout_seed,
    });
    let trace = tvca.trace(ControlMode::Nominal);
    platform
        .campaign(&trace, runs, seed)
        .into_iter()
        .map(|o| o.cycles as f64)
        .collect()
}

#[test]
fn average_performance_comparable() {
    // The paper: "there is not noticeable difference" between DET and RAND
    // average execution times. Allow a 5% band.
    let det: f64 = measure(PlatformConfig::deterministic(), 0, 30, 0)
        .iter()
        .sum::<f64>()
        / 30.0;
    let rand: f64 = measure(PlatformConfig::mbpta_compliant(), 0, 200, 0)
        .iter()
        .sum::<f64>()
        / 200.0;
    let rel = (rand - det).abs() / det;
    assert!(
        rel < 0.05,
        "DET {det:.0} vs RAND {rand:.0} ({:.1}%)",
        rel * 100.0
    );
}

#[test]
fn det_is_layout_sensitive_rand_is_not() {
    // DET: the layout decides the conflict pattern → per-layout times vary.
    let det_by_layout: Vec<f64> = (0..6)
        .map(|l| measure(PlatformConfig::deterministic(), l, 1, 0)[0])
        .collect();
    let det_min = det_by_layout.iter().cloned().fold(f64::MAX, f64::min);
    let det_max = det_by_layout.iter().cloned().fold(f64::MIN, f64::max);
    assert!(det_max > det_min, "layouts must differ on DET");

    // RAND: the per-layout *mean* stays put (placement randomization
    // absorbs the layout), even though individual runs vary.
    let rand_means: Vec<f64> = (0..6)
        .map(|l| {
            let xs = measure(PlatformConfig::mbpta_compliant(), l, 120, 1000 * l);
            xs.iter().sum::<f64>() / xs.len() as f64
        })
        .collect();
    let rm_min = rand_means.iter().cloned().fold(f64::MAX, f64::min);
    let rm_max = rand_means.iter().cloned().fold(f64::MIN, f64::max);
    let rand_spread = (rm_max - rm_min) / rm_min;
    let det_spread = (det_max - det_min) / det_min;
    assert!(
        rand_spread < det_spread,
        "RAND spread {rand_spread:.4} should be below DET spread {det_spread:.4}"
    );
}

#[test]
fn pwcet_within_same_order_of_magnitude_as_det() {
    // Figure 3's quantitative shape: pWCET estimates remain within the
    // same order of magnitude as the DET observations, starting around
    // +50% at cutoff 1e-6.
    let det = measure(PlatformConfig::deterministic(), 0, 1, 0)[0];
    let rand_times = measure(PlatformConfig::mbpta_compliant(), 0, 1000, 0);
    let report = MbptaConfig::default()
        .analyze(&rand_times)
        .expect("analysis");
    for exp in [6i32, 9, 12, 15] {
        let budget = report.budget_for(10f64.powi(-exp)).expect("budget");
        let ratio = budget / det;
        assert!(
            ratio > 0.9 && ratio < 10.0,
            "cutoff 1e-{exp}: ratio {ratio:.2} out of the order-of-magnitude band"
        );
    }
}

#[test]
fn mbta_baseline_with_50_percent_margin_is_competitive() {
    // MBTA(HWM+50%) and pWCET@1e-6 should be in the same ballpark — the
    // paper's "competitive" claim.
    let mut det_platform = Platform::new(PlatformConfig::deterministic());
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    let det_campaign = Campaign::measure(&mut det_platform, &trace, 50, 0).expect("campaign");
    let mbta = MbtaEstimate::from_campaign(&det_campaign, 0.5).expect("baseline");

    let rand_times = measure(PlatformConfig::mbpta_compliant(), 0, 1000, 0);
    let report = MbptaConfig::default()
        .analyze(&rand_times)
        .expect("analysis");
    let pwcet6 = report.budget_for(1e-6).expect("budget");

    let ratio = pwcet6 / mbta.bound;
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "pWCET@1e-6 {pwcet6:.0} vs MBTA+50% {:.0} (ratio {ratio:.2})",
        mbta.bound
    );
}
