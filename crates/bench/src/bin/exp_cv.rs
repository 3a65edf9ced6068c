//! **A7 — MBPTA-CV vs block maxima**: the same campaign analysed with the
//! DATE 2017 block-maxima process and with the successor MBPTA-CV method
//! (residual coefficient of variation + exponential tail), plus bootstrap
//! confidence intervals on the block-maxima estimate.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_cv
//! ```

use proxima_bench::{fmt_cycles, tvca_campaign, BASE_SEED, PAPER_RUNS};
use proxima_mbpta::confidence::budget_interval;
use proxima_mbpta::cv::analyze_cv;
use proxima_mbpta::MbptaConfig;
use proxima_sim::PlatformConfig;
use proxima_workload::tvca::ControlMode;

fn main() {
    println!("=== A7: block-maxima MBPTA vs MBPTA-CV on the same campaign ===\n");
    let campaign = tvca_campaign(
        PlatformConfig::mbpta_compliant(),
        ControlMode::Nominal,
        PAPER_RUNS,
        BASE_SEED,
    );
    let config = MbptaConfig::default();
    let bm = config
        .analyze(campaign.times())
        .expect("block-maxima analysis");
    let cv = analyze_cv(campaign.times(), &config).expect("cv analysis");

    println!(
        "MBPTA-CV threshold selection: u={} keeping {} exceedances (residual CV {:.3})",
        fmt_cycles(cv.fit.threshold),
        cv.fit.tail_size,
        cv.fit.cv
    );
    println!(
        "block-maxima fit: Gumbel(mu={}, beta={:.1}) on block {}\n",
        fmt_cycles(bm.fit.gumbel.mu()),
        bm.fit.gumbel.beta(),
        bm.fit.block_size
    );

    println!(
        "{:<12}{:>16}{:>16}{:>10}",
        "cutoff", "block-maxima", "mbpta-cv", "cv/bm"
    );
    for exp in [6i32, 9, 12, 15] {
        let p = 10f64.powi(-exp);
        let b_bm = bm.budget_for(p).expect("bm budget");
        let b_cv = cv.budget_for(p).expect("cv budget");
        println!(
            "{:<12}{:>16}{:>16}{:>10.3}",
            format!("1e-{exp}"),
            fmt_cycles(b_bm),
            fmt_cycles(b_cv),
            b_cv / b_bm
        );
    }

    let ci =
        budget_interval(campaign.times(), &bm, 1e-12, 0.95, 500, 42).expect("bootstrap interval");
    println!(
        "\n95% bootstrap CI for the block-maxima pWCET@1e-12: [{}, {}] ({}% relative width, {} resamples)",
        fmt_cycles(ci.lower),
        fmt_cycles(ci.upper),
        (ci.relative_width() * 100.0).round(),
        ci.resamples
    );
    let b_cv12 = cv.budget_for(1e-12).expect("cv budget");
    println!(
        "MBPTA-CV estimate {} the block-maxima CI — the two methods {}",
        if b_cv12 >= ci.lower && b_cv12 <= ci.upper {
            "falls inside"
        } else {
            "falls outside"
        },
        if b_cv12 >= ci.lower && b_cv12 <= ci.upper {
            "corroborate each other"
        } else {
            "disagree: investigate the tail"
        },
    );
}
