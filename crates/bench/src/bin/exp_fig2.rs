//! **E2 — Figure 2**: pWCET estimates obtained with MBPTA for TVCA.
//!
//! The figure plots execution time (x) against exceedance probability on a
//! log scale (y): the staircase is the empirical survival of the observed
//! execution times; the straight line is the Gumbel projection, which must
//! tightly upper-bound the observations. This binary prints both series.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_fig2
//! ```

use proxima_bench::{fmt_cycles, tvca_campaign, BASE_SEED, PAPER_RUNS};
use proxima_mbpta::{render_pwcet_csv, render_survival_csv, MbptaConfig};
use proxima_sim::PlatformConfig;
use proxima_stats::ecdf::Ecdf;
use proxima_workload::tvca::ControlMode;

fn main() {
    println!("=== E2 (Figure 2): pWCET curve for TVCA on the RAND platform ===\n");
    let campaign = tvca_campaign(
        PlatformConfig::mbpta_compliant(),
        ControlMode::Nominal,
        PAPER_RUNS,
        BASE_SEED,
    );
    let report = MbptaConfig::default()
        .analyze(campaign.times())
        .expect("MBPTA");

    // Empirical survival staircase (sampled at round probabilities).
    let ecdf = Ecdf::new(campaign.times()).expect("ecdf");
    println!("observed execution times (empirical survival):");
    println!("{:>16}{:>16}", "cycles", "P(exceed)");
    for exp in 0..=3 {
        let p = 10f64.powi(-exp);
        // Largest observation exceeded with probability ≥ p.
        let q = ecdf.quantile(1.0 - p * 0.999).expect("quantile");
        println!("{:>16}{:>16.0e}", fmt_cycles(q), p);
    }
    println!(
        "{:>16}{:>16}",
        fmt_cycles(report.high_watermark()),
        "1/3000 (hwm)"
    );

    // The Gumbel projection (the straight line of the figure).
    println!(
        "\nMBPTA projection (Gumbel tail, block={}):",
        report.fit.block_size
    );
    println!("{:>16}{:>16}", "cycles", "P(exceed)");
    for exp in 3..=15 {
        let p = 10f64.powi(-exp);
        let budget = report.budget_for(p).expect("budget");
        println!("{:>16}{:>16.0e}", fmt_cycles(budget), p);
    }

    // Plot-data export for external tooling.
    let out_dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(out_dir).is_ok() {
        let probs: Vec<f64> = (3..=15).map(|e| 10f64.powi(-e)).collect();
        if let Ok(csv) = render_pwcet_csv(&report, &probs) {
            let _ = std::fs::write(out_dir.join("fig2_projection.csv"), csv);
        }
        if let Ok(csv) = render_survival_csv(campaign.times()) {
            let _ = std::fs::write(out_dir.join("fig2_observed.csv"), csv);
        }
        println!("\nplot data written to target/experiments/fig2_{{projection,observed}}.csv");
    }

    // The figure's qualitative claim.
    let b_at_hwm_level = report.budget_for(1.0 / PAPER_RUNS as f64).expect("budget");
    println!(
        "\nprojection at the 1/n level: {} vs observed hwm {} => {}",
        fmt_cycles(b_at_hwm_level),
        fmt_cycles(report.high_watermark()),
        if b_at_hwm_level >= report.high_watermark() * 0.995 {
            "tight upper bound (matches the figure)"
        } else {
            "UNDER the observations — investigate"
        }
    );
}
