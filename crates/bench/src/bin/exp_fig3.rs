//! **E3 — Figure 3**: MBPTA vs DET observed execution times.
//!
//! The figure's bars: DET and RAND average execution times (comparable),
//! the DET high watermark, the industrial bounds HWM+20% / HWM+50%, and
//! the MBPTA pWCET estimates at cutoff probabilities 10⁻⁶ … 10⁻¹⁵, which
//! start around the HWM+50% level and stay within the same order of
//! magnitude. The DET layout sweep underneath quantifies the uncertainty
//! the engineering factor is guessing at.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_fig3
//! ```

use proxima_bench::{fmt_cycles, tvca_campaign, BASE_SEED, PAPER_RUNS};
use proxima_mbpta::baseline::MbtaEstimate;
use proxima_mbpta::MbptaConfig;
use proxima_sim::{Platform, PlatformConfig};
use proxima_workload::tvca::{ControlMode, Scale, Tvca, TvcaConfig};

fn main() {
    println!("=== E3 (Figure 3): MBPTA vs DET for TVCA ===\n");

    // RAND campaign + analysis.
    let rand_campaign = tvca_campaign(
        PlatformConfig::mbpta_compliant(),
        ControlMode::Nominal,
        PAPER_RUNS,
        BASE_SEED,
    );
    let report = MbptaConfig::default()
        .analyze(rand_campaign.times())
        .expect("MBPTA");
    let rand_summary = rand_campaign.summary().expect("summary");

    // DET campaign (seed-insensitive: a handful of runs suffices).
    let det_campaign = tvca_campaign(
        PlatformConfig::deterministic(),
        ControlMode::Nominal,
        50,
        BASE_SEED,
    );
    let det_summary = det_campaign.summary().expect("summary");

    println!("{:<34}{:>16}", "bar", "cycles");
    println!("{:<34}{:>16}", "DET average", fmt_cycles(det_summary.mean));
    println!(
        "{:<34}{:>16}   ({:+.2}% vs DET)",
        "RAND average",
        fmt_cycles(rand_summary.mean),
        100.0 * (rand_summary.mean - det_summary.mean) / det_summary.mean
    );
    println!(
        "{:<34}{:>16}",
        "DET high watermark",
        fmt_cycles(det_summary.max)
    );
    for margin in MbtaEstimate::customary_margins() {
        let est = MbtaEstimate::from_campaign(&det_campaign, margin).expect("baseline");
        println!(
            "{:<34}{:>16}",
            format!("MBTA bound (HWM+{:.0}%)", margin * 100.0),
            fmt_cycles(est.bound)
        );
    }
    for exp in [6i32, 9, 12, 15] {
        let budget = report.budget_for(10f64.powi(-exp)).expect("budget");
        println!(
            "{:<34}{:>16}   ({:.2}x DET hwm)",
            format!("pWCET @ 1e-{exp}"),
            fmt_cycles(budget),
            budget / det_summary.max
        );
    }

    // The layout sensitivity MBTA's margin is supposed to cover.
    println!("\nDET layout sweep (same program, different link layouts):");
    let mut det_platform = Platform::new(PlatformConfig::deterministic());
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for layout in 0..10u64 {
        let tvca = Tvca::new(TvcaConfig {
            scale: Scale::Full,
            layout_seed: layout,
        });
        let cycles = det_platform
            .run(&tvca.trace(ControlMode::Nominal), 0)
            .cycles as f64;
        lo = lo.min(cycles);
        hi = hi.max(cycles);
        println!("  layout {layout}: {}", fmt_cycles(cycles));
    }
    println!(
        "  spread {} .. {} ({:.2}% of mean) — the uncertainty the engineering factor guesses at",
        fmt_cycles(lo),
        fmt_cycles(hi),
        100.0 * (hi - lo) / det_summary.mean
    );
}
