//! DET vs MBPTA: the paper's Figure 3 comparison, interactively.
//!
//! Runs the TVCA on both platform personalities and prints:
//! * average execution times (DET vs RAND — should be comparable),
//! * the DET high watermark and the HWM+20%/+50% industrial bounds,
//! * pWCET estimates at cutoffs 10⁻³ … 10⁻¹⁵,
//! * the DET layout sensitivity the engineering factor is meant to cover.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example det_vs_mbpta
//! ```

use proxima::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    let runs = 1000;

    // RAND platform: the measurement campaign MBPTA consumes.
    let mut rand_platform = Platform::new(PlatformConfig::mbpta_compliant());
    let rand_campaign = Campaign::measure(&mut rand_platform, &trace, runs, 0)?;
    let report = MbptaConfig::default().analyze(rand_campaign.times())?;

    // DET platform: seed-insensitive, so "the" observed time per layout.
    let mut det_platform = Platform::new(PlatformConfig::deterministic());
    let det_campaign = Campaign::measure(&mut det_platform, &trace, runs.min(100), 0)?;

    let rand_summary = rand_campaign.summary()?;
    let det_summary = det_campaign.summary()?;
    println!("average execution time:");
    println!("  DET  : {:>12.1} cycles", det_summary.mean);
    println!(
        "  RAND : {:>12.1} cycles ({:+.2}% vs DET)",
        rand_summary.mean,
        100.0 * (rand_summary.mean - det_summary.mean) / det_summary.mean
    );

    println!("\nindustrial MBTA bounds (DET platform):");
    for margin in MbtaEstimate::customary_margins() {
        let est = MbtaEstimate::from_campaign(&det_campaign, margin)?;
        println!("  {est}");
    }

    println!("\nMBPTA pWCET estimates (RAND platform):");
    for exp in [3i32, 6, 9, 12, 15] {
        let budget = report.budget_for(10f64.powi(-exp))?;
        println!("  cutoff 1e-{exp:<2} : {budget:>12.0} cycles");
    }

    // The uncertainty the engineering factor is supposed to absorb:
    // different link-time layouts change the DET execution time.
    println!("\nDET layout sensitivity (same program, different link layouts):");
    let mut det_times = Vec::new();
    for layout in 0..8u64 {
        let t = Tvca::new(TvcaConfig {
            scale: Scale::Full,
            layout_seed: layout,
        });
        let cycles = det_platform.run(&t.trace(ControlMode::Nominal), 0).cycles;
        det_times.push(cycles as f64);
        println!("  layout {layout}: {cycles:>12} cycles");
    }
    let spread = (det_times.iter().cloned().fold(f64::MIN, f64::max)
        - det_times.iter().cloned().fold(f64::MAX, f64::min))
        / det_summary.mean
        * 100.0;
    println!("  spread: {spread:.2}% of the mean — unobserved layouts are the MBTA risk");
    Ok(())
}
