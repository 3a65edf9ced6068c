//! Two ways to trust a pWCET estimate: bootstrap confidence intervals on
//! the block-maxima fit, and a cross-check with the MBPTA-CV method.
//!
//! Certification argumentation (Stephenson et al., INDIN 2013) wants more
//! than a point estimate — this example shows the supporting evidence the
//! library can produce for a verification dossier.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example confidence_and_cv
//! ```

use proxima::mbpta::confidence::budget_interval;
use proxima::mbpta::cv::analyze_cv;
use proxima::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    let campaign = Campaign::measure(&mut platform, &trace, 2000, 10_000_000)?;

    // Block-maxima analysis with a bootstrap interval around the estimate.
    let report = MbptaConfig::default().analyze(campaign.times())?;
    let ci = budget_interval(campaign.times(), &report, 1e-12, 0.95, 500, 42)?;
    println!("block-maxima pWCET@1e-12: {:.0} cycles", ci.estimate);
    println!(
        "  95% bootstrap interval : [{:.0}, {:.0}]  ({:.1}% relative width)",
        ci.lower,
        ci.upper,
        ci.relative_width() * 100.0
    );

    // Independent cross-check with MBPTA-CV (exponential tail over a
    // CV-selected threshold — no block-size parameter).
    let cv = analyze_cv(campaign.times(), &MbptaConfig::default())?;
    let cv_budget = cv.budget_for(1e-12)?;
    println!(
        "MBPTA-CV pWCET@1e-12    : {cv_budget:.0} cycles (threshold {:.0}, {} exceedances, CV {:.3})",
        cv.fit.threshold, cv.fit.tail_size, cv.fit.cv
    );

    if cv_budget >= ci.lower && cv_budget <= ci.upper {
        println!("\nthe CV estimate falls inside the block-maxima interval:");
        println!("two independent tail models corroborate the budget.");
    } else {
        println!("\nWARNING: the two methods disagree beyond sampling noise —");
        println!("inspect the CV plot and the Gumbel goodness-of-fit before trusting either.");
    }
    Ok(())
}
