//! Quickstart: measure the TVCA on the time-randomized platform, validate
//! i.i.d., fit the EVT tail and print the pWCET table.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use proxima::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The MBPTA-compliant platform: random-modulo placement + random
    // replacement caches and TLBs, FPU forced to worst-case latency.
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());

    // The synthetic Thrust Vector Control Application, nominal path.
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    println!(
        "TVCA nominal path: {} instructions / hyperperiod, data footprint {} bytes",
        trace.len(),
        tvca.data_footprint()
    );

    // Measurement campaign under the paper's protocol: flush caches and
    // reseed the hardware PRNG before every run.
    let runs = 1000;
    println!("running {runs} measured executions…");
    let campaign = Campaign::measure(&mut platform, &trace, runs, 0)?;

    // The MBPTA pipeline: i.i.d. gate → block maxima → Gumbel → pWCET.
    let report = MbptaConfig::default().analyze(campaign.times())?;
    println!("{}", render_report(&report));

    // Compare with the industrial high-watermark practice.
    let mbta = MbtaEstimate::from_campaign(&campaign, 0.5)?;
    println!("industrial baseline on the same data: {mbta}");
    Ok(())
}
