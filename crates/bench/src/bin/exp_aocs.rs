//! **E5 — Second case study**: the synthetic AOCS (attitude and orbit
//! control) application through the full MBPTA protocol.
//!
//! The paper evaluates one application; this experiment repeats every
//! headline claim — i.i.d. gate, tight pWCET curve, DET-comparable
//! averages, per-path envelope — on a structurally different space
//! workload (quaternion/Kalman/star-catalogue instead of a thrust control
//! loop), showing the result is a platform property rather than a TVCA
//! idiosyncrasy.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_aocs
//! ```

use proxima_bench::{fmt_cycles, trace_campaign, BASE_SEED};
use proxima_mbpta::baseline::MbtaEstimate;
use proxima_mbpta::paths::PerPathAnalysis;
use proxima_mbpta::risk::ActivationRate;
use proxima_mbpta::{Campaign, MbptaConfig};
use proxima_sim::PlatformConfig;
use proxima_workload::aocs::{Aocs, AocsConfig, AocsMode};

fn main() {
    println!("=== E5: AOCS second case study under the full MBPTA protocol ===\n");
    let aocs = Aocs::new(AocsConfig::default());
    let runs = 2000;

    // Per-path campaigns on the RAND platform.
    let labelled: Vec<(String, Vec<f64>)> = aocs
        .paths()
        .into_iter()
        .enumerate()
        .map(|(i, mode)| {
            let trace = aocs.trace(mode);
            let campaign = trace_campaign(
                PlatformConfig::mbpta_compliant(),
                &trace,
                runs,
                BASE_SEED + (i as u64) * 137_911,
            );
            (mode.to_string(), campaign.times().to_vec())
        })
        .collect();

    // Gate evidence for the nominal path.
    let tracking = MbptaConfig::default()
        .analyze(&labelled[0].1)
        .expect("tracking analysis");
    println!(
        "i.i.d. gate (tracking): Ljung-Box p={:.2}, two-sample KS p={:.2} => {}",
        tracking.iid.ljung_box.p_value,
        tracking.iid.ks.p_value,
        if tracking.iid.passed {
            "PASSED"
        } else {
            "REJECTED"
        }
    );

    // Per-path pWCET and the program envelope. A path whose execution
    // time is *constant* on the randomized platform (the safe-mode
    // fallback fits entirely in cache) has an exact WCET — MBPTA correctly
    // refuses to fit a tail to it, and the envelope takes its constant.
    let (probabilistic, exact): (Vec<_>, Vec<_>) = labelled
        .iter()
        .partition(|(_, times)| times.iter().any(|t| *t != times[0]));
    let probabilistic: Vec<(String, Vec<f64>)> = probabilistic.into_iter().cloned().collect();
    let analysis = PerPathAnalysis::run(&probabilistic, &MbptaConfig::default()).expect("per-path");
    println!("\n{:<14}{:>14}{:>18}", "path", "hwm", "pWCET@1e-12");
    for path in analysis.paths() {
        println!(
            "{:<14}{:>14}{:>18}",
            path.label,
            fmt_cycles(path.report.high_watermark()),
            fmt_cycles(path.report.budget_for(1e-12).expect("budget"))
        );
    }
    let mut envelope_label = String::new();
    let mut envelope = f64::MIN;
    let (worst, prob_envelope) = analysis.worst_path_budget(1e-12).expect("budget");
    if prob_envelope > envelope {
        envelope = prob_envelope;
        envelope_label = worst.to_string();
    }
    for (label, times) in &exact {
        let constant = times[0];
        println!(
            "{:<14}{:>14}{:>18}   (constant-time path: exact WCET)",
            label,
            fmt_cycles(constant),
            fmt_cycles(constant)
        );
        if constant > envelope {
            envelope = constant;
            envelope_label = label.clone();
        }
    }
    println!(
        "program envelope: {} (path `{envelope_label}`)",
        fmt_cycles(envelope)
    );

    // DET comparison.
    let det_trace = aocs.trace(AocsMode::Tracking);
    let det = trace_campaign(PlatformConfig::deterministic(), &det_trace, 30, BASE_SEED);
    let det_mean = det.times().iter().sum::<f64>() / det.times().len() as f64;
    let rand_mean = labelled[0].1.iter().sum::<f64>() / labelled[0].1.len() as f64;
    println!(
        "\naverages: DET {} vs RAND {} ({:+.2}%)",
        fmt_cycles(det_mean),
        fmt_cycles(rand_mean),
        100.0 * (rand_mean - det_mean) / det_mean
    );
    let det_campaign = Campaign::from_times(det.times().to_vec()).expect("campaign");
    let mbta = MbtaEstimate::from_campaign(&det_campaign, 0.5).expect("baseline");
    println!("industrial bound: {mbta}");

    // Standard-driven cutoff selection: a 10 Hz AOCS task with a 1e-9/hour
    // target.
    let rate = ActivationRate::from_hz(10.0).expect("rate");
    let cutoff = rate.per_activation_cutoff(1e-9).expect("cutoff");
    let budget = analysis.worst_path_budget(cutoff).expect("budget").1;
    println!(
        "\nstandard-driven budget: 1e-9/hour at 10 Hz => per-activation cutoff {cutoff:.2e} => {} cycles",
        fmt_cycles(budget)
    );
}
