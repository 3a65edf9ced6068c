//! **E4 — Average performance**: the paper's claim that the hardware
//! randomization does not hurt average execution time ("there is not
//! noticeable difference").
//!
//! Compares DET against the RAND hardware *in operation mode* (randomized
//! caches/TLBs, natural FPU latency — the forced-worst FPU is an
//! analysis-phase setting, not a deployment cost) for the TVCA and every
//! auxiliary kernel of the benchmark suite.
//!
//! Only the TVCA row shows the randomized platform's average. Each of the
//! six kernels touches at most 256 data lines on at most 8 pages, so its
//! TLBs never fill, and none of them had a cache set with more lines than
//! ways at any of 2,000 seeds checked. Every miss is then compulsory, and
//! a kernel's run is the same at every seed: its RAND column is one
//! value, not an average over a distribution.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_avg
//! ```

use proxima_bench::{fmt_cycles, trace_campaign, tvca_campaign, BASE_SEED};
use proxima_sim::PlatformConfig;
use proxima_workload::bench_suite::Benchmark;
use proxima_workload::tvca::ControlMode;

fn main() {
    println!("=== E4: average performance, DET vs RAND (operation mode) ===\n");
    println!(
        "{:<16}{:>16}{:>16}{:>10}",
        "workload", "DET mean", "RAND mean", "delta"
    );

    let runs_rand = 500;
    let runs_det = 30;

    // TVCA first.
    let det = tvca_campaign(
        PlatformConfig::deterministic(),
        ControlMode::Nominal,
        runs_det,
        BASE_SEED,
    );
    let rand = tvca_campaign(
        PlatformConfig::mbpta_operation(),
        ControlMode::Nominal,
        runs_rand,
        BASE_SEED,
    );
    print_row("tvca", mean(det.times()), mean(rand.times()));

    // Auxiliary kernels.
    for bench in Benchmark::all() {
        let trace = bench.trace();
        let det = trace_campaign(PlatformConfig::deterministic(), &trace, runs_det, BASE_SEED);
        let rand = trace_campaign(
            PlatformConfig::mbpta_operation(),
            &trace,
            runs_rand,
            BASE_SEED,
        );
        print_row(bench.name(), mean(det.times()), mean(rand.times()));
    }

    println!("\npaper's claim: deltas are small (no noticeable average slowdown).");
    println!("note: stride-sweep is the deliberate pathological case — modulo");
    println!("placement maps its page-stride accesses to a single set, so random");
    println!("placement is dramatically FASTER there, not slower.");
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn print_row(name: &str, det: f64, rand: f64) {
    println!(
        "{:<16}{:>16}{:>16}{:>9.2}%",
        name,
        fmt_cycles(det),
        fmt_cycles(rand),
        100.0 * (rand - det) / det
    );
}
