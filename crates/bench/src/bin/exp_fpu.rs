//! **A4 — FPU latency mode ablation**: why FDIV/FSQRT are forced to their
//! worst-case latency during the analysis phase.
//!
//! With a value-dependent FPU, a campaign whose inputs happen to exercise
//! fast operands *under-estimates* operation-time behaviour on slower
//! operands — a silent unsoundness. Forcing worst-case latency at analysis
//! makes the analysis-time FPU impact a guaranteed upper bound.
//!
//! The TVCA's nominal path has too few divides for the effect to beat the
//! cache jitter, so this experiment uses a guidance kernel that is
//! FDIV/FSQRT-heavy (the workload class the paper's FPU change exists
//! for), measured three ways:
//!
//! 1. analysis campaign, FPU **forced-worst** (the paper's platform);
//! 2. analysis campaign, FPU **variable**, with the benign operand values
//!    the test inputs happen to produce;
//! 3. "operation": the same kernel on worst-class operands.
//!
//! ```text
//! cargo run --release -p proxima-bench --bin exp_fpu
//! ```

use proxima_bench::{fmt_cycles, trace_campaign, BASE_SEED};
use proxima_mbpta::MbptaConfig;
use proxima_sim::{FpuLatencyMode, Inst, PlatformConfig, ValueClass};
use proxima_workload::kernels;
use proxima_workload::trace::{DataObject, TraceBuilder};

/// A guidance kernel: repeated vector normalizations + calibration
/// interpolation, all FDIV/FSQRT-heavy, with cache pressure from a table
/// spread over several alignment windows.
fn guidance_trace(class: ValueClass) -> Vec<Inst> {
    let mut b = TraceBuilder::new(0x4200_0000);
    let vectors = DataObject::new(0x7100_0000, 256, 4);
    let out = DataObject::new(0x7100_2000, 256, 4);
    let table = DataObject::new(0x7100_4000, 1024, 4);
    let queries = DataObject::new(0x7100_9000, 64, 4);
    let results = DataObject::new(0x7100_B000, 64, 4);
    // Navigation state across a few alignment windows: enough placement
    // jitter for the i.i.d. gate, small enough that the FPU term dominates.
    let state: Vec<DataObject> = (0..6)
        .map(|i| DataObject::new(0x7200_0000 + i * 0x1000, 256, 4))
        .collect();
    b.loop_n(16, |b, _| {
        for s in &state {
            b.stream_load(s);
        }
        kernels::vec_normalize(b, &vectors, &out, class);
        kernels::table_interp(b, &table, &queries, &results, class);
    });
    b.finish()
}

fn main() {
    println!("=== A4: FPU forced-worst vs variable latency at analysis ===\n");

    let runs = 1000;
    // Analysis campaigns: benign (fast-class) operands, both FPU modes.
    let analysis_trace = guidance_trace(ValueClass::Fast);
    let mut forced_cfg = PlatformConfig::mbpta_compliant();
    forced_cfg.fpu_mode = FpuLatencyMode::ForcedWorst;
    let mut variable_cfg = PlatformConfig::mbpta_compliant();
    variable_cfg.fpu_mode = FpuLatencyMode::Variable;

    let forced = trace_campaign(forced_cfg, &analysis_trace, runs, BASE_SEED);
    let variable = trace_campaign(variable_cfg.clone(), &analysis_trace, runs, BASE_SEED);

    // Operation: worst-class operands on the deployed (variable) FPU.
    let operation_trace = guidance_trace(ValueClass::Worst);
    let operation = trace_campaign(variable_cfg, &operation_trace, runs, BASE_SEED + 999);

    let forced_report = MbptaConfig::default()
        .analyze(forced.times())
        .expect("MBPTA");
    let variable_report = MbptaConfig::default()
        .analyze(variable.times())
        .expect("MBPTA");
    // The distribution operation actually has (worst-class operands).
    let operation_report = MbptaConfig::default()
        .analyze(operation.times())
        .expect("MBPTA");

    println!(
        "{:<24}{:>16}{:>16}{:>16}",
        "exceedance curve", "hwm", "pWCET@1e-6", "pWCET@1e-12"
    );
    for (label, report) in [
        ("analysis forced-worst", &forced_report),
        ("analysis variable", &variable_report),
        ("operation (truth)", &operation_report),
    ] {
        println!(
            "{:<24}{:>16}{:>16}{:>16}",
            label,
            fmt_cycles(report.high_watermark()),
            fmt_cycles(report.budget_for(1e-6).expect("budget")),
            fmt_cycles(report.budget_for(1e-12).expect("budget")),
        );
    }

    let p = 1e-12;
    let forced_budget = forced_report.budget_for(p).expect("budget");
    let variable_budget = variable_report.budget_for(p).expect("budget");
    let op_budget = operation_report.budget_for(p).expect("budget");

    println!("\nsoundness check at 1e-12 (vs the operation curve):");
    println!(
        "  forced-worst analysis covers operation   : {} ({} vs {})",
        forced_budget >= op_budget * 0.99,
        fmt_cycles(forced_budget),
        fmt_cycles(op_budget)
    );
    println!(
        "  variable-latency analysis covers it      : {} ({} vs {})  <- the silent unsoundness",
        variable_budget >= op_budget * 0.99,
        fmt_cycles(variable_budget),
        fmt_cycles(op_budget)
    );
    println!("\nthe paper's FPU change exists exactly for this: value-dependent");
    println!("latencies shift the whole operation-time distribution upward, and no");
    println!("number of analysis runs on benign operands can observe that shift —");
    println!("the analysis-phase hardware must pin the latency to its maximum.");
}
