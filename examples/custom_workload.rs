//! Bring your own workload: build a custom program with the trace builder
//! and push it through the MBPTA pipeline.
//!
//! The program here is a small telemetry codec: CRC over an input frame,
//! a table-driven transform, and a checksum store — assembled directly
//! from `TraceBuilder` primitives rather than the TVCA.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use proxima::prelude::*;
use proxima::workload::kernels;
use proxima::workload::trace::{DataObject, TraceBuilder};

fn build_codec() -> Vec<Inst> {
    let mut b = TraceBuilder::new(0x4100_0000);
    // Buffers spread across 4 KB alignment windows, like linked sections.
    // The 16 KB frame alone occupies four lines in every cache set (one
    // per alignment window); the table adds a fifth on the sets it covers,
    // so residency exceeds the 4 ways and conflict behaviour — and hence
    // timing — depends on the per-run random placement.
    let frame = DataObject::new(0x7000_0000, 4096, 4);
    let table = DataObject::new(0x7000_5000, 512, 4);
    let out = DataObject::new(0x7000_7000, 2048, 4);

    // Three processing passes: integrity check, then transform — the
    // re-reads of `frame` after table traffic are where evictions show.
    b.loop_n(3, |b, _| {
        kernels::crc(b, &frame);
        kernels::table_interp(b, &table, &frame, &out, proxima::sim::ValueClass::Typical);
    });
    // Trailer: checksum store loop.
    b.loop_n(16, |b, i| {
        b.load(out.elem(i * 64));
        b.alu(2);
    });
    b.store(out.elem(0));
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = build_codec();
    println!("custom codec: {} instructions", trace.len());

    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let campaign = Campaign::measure(&mut platform, &trace, 1000, 42)?;

    let report = MbptaConfig::default().analyze(campaign.times())?;
    println!("{}", render_report(&report));

    // Verify the platform-side protocol made the campaign analysable.
    if report.iid.passed {
        println!("i.i.d. gate passed: the randomized platform + per-run reseeding works.");
    }
    Ok(())
}
