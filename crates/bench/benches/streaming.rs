//! Criterion bench: streaming vs batch MBPTA on the same campaign.
//!
//! The streaming analyzer pays for its bounded memory with per-sample
//! sketch/monitor updates and periodic refits; this bench quantifies that
//! overhead against a single batch `analyze()` over the full vector, and
//! isolates the pure ingest cost (sketch + monitor + block accumulation,
//! no refits) as a third series. The setup asserts the acceptance
//! criterion of the streaming subsystem: on a 10k-sample trace the final
//! streamed pWCET at p = 1e-12 is within 1% of the batch result at the
//! same block size.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use proxima_mbpta::{BlockSpec, MbptaConfig};
use proxima_stream::{StreamAnalyzer, StreamConfig};
use std::hint::black_box;

const N: usize = 10_000;
const BLOCK: usize = 50;

/// A synthetic i.i.d. campaign: base latency plus summed uniform jitter,
/// deterministic via the vendored StdRng.
fn campaign(n: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
        .collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: BLOCK,
        refit_every_blocks: 5,
        bootstrap: None, // measure the refit loop, not the bootstrap
        ..StreamConfig::default()
    }
}

fn batch_config() -> MbptaConfig {
    MbptaConfig {
        block: BlockSpec::Fixed(BLOCK),
        ..MbptaConfig::default()
    }
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    let times = campaign(N, 3);

    // Acceptance guard: streaming and batch agree at the same block size.
    let batch_budget = batch_config()
        .analyze(&times)
        .expect("batch analysis")
        .budget_for(1e-12)
        .expect("budget");
    let mut analyzer = StreamAnalyzer::new(stream_config()).expect("config");
    analyzer.extend(times.iter().copied()).expect("ingest");
    let streamed = analyzer.finish().expect("final snapshot");
    let rel = (streamed.pwcet / batch_budget - 1.0).abs();
    assert!(
        rel < 0.01,
        "streamed {} vs batch {batch_budget}: rel err {rel}",
        streamed.pwcet
    );

    let mut group = c.benchmark_group("streaming_vs_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("batch_analyze_10k", |b| {
        b.iter(|| black_box(batch_config().analyze(&times).expect("batch")))
    });
    group.bench_function("stream_ingest_refit_10k", |b| {
        b.iter(|| {
            let mut a = StreamAnalyzer::new(stream_config()).expect("config");
            a.extend(times.iter().copied()).expect("ingest");
            black_box(a.finish().expect("final"))
        })
    });
    group.bench_function("stream_ingest_only_10k", |b| {
        // Refits disabled by an unreachable cadence: pure bounded-memory
        // ingest cost (sketch + monitor + block maxima).
        let config = StreamConfig {
            refit_every_blocks: usize::MAX,
            ..stream_config()
        };
        b.iter(|| {
            let mut a = StreamAnalyzer::new(config.clone()).expect("config");
            a.extend(times.iter().copied()).expect("ingest");
            black_box(a.len())
        })
    });
    group.finish();
}

/// Batched vs single-measurement ingest on the same campaign: the bulk
/// path must be bit-identical (asserted via checkpoint bytes) while
/// amortizing sketch compaction and monitor maintenance over each chunk.
/// The machine-independent gate on this claim lives in the
/// `ingest_report` bin; here criterion reads the wall-clock side.
fn bench_batch_vs_single_ingest(c: &mut Criterion) {
    const CHUNK: usize = 4096;
    let times = campaign(N, 3);

    // Identity guard: same checkpoint bytes, so same sketch tuples,
    // monitor window, maxima and counters.
    let mut itemized = StreamAnalyzer::new(stream_config()).expect("config");
    itemized.extend(times.iter().copied()).expect("ingest");
    let mut batched = StreamAnalyzer::new(stream_config()).expect("config");
    for chunk in times.chunks(CHUNK) {
        batched.push_batch(chunk).expect("ingest");
    }
    assert_eq!(
        proxima_stream::persist::save_analyzer(&batched),
        proxima_stream::persist::save_analyzer(&itemized),
        "batched ingest diverged from itemized"
    );

    let mut group = c.benchmark_group("ingest_batch_vs_single");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("single_push_10k", |b| {
        b.iter(|| {
            let mut a = StreamAnalyzer::new(stream_config()).expect("config");
            for &x in &times {
                a.push(x).expect("ingest");
            }
            black_box(a.len())
        })
    });
    group.bench_function("batch_push_10k", |b| {
        b.iter(|| {
            let mut a = StreamAnalyzer::new(stream_config()).expect("config");
            for chunk in times.chunks(CHUNK) {
                a.push_batch(chunk).expect("ingest");
            }
            black_box(a.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_streaming_vs_batch,
    bench_batch_vs_single_ingest
);
criterion_main!(benches);
