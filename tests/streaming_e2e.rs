//! End-to-end acceptance of the streaming MBPTA subsystem, through the
//! facade: on a 10k-sample trace the final streamed snapshot at p = 1e-12
//! agrees with the batch `MbptaConfig::analyze` to within 1%, with memory bounded to
//! the sketch + monitor window + block-maxima buffer.

use proxima::prelude::*;
use proxima::stream::StreamConfig;
use rand::{Rng, SeedableRng};

fn campaign(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
        .collect()
}

#[test]
fn streaming_10k_within_one_percent_of_batch_with_bounded_memory() {
    const N: usize = 10_000;
    const BLOCK: usize = 50;
    let times = campaign(N, 3);

    let batch = MbptaConfig {
        block: BlockSpec::Fixed(BLOCK),
        ..MbptaConfig::default()
    }
    .analyze(&times)
    .expect("batch analysis accepts the campaign");
    let batch_budget = batch.budget_for(1e-12).expect("batch budget");

    let mut analyzer = StreamAnalyzer::new(StreamConfig {
        block_size: BLOCK,
        refit_every_blocks: 5,
        ..StreamConfig::default()
    })
    .expect("stream config");
    let snapshots = analyzer
        .extend(times.iter().copied())
        .expect("clean ingest");
    assert!(!snapshots.is_empty(), "snapshots flow during ingestion");
    let last = analyzer.finish().expect("final snapshot");

    // Acceptance: within 1% of batch (same maxima, so in fact exact).
    let rel = (last.pwcet / batch_budget - 1.0).abs();
    assert!(
        rel < 0.01,
        "streamed {} vs batch {batch_budget}: rel {rel}",
        last.pwcet
    );

    // Memory bound: sketch is sublinear, monitor is a fixed window, and
    // the maxima buffer is n/B — never the raw 10k vector.
    assert!(
        analyzer.sketch().tuples() < N / 4,
        "sketch holds {} tuples",
        analyzer.sketch().tuples()
    );
    assert!(analyzer.monitor().len() <= analyzer.config().monitor_window);
    assert_eq!(analyzer.blocks(), N / BLOCK);

    // The exact side channels agree with the raw data.
    let hwm = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(last.high_watermark, hwm);
    assert_eq!(last.n, N);

    // The stationary campaign converged well before the end.
    assert!(analyzer.converged(), "10k stationary samples converge");
    assert!(analyzer.converged_at().unwrap() < N);
}

#[test]
fn snapshot_stream_reports_suspect_iid_on_drifting_source() {
    // A drifting stream must keep flowing but carry a suspect iid flag.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let times: Vec<f64> = (0..3000)
        .map(|i| 1e5 + i as f64 * 40.0 + 100.0 * rng.gen::<f64>())
        .collect();
    let mut analyzer = StreamAnalyzer::new(StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        ..StreamConfig::default()
    })
    .expect("stream config");
    let snaps = analyzer.extend(times).expect("ingest");
    assert!(!snaps.is_empty());
    assert!(
        snaps
            .iter()
            .any(|s| s.iid.is_some_and(|iid| iid.label() == "suspect")),
        "drift must trip the rolling iid monitor"
    );
}

/// Integer cycle counts `base + step·K` with `K` geometric: the tied
/// shape of a time-randomized platform's measurements.
fn tied_cycle_counts(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut k = 0u32;
            while rng.gen::<f64>() >= 0.25 {
                k += 1;
            }
            40_000.0 + 12.0 * f64::from(k)
        })
        .collect()
}

/// FNV-1a over the bits of every snapshot's `pwcet`, `ci.lower` and
/// `ci.upper` (a tag byte marks a missing CI), finish snapshot included.
fn snapshot_digest(times: &[f64]) -> (u64, usize) {
    fn fold(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut analyzer = proxima::stream::StreamAnalyzer::new(StreamConfig {
        block_size: 50,
        refit_every_blocks: 5,
        ..StreamConfig::default()
    })
    .expect("stream config");
    let mut snapshots = analyzer.push_batch(times).expect("clean ingest");
    snapshots.push(analyzer.finish().expect("final snapshot"));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut with_ci = 0;
    for snap in &snapshots {
        fold(&mut hash, &snap.pwcet.to_bits().to_le_bytes());
        match snap.ci {
            Some(ci) => {
                with_ci += 1;
                fold(&mut hash, &[1]);
                fold(&mut hash, &ci.lower.to_bits().to_le_bytes());
                fold(&mut hash, &ci.upper.to_bits().to_le_bytes());
            }
            None => fold(&mut hash, &[0]),
        }
    }
    (hash, with_ci)
}

#[test]
fn streamed_ci_bits_are_pinned() {
    // The printed report rounds intervals to whole cycles, so only a
    // bit-level digest catches drift in the fit or the bootstrap. The
    // expected values were captured when the Gumbel fit became a Newton
    // solve of the likelihood equation on tie counts; any change to them
    // is a change of results.
    let tied = tied_cycle_counts(6_000, 41);
    let (digest, with_ci) = snapshot_digest(&tied);
    assert!(with_ci >= 20, "tied channel: {with_ci} intervals");
    assert_eq!(digest, TIED_DIGEST, "tied channel digest {digest:#018x}");

    let continuous = campaign(6_000, 42);
    let (digest, with_ci) = snapshot_digest(&continuous);
    assert!(with_ci >= 20, "continuous channel: {with_ci} intervals");
    assert_eq!(
        digest, CONTINUOUS_DIGEST,
        "continuous channel digest {digest:#018x}"
    );
}

const TIED_DIGEST: u64 = 0x0dd8_668c_9729_b20e;
const CONTINUOUS_DIGEST: u64 = 0xf464_5f88_fb6d_ad3a;
