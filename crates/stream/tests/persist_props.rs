//! Property-based battery for the checkpoint codec.
//!
//! Three claims, each fuzzed:
//!
//! 1. **Round-trip identity** — encode→decode is the identity for
//!    arbitrary sketch / monitor / analyzer / federated states, and the
//!    encoding is canonical (decode→re-encode is byte-identical).
//! 2. **Resume exactness** — an analyzer restored from a checkpoint at
//!    an arbitrary cut point continues bit-identically to the
//!    uninterrupted run: same snapshots, same bootstrap intervals, same
//!    final pWCET.
//! 3. **Adversarial robustness** — truncations, single-bit flips, wrong
//!    magics and wrong version bytes all decode to typed
//!    `MbptaError::Checkpoint` errors. No panics, no silent misparses.

use proptest::prelude::*;
use proxima_mbpta::persist::{Decode, Encode, Reader, Writer, FORMAT_VERSION};
use proxima_mbpta::MbptaError;
use proxima_stream::persist::{load_analyzer, load_federated, save_analyzer, save_federated};
use proxima_stream::{
    FederatedAnalyzer, FederatedConfig, IidMonitor, QuantileSketch, StreamAnalyzer, StreamConfig,
};

/// Deterministic synthetic campaign (same shape as the other stream
/// tests: base latency + summed uniform jitter).
fn campaign(n: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
        .collect()
}

fn stream_config(block: usize, every: usize) -> StreamConfig {
    StreamConfig {
        block_size: block,
        refit_every_blocks: every,
        ..StreamConfig::default()
    }
}

proptest! {
    /// Sketch encode→decode is the identity (strict `PartialEq` on the
    /// whole structure, tuples included), and the encoding is canonical.
    #[test]
    fn sketch_round_trip_identity(
        sample in prop::collection::vec(0.0f64..1e6, 1..2_000),
        eps_mil in 1usize..100,
    ) {
        let mut sketch = QuantileSketch::new(eps_mil as f64 / 1000.0).unwrap();
        for &x in &sample {
            sketch.insert(x);
        }
        let mut w = Writer::new();
        sketch.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = QuantileSketch::decode(&mut r).unwrap();
        prop_assert!(r.remaining() == 0);
        prop_assert_eq!(&decoded, &sketch);
        let mut w2 = Writer::new();
        decoded.encode(&mut w2);
        prop_assert_eq!(w2.into_bytes(), bytes);
    }

    /// Monitor encode→decode preserves the window exactly — including
    /// windows shorter than, equal to, and overflowing the capacity.
    #[test]
    fn monitor_round_trip_identity(
        sample in prop::collection::vec(0.0f64..1e6, 0..1_200),
        capacity in 50usize..600,
    ) {
        let mut monitor = IidMonitor::new(capacity, 0.05);
        for &x in &sample {
            monitor.push(x);
        }
        let mut w = Writer::new();
        monitor.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = IidMonitor::decode(&mut r).unwrap();
        prop_assert!(r.remaining() == 0);
        prop_assert_eq!(decoded.len(), monitor.len());
        prop_assert_eq!(decoded.capacity(), monitor.capacity());
        prop_assert_eq!(decoded.health(), monitor.health());
    }

    /// Analyzer round-trip is the identity for random ingest lengths —
    /// partial blocks, live convergence state, cached snapshots and all
    /// — and the encoding is canonical.
    #[test]
    fn analyzer_round_trip_identity(
        n in 0usize..3_000,
        seed in 0u64..20,
        block in 10usize..60,
    ) {
        let mut analyzer = StreamAnalyzer::new(stream_config(block, 3)).unwrap();
        analyzer.extend(campaign(n, seed)).unwrap();
        let blob = save_analyzer(&analyzer);
        let restored = load_analyzer(&blob).unwrap();
        prop_assert_eq!(restored.len(), analyzer.len());
        prop_assert_eq!(restored.blocks(), analyzer.blocks());
        prop_assert_eq!(restored.maxima(), analyzer.maxima());
        prop_assert_eq!(restored.sketch(), analyzer.sketch());
        prop_assert_eq!(restored.high_watermark(), analyzer.high_watermark());
        prop_assert_eq!(restored.converged_at(), analyzer.converged_at());
        prop_assert_eq!(restored.snapshots_emitted(), analyzer.snapshots_emitted());
        prop_assert_eq!(restored.last_snapshot(), analyzer.last_snapshot());
        prop_assert_eq!(save_analyzer(&restored), blob);
    }

    /// Resume-at-any-cut-point equals the uninterrupted run bit for bit:
    /// identical snapshot streams after the cut, identical final pWCET,
    /// identical bootstrap intervals.
    #[test]
    fn resume_at_any_cut_equals_uninterrupted(
        cut in 0usize..3_000,
        seed in 0u64..10,
    ) {
        let data = campaign(3_000, seed);
        let config = stream_config(25, 4);
        let mut uninterrupted = StreamAnalyzer::new(config.clone()).unwrap();
        let mut prefix = StreamAnalyzer::new(config).unwrap();
        uninterrupted.extend(data[..cut].iter().copied()).unwrap();
        prefix.extend(data[..cut].iter().copied()).unwrap();
        let mut resumed = load_analyzer(&save_analyzer(&prefix)).unwrap();
        let tail_a = uninterrupted.extend(data[cut..].iter().copied()).unwrap();
        let tail_b = resumed.extend(data[cut..].iter().copied()).unwrap();
        prop_assert_eq!(tail_a, tail_b);
        let fin_a = uninterrupted.finish();
        let fin_b = resumed.finish();
        match (fin_a, fin_b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "finish divergence: {a:?} vs {b:?}"),
        }
    }

    /// Federated resume: checkpoint the sharded analyzer at an arbitrary
    /// cut, restore, stream the rest — the fold is bit-identical to the
    /// uninterrupted sharded run at every shard count.
    #[test]
    fn federated_resume_at_any_cut_is_exact(
        cut in 0usize..3_000,
        shards in 1usize..5,
        seed in 0u64..8,
    ) {
        let data = campaign(3_000, seed);
        let config = FederatedConfig::new(stream_config(25, 4), shards).balanced_for(data.len());
        let mut uninterrupted = FederatedAnalyzer::new(config.clone()).unwrap();
        let mut prefix = FederatedAnalyzer::new(config).unwrap();
        for &x in &data[..cut] {
            uninterrupted.push(x).unwrap();
            prefix.push(x).unwrap();
        }
        let mut resumed = load_federated(&save_federated(&prefix)).unwrap();
        for &x in &data[cut..] {
            uninterrupted.push(x).unwrap();
            resumed.push(x).unwrap();
        }
        prop_assert_eq!(resumed.len(), uninterrupted.len());
        for (a, b) in uninterrupted.shards().iter().zip(resumed.shards()) {
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(a.maxima(), b.maxima());
        }
        prop_assert_eq!(
            uninterrupted.finish().unwrap(),
            resumed.finish().unwrap()
        );
    }

    /// Truncating a checkpoint anywhere yields a typed
    /// `MbptaError::Checkpoint` — never a panic, never an `Ok`.
    #[test]
    fn truncated_checkpoints_are_typed_errors(
        n in 100usize..1_500,
        seed in 0u64..10,
        frac in 0.0f64..1.0,
    ) {
        let mut analyzer = StreamAnalyzer::new(stream_config(25, 4)).unwrap();
        analyzer.extend(campaign(n, seed)).unwrap();
        let blob = save_analyzer(&analyzer);
        let cut = ((blob.len() as f64) * frac) as usize;
        prop_assume!(cut < blob.len());
        match load_analyzer(&blob[..cut]) {
            Err(MbptaError::Checkpoint { .. }) => {}
            other => prop_assert!(false, "truncation at {cut} gave {other:?}"),
        }
    }

    /// Flipping any single bit anywhere in a checkpoint is caught by the
    /// envelope (magic/version/length checks or the FNV-1a checksum).
    #[test]
    fn bit_flipped_checkpoints_are_typed_errors(
        n in 100usize..1_000,
        seed in 0u64..10,
        frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let mut analyzer = StreamAnalyzer::new(stream_config(25, 4)).unwrap();
        analyzer.extend(campaign(n, seed)).unwrap();
        let mut blob = save_analyzer(&analyzer);
        let byte = ((blob.len() as f64) * frac) as usize % blob.len();
        blob[byte] ^= 1 << bit;
        match load_analyzer(&blob) {
            Err(MbptaError::Checkpoint { .. }) => {}
            other => prop_assert!(false, "flip at byte {byte} bit {bit} gave {other:?}"),
        }
    }

    /// Random garbage — including garbage wearing the right magic — is
    /// rejected with a typed error.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        junk in prop::collection::vec(0usize..256, 0..300),
        wear_magic in 0usize..2,
    ) {
        let mut bytes: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
        if wear_magic == 1 && bytes.len() >= 5 {
            bytes[..4].copy_from_slice(b"PXSA");
            bytes[4] = FORMAT_VERSION;
        }
        match load_analyzer(&bytes) {
            Err(MbptaError::Checkpoint { .. }) => {}
            Ok(_) => prop_assert!(false, "garbage decoded to an analyzer"),
            Err(other) => prop_assert!(false, "non-checkpoint error {other:?}"),
        }
    }
}

#[test]
fn wrong_version_byte_is_rejected_everywhere() {
    let mut analyzer = StreamAnalyzer::new(stream_config(25, 4)).unwrap();
    analyzer.extend(campaign(600, 1)).unwrap();
    let mut blob = save_analyzer(&analyzer);
    for version in [0u8, FORMAT_VERSION - 1, FORMAT_VERSION + 1, 0x7F, 0xFF] {
        blob[4] = version;
        let err = load_analyzer(&blob).unwrap_err();
        assert!(matches!(err, MbptaError::Checkpoint { .. }));
        assert!(err.to_string().contains("version"), "{err}");
    }
}
