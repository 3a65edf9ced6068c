//! Property tests of the deferred bootstrap CI: a snapshot's interval
//! is computed when something first reads it, and must then carry
//! exactly the bits the refit computed eagerly before CIs were
//! deferred.
//!
//! The reference interval is recomputed here, outside the analyzer,
//! with the eager refit's arguments: the whole maxima buffer as of the
//! refit and the `k`-th seed of the configured stream for the `k`-th
//! snapshot. The feeds cover tied integer cycle counts and non-integer
//! values at three magnitudes, under random batch splits and random
//! read points.

use proptest::prelude::*;
use proxima_mbpta::confidence::{interval_from_maxima, BudgetInterval};
use proxima_mbpta::engine::{Engine, EngineEstimate, EngineFactory, EngineKind};
use proxima_mbpta::persist::{seal, Encode, Writer, MAGIC_ENGINE};
use proxima_mbpta::session::ChannelId;
use proxima_mbpta::MbptaConfig;
use proxima_prng::SplitMix64;
use proxima_stream::{
    FederatedAnalyzer, FederatedConfig, FederatedEngine, FederatedFactory, SessionStreamExt,
    StreamAnalyzer, StreamConfig, StreamEngine, StreamFactory,
};

/// `kind` 0: tied integers (geometric cycle counts, many repeats);
/// `kind` 1: non-integer values at a magnitude picked by `seed`.
fn feed(kind: usize, n: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    if kind == 0 {
        (0..n)
            .map(|_| 1_000.0 + (-(1.0 - rng.gen::<f64>()).ln() * 12.0).floor())
            .collect()
    } else {
        let scale = [1e-3, 1.0, 1e6][(seed % 3) as usize];
        (0..n)
            .map(|_| scale * (1.0 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 0.37))
            .collect()
    }
}

/// Random cut points → contiguous batch bounds over `len` values.
fn split_bounds(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 20,
        refit_every_blocks: 3,
        ..StreamConfig::default()
    }
}

/// Every bit of an interval.
fn ci_bits(ci: &Option<BudgetInterval>) -> Option<[u64; 5]> {
    ci.map(|ci| {
        [
            ci.estimate.to_bits(),
            ci.lower.to_bits(),
            ci.upper.to_bits(),
            ci.level.to_bits(),
            ci.resamples as u64,
        ]
    })
}

/// The interval the refit behind `snap`, the `k`-th snapshot of a
/// stream whose maxima buffer is (a continuation of) `maxima`, computed
/// eagerly.
fn eager_ci(snap: &EngineEstimate, k: usize, maxima: &[f64]) -> Option<[u64; 5]> {
    let config = stream_config();
    let spec = config.bootstrap.expect("bootstrap on by default");
    let ci = interval_from_maxima(
        &maxima[..snap.blocks.expect("a stream estimate counts its blocks")],
        config.block_size,
        snap.pwcet,
        config.target_p,
        spec.level,
        spec.resamples,
        SplitMix64::stream_seed(spec.seed, k as u64),
        1,
    )
    .ok();
    ci_bits(&ci)
}

/// Feed `xs` to a bare analyzer and return `(n, eager CI bits)` of every
/// snapshot, after checking the CI its `push_batch` returned.
fn eager_cis(xs: &[f64]) -> Vec<(usize, Option<[u64; 5]>)> {
    let mut analyzer = StreamAnalyzer::new(stream_config()).unwrap();
    let snaps = analyzer.push_batch(xs).unwrap();
    snaps
        .iter()
        .enumerate()
        .map(|(k, snap)| {
            let want = eager_ci(snap, k, analyzer.maxima());
            assert_eq!(ci_bits(&snap.ci), want, "push_batch snapshot {k}");
            (snap.n, want)
        })
        .collect()
}

/// Check that `analyzer`'s last snapshot, read now (or decoded),
/// carries its eager interval.
fn check_last(analyzer: &StreamAnalyzer) -> Result<(), TestCaseError> {
    if let Some(snap) = analyzer.last_snapshot() {
        let k = analyzer.snapshots_emitted() - 1;
        prop_assert_eq!(ci_bits(&snap.ci), eager_ci(&snap, k, analyzer.maxima()));
    }
    Ok(())
}

/// The sealed engine-state bytes an engine holding `state` writes.
fn engine_bytes(kind: EngineKind, state: &impl Encode) -> Vec<u8> {
    let mut w = Writer::new();
    kind.encode(&mut w);
    state.encode(&mut w);
    seal(MAGIC_ENGINE, w.into_bytes())
}

proptest! {
    /// Every CI a stream session emits (scheduled snapshot or
    /// convergence announcement), and every CI `ChannelHandle::estimate`
    /// returns, is the eager CI of the snapshot with the same `n`.
    #[test]
    fn session_and_handle_cis_are_the_eager_cis(
        seed in 0u64..6,
        kind in 0usize..2,
        cuts in prop::collection::vec(0usize..1_000, 0..8),
        reads in 0u64..512,
        every_idx in 0usize..3,
    ) {
        let every = [0usize, 1, 150][every_idx];
        let chan = feed(kind, 1_000, seed);
        let other = feed(1 - kind, 1_000, seed + 100);
        let eager = [eager_cis(&chan), eager_cis(&other)];
        let want = |c: usize, n: usize| eager[c].iter().find(|e| e.0 == n).map(|e| e.1);

        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(every)
            .build_stream_with(stream_config())
            .unwrap();
        for (piece, w) in split_bounds(&cuts, chan.len()).windows(2).enumerate() {
            let mut emitted = session.push_batch("chan", &chan[w[0]..w[1]]).unwrap();
            emitted.extend(session.push_batch("other", &other[w[0]..w[1]]).unwrap());
            for snap in &emitted {
                let c = usize::from(snap.channel.as_str() == "other");
                prop_assert_eq!(Some(ci_bits(&snap.estimate.ci)), want(c, snap.estimate.n));
            }
            if reads >> (piece % 9) & 1 == 1 {
                for (c, name) in ["chan", "other"].into_iter().enumerate() {
                    if let Some(estimate) = session.channel(name).unwrap().estimate() {
                        prop_assert_eq!(Some(ci_bits(&estimate.ci)), want(c, estimate.n));
                    }
                }
            }
        }
        // A last read always lands: 50 blocks means snapshots exist.
        let estimate = session.channel("chan").unwrap().estimate().unwrap();
        prop_assert_eq!(Some(ci_bits(&estimate.ci)), want(0, estimate.n));
    }

    /// `StreamEngine::save_state` at every batch cut, with or without a
    /// read in between, and after `finish`, writes the bytes of an
    /// analyzer whose every snapshot was read — bytes that decode to the
    /// eager last CI.
    #[test]
    fn stream_engine_state_bytes_are_the_eager_bytes(
        seed in 0u64..6,
        kind in 0usize..2,
        cuts in prop::collection::vec(0usize..1_000, 0..8),
        reads in 0u64..512,
    ) {
        let xs = feed(kind, 1_000, seed);
        let factory = StreamFactory::new(stream_config()).unwrap();
        let id = ChannelId::new("chan");
        let mut lazy = StreamEngine::new(stream_config()).unwrap();
        let mut eager = StreamAnalyzer::new(stream_config()).unwrap();
        for (piece, w) in split_bounds(&cuts, xs.len()).windows(2).enumerate() {
            lazy.push_batch(&xs[w[0]..w[1]]).unwrap();
            eager.push_batch(&xs[w[0]..w[1]]).unwrap();
            if reads >> (piece % 9) & 1 == 1 {
                let _ = lazy.estimate();
            }
            let bytes = lazy.save_state().unwrap();
            prop_assert_eq!(&bytes, &engine_bytes(EngineKind::Stream, &eager));
            check_last(&eager)?;
            check_last(factory.restore(&id, &bytes).unwrap().analyzer())?;
        }
        lazy.finish().unwrap();
        eager.finish().unwrap();
        let bytes = lazy.save_state().unwrap();
        prop_assert_eq!(&bytes, &engine_bytes(EngineKind::Stream, &eager));
        check_last(&eager)?;
        check_last(factory.restore(&id, &bytes).unwrap().analyzer())?;
    }

    /// The same for `FederatedEngine` at 1 and 3 shards: every shard's
    /// owed CI is computed by the encode and is the eager one.
    #[test]
    fn federated_engine_state_bytes_are_the_eager_bytes(
        seed in 0u64..6,
        kind in 0usize..2,
        cuts in prop::collection::vec(0usize..1_000, 0..8),
        shards_idx in 0usize..2,
    ) {
        let config = FederatedConfig {
            stream: stream_config(),
            shards: [1usize, 3][shards_idx],
            shard_len: 300,
        };
        let xs = feed(kind, 1_000, seed);
        let factory = FederatedFactory::new(config.clone()).unwrap();
        let id = ChannelId::new("chan");
        let mut lazy = FederatedEngine::new(config.clone()).unwrap();
        let mut eager = FederatedAnalyzer::new(config).unwrap();
        for w in split_bounds(&cuts, xs.len()).windows(2) {
            lazy.push_batch(&xs[w[0]..w[1]]).unwrap();
            eager.push_batch(&xs[w[0]..w[1]]).unwrap();
            let bytes = lazy.save_state().unwrap();
            prop_assert_eq!(&bytes, &engine_bytes(EngineKind::Federated, &eager));
            let restored = factory.restore(&id, &bytes).unwrap();
            for (shard, decoded) in eager.shards().iter().zip(restored.analyzer().shards()) {
                check_last(shard)?;
                check_last(decoded)?;
            }
        }
    }
}
