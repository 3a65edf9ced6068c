//! Checkpoint/restart acceptance battery: resumed-vs-uninterrupted
//! **bit-identity** at arbitrary cut points for every engine family
//! (batch, stream, federated), at `--jobs {1,8}` and `--shards {1,4}`,
//! plus the golden-fixture compatibility guard for the on-disk format.
//!
//! The invariant under test: `AnalysisSession::checkpoint()` followed by
//! `AnalysisSession::restore()` yields a session whose every subsequent
//! snapshot, convergence announcement and merged verdict equals the
//! uninterrupted session's exactly — same bits, not just same values to
//! tolerance.

use proptest::prelude::*;
use proxima::mbpta::engine::{BatchFactory, EngineFactory};
use proxima::mbpta::session::SessionSnapshot;
use proxima::prelude::*;
use proxima::stream::{FederatedFactory, StreamFactory};

/// Every type with an `impl Encode for …` in the workspace's `persist.rs`
/// files, by target name. `mbpta-lint`'s `codec-discipline` rule parses
/// this list and fails the tree when a codec impl is missing from it:
/// adding a wire type means adding it here AND making sure the golden
/// fixtures below transitively exercise its byte layout.
const CODEC_COVERAGE: &[&str] = &[
    "BlockSpec",
    "BootstrapSpec",
    "BudgetInterval",
    "ChannelId",
    "EngineEstimate",
    "EngineKind",
    "EvtFit",
    "FederatedAnalyzer",
    "FederatedConfig",
    "Gev",
    "GofReport",
    "Gpd",
    "Gumbel",
    "IidEvidence",
    "IidMonitor",
    "IidReport",
    "MbptaConfig",
    "MbptaError",
    "ObservationSummary",
    "Option<T>",
    "Provenance",
    "Pwcet",
    "QuantileSketch",
    "Sketch",
    "SketchKind",
    "StatsError",
    "StreamAnalyzer",
    "StreamConfig",
    "Summary",
    "TestResult",
    "Tuple",
    "Vec<T>",
    "Verdict",
    "bool",
    "f64",
    "u64",
    "usize",
];

#[test]
fn codec_coverage_list_is_sorted_and_unique() {
    assert!(
        CODEC_COVERAGE.windows(2).all(|w| w[0] < w[1]),
        "keep CODEC_COVERAGE sorted and free of duplicates so review \
         diffs stay one-line"
    );
}

/// Deterministic synthetic campaign for one channel.
fn campaign(base: f64, n: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| base + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 80.0)
        .collect()
}

/// A two-channel interleaved tagged feed.
fn feed(n_per_channel: usize, seed: u64) -> Vec<Tagged> {
    let a = campaign(1.0e5, n_per_channel, seed);
    let b = campaign(1.3e5, n_per_channel, seed + 100);
    let mut out = Vec::with_capacity(2 * n_per_channel);
    for (&x, &y) in a.iter().zip(&b) {
        out.push(Tagged::new("alpha", x));
        out.push(Tagged::new("beta", y));
    }
    out
}

/// The per-shard stream configuration the stream/federated sessions use.
/// Bootstrap off keeps the proptest battery fast; the bootstrap state's
/// own round-trip is covered by `crates/stream/tests/persist_props.rs`.
fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        target_p: 1e-12,
        bootstrap: None,
        ..StreamConfig::default()
    }
}

fn builder(jobs: usize) -> SessionBuilder {
    MbptaConfig {
        block: BlockSpec::Fixed(25),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(100)
    .target_p(1e-12)
    .jobs(jobs)
}

/// Drive `feed` through a session built by `factory`, checkpointing and
/// restoring at `cut` (`None` = uninterrupted); returns every snapshot
/// emitted after the cut plus the merged per-channel outcomes rendered
/// for comparison.
fn run<F>(
    factory: F,
    jobs: usize,
    feed: &[Tagged],
    cut: Option<usize>,
) -> (Vec<SessionSnapshot>, Vec<String>)
where
    F: EngineFactory + Clone,
{
    let mut session = builder(jobs).build_with(factory.clone()).unwrap();
    let cut = cut.unwrap_or(0);
    let mut snaps = Vec::new();
    for (i, tagged) in feed.iter().enumerate() {
        if i == cut && i != 0 {
            let blob = session.checkpoint().expect("checkpoint");
            session = AnalysisSession::restore(factory.clone(), &blob, jobs).expect("restore");
            assert_eq!(session.len(), i);
        }
        if let Some(s) = session.push(tagged.clone()).unwrap() {
            if i >= cut {
                snaps.push(s);
            }
        }
    }
    let merged = session.merge();
    let outcomes = merged
        .channels()
        .iter()
        .map(|cv| format!("{}: {:?} dropped={}", cv.channel, cv.outcome, cv.dropped))
        .collect();
    (snaps, outcomes)
}

/// Redact the sketch-estimated `mean` from a rendered outcome (used only
/// by the cross-shard-count comparison; see the comment there).
fn strip_mean(s: &str) -> String {
    match (s.find("mean: "), s.find(", detail:")) {
        (Some(start), Some(end)) if start < end => format!("{}{}", &s[..start], &s[end..]),
        _ => s.to_string(),
    }
}

proptest! {
    /// Stream-engine sessions: resume at any cut × jobs {1,8} is
    /// bit-identical to uninterrupted.
    #[test]
    fn stream_session_resume_bit_identical(
        cut in 1usize..2_400,
        seed in 0u64..6,
        jobs_sel in 0usize..2,
    ) {
        let jobs = [1usize, 8][jobs_sel];
        let feed = feed(1_200, seed);
        let factory = StreamFactory::new(stream_config()).unwrap();
        let (snaps_u, merged_u) = run(factory.clone(), jobs, &feed, None);
        let (snaps_r, merged_r) = run(factory, jobs, &feed, Some(cut));
        let after_cut: Vec<_> = snaps_u.iter().filter(|s| s.total > cut).cloned().collect();
        prop_assert_eq!(snaps_r, after_cut);
        prop_assert_eq!(merged_r, merged_u);
    }

    /// Batch-engine sessions: resume at any cut × jobs {1,8} is
    /// bit-identical to uninterrupted (the full measurement buffer and
    /// the intermediate-refit bookkeeping both survive).
    #[test]
    fn batch_session_resume_bit_identical(
        cut in 1usize..2_400,
        seed in 0u64..6,
        jobs_sel in 0usize..2,
    ) {
        let jobs = [1usize, 8][jobs_sel];
        let feed = feed(1_200, seed);
        let config = MbptaConfig {
            block: BlockSpec::Fixed(25),
            ..MbptaConfig::default()
        };
        let factory = BatchFactory::new(config, 1e-12).unwrap();
        let (snaps_u, merged_u) = run(factory.clone(), jobs, &feed, None);
        let (snaps_r, merged_r) = run(factory, jobs, &feed, Some(cut));
        let after_cut: Vec<_> = snaps_u.iter().filter(|s| s.total > cut).cloned().collect();
        prop_assert_eq!(snaps_r, after_cut);
        prop_assert_eq!(merged_r, merged_u);
    }

    /// Federated sessions: resume at any cut × shards {1,4} × jobs {1,8}
    /// is bit-identical to uninterrupted — and to every other shard
    /// count, preserving PR 4's shard-count invariance across restarts.
    #[test]
    fn federated_session_resume_bit_identical(
        cut in 1usize..2_400,
        seed in 0u64..4,
        shards_sel in 0usize..2,
        jobs_sel in 0usize..2,
    ) {
        let shards = [1usize, 4][shards_sel];
        let jobs = [1usize, 8][jobs_sel];
        let feed = feed(1_200, seed);
        let config = FederatedConfig::new(stream_config(), shards).balanced_for(1_200);
        let factory = FederatedFactory::new(config).unwrap();
        let (snaps_u, merged_u) = run(factory.clone(), jobs, &feed, None);
        let (snaps_r, merged_r) = run(factory, jobs, &feed, Some(cut));
        // Federated engines emit no intermediate estimates.
        prop_assert!(snaps_u.is_empty() && snaps_r.is_empty());
        prop_assert_eq!(&merged_r, &merged_u);
        // Shard-count invariance survives the restart: the resumed
        // 4-shard report equals the uninterrupted 1-shard report. The
        // sketch *mean* is excluded — summing shard sums re-associates
        // the floating-point addition (last-ulp wiggle, a PR 4
        // property); everything the report prints (pWCET, fit, i.i.d.,
        // high watermark) is exact.
        if shards == 4 {
            let single = FederatedFactory::new(
                FederatedConfig::new(stream_config(), 1).balanced_for(1_200),
            )
            .unwrap();
            let (_, merged_single) = run(single, jobs, &feed, None);
            let strip: fn(&String) -> String = |s| strip_mean(s);
            prop_assert_eq!(
                merged_r.iter().map(strip).collect::<Vec<_>>(),
                merged_single.iter().map(strip).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn quarantined_channel_survives_checkpoint_restart() {
    // Quarantine a channel with a NaN and another with a negative time
    // before the cut; the restored session must report the identical
    // channel-scoped errors and keep counting drops.
    let factory = StreamFactory::new(stream_config()).unwrap();
    let mut session = builder(0).build_with(factory.clone()).unwrap();
    for &x in campaign(1e5, 900, 3).iter() {
        session.push(Tagged::new("good", x)).unwrap();
    }
    session.push(Tagged::new("bad", f64::NAN)).unwrap();
    session.push(Tagged::new("bad", 100.0)).unwrap(); // dropped
    session.push(Tagged::new("negative", -3.0)).unwrap();
    let blob = session.checkpoint().unwrap();
    let mut restored = AnalysisSession::restore(factory, &blob, 0).unwrap();
    // More drops after the restart.
    restored.push(Tagged::new("bad", 101.0)).unwrap();
    session.push(Tagged::new("bad", 101.0)).unwrap();
    let (a, b) = (session.merge(), restored.merge());
    assert!(a.verdict("good").unwrap().is_ok());
    assert_eq!(a.verdict("good").unwrap(), b.verdict("good").unwrap());
    assert_eq!(a.verdict("bad").unwrap(), b.verdict("bad").unwrap());
    assert_eq!(a.channels()[1].dropped, 2);
    assert_eq!(b.channels()[1].dropped, 2);
    let negative = b.verdict("negative").unwrap().as_ref().unwrap_err();
    assert_eq!(
        Some(negative),
        a.verdict("negative").unwrap().as_ref().err()
    );
    assert!(
        negative.to_string().contains("execution time is negative"),
        "{negative}"
    );
}

#[test]
fn early_finished_channel_survives_checkpoint_restart() {
    // With early finish on, a converged channel's verdict is computed
    // and its engine dropped mid-session; the checkpoint carries the
    // stored verdict itself.
    let factory = StreamFactory::new(stream_config()).unwrap();
    let session_builder = || builder(0).early_finish(true);
    let mut session = session_builder().build_with(factory.clone()).unwrap();
    for &x in campaign(1e5, 6_000, 5).iter() {
        session.push(Tagged::new("only", x)).unwrap();
    }
    {
        let ch = session.channel("only").unwrap();
        assert!(ch.finished_early(), "stationary stream converges in 6000");
    }
    let blob = session.checkpoint().unwrap();
    let restored = AnalysisSession::restore(factory, &blob, 0).unwrap();
    let (a, b) = (session.merge(), restored.merge());
    assert_eq!(a.verdict("only").unwrap(), b.verdict("only").unwrap());
}

#[test]
fn restore_refuses_a_checkpoint_from_a_different_engine_family() {
    let stream_factory = StreamFactory::new(stream_config()).unwrap();
    let mut session = builder(0).build_with(stream_factory).unwrap();
    for &x in campaign(1e5, 600, 7).iter() {
        session.push(Tagged::new("only", x)).unwrap();
    }
    let blob = session.checkpoint().unwrap();
    let config = MbptaConfig {
        block: BlockSpec::Fixed(25),
        ..MbptaConfig::default()
    };
    let batch_factory = BatchFactory::new(config, 1e-12).unwrap();
    let err = AnalysisSession::restore(batch_factory, &blob, 0).unwrap_err();
    assert!(matches!(err, proxima::mbpta::MbptaError::Checkpoint { .. }));
    assert!(err.to_string().contains("batch"), "{err}");
}

// ---------------------------------------------------------------------
// Golden fixtures: committed checkpoint bytes that every future build
// must keep decoding (or reject loudly with a version bump). Regenerate
// with `PROXIMA_REGEN_FIXTURES=1 cargo test --test checkpoint`.
// ---------------------------------------------------------------------

/// Why a fixture comparison fails, and what each cause asks for.
const FIXTURE_DRIFT: &str = "checkpoint bytes differ from the committed fixture: \
     either the layout changed (bump FORMAT_VERSION) or the stored values did \
     (e.g. a fit change moved snapshot bits; the version stays); either way \
     regenerate with PROXIMA_REGEN_FIXTURES=1 cargo test --test checkpoint \
     and name the change";

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_bytes(name: &str, current: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var_os("PROXIMA_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {name} unreadable ({e}); regenerate with \
             PROXIMA_REGEN_FIXTURES=1 cargo test --test checkpoint"
        )
    })
}

/// The reference analyzer the analyzer fixture was generated from.
fn golden_analyzer() -> StreamAnalyzer {
    let mut analyzer = StreamAnalyzer::new(StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        target_p: 1e-12,
        ..StreamConfig::default() // bootstrap ON: the CI state is format
    })
    .unwrap();
    // 1010 samples: a partial block, live convergence bookkeeping, and a
    // cached snapshot with a bootstrap interval — the fixture covers
    // every field class.
    analyzer.extend(campaign(1e5, 1010, 42)).unwrap();
    analyzer
}

#[test]
fn golden_analyzer_fixture_stays_decodable() {
    let reference = golden_analyzer();
    let current = save_analyzer(&reference);
    let bytes = fixture_bytes("analyzer_v4.bin", &current);
    let decoded = load_analyzer(&bytes).expect("golden analyzer fixture must decode");
    assert_eq!(decoded.len(), 1010);
    assert_eq!(decoded.blocks(), 40);
    assert_eq!(decoded.config().block_size, 25);
    assert_eq!(decoded.maxima(), reference.maxima());
    assert_eq!(decoded.high_watermark(), reference.high_watermark());
    assert_eq!(
        decoded.last_snapshot(),
        reference.last_snapshot(),
        "{FIXTURE_DRIFT}"
    );
    // The committed bytes are canonical: decode → re-encode reproduces
    // them, and the current encoder still writes exactly those bytes.
    assert_eq!(save_analyzer(&decoded), bytes);
    assert_eq!(current, bytes, "{FIXTURE_DRIFT}");
}

#[test]
fn removed_kll_sketch_fixture_is_rejected_not_misparsed() {
    // Written by a build that offered a second sketch algorithm: its
    // config and sketch records carry sketch-kind tag 1, under format 3.
    // A v4 build refuses it at the version byte with a typed checkpoint
    // error naming both versions (the tag-1 refusal itself is pinned by
    // the stream crate's sketch-kind codec test). Read directly: this
    // fixture is never regenerated.
    let bytes = std::fs::read(fixture_path("analyzer_kll_v3.bin")).expect("fixture");
    assert_eq!(bytes[4], 3, "the fixture records format 3");
    let err = load_analyzer(&bytes).expect_err("a v3 blob must not decode");
    assert!(
        matches!(err, proxima::mbpta::MbptaError::Checkpoint { .. }),
        "{err:?}"
    );
    let why = format!(
        "unsupported checkpoint format version 3 (this build reads {})",
        proxima::mbpta::persist::FORMAT_VERSION
    );
    assert!(err.to_string().contains(&why), "{err}");
}

#[test]
fn golden_federated_fixture_stays_decodable() {
    let config = FederatedConfig::new(stream_config(), 3).balanced_for(1500);
    let mut fed = FederatedAnalyzer::new(config).unwrap();
    for x in campaign(1e5, 1500, 43) {
        fed.push(x).unwrap();
    }
    let current = save_federated(&fed);
    let bytes = fixture_bytes("federated_v4.bin", &current);
    let mut decoded = load_federated(&bytes).expect("golden federated fixture must decode");
    assert_eq!(decoded.len(), 1500);
    assert_eq!(decoded.shard_count(), 3);
    assert_eq!(
        decoded.finish().unwrap(),
        fed.finish().unwrap(),
        "fixture fold diverged from the reference; {FIXTURE_DRIFT}"
    );
    assert_eq!(save_federated(&load_federated(&bytes).unwrap()), bytes);
    assert_eq!(current, bytes, "{FIXTURE_DRIFT}");
}

#[test]
fn golden_session_fixture_stays_decodable() {
    let factory = StreamFactory::new(stream_config()).unwrap();
    let mut session = builder(0).build_with(factory.clone()).unwrap();
    for tagged in feed(700, 44) {
        session.push(tagged).unwrap();
    }
    let current = session.checkpoint().unwrap();
    let bytes = fixture_bytes("session_v4.bin", &current);
    let restored =
        AnalysisSession::restore(factory, &bytes, 0).expect("golden session fixture must restore");
    assert_eq!(restored.len(), 1400);
    assert_eq!(restored.channel_count(), 2);
    let merged_fixture = restored.merge();
    let merged_reference = session.merge();
    for ch in ["alpha", "beta"] {
        assert_eq!(
            merged_fixture.verdict(ch).unwrap(),
            merged_reference.verdict(ch).unwrap(),
            "{FIXTURE_DRIFT}"
        );
    }
    assert_eq!(current, bytes, "{FIXTURE_DRIFT}");
}
