//! Acceptance tests of the multi-channel `AnalysisSession` API: a
//! session ingesting a 3-channel tagged feed produces, per channel,
//! verdicts **bit-identical** to running the batch pipeline /
//! `StreamAnalyzer` on each channel's measurements alone — at every
//! `jobs` setting and under any interleaving.

use proptest::prelude::*;
use proxima::mbpta::MbptaError;
use proxima::prelude::*;
use proxima::stream::StreamConfig;
use rand::{Rng, SeedableRng};

fn campaign(base: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| base + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 80.0)
        .collect()
}

/// Three channels with distinct bases, seeds chosen to pass the 5%-level
/// i.i.d. gate.
fn three_channels() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("path/nominal", campaign(1.0e5, 1200, 4)),
        ("core1/saturated", campaign(1.1e5, 1200, 20)),
        ("tenant/fault", campaign(1.3e5, 1200, 40)),
    ]
}

/// Round-robin interleave the channels into one tagged feed.
fn interleave(channels: &[(&'static str, Vec<f64>)]) -> Vec<Tagged> {
    let n = channels.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut feed = Vec::new();
    for i in 0..n {
        for (name, times) in channels {
            if let Some(&x) = times.get(i) {
                feed.push(Tagged::new(*name, x));
            }
        }
    }
    feed
}

#[test]
fn batch_session_bit_identical_to_bare_analyze_at_every_jobs() {
    let channels = three_channels();
    let feed = interleave(&channels);
    let config = MbptaConfig::default();
    for jobs in [1, 2, 3, 8] {
        let mut session = config
            .clone()
            .session()
            .jobs(jobs)
            .build_batch()
            .expect("valid config");
        session.extend(feed.iter().cloned()).expect("clean feed");
        let merged = session.merge();
        assert!(merged.all_ok());
        for (name, times) in &channels {
            let verdict = merged
                .verdict(name)
                .expect("channel present")
                .as_ref()
                .unwrap();
            let report = config.analyze(times).expect("bare analysis");
            // Bit-identical: the full report round-trips through the
            // verdict, pWCET parameters included.
            assert_eq!(
                verdict.clone().into_report().unwrap(),
                report,
                "jobs={jobs} channel={name} diverged from bare config.analyze()"
            );
            assert_eq!(
                verdict.budget_for(1e-12).unwrap(),
                report.budget_for(1e-12).unwrap()
            );
        }
    }
}

#[test]
fn stream_session_bit_identical_to_bare_stream_analyzer_at_every_jobs() {
    let channels = three_channels();
    let feed = interleave(&channels);
    let stream_config = StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        ..StreamConfig::default()
    };
    for jobs in [1, 2, 8] {
        let mut session = MbptaConfig::default()
            .session()
            .jobs(jobs)
            .build_stream_with(stream_config.clone())
            .expect("valid config");
        session.extend(feed.iter().cloned()).expect("clean feed");
        let merged = session.merge();
        assert!(merged.all_ok());
        for (name, times) in &channels {
            let verdict = merged
                .verdict(name)
                .expect("channel present")
                .as_ref()
                .unwrap();
            let mut bare = StreamAnalyzer::new(stream_config.clone()).unwrap();
            bare.extend(times.iter().copied()).unwrap();
            let final_snap = bare.finish().unwrap();
            assert_eq!(
                verdict.pwcet, final_snap.distribution,
                "jobs={jobs} channel={name} pWCET diverged from bare StreamAnalyzer"
            );
            assert_eq!(
                verdict.budget_for(1e-12).unwrap(),
                final_snap.distribution.budget_for(1e-12).unwrap()
            );
            assert_eq!(verdict.fit.gumbel, *final_snap.distribution.tail());
            assert_eq!(verdict.summary.n, times.len());
            assert_eq!(verdict.summary.high_watermark, final_snap.high_watermark);
            assert_eq!(verdict.provenance.converged, Some(final_snap.converged));
        }
    }
}

#[test]
fn adversarial_interleavings_yield_identical_verdicts() {
    // Three very different interleavings of the same two feeds: strict
    // round-robin, sequential (all of a then all of b), and bursty
    // (prng-driven bursts of 1..8).
    let a = campaign(1.0e5, 900, 2);
    let b = campaign(1.25e5, 900, 21);

    let round_robin: Vec<Tagged> = interleave(&[("a", a.clone()), ("b", b.clone())]);
    let sequential: Vec<Tagged> = a
        .iter()
        .map(|&x| Tagged::new("a", x))
        .chain(b.iter().map(|&y| Tagged::new("b", y)))
        .collect();
    let bursty: Vec<Tagged> = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut feed = Vec::new();
        while ia < a.len() || ib < b.len() {
            let burst = 1 + (rng.gen::<f64>() * 7.0) as usize;
            let pick_a = ib >= b.len() || (ia < a.len() && rng.gen::<f64>() < 0.5);
            for _ in 0..burst {
                if pick_a && ia < a.len() {
                    feed.push(Tagged::new("a", a[ia]));
                    ia += 1;
                } else if ib < b.len() {
                    feed.push(Tagged::new("b", b[ib]));
                    ib += 1;
                }
            }
        }
        feed
    };

    let run = |feed: &[Tagged]| {
        let mut session = MbptaConfig::default()
            .session()
            .build_stream_with(StreamConfig {
                block_size: 25,
                refit_every_blocks: 4,
                ..StreamConfig::default()
            })
            .unwrap();
        session.extend(feed.iter().cloned()).unwrap();
        session.merge()
    };
    let rr = run(&round_robin);
    let seq = run(&sequential);
    let burst = run(&bursty);
    for ch in ["a", "b"] {
        let v_rr = rr.verdict(ch).unwrap().as_ref().unwrap();
        let v_seq = seq.verdict(ch).unwrap().as_ref().unwrap();
        let v_burst = burst.verdict(ch).unwrap().as_ref().unwrap();
        assert_eq!(v_rr, v_seq, "channel {ch}: round-robin vs sequential");
        assert_eq!(v_rr, v_burst, "channel {ch}: round-robin vs bursty");
    }
}

#[test]
fn single_channel_stream_session_equals_bare_stream_analyzer() {
    let times = campaign(1e5, 3000, 6);
    let stream_config = StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        ..StreamConfig::default()
    };
    let mut bare = StreamAnalyzer::new(stream_config.clone()).expect("bare analyzer");
    bare.extend(times.iter().copied()).unwrap();
    let bare_final = bare.finish().unwrap();
    let mut session = MbptaConfig::default()
        .session()
        .build_stream_with(stream_config)
        .unwrap();
    for &x in &times {
        session.push(Tagged::new("only", x)).unwrap();
    }
    let merged = session.merge();
    let verdict = merged.verdict("only").unwrap().as_ref().unwrap();
    assert_eq!(verdict.pwcet, bare_final.distribution);
    assert_eq!(verdict.summary.high_watermark, bare_final.high_watermark);
}

#[test]
fn pooled_measurement_feeds_session_like_standalone_campaigns() {
    // `run_many` (one thread pool for all paths) + session demux equals
    // measuring and analysing each path separately.
    let tvca = Tvca::new(TvcaConfig::default());
    let modes = [ControlMode::Nominal, ControlMode::FaultRecovery];
    let traces: Vec<Vec<Inst>> = modes.iter().map(|m| tvca.trace(*m)).collect();
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(2);
    let pooled = runner.run_many(&traces, 600, 11).expect("pooled campaigns");

    let config = MbptaConfig {
        min_runs: 100,
        ..MbptaConfig::default()
    };
    let mut session = config.clone().session().build_batch().unwrap();
    for (t, campaign) in pooled.iter().enumerate() {
        let mut ch = session.channel(format!("path{t}")).unwrap();
        for &x in campaign.times() {
            ch.push(x);
        }
    }
    let merged = session.merge();
    assert!(merged.all_ok());
    for (t, campaign) in pooled.iter().enumerate() {
        let verdict = merged
            .verdict(&format!("path{t}"))
            .unwrap()
            .as_ref()
            .unwrap();
        let standalone = config
            .analyze(campaign.times())
            .expect("standalone analysis");
        assert_eq!(verdict.clone().into_report().unwrap(), standalone);
    }
}

proptest! {
    /// A single-channel batch session is bit-identical to the bare batch
    /// pipeline for arbitrary (analysable or not) campaigns.
    #[test]
    fn prop_single_channel_session_equals_bare_analyze(
        seed in 0u64..200,
        n in 300usize..900,
        base in 1e4f64..1e6,
    ) {
        let times = campaign(base, n, seed);
        let config = MbptaConfig::default();
        // Snapshots off: the property is about the final verdict.
        let mut session = config.clone().session().snapshot_every(0).build_batch().unwrap();
        session.extend(times.iter().map(|&x| Tagged::new("campaign", x))).unwrap();
        let session_outcome = session.merge().into_channels().pop().unwrap().outcome;
        let bare_outcome = config.analyze(&times);
        match (session_outcome, bare_outcome) {
            (Ok(verdict), Ok(report)) => {
                prop_assert_eq!(verdict.into_report().unwrap(), report);
            }
            // The session scopes a channel's error to the channel.
            (Err(MbptaError::Channel { source, .. }), Err(be)) => prop_assert_eq!(*source, be),
            (s, b) => prop_assert!(
                false,
                "outcomes diverged: session={s:?} bare={b:?}"
            ),
        }
    }

    /// Any deterministic interleaving of two channels yields the same
    /// per-channel verdicts as sequential ingestion.
    #[test]
    fn prop_interleaving_invariance(
        seed in 0u64..100,
        pattern in prop::collection::vec(any::<bool>(), 32..128),
    ) {
        let a = campaign(1.0e5, 700, seed.wrapping_mul(2).wrapping_add(4));
        let b = campaign(1.2e5, 700, seed.wrapping_mul(2).wrapping_add(104));
        // Build an interleaving from the boolean pattern (cycled).
        let mut feed = Vec::new();
        let (mut ia, mut ib) = (0usize, 0usize);
        let mut k = 0usize;
        while ia < a.len() || ib < b.len() {
            let pick_a = ia < a.len() && (ib >= b.len() || pattern[k % pattern.len()]);
            if pick_a {
                feed.push(Tagged::new("a", a[ia]));
                ia += 1;
            } else {
                feed.push(Tagged::new("b", b[ib]));
                ib += 1;
            }
            k += 1;
        }
        let run = |feed: &[Tagged]| {
            // Snapshots off: the property is about verdicts, and skipping
            // the scheduler keeps 64 proptest cases cheap.
            let mut session = MbptaConfig::default()
                .session()
                .snapshot_every(0)
                .build_batch()
                .unwrap();
            session.extend(feed.iter().cloned()).unwrap();
            session.merge()
        };
        let sequential: Vec<Tagged> = a
            .iter()
            .map(|&x| Tagged::new("a", x))
            .chain(b.iter().map(|&y| Tagged::new("b", y)))
            .collect();
        let shuffled = run(&feed);
        let ordered = run(&sequential);
        for ch in ["a", "b"] {
            let vs = shuffled.verdict(ch).unwrap().as_ref();
            let vo = ordered.verdict(ch).unwrap().as_ref();
            match (vs, vo) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(false, "channel {} outcome shape diverged", ch),
            }
        }
    }
}
