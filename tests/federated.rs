//! Acceptance tests of the federated sharded streaming subsystem (PR 4's
//! tentpole): a session channel backed by N federated shards produces,
//! on the TVCA paths, the same pWCET as the unsharded streaming analyzer
//! — bit-identical at block-aligned shard boundaries, and within the 1%
//! stream-vs-batch bound of the batch pipeline.

use proxima::prelude::*;
use proxima::stream::StreamConfig;

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        ..StreamConfig::default()
    }
}

const TVCA_PATHS: &[ControlMode] = &[
    ControlMode::Nominal,
    ControlMode::SaturatedX,
    ControlMode::SaturatedY,
    ControlMode::FaultRecovery,
];

#[test]
fn sharded_sessions_agree_with_single_stream_on_every_tvca_path() {
    let runs = 2000;
    for &mode in TVCA_PATHS {
        let trace = Tvca::new(TvcaConfig::default()).trace(mode);
        let campaign = CampaignRunner::new(PlatformConfig::mbpta_compliant())
            .run(trace, runs, 10_000_000)
            .expect("campaign");
        let times = campaign.times();

        let mut single = StreamAnalyzer::new(stream_config()).expect("config");
        single.extend(times.iter().copied()).expect("clean stream");
        let single_final = single.finish().expect("final");

        // The batch pipeline on the same fixed block is the paper-side
        // reference; the stream-vs-batch bound carries over to shards.
        let batch = MbptaConfig {
            block: BlockSpec::Fixed(25),
            ..MbptaConfig::default()
        }
        .analyze(times)
        .expect("batch analysis");
        let batch_budget = batch.budget_for(1e-12).expect("budget");

        for shards in [1usize, 3, 4] {
            let config = FederatedConfig::new(stream_config(), shards).balanced_for(runs);
            let mut session = MbptaConfig::default()
                .session()
                .build_federated_with(config)
                .expect("valid config");
            {
                let mut channel = session.channel("path").expect("fresh channel");
                for &x in times {
                    channel.push(x);
                }
            }
            let merged = session.merge();
            let verdict = merged.verdict("path").unwrap().as_ref().expect("analysed");
            let sharded_budget = verdict.budget_for(1e-12).expect("budget");
            // Bit-identical to the unsharded stream…
            assert_eq!(
                verdict.pwcet, single_final.distribution,
                "{mode:?} shards={shards} diverged from the single stream"
            );
            assert_eq!(verdict.summary.high_watermark, single_final.high_watermark);
            assert_eq!(verdict.summary.n, runs);
            // …and within the PR 2 stream-vs-batch bound of the batch
            // pipeline (exact at this fixed block).
            let rel = (sharded_budget / batch_budget - 1.0).abs();
            assert!(rel < 0.01, "{mode:?} shards={shards} rel={rel}");
        }
    }
}

#[test]
fn federated_envelope_matches_streaming_envelope() {
    // A 4-channel federated session and a 4-channel streaming session on
    // the same pooled TVCA campaigns produce the same envelope.
    let runs = 1200;
    let tvca = Tvca::new(TvcaConfig::default());
    let traces: Vec<Vec<Inst>> = TVCA_PATHS.iter().map(|&m| tvca.trace(m)).collect();
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(2);
    let campaigns = runner.run_many(&traces, runs, 7).expect("pooled campaigns");

    let mut streaming = MbptaConfig::default()
        .session()
        .build_stream_with(stream_config())
        .expect("config");
    for (t, campaign) in campaigns.iter().enumerate() {
        let mut ch = streaming.channel(format!("path{t}")).expect("channel");
        for &x in campaign.times() {
            ch.push(x);
        }
    }
    let streaming = streaming.merge();

    let mut federated = MbptaConfig::default()
        .session()
        .build_federated_with(FederatedConfig::new(stream_config(), 4).balanced_for(runs))
        .expect("config");
    for (t, campaign) in campaigns.iter().enumerate() {
        let mut ch = federated.channel(format!("path{t}")).expect("channel");
        for &x in campaign.times() {
            ch.push(x);
        }
    }
    let federated = federated.merge();

    assert!(streaming.all_ok() && federated.all_ok());
    let (worst_s, budget_s) = streaming.envelope_budget(1e-12).expect("envelope");
    let (worst_f, budget_f) = federated.envelope_budget(1e-12).expect("envelope");
    assert_eq!(worst_s, worst_f);
    assert_eq!(budget_s, budget_f, "sharded envelope diverged");
    assert_eq!(streaming.high_watermark(), federated.high_watermark());
}
