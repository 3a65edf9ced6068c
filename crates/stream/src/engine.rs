//! The streaming [`Engine`] implementation: plugs [`StreamAnalyzer`]
//! into the multi-channel session core of `proxima-mbpta`.
//!
//! * [`StreamEngine`] adapts one analyzer to the [`Engine`] contract:
//!   the analyzer already speaks the session's [`EngineEstimate`]
//!   vocabulary, so its estimates pass through unchanged, and its final
//!   state becomes a [`Verdict`].
//! * [`StreamFactory`] creates one engine per session channel, all
//!   sharing one [`StreamConfig`].
//! * [`SessionStreamExt`] hangs `build_stream` / `build_stream_with` off
//!   [`SessionBuilder`].
//!
//! The adapter adds nothing on the measurement path, so a single-channel
//! streaming session is **bit-identical** to driving a bare
//! [`StreamAnalyzer`] over the same feed (asserted by the session
//! acceptance tests).
//!
//! The engines ingest without reading estimates, so a refit's bootstrap
//! CI is computed only when the session emits that estimate
//! ([`Engine::estimate`]) or a checkpoint encodes it. The session's
//! freshness polls read [`Engine::estimate_n`], which computes none, and
//! the verdict path ([`Engine::finish`]) computes none either.

use proxima_mbpta::engine::{
    fit_from_maxima, Engine, EngineEstimate, EngineFactory, EngineKind, ObservationSummary,
    Provenance, Verdict,
};
use proxima_mbpta::session::{AnalysisSession, ChannelId};
use proxima_mbpta::{MbptaError, SessionBuilder};

use crate::analyzer::{StreamAnalyzer, StreamConfig};

/// Finish `analyzer` and assemble the session [`Verdict`] every
/// stream-backed engine shares: final refit (no bootstrap — a verdict
/// carries no CI), fit evidence around that refit's Gumbel (the
/// goodness-of-fit and GEV diagnostics read the maxima buffer),
/// sketch-exact summary, rolling i.i.d. evidence. When the final refit
/// ran in this call, its estimate's evidence is the verdict's: the window
/// has not moved since, so evaluating it again would give the same bits.
/// `provenance.converged` carries the analyzer's online convergence
/// state when `online_convergence` is set (a federated fold has no
/// online history and passes `false` → `None`).
pub(crate) fn finish_into_verdict(
    analyzer: &mut StreamAnalyzer,
    engine: EngineKind,
    online_convergence: bool,
) -> Result<Verdict, MbptaError> {
    let refits_before = analyzer.snapshots_emitted();
    let estimate = analyzer.finish_fit()?;
    let iid = match estimate.iid {
        Some(iid) if analyzer.snapshots_emitted() > refits_before => iid,
        _ => analyzer.monitor().health(),
    };
    let fit = fit_from_maxima(
        *estimate.distribution.tail(),
        analyzer.maxima(),
        analyzer.config().block_size,
    )?;
    Ok(Verdict {
        summary: ObservationSummary {
            n: estimate.n,
            high_watermark: estimate.high_watermark,
            mean: analyzer.sketch().mean(),
            detail: None,
        },
        iid,
        fit,
        pwcet: estimate.distribution,
        provenance: Provenance {
            engine,
            n: estimate.n,
            converged: online_convergence.then_some(estimate.converged),
            channel: None,
        },
    })
}

/// A streaming engine for one session channel: wraps a
/// [`StreamAnalyzer`] and speaks the session's [`Engine`] contract.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    analyzer: StreamAnalyzer,
}

impl StreamEngine {
    /// An engine running `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: StreamConfig) -> Result<Self, MbptaError> {
        Ok(StreamEngine {
            analyzer: StreamAnalyzer::new(config)?,
        })
    }

    /// The wrapped analyzer (sketch, monitor and maxima access).
    pub fn analyzer(&self) -> &StreamAnalyzer {
        &self.analyzer
    }

    /// Fold a **sealed federated checkpoint blob**
    /// ([`save_federated`](crate::persist::save_federated) format) into a
    /// live stream engine — the coordinator-side ingestion surface of
    /// the data-never-leaves-the-shard model: remote shards ship sealed
    /// analyzer state, never raw measurements.
    ///
    /// The blob's checksum/version are verified by
    /// [`load_federated`](crate::persist::load_federated), its stream
    /// configuration is checked against `expected` (a blob analysed
    /// under different settings must not fold silently), and the shards
    /// are folded with [`FederatedAnalyzer::merged`] — so the result is
    /// bit-identical at **any** shard count. The returned engine keeps
    /// accepting measurements; [`Engine::save_state`] on it yields
    /// engine-state bytes a session can
    /// [adopt](proxima_mbpta::session::AnalysisSession::adopt_channel).
    ///
    /// [`FederatedAnalyzer::merged`]: crate::federated::FederatedAnalyzer::merged
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Checkpoint`] for truncated, corrupted,
    /// wrong-magic/version or configuration-mismatched blobs.
    pub fn from_federated_blob(bytes: &[u8], expected: &StreamConfig) -> Result<Self, MbptaError> {
        let fed = crate::persist::load_federated(bytes)?;
        if fed.config().stream != *expected {
            return Err(MbptaError::checkpoint(
                "federated blob's stream configuration does not match the coordinator's",
            ));
        }
        Ok(StreamEngine {
            analyzer: fed.merged()?,
        })
    }
}

impl Engine for StreamEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Stream
    }

    fn push(&mut self, x: f64) -> Result<(), MbptaError> {
        // Estimates are cached inside the analyzer, their CIs owed; the
        // session polls them through `estimate_n` and `estimate`.
        self.analyzer.ingest(x).map(|_| ())
    }

    fn push_batch(&mut self, xs: &[f64]) -> Result<(), MbptaError> {
        self.analyzer.ingest_batch(xs, |_| {})
    }

    fn len(&self) -> usize {
        self.analyzer.len()
    }

    fn estimate(&mut self) -> Option<EngineEstimate> {
        self.analyzer.last_snapshot()
    }

    fn estimate_n(&mut self) -> Option<usize> {
        self.analyzer.last_snapshot.map(|snap| snap.n)
    }

    fn quiet_horizon(&self) -> Option<usize> {
        // The cached estimate and the convergence latch only move when a
        // refit checkpoint completes; everything strictly before the
        // next one is a quiet stretch.
        Some(self.analyzer.measurements_until_refit().saturating_sub(1))
    }

    fn converged(&self) -> bool {
        self.analyzer.converged()
    }

    fn finish(&mut self) -> Result<Verdict, MbptaError> {
        finish_into_verdict(&mut self.analyzer, EngineKind::Stream, true)
    }

    fn save_state(&self) -> Result<Vec<u8>, MbptaError> {
        use proxima_mbpta::persist::{seal, Encode, Writer, MAGIC_ENGINE};
        let mut w = Writer::new();
        EngineKind::Stream.encode(&mut w);
        self.analyzer.encode(&mut w);
        Ok(seal(MAGIC_ENGINE, w.into_bytes()))
    }
}

/// Creates a [`StreamEngine`] per session channel, all sharing one
/// [`StreamConfig`]. Every channel gets the same bootstrap seed — each
/// channel resamples its own maxima, so the intervals stay independent
/// and a single-channel session stays bit-identical to a bare analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFactory {
    config: StreamConfig,
}

impl StreamFactory {
    /// A factory for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: StreamConfig) -> Result<Self, MbptaError> {
        config.validate()?;
        Ok(StreamFactory { config })
    }

    /// The shared streaming configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }
}

impl EngineFactory for StreamFactory {
    type Engine = StreamEngine;

    fn create(&self, _channel: &ChannelId) -> Result<StreamEngine, MbptaError> {
        StreamEngine::new(self.config.clone())
    }

    fn restore(&self, _channel: &ChannelId, state: &[u8]) -> Result<StreamEngine, MbptaError> {
        use proxima_mbpta::persist::{unseal, Decode, Reader, MAGIC_ENGINE};
        let payload = unseal(state, MAGIC_ENGINE)?;
        let mut r = Reader::new(payload);
        let kind = EngineKind::decode(&mut r)?;
        if !matches!(kind, EngineKind::Stream) {
            return Err(MbptaError::checkpoint(format!(
                "checkpointed engine is `{kind}`, session expects `stream`"
            )));
        }
        let analyzer = StreamAnalyzer::decode(&mut r)?;
        r.finish()?;
        if *analyzer.config() != self.config {
            return Err(MbptaError::checkpoint(
                "checkpointed stream engine configuration does not match the session's",
            ));
        }
        Ok(StreamEngine { analyzer })
    }
}

/// Extension trait hanging the streaming session builders off
/// [`SessionBuilder`] (the batch crate cannot depend on this one; through
/// the facade prelude these read as builder methods).
pub trait SessionStreamExt: Sized {
    /// Build a session running one streaming engine per channel,
    /// deriving the [`StreamConfig`] from the builder's batch
    /// configuration ([`StreamConfig::from_mbpta`]) and its target
    /// cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the derived configuration
    /// is invalid.
    fn build_stream(self) -> Result<AnalysisSession<StreamFactory>, MbptaError>;

    /// Build a streaming session with explicit streaming knobs.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if `config` is invalid.
    fn build_stream_with(
        self,
        config: StreamConfig,
    ) -> Result<AnalysisSession<StreamFactory>, MbptaError>;
}

impl SessionStreamExt for SessionBuilder {
    fn build_stream(self) -> Result<AnalysisSession<StreamFactory>, MbptaError> {
        let config = StreamConfig {
            target_p: self.target_cutoff(),
            ..StreamConfig::from_mbpta(self.mbpta_config())
        };
        self.build_stream_with(config)
    }

    fn build_stream_with(
        self,
        config: StreamConfig,
    ) -> Result<AnalysisSession<StreamFactory>, MbptaError> {
        self.build_with(StreamFactory::new(config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_mbpta::engine::IidEvidence;
    use proxima_mbpta::session::Tagged;
    use proxima_mbpta::MbptaConfig;
    use rand::{Rng, SeedableRng};

    fn times(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    fn stream_config() -> StreamConfig {
        StreamConfig {
            block_size: 25,
            refit_every_blocks: 4,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn single_channel_stream_session_is_bit_identical_to_bare_analyzer() {
        let data = times(3000, 1);

        let mut bare = StreamAnalyzer::new(stream_config()).unwrap();
        let bare_snaps = bare.extend(data.iter().copied()).unwrap();
        let bare_final = bare.finish().unwrap();

        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(1)
            .build_stream_with(stream_config())
            .unwrap();
        let mut session_snaps = Vec::new();
        for &x in &data {
            if let Some(s) = session.push(Tagged::new("only", x)).unwrap() {
                session_snaps.push(s);
            }
        }
        // The scheduler at period 1 re-emits exactly the analyzer's refit
        // estimates: same count, every field the same.
        assert_eq!(session_snaps.len(), bare_snaps.len());
        for (s, b) in session_snaps.iter().zip(&bare_snaps) {
            assert_eq!(s.estimate, *b);
        }
        let merged = session.merge();
        let verdict = merged.verdict("only").unwrap().as_ref().unwrap();
        assert_eq!(verdict.pwcet, bare_final.distribution);
        assert_eq!(
            verdict.budget_for(1e-12).unwrap(),
            bare_final.distribution.budget_for(1e-12).unwrap()
        );
        assert_eq!(verdict.summary.n, 3000);
        assert_eq!(verdict.provenance.engine, EngineKind::Stream);
        assert_eq!(verdict.provenance.converged, Some(bare_final.converged));
        assert_eq!(verdict.fit.gumbel, *bare_final.distribution.tail());
    }

    #[test]
    fn bad_value_quarantines_stream_channel() {
        let mut session = MbptaConfig::default()
            .session()
            .build_stream_with(stream_config())
            .unwrap();
        for &x in times(2000, 2).iter() {
            session.push(Tagged::new("good", x)).unwrap();
        }
        session.push(Tagged::new("bad", f64::NAN)).unwrap();
        session.push(Tagged::new("bad", 100.0)).unwrap(); // dropped
        let merged = session.merge();
        assert!(merged.verdict("good").unwrap().is_ok());
        let (id, err) = merged.failures().next().unwrap();
        assert_eq!(id.as_str(), "bad");
        assert!(matches!(err, MbptaError::Channel { .. }));
        assert_eq!(merged.channels()[1].dropped, 1);
    }

    #[test]
    fn stream_verdict_reports_rolling_iid() {
        let mut engine = StreamEngine::new(stream_config()).unwrap();
        for x in times(2000, 3) {
            engine.push(x).unwrap();
        }
        let verdict = engine.finish().unwrap();
        assert!(matches!(verdict.iid, IidEvidence::Rolling { .. }));
        assert!(verdict.iid.acceptable());
        assert!(verdict.summary.detail.is_none());
        assert!(verdict.summary.mean.is_some());
        assert!(verdict.fit.pot_cross_check.is_none());
        assert!(
            verdict.clone().into_report().is_none(),
            "stream verdicts have no batch view"
        );
    }

    /// A verdict's i.i.d. evidence is the health of the window it was
    /// finished on: the final refit's own evaluation when `finish`
    /// refits, a fresh one when it returns the cached estimate (the
    /// window may have moved since that estimate).
    #[test]
    fn verdict_evidence_is_the_finished_windows_health() {
        let data = times(2_000, 5);
        // Block 25, a refit every 4 blocks from block 10: the last
        // refit before 1,950 values is at block 78 = 1,950 values.
        for (n, refits_at_finish) in [(2_000, true), (1_950, false), (1_960, false)] {
            let mut engine = StreamEngine::new(stream_config()).unwrap();
            engine.push_batch(&data[..n]).unwrap();
            let cached = engine.analyzer().last_snapshot.unwrap();
            let before = engine.analyzer().snapshots_emitted();
            let verdict = engine.finish().unwrap();
            let refit = engine.analyzer().snapshots_emitted() > before;
            assert_eq!(refit, refits_at_finish, "n = {n}");
            let health = engine.analyzer().monitor().health();
            assert_eq!(verdict.iid, health, "n = {n}");
            let estimate = engine.analyzer().last_snapshot.unwrap();
            assert_eq!(estimate.iid, if refit { Some(health) } else { cached.iid });
            if n == 1_960 {
                // Ten values past the cached estimate: its health is
                // stale, and reusing it would have moved the verdict.
                assert_ne!(cached.iid, Some(health));
            }
        }
    }

    #[test]
    fn builder_derives_stream_config_from_batch() {
        use proxima_mbpta::BlockSpec;
        let session = MbptaConfig {
            block: BlockSpec::Fixed(30),
            ..MbptaConfig::default()
        }
        .session()
        .target_p(1e-9)
        .build_stream()
        .unwrap();
        // Factory config is observable through a channel's engine.
        let mut session = session;
        {
            let mut ch = session.channel("probe").unwrap();
            ch.push(1.0);
        }
        let merged = session.merge();
        // Too little data: the channel fails, but with the derived knobs
        // (CampaignTooSmall mentions the 30-sized blocks × min_blocks).
        let (_, err) = merged.failures().next().unwrap();
        assert!(err.to_string().contains("campaign too small"));
    }

    #[test]
    fn invalid_stream_config_rejected_at_build() {
        let bad = StreamConfig {
            block_size: 0,
            ..StreamConfig::default()
        };
        assert!(MbptaConfig::default()
            .session()
            .build_stream_with(bad)
            .is_err());
    }

    #[test]
    fn engine_ingest_and_finish_leave_the_snapshot_ci_owed_until_read() {
        let data = times(2_000, 4);
        let mut engine = StreamEngine::new(stream_config()).unwrap();
        engine.push_batch(&data[..1_000]).unwrap();
        for &x in &data[1_000..] {
            engine.push(x).unwrap();
        }
        // 80 blocks, a refit every 4 from block 10 on: 18 refits, none
        // of them read.
        assert_eq!(engine.analyzer().snapshots_emitted(), 18);
        assert!(engine.analyzer.last_snapshot.is_some());
        assert_eq!(engine.estimate_n(), Some(1_950));
        assert!(
            engine.analyzer.last_ci.get().is_none(),
            "ingest bootstrapped"
        );

        // Block 80 is off the refit cadence, so the verdict refits — and
        // still computes no CI.
        let mut finished = engine.clone();
        finished.finish().unwrap();
        assert_eq!(finished.analyzer().snapshots_emitted(), 19);
        assert!(
            finished.analyzer.last_ci.get().is_none(),
            "finish bootstrapped"
        );

        // A read fills the cell with the interval an eager analyzer
        // computed for the same snapshot...
        let mut bare = StreamAnalyzer::new(stream_config()).unwrap();
        bare.push_batch(&data).unwrap();
        let eager = bare.finish().unwrap();
        let spec = stream_config().bootstrap.unwrap();
        let direct = proxima_mbpta::confidence::interval_from_maxima(
            bare.maxima(),
            25,
            eager.pwcet,
            1e-12,
            spec.level,
            spec.resamples,
            proxima_prng::SplitMix64::stream_seed(spec.seed, 18),
            1,
        )
        .unwrap();
        assert_eq!(eager.ci, Some(direct), "snapshot 18's eager interval");
        let mut read = finished.clone();
        let estimate = read.estimate().unwrap();
        assert_eq!(estimate.n, eager.n);
        assert_eq!(estimate.ci, eager.ci);
        assert_eq!(read.analyzer.last_ci.get(), Some(&eager.ci));
        // ...and so does an encode, to the same bytes.
        let encoded = finished.clone();
        let bytes = encoded.save_state().unwrap();
        assert_eq!(encoded.analyzer.last_ci.get(), Some(&eager.ci));
        assert_eq!(bytes, read.save_state().unwrap());

        // The federated engine's shards ingest without reading too.
        let config = crate::FederatedConfig::new(stream_config(), 3).balanced_for(data.len());
        let mut federated = crate::FederatedEngine::new(config).unwrap();
        federated.push_batch(&data).unwrap();
        for shard in federated.analyzer().shards() {
            assert!(shard.snapshots_emitted() > 0);
            assert!(shard.last_ci.get().is_none(), "a shard bootstrapped");
        }
    }
}
