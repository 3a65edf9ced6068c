//! The streaming [`Engine`] implementation: plugs [`StreamAnalyzer`]
//! into the multi-channel session core of `proxima-mbpta`.
//!
//! * [`StreamEngine`] adapts one analyzer to the
//!   [`Engine`] contract, projecting its
//!   [`PwcetSnapshot`]s into the session's
//!   [`EngineEstimate`] vocabulary
//!   and its final state into a [`Verdict`].
//! * [`StreamFactory`] creates one engine per session channel, all
//!   sharing one [`StreamConfig`].
//! * [`SessionStreamExt`] hangs `build_stream` / `build_stream_with` off
//!   [`SessionBuilder`].
//!
//! The adapter adds nothing on the measurement path, so a single-channel
//! streaming session is **bit-identical** to driving a bare
//! [`StreamAnalyzer`] over the same feed (asserted by the session
//! acceptance tests).

use proxima_mbpta::engine::{
    fit_from_maxima, Engine, EngineEstimate, EngineFactory, EngineKind, IidEvidence,
    ObservationSummary, Provenance, Verdict,
};
use proxima_mbpta::session::{AnalysisSession, ChannelId};
use proxima_mbpta::{MbptaError, SessionBuilder};

use crate::analyzer::{PwcetSnapshot, StreamAnalyzer, StreamConfig};
use crate::monitor::{IidHealth, IidStatus};

/// Project the rolling monitor's health into the session-level i.i.d.
/// vocabulary.
pub(crate) fn iid_evidence(health: IidHealth) -> IidEvidence {
    IidEvidence::Rolling {
        healthy: match health.status {
            IidStatus::Warming => None,
            IidStatus::Healthy => Some(true),
            IidStatus::Suspect => Some(false),
        },
        ljung_box_p: health.ljung_box_p,
        runs_p: health.runs_p,
        window_len: health.window_len,
    }
}

/// Finish `analyzer` and assemble the session [`Verdict`] every
/// stream-backed engine shares: final refit, fit evidence recomputed
/// from the maxima buffer, sketch-exact summary, rolling i.i.d.
/// evidence. `provenance.converged` carries the analyzer's online
/// convergence state when `online_convergence` is set (a federated fold
/// has no online history and passes `false` → `None`).
pub(crate) fn finish_into_verdict(
    analyzer: &mut StreamAnalyzer,
    engine: EngineKind,
    online_convergence: bool,
) -> Result<Verdict, MbptaError> {
    let snapshot = analyzer.finish()?;
    let fit = fit_from_maxima(analyzer.maxima(), analyzer.config().block_size)?;
    Ok(Verdict {
        summary: ObservationSummary {
            n: snapshot.n,
            high_watermark: snapshot.high_watermark,
            mean: analyzer.sketch().mean(),
            detail: None,
        },
        iid: iid_evidence(analyzer.monitor().health()),
        fit,
        pwcet: snapshot.distribution,
        provenance: Provenance {
            engine,
            n: snapshot.n,
            converged: online_convergence.then_some(snapshot.converged),
            channel: None,
        },
    })
}

/// Project an analyzer snapshot into the session estimate vocabulary.
fn estimate_from_snapshot(snap: &PwcetSnapshot) -> EngineEstimate {
    EngineEstimate {
        n: snap.n,
        blocks: Some(snap.blocks),
        pwcet: snap.pwcet,
        distribution: snap.distribution,
        ci: snap.ci,
        convergence_delta: snap.convergence_delta,
        iid: Some(iid_evidence(snap.iid_status)),
        converged: snap.converged,
        high_watermark: snap.high_watermark,
    }
}

/// A bounded-memory streaming engine for one session channel: wraps a
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
        // Snapshots are cached inside the analyzer; the session polls
        // them through `estimate`.
        self.analyzer.push(x).map(|_| ())
    }

    fn push_batch(&mut self, xs: &[f64]) -> Result<(), MbptaError> {
        self.analyzer.push_batch(xs).map(|_| ())
    }

    fn len(&self) -> usize {
        self.analyzer.len()
    }

    fn estimate(&mut self) -> Option<EngineEstimate> {
        self.analyzer.last_snapshot().map(estimate_from_snapshot)
    }

    fn quiet_horizon(&self) -> Option<usize> {
        // The cached snapshot and the convergence latch only move when a
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
    /// Build a session running one bounded-memory streaming engine per
    /// channel, deriving the [`StreamConfig`] from the builder's batch
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
        // snapshots: same count, same n, same pwcet bits.
        assert_eq!(session_snaps.len(), bare_snaps.len());
        for (s, b) in session_snaps.iter().zip(&bare_snaps) {
            assert_eq!(s.estimate.n, b.n);
            assert_eq!(s.estimate.pwcet, b.pwcet);
            assert_eq!(s.estimate.ci, b.ci);
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
}
