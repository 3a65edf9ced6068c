//! Federated sharded streaming: independent per-shard analyzers whose
//! mergeable states fold into one verdict.
//!
//! At production scale one campaign's runs land on many shards — one per
//! measurement host, per thread, per trace partition — and no single
//! observer sees every measurement. The federated quantile-estimation
//! shape solves this without centralizing the raw stream: every shard
//! maintains its own [`StreamAnalyzer`] state (quantile sketch, rolling
//! i.i.d. window, block-maxima buffer), and a coordinator folds the
//! shard states at finish time:
//!
//! * sketches merge with the additive `ε₁+ε₂` rank-error guarantee
//!   ([`QuantileSketch::merge`](crate::sketch::QuantileSketch::merge)) —
//!   at one common per-shard `ε` the union stays within `ε·n`;
//! * block-maxima buffers concatenate in shard order — with shard
//!   boundaries aligned to the block size (this module aligns them), the
//!   folded buffer is **bit-identical** to the single-stream buffer, so
//!   the folded Gumbel fit and pWCET are bit-identical too, at every
//!   shard count;
//! * rolling i.i.d. windows fold into exactly the single monitor's
//!   window ([`IidMonitor::merge`](crate::monitor::IidMonitor::merge)).
//!
//! [`FederatedAnalyzer`] manages the shards and the fold;
//! [`FederatedEngine`]/[`FederatedFactory`] plug it into the
//! multi-channel session core so a session channel is backed by shards
//! transparently (`mbpta session --shards N` is the CLI form). Shards are
//! fed **contiguous run ranges**: shard `s` owns measurements
//! `[s·L, (s+1)·L)` (the last shard also takes any overflow), matching
//! how a real campaign splits its run indices across hosts.

use proxima_mbpta::engine::{Engine, EngineEstimate, EngineFactory, EngineKind, Verdict};
use proxima_mbpta::session::{AnalysisSession, ChannelId};
use proxima_mbpta::{MbptaError, SessionBuilder};

use crate::analyzer::{StreamAnalyzer, StreamConfig};
use crate::engine::finish_into_verdict;

/// Blocks per shard when [`FederatedConfig::shard_len`] is left at 0.
const DEFAULT_SHARD_BLOCKS: usize = 100;

/// Configuration of a federated (sharded) streaming analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedConfig {
    /// The per-shard streaming configuration (every shard runs the same
    /// one — merging requires it).
    pub stream: StreamConfig,
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// Measurements routed to each shard before moving to the next;
    /// rounded **up** to a multiple of the block size so every shard
    /// boundary is a block boundary (`0` = 100 blocks). The last shard
    /// absorbs any overflow beyond `shards × shard_len`.
    pub shard_len: usize,
}

impl FederatedConfig {
    /// A federated configuration over `shards` shards of `stream`, with
    /// shard length chosen automatically.
    pub fn new(stream: StreamConfig, shards: usize) -> Self {
        FederatedConfig {
            stream,
            shards,
            shard_len: 0,
        }
    }

    /// Balance `total` expected measurements across the shards: the
    /// shard length becomes `⌈total / shards⌉` rounded up to a block
    /// multiple, so every shard gets a near-equal contiguous range.
    #[must_use]
    pub fn balanced_for(mut self, total: usize) -> Self {
        self.shard_len = total.div_ceil(self.shards.max(1));
        self
    }

    /// The effective (block-aligned) shard length.
    pub fn effective_shard_len(&self) -> usize {
        let block = self.stream.block_size.max(1);
        let len = if self.shard_len == 0 {
            DEFAULT_SHARD_BLOCKS * block
        } else {
            self.shard_len
        };
        len.div_ceil(block) * block
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the per-shard stream
    /// configuration is invalid or `shards` is zero.
    pub fn validate(&self) -> Result<(), MbptaError> {
        self.stream.validate()?;
        if self.shards == 0 {
            return Err(MbptaError::InvalidConfig {
                what: "federated analysis needs at least one shard",
            });
        }
        Ok(())
    }
}

/// A sharded streaming analyzer: N independent [`StreamAnalyzer`]s over
/// contiguous ranges of one measurement stream, folded on demand.
///
/// # Examples
///
/// ```
/// use proxima_stream::{FederatedAnalyzer, FederatedConfig, StreamAnalyzer, StreamConfig};
/// use rand::{Rng, SeedableRng};
///
/// let stream = StreamConfig {
///     block_size: 25,
///     refit_every_blocks: 4,
///     ..StreamConfig::default()
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let data: Vec<f64> = (0..4000)
///     .map(|_| 2e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 150.0)
///     .collect();
///
/// let config = FederatedConfig::new(stream.clone(), 4).balanced_for(data.len());
/// let mut federated = FederatedAnalyzer::new(config)?;
/// for &x in &data {
///     federated.push(x)?;
/// }
/// let sharded = federated.finish()?;
///
/// let mut single = StreamAnalyzer::new(stream)?;
/// single.extend(data.iter().copied())?;
/// let unsharded = single.finish()?;
/// // Aligned shard boundaries make the fold exact, not just close.
/// assert_eq!(sharded.pwcet, unsharded.pwcet);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FederatedAnalyzer {
    pub(crate) config: FederatedConfig,
    pub(crate) shards: Vec<StreamAnalyzer>,
    pub(crate) shard_len: usize,
    pub(crate) n: usize,
}

impl FederatedAnalyzer {
    /// Create the per-shard analyzers for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: FederatedConfig) -> Result<Self, MbptaError> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|_| StreamAnalyzer::new(config.stream.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let shard_len = config.effective_shard_len();
        Ok(FederatedAnalyzer {
            config,
            shards,
            shard_len,
            n: 0,
        })
    }

    /// The federated configuration.
    pub fn config(&self) -> &FederatedConfig {
        &self.config
    }

    /// The per-shard analyzers, in shard (= stream) order.
    pub fn shards(&self) -> &[StreamAnalyzer] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The effective (block-aligned) measurements-per-shard length.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Measurements ingested across all shards.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` before the first measurement.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Exact high watermark across all shards, if any measurement
    /// arrived.
    pub fn high_watermark(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(StreamAnalyzer::high_watermark)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// `true` once every shard that received data has converged (and at
    /// least one has). Convergence of the *fold* is not tracked online —
    /// shards stream independently; per-shard stability is the federated
    /// proxy.
    ///
    /// **Caveat:** a shard can only converge on the data it sees. With a
    /// shard length below the per-shard convergence horizon
    /// (`min_blocks + stable_snapshots × refit_every_blocks` blocks),
    /// shards never converge and this stays `false` — so
    /// convergence-gated stopping depends on the shard geometry, unlike
    /// the fold itself. The CLI therefore rejects `--shards` together
    /// with `--stop-on-converged`; size `shard_len` generously if you
    /// gate on this from the library.
    pub fn converged(&self) -> bool {
        let mut fed = 0;
        for shard in &self.shards {
            if shard.is_empty() {
                continue;
            }
            if !shard.converged() {
                return false;
            }
            fed += 1;
        }
        fed > 0
    }

    /// The shard the next measurement is routed to.
    fn active_shard(&self) -> usize {
        (self.n / self.shard_len).min(self.shards.len() - 1)
    }

    /// Measurements this analyzer can ingest before its observable
    /// outputs ([`converged`](Self::converged), per-shard snapshots) can
    /// next change: strictly before the active shard's next refit
    /// checkpoint, and never across a shard handoff (a freshly fed shard
    /// flips the convergence verdict).
    pub(crate) fn quiet_horizon(&self) -> usize {
        let s = self.active_shard();
        let shard_h = self.shards[s].measurements_until_refit().saturating_sub(1);
        if s == self.shards.len() - 1 {
            shard_h
        } else {
            shard_h.min((s + 1) * self.shard_len - self.n)
        }
    }

    /// Ingest one measurement into its shard. Returns the shard's
    /// estimate when this measurement completed one of its refit
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Same as [`StreamAnalyzer::push`].
    pub fn push(&mut self, x: f64) -> Result<Option<EngineEstimate>, MbptaError> {
        let s = self.active_shard();
        Ok(if self.ingest(x)? {
            self.shards[s].last_snapshot()
        } else {
            None
        })
    }

    /// [`Self::push`] without reading the shard's estimate: `true` when
    /// this measurement completed one of its refits, whose CI stays owed.
    pub(crate) fn ingest(&mut self, x: f64) -> Result<bool, MbptaError> {
        let s = self.active_shard();
        let refit = self.shards[s].ingest(x)?;
        self.n += 1;
        Ok(refit)
    }

    /// Bulk-ingest a slice of measurements, splitting it at the shard
    /// boundaries so each contiguous piece takes its shard's amortized
    /// [`StreamAnalyzer::push_batch`] path. Estimates come back in the
    /// order the itemized loop would have emitted them, and the analyzer
    /// state — every shard — is bit-identical to it at every batch split.
    ///
    /// # Errors
    ///
    /// Same as [`Self::push`]: ingestion stops at the first non-finite or
    /// negative value, with everything before it ingested.
    pub fn push_batch(&mut self, xs: &[f64]) -> Result<Vec<EngineEstimate>, MbptaError> {
        let mut out = Vec::new();
        self.ingest_batch(xs, |shard| out.extend(shard.last_snapshot()))?;
        Ok(out)
    }

    /// The loop of [`Self::push_batch`], calling `on_snapshot` with the
    /// shard after each of its refits that produced an estimate. The
    /// federated engine passes a no-op, so the shards' CIs stay owed.
    pub(crate) fn ingest_batch(
        &mut self,
        xs: &[f64],
        mut on_snapshot: impl FnMut(&StreamAnalyzer),
    ) -> Result<(), MbptaError> {
        let mut i = 0usize;
        while i < xs.len() {
            let s = self.active_shard();
            let take = if s == self.shards.len() - 1 {
                xs.len() - i
            } else {
                ((s + 1) * self.shard_len - self.n).min(xs.len() - i)
            };
            let before = self.shards[s].len();
            let result = self.shards[s].ingest_batch(&xs[i..i + take], &mut on_snapshot);
            // The shard ingested exactly the prefix before any bad value;
            // mirror that into the routing count before propagating.
            self.n += self.shards[s].len() - before;
            result?;
            i += take;
        }
        Ok(())
    }

    /// Fold the shard states into one analyzer, as if a single
    /// [`StreamAnalyzer`] had ingested the whole stream in order. Shard
    /// boundaries are block-aligned by construction, so the folded
    /// block-maxima buffer — and every fit on it — is bit-identical to
    /// the single stream's at **any** shard count.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if a shard fold fails
    /// (cannot happen for states built through this type's own routing).
    pub fn merged(&self) -> Result<StreamAnalyzer, MbptaError> {
        let mut merged = self.shards[0].clone();
        merged.reset_progress();
        for shard in &self.shards[1..] {
            merged.merge(shard)?;
        }
        Ok(merged)
    }

    /// Fold the shards and force a final refit over the union.
    ///
    /// # Errors
    ///
    /// Same as [`StreamAnalyzer::finish`] on the folded state.
    pub fn finish(&mut self) -> Result<EngineEstimate, MbptaError> {
        self.merged()?.finish()
    }
}

/// A session engine backed by a [`FederatedAnalyzer`]: the channel's
/// measurements are routed to per-shard analyzers and folded at
/// [`Engine::finish`].
///
/// Federated engines emit **no intermediate estimates** — the global
/// estimate exists only at fold time (shards stream independently; a
/// coordinator folds once), which also keeps session reports independent
/// of the shard count. Nothing reads a shard snapshot online, so a
/// shard refit's bootstrap CI is computed only if a checkpoint encodes
/// it. [`Engine::converged`] reports per-shard stability
/// ([`FederatedAnalyzer::converged`] — see its caveat on shard sizing
/// before gating anything on it).
#[derive(Debug, Clone)]
pub struct FederatedEngine {
    analyzer: FederatedAnalyzer,
}

impl FederatedEngine {
    /// An engine running `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: FederatedConfig) -> Result<Self, MbptaError> {
        Ok(FederatedEngine {
            analyzer: FederatedAnalyzer::new(config)?,
        })
    }

    /// The wrapped sharded analyzer.
    pub fn analyzer(&self) -> &FederatedAnalyzer {
        &self.analyzer
    }
}

impl Engine for FederatedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Federated
    }

    fn push(&mut self, x: f64) -> Result<(), MbptaError> {
        self.analyzer.ingest(x).map(|_| ())
    }

    fn push_batch(&mut self, xs: &[f64]) -> Result<(), MbptaError> {
        self.analyzer.ingest_batch(xs, |_| {})
    }

    fn len(&self) -> usize {
        self.analyzer.len()
    }

    fn estimate(&mut self) -> Option<EngineEstimate> {
        // No online global estimate: per-shard snapshots describe shard
        // prefixes, not the union, and emitting them would make session
        // output depend on the shard count.
        None
    }

    fn quiet_horizon(&self) -> Option<usize> {
        Some(self.analyzer.quiet_horizon())
    }

    fn converged(&self) -> bool {
        self.analyzer.converged()
    }

    fn finish(&mut self) -> Result<Verdict, MbptaError> {
        let mut merged = self.analyzer.merged()?;
        // The fold is final by construction; there is no online
        // convergence history for the union (provenance.converged stays
        // `None`).
        finish_into_verdict(&mut merged, EngineKind::Federated, false)
    }

    fn save_state(&self) -> Result<Vec<u8>, MbptaError> {
        use proxima_mbpta::persist::{seal, Encode, Writer, MAGIC_ENGINE};
        let mut w = Writer::new();
        EngineKind::Federated.encode(&mut w);
        self.analyzer.encode(&mut w);
        Ok(seal(MAGIC_ENGINE, w.into_bytes()))
    }
}

/// Creates a [`FederatedEngine`] per session channel, all sharing one
/// [`FederatedConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedFactory {
    config: FederatedConfig,
}

impl FederatedFactory {
    /// A factory for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: FederatedConfig) -> Result<Self, MbptaError> {
        config.validate()?;
        Ok(FederatedFactory { config })
    }

    /// The shared federated configuration.
    pub fn config(&self) -> &FederatedConfig {
        &self.config
    }
}

impl EngineFactory for FederatedFactory {
    type Engine = FederatedEngine;

    fn create(&self, _channel: &ChannelId) -> Result<FederatedEngine, MbptaError> {
        FederatedEngine::new(self.config.clone())
    }

    fn restore(&self, _channel: &ChannelId, state: &[u8]) -> Result<FederatedEngine, MbptaError> {
        use proxima_mbpta::persist::{unseal, Decode, Reader, MAGIC_ENGINE};
        let payload = unseal(state, MAGIC_ENGINE)?;
        let mut r = Reader::new(payload);
        let kind = EngineKind::decode(&mut r)?;
        if !matches!(kind, EngineKind::Federated) {
            return Err(MbptaError::checkpoint(format!(
                "checkpointed engine is `{kind}`, session expects `federated`"
            )));
        }
        let analyzer = FederatedAnalyzer::decode(&mut r)?;
        r.finish()?;
        if *analyzer.config() != self.config {
            return Err(MbptaError::checkpoint(
                "checkpointed federated engine configuration does not match the session's",
            ));
        }
        Ok(FederatedEngine { analyzer })
    }
}

/// Extension trait hanging the federated session builders off
/// [`SessionBuilder`] (mirrors
/// [`SessionStreamExt`](crate::engine::SessionStreamExt)).
pub trait SessionFederatedExt: Sized {
    /// Build a session running one federated (sharded) streaming engine
    /// per channel, deriving the per-shard [`StreamConfig`] from the
    /// builder's batch configuration and target cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the derived configuration
    /// is invalid.
    fn build_federated(
        self,
        shards: usize,
    ) -> Result<AnalysisSession<FederatedFactory>, MbptaError>;

    /// Build a federated session with explicit knobs.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if `config` is invalid.
    fn build_federated_with(
        self,
        config: FederatedConfig,
    ) -> Result<AnalysisSession<FederatedFactory>, MbptaError>;
}

impl SessionFederatedExt for SessionBuilder {
    fn build_federated(
        self,
        shards: usize,
    ) -> Result<AnalysisSession<FederatedFactory>, MbptaError> {
        let stream = StreamConfig {
            target_p: self.target_cutoff(),
            ..StreamConfig::from_mbpta(self.mbpta_config())
        };
        self.build_federated_with(FederatedConfig::new(stream, shards))
    }

    fn build_federated_with(
        self,
        config: FederatedConfig,
    ) -> Result<AnalysisSession<FederatedFactory>, MbptaError> {
        self.build_with(FederatedFactory::new(config)?)
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
    fn config_validation_and_alignment() {
        let base = FederatedConfig::new(stream_config(), 4);
        assert!(base.validate().is_ok());
        assert_eq!(base.effective_shard_len(), 100 * 25);
        assert!(FederatedConfig::new(stream_config(), 0).validate().is_err());
        let bad_stream = FederatedConfig::new(
            StreamConfig {
                block_size: 0,
                ..StreamConfig::default()
            },
            2,
        );
        assert!(bad_stream.validate().is_err());
        // 1000 measurements over 3 shards at block 25: ⌈1000/3⌉ = 334,
        // aligned up to 350.
        let balanced = FederatedConfig::new(stream_config(), 3).balanced_for(1000);
        assert_eq!(balanced.effective_shard_len(), 350);
    }

    #[test]
    fn routing_fills_shards_contiguously_and_overflows_to_the_last() {
        let config = FederatedConfig {
            stream: stream_config(),
            shards: 3,
            shard_len: 50,
        };
        let mut fed = FederatedAnalyzer::new(config).unwrap();
        for x in times(200, 1) {
            fed.push(x).unwrap();
        }
        assert_eq!(fed.len(), 200);
        let lens: Vec<usize> = fed.shards().iter().map(StreamAnalyzer::len).collect();
        assert_eq!(lens, vec![50, 50, 100], "last shard takes the overflow");
    }

    #[test]
    fn federated_push_batch_is_bit_identical_to_itemized_push() {
        let data = times(2_000, 17);
        for shards in [1usize, 3, 4] {
            let config = FederatedConfig {
                stream: stream_config(),
                shards,
                shard_len: 500,
            };
            let mut itemized = FederatedAnalyzer::new(config.clone()).unwrap();
            let mut itemized_snaps = Vec::new();
            for &x in &data {
                itemized_snaps.extend(itemized.push(x).unwrap());
            }
            let reference = crate::persist::save_federated(&itemized);
            // Splits off, on and straddling the shard boundaries.
            for chunk in [1, 13, 500, 501, 1_250, data.len()] {
                let mut batched = FederatedAnalyzer::new(config.clone()).unwrap();
                let mut snaps = Vec::new();
                for piece in data.chunks(chunk) {
                    snaps.extend(batched.push_batch(piece).unwrap());
                }
                assert_eq!(
                    snaps, itemized_snaps,
                    "shards {shards} chunk {chunk} snapshots diverged"
                );
                assert_eq!(
                    crate::persist::save_federated(&batched),
                    reference,
                    "shards {shards} chunk {chunk} checkpoint bytes diverged"
                );
            }
        }
    }

    #[test]
    fn federated_push_batch_error_leaves_itemized_state() {
        let config = FederatedConfig {
            stream: stream_config(),
            shards: 3,
            shard_len: 50,
        };
        let mut poisoned = times(130, 18);
        poisoned.push(f64::NAN);
        poisoned.extend(times(20, 19));
        let mut itemized = FederatedAnalyzer::new(config.clone()).unwrap();
        for &x in &poisoned {
            if itemized.push(x).is_err() {
                break;
            }
        }
        let mut batched = FederatedAnalyzer::new(config).unwrap();
        assert!(batched.push_batch(&poisoned).is_err());
        assert_eq!(batched.len(), 130);
        assert_eq!(
            crate::persist::save_federated(&batched),
            crate::persist::save_federated(&itemized)
        );
    }

    #[test]
    fn sharded_finish_is_bit_identical_to_single_stream_at_any_shard_count() {
        let data = times(4000, 2);
        let mut single = StreamAnalyzer::new(stream_config()).unwrap();
        single.extend(data.iter().copied()).unwrap();
        let single_final = single.finish().unwrap();

        for shards in [1usize, 2, 4, 7] {
            let config = FederatedConfig::new(stream_config(), shards).balanced_for(data.len());
            let mut fed = FederatedAnalyzer::new(config).unwrap();
            for &x in &data {
                fed.push(x).unwrap();
            }
            let merged = fed.merged().unwrap();
            assert_eq!(merged.maxima(), single.maxima(), "shards={shards}");
            assert_eq!(
                merged.high_watermark(),
                single.high_watermark(),
                "shards={shards}"
            );
            assert_eq!(
                merged.monitor().health(),
                single.monitor().health(),
                "shards={shards}"
            );
            let snap = fed.finish().unwrap();
            assert_eq!(snap.pwcet, single_final.pwcet, "shards={shards}");
            assert_eq!(snap.distribution, single_final.distribution);
            assert_eq!(snap.n, single_final.n);
        }
    }

    #[test]
    fn converged_tracks_every_fed_shard() {
        let config = FederatedConfig {
            stream: StreamConfig {
                refit_every_blocks: 2,
                ..stream_config()
            },
            shards: 4,
            shard_len: 3000,
        };
        let mut fed = FederatedAnalyzer::new(config).unwrap();
        assert!(!fed.converged(), "empty analyzer has no verdict");
        for x in times(3000, 3) {
            fed.push(x).unwrap();
        }
        // Shard 0 saw a long stationary stream and converged; empty
        // shards do not block the verdict.
        assert!(fed.converged());
        // A shard that only warmed up blocks convergence again.
        for x in times(100, 4) {
            fed.push(x).unwrap();
        }
        assert!(!fed.converged());
    }

    #[test]
    fn federated_session_channel_matches_bare_fold() {
        let data = times(3000, 5);
        let config = FederatedConfig::new(stream_config(), 4).balanced_for(data.len());

        let mut session = MbptaConfig::default()
            .session()
            .build_federated_with(config.clone())
            .unwrap();
        for &x in &data {
            session.push(Tagged::new("only", x)).unwrap();
        }
        let merged = session.merge();
        let verdict = merged.verdict("only").unwrap().as_ref().unwrap();

        let mut bare = FederatedAnalyzer::new(config).unwrap();
        for &x in &data {
            bare.push(x).unwrap();
        }
        let snap = bare.finish().unwrap();
        assert_eq!(verdict.pwcet, snap.distribution);
        assert_eq!(verdict.summary.n, data.len());
        assert_eq!(verdict.summary.high_watermark, snap.high_watermark);
        assert_eq!(verdict.provenance.engine, EngineKind::Federated);
        assert_eq!(verdict.provenance.converged, None);
    }

    #[test]
    fn federated_engine_emits_no_intermediate_estimates() {
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(1)
            .build_federated_with(FederatedConfig::new(stream_config(), 2))
            .unwrap();
        for x in times(2000, 6) {
            let snap = session.push(Tagged::new("only", x)).unwrap();
            assert!(snap.is_none(), "federated channels must stay silent");
        }
        assert!(session.merge().all_ok());
    }

    #[test]
    fn bad_value_quarantines_federated_channel() {
        let mut session = MbptaConfig::default()
            .session()
            .build_federated_with(FederatedConfig::new(stream_config(), 2))
            .unwrap();
        for x in times(2000, 7) {
            session.push(Tagged::new("good", x)).unwrap();
        }
        session.push(Tagged::new("bad", f64::NAN)).unwrap();
        let merged = session.merge();
        assert!(merged.verdict("good").unwrap().is_ok());
        assert!(merged.verdict("bad").unwrap().is_err());
    }

    #[test]
    fn build_federated_derives_stream_knobs_from_builder() {
        use proxima_mbpta::BlockSpec;
        let session = MbptaConfig {
            block: BlockSpec::Fixed(30),
            ..MbptaConfig::default()
        }
        .session()
        .target_p(1e-9)
        .build_federated(2);
        assert!(session.is_ok());
        assert!(MbptaConfig::default().session().build_federated(0).is_err());
    }
}
