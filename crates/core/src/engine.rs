//! The engine abstraction behind [`AnalysisSession`]: one result
//! vocabulary ([`Verdict`]) and one ingestion contract ([`Engine`]) shared
//! by batch and streaming analysis.
//!
//! The MBPTA workflow is one fixed recipe — i.i.d. gate → block maxima →
//! Gumbel → pWCET — but it can run in two modes: **batch** (buffer the
//! whole campaign, analyse once) and **streaming** (bounded memory,
//! periodic refits). [`BatchEngine`] implements the first in this crate;
//! the streaming implementation (`StreamEngine`) lives in `proxima-stream`
//! and plugs into the same [`Engine`] trait. A session demultiplexes a
//! tagged feed to one engine per channel and folds the per-channel
//! [`Verdict`]s into a program-level envelope.
//!
//! [`AnalysisSession`]: crate::session::AnalysisSession

use proxima_stats::descriptive::Summary;
use proxima_stats::dist::Gumbel;
use proxima_stats::evt::GofReport;

use crate::confidence::BudgetInterval;
use crate::config::MbptaConfig;
use crate::evt_fit::{fit_tail, EvtFit};
use crate::iid::IidReport;
use crate::pipeline::MbptaReport;
use crate::pwcet::Pwcet;
use crate::session::ChannelId;
use crate::MbptaError;

/// Which kind of engine produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Whole-campaign analysis over a buffered measurement vector.
    Batch,
    /// Bounded-memory incremental analysis.
    Stream,
    /// Sharded bounded-memory analysis: independent per-shard streams
    /// whose mergeable states are folded into one verdict at finish time
    /// (the federated quantile-estimation shape).
    Federated,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Batch => write!(f, "batch"),
            EngineKind::Stream => write!(f, "stream"),
            EngineKind::Federated => write!(f, "federated"),
        }
    }
}

/// Where a [`Verdict`] came from: engine kind, sample size, channel, and
/// (for streaming engines) whether the estimate had converged.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The engine kind that produced the verdict.
    pub engine: EngineKind,
    /// Measurements the verdict is based on.
    pub n: usize,
    /// Streaming convergence state at finish time; `None` for batch
    /// engines (a batch verdict is final by construction).
    pub converged: Option<bool>,
    /// The session channel the verdict belongs to, when produced inside a
    /// multi-channel session.
    pub channel: Option<ChannelId>,
}

/// Descriptive view of what an engine observed. Batch engines retain the
/// full vector and attach an exact [`Summary`]; streaming engines report
/// the exact count/extremes plus a sketch-estimated mean.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationSummary {
    /// Measurements observed.
    pub n: usize,
    /// Exact maximum observed execution time (industry's high watermark).
    pub high_watermark: f64,
    /// Mean of the observations — exact for batch, sketch-estimated for
    /// streaming engines; `None` if no estimate was available.
    pub mean: Option<f64>,
    /// The full descriptive summary, when the engine kept the whole
    /// vector (batch engines only).
    pub detail: Option<Summary>,
}

/// The i.i.d. evidence backing a verdict: the whole-campaign gate (batch)
/// or the rolling windowed diagnostics (streaming).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IidEvidence {
    /// Full-campaign Ljung-Box + two-sample-KS gate.
    Gate(IidReport),
    /// Rolling windowed diagnostics over the most recent observations.
    Rolling {
        /// `Some(true)` if the last window looked i.i.d., `Some(false)`
        /// if a diagnostic flagged it, `None` while warming up.
        healthy: Option<bool>,
        /// p-value of the windowed Ljung-Box test, when computable.
        ljung_box_p: Option<f64>,
        /// p-value of the windowed runs test, when computable.
        runs_p: Option<f64>,
        /// Observations in the window when evaluated.
        window_len: usize,
    },
}

impl IidEvidence {
    /// `true` unless the evidence positively rejects the i.i.d.
    /// hypothesis (a warming rolling window counts as acceptable: no
    /// evidence either way).
    pub fn acceptable(&self) -> bool {
        match self {
            IidEvidence::Gate(report) => report.passed,
            IidEvidence::Rolling { healthy, .. } => *healthy != Some(false),
        }
    }

    /// Short status label for reports: `passed` / `rejected` for the
    /// batch gate, `healthy` / `suspect` / `warming` for rolling windows.
    pub fn label(&self) -> &'static str {
        match self {
            IidEvidence::Gate(report) if report.passed => "passed",
            IidEvidence::Gate(_) => "rejected",
            IidEvidence::Rolling {
                healthy: Some(true),
                ..
            } => "healthy",
            IidEvidence::Rolling {
                healthy: Some(false),
                ..
            } => "suspect",
            IidEvidence::Rolling { healthy: None, .. } => "warming",
        }
    }
}

/// The unified outcome of an MBPTA analysis, produced by every [`Engine`]:
/// the descriptive summary, the i.i.d. evidence, the EVT fit, and the
/// pWCET distribution, plus provenance saying which engine produced it.
///
/// [`MbptaReport`] remains the batch-only view; a batch verdict converts
/// back with [`Verdict::into_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Descriptive summary of the observations.
    pub summary: ObservationSummary,
    /// The i.i.d. evidence.
    pub iid: IidEvidence,
    /// The EVT fit and its diagnostics.
    pub fit: EvtFit,
    /// The pWCET distribution answering per-run exceedance queries.
    pub pwcet: Pwcet,
    /// Which engine produced this verdict, over how many measurements.
    pub provenance: Provenance,
}

impl Verdict {
    /// Promote a batch [`MbptaReport`] into the unified vocabulary.
    pub fn from_report(report: MbptaReport) -> Verdict {
        let n = report.campaign_summary.n;
        Verdict {
            summary: ObservationSummary {
                n,
                high_watermark: report.campaign_summary.max,
                mean: Some(report.campaign_summary.mean),
                detail: Some(report.campaign_summary),
            },
            iid: IidEvidence::Gate(report.iid),
            fit: report.fit,
            pwcet: report.pwcet,
            provenance: Provenance {
                engine: EngineKind::Batch,
                n,
                converged: None,
                channel: None,
            },
        }
    }

    /// Recover the batch-only [`MbptaReport`] view. Returns `None` for
    /// verdicts whose engine did not retain the full campaign (streaming).
    pub fn into_report(self) -> Option<MbptaReport> {
        let campaign_summary = self.summary.detail?;
        let IidEvidence::Gate(iid) = self.iid else {
            return None;
        };
        Some(MbptaReport {
            campaign_summary,
            iid,
            fit: self.fit,
            pwcet: self.pwcet,
        })
    }

    /// The pWCET budget at cutoff probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] unless `0 < p < 1`.
    pub fn budget_for(&self, p: f64) -> Result<f64, MbptaError> {
        self.pwcet.budget_for(p)
    }

    /// The observed high watermark.
    pub fn high_watermark(&self) -> f64 {
        self.summary.high_watermark
    }
}

/// One emitted pWCET estimate — the channel-agnostic snapshot vocabulary
/// a session's scheduler emits. The streaming crate's analyzers return
/// it directly from every refit, with `blocks` and a rolling `iid` set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineEstimate {
    /// Measurements ingested when the estimate was produced.
    pub n: usize,
    /// Complete blocks (= block maxima) behind the fit, if block-based.
    pub blocks: Option<usize>,
    /// The pWCET budget at the engine's target cutoff.
    pub pwcet: f64,
    /// The full fitted distribution, for queries at other cutoffs.
    pub distribution: Pwcet,
    /// Bootstrap confidence interval, when the engine computes one.
    pub ci: Option<BudgetInterval>,
    /// Relative change versus the previous estimate (`None` on the
    /// first).
    pub convergence_delta: Option<f64>,
    /// i.i.d. evidence at estimate time, when the engine tracks it
    /// incrementally.
    pub iid: Option<IidEvidence>,
    /// `true` once the engine's convergence criterion latched.
    pub converged: bool,
    /// Exact high watermark observed so far.
    pub high_watermark: f64,
}

/// One timing channel's analysis engine: ingest measurements, offer
/// intermediate estimates, and produce a final [`Verdict`].
///
/// Two first-class implementations exist: [`BatchEngine`] (this crate)
/// and `StreamEngine` (`proxima-stream`). [`AnalysisSession`] drives one
/// engine instance per channel.
///
/// [`AnalysisSession`]: crate::session::AnalysisSession
pub trait Engine: Send {
    /// Which kind of engine this is.
    fn kind(&self) -> EngineKind;

    /// Ingest one measurement.
    ///
    /// # Errors
    ///
    /// Engines that validate eagerly (streaming) reject non-finite or
    /// negative values; inside a session such an error quarantines the
    /// channel instead of aborting the session.
    fn push(&mut self, x: f64) -> Result<(), MbptaError>;

    /// Bulk-ingest a slice of measurements. The default folds
    /// [`push`](Self::push) over the slice, so every engine keeps
    /// working unchanged; engines with an amortized bulk path (the
    /// streaming and federated engines) override it. Either way the
    /// engine afterwards is **bit-identical** to the itemized loop at
    /// every batch split.
    ///
    /// # Errors
    ///
    /// Same as [`Self::push`]: ingestion stops at the first rejected
    /// value, with everything before it ingested.
    fn push_batch(&mut self, xs: &[f64]) -> Result<(), MbptaError> {
        for &x in xs {
            self.push(x)?;
        }
        Ok(())
    }

    /// Measurements ingested so far.
    fn len(&self) -> usize;

    /// `true` before the first measurement.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine's current estimate, if it can produce one yet. Engines
    /// refit at their own cadence and may return a cached estimate; the
    /// caller detects freshness via [`EngineEstimate::n`].
    fn estimate(&mut self) -> Option<EngineEstimate>;

    /// The [`EngineEstimate::n`] that [`estimate`](Self::estimate) would
    /// return now, without assembling the estimate. The session polls
    /// this for freshness and fetches the full estimate only to emit it,
    /// so an engine whose estimate carries costly parts (the streaming
    /// engine's bootstrap CI) pays for them only when they are read. The
    /// default assembles the estimate.
    fn estimate_n(&mut self) -> Option<usize> {
        self.estimate().map(|estimate| estimate.n)
    }

    /// How many further measurements this engine can ingest with
    /// [`estimate`](Self::estimate) and [`converged`](Self::converged)
    /// guaranteed unchanged — i.e. its next refit/convergence event lies
    /// strictly beyond that many ingests. The session's bulk path polls
    /// once per such stretch instead of once per measurement.
    ///
    /// The default, `None`, promises nothing: the session falls back to
    /// per-item scheduling, which keeps engines that refit *inside*
    /// `estimate()` (the batch engine's poll-cadence refits) exact.
    fn quiet_horizon(&self) -> Option<usize> {
        None
    }

    /// `true` once the engine's convergence criterion has been met
    /// (latched).
    fn converged(&self) -> bool;

    /// Produce the final verdict over everything ingested.
    ///
    /// # Errors
    ///
    /// Whatever the underlying analysis returns (too few runs, i.i.d.
    /// rejection, degenerate fit, …).
    fn finish(&mut self) -> Result<Verdict, MbptaError>;

    /// Serialize the engine's complete state into a sealed checkpoint
    /// blob ([`persist`](crate::persist) format), such that
    /// [`EngineFactory::restore`] rebuilds an engine whose every future
    /// output is **bit-identical** to this one's.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Checkpoint`] if the engine does not support
    /// checkpointing (the default).
    fn save_state(&self) -> Result<Vec<u8>, MbptaError> {
        Err(MbptaError::checkpoint(
            "this engine does not support checkpointing",
        ))
    }
}

/// Creates one [`Engine`] per session channel. Implemented by
/// [`BatchFactory`] here and by `StreamFactory` in `proxima-stream`.
pub trait EngineFactory {
    /// The engine type this factory creates.
    type Engine: Engine;

    /// Create the engine for `channel`. Called once, on the channel's
    /// first measurement (or on [`AnalysisSession::channel`]).
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the factory's
    /// configuration cannot produce an engine.
    ///
    /// [`AnalysisSession::channel`]: crate::session::AnalysisSession::channel
    fn create(&self, channel: &ChannelId) -> Result<Self::Engine, MbptaError>;

    /// Rebuild an engine from a checkpoint blob written by
    /// [`Engine::save_state`], verifying that the blob's configuration
    /// fingerprint matches this factory's (a checkpoint must not be
    /// silently resumed under different analysis settings).
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Checkpoint`] for corrupt or mismatched
    /// bytes, or if the factory does not support restoring (the
    /// default).
    fn restore(&self, channel: &ChannelId, state: &[u8]) -> Result<Self::Engine, MbptaError> {
        let _ = (channel, state);
        Err(MbptaError::checkpoint(
            "this engine factory does not support checkpoint restore",
        ))
    }
}

/// Creates a [`BatchEngine`] per channel, all sharing one [`MbptaConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFactory {
    config: MbptaConfig,
    target_p: f64,
}

impl BatchFactory {
    /// A factory for `config`, tracking intermediate estimates at the
    /// `target_p` exceedance cutoff.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if `config` is invalid or
    /// `target_p` is outside `(0, 1)`.
    pub fn new(config: MbptaConfig, target_p: f64) -> Result<Self, MbptaError> {
        config.validate()?;
        if !(target_p > 0.0 && target_p < 1.0) {
            return Err(MbptaError::InvalidConfig {
                what: "target exceedance probability must be in (0, 1)",
            });
        }
        Ok(BatchFactory { config, target_p })
    }

    /// The shared pipeline configuration.
    pub fn config(&self) -> &MbptaConfig {
        &self.config
    }
}

impl EngineFactory for BatchFactory {
    type Engine = BatchEngine;

    fn create(&self, _channel: &ChannelId) -> Result<BatchEngine, MbptaError> {
        Ok(BatchEngine::new(self.config.clone(), self.target_p))
    }

    fn restore(&self, _channel: &ChannelId, state: &[u8]) -> Result<BatchEngine, MbptaError> {
        let payload = crate::persist::unseal(state, crate::persist::MAGIC_ENGINE)?;
        let mut r = crate::persist::Reader::new(payload);
        let kind = crate::persist::Decode::decode(&mut r)?;
        if !matches!(kind, EngineKind::Batch) {
            return Err(MbptaError::checkpoint(format!(
                "checkpointed engine is `{kind}`, session expects `batch`"
            )));
        }
        let engine = crate::persist::decode_batch_engine(&mut r, &self.config, self.target_p)?;
        r.finish()?;
        Ok(engine)
    }
}

/// How often a batch engine refits for an intermediate estimate, in
/// measurements — mirrors [`ConvergenceConfig::step`].
///
/// [`ConvergenceConfig::step`]: crate::convergence::ConvergenceConfig::step
const BATCH_REFIT_EVERY: usize = 250;
/// Batch convergence: consecutive estimates within this relative
/// tolerance…
const BATCH_REL_TOL: f64 = 0.01;
/// …for this many consecutive refits.
const BATCH_STABLE: usize = 3;

/// The batch engine: buffers the full measurement vector and runs the
/// classic pipeline ([`analyze`]-equivalent) on [`Engine::finish`].
/// Intermediate [`Engine::estimate`]s refit the tail on the current
/// prefix every [few hundred](crate::convergence::ConvergenceConfig)
/// measurements, tracking the same convergence criterion the batch
/// convergence analysis uses.
///
/// Its final verdict is **bit-identical** to calling the classic batch
/// analysis on the same vector — the session acceptance tests assert
/// this.
///
/// [`analyze`]: MbptaConfig::analyze
#[derive(Debug, Clone)]
pub struct BatchEngine {
    pub(crate) config: MbptaConfig,
    pub(crate) target_p: f64,
    pub(crate) times: Vec<f64>,
    pub(crate) high_watermark: f64,
    pub(crate) last_fit_n: usize,
    pub(crate) cached: Option<EngineEstimate>,
    pub(crate) last_budget: Option<f64>,
    pub(crate) stable_run: usize,
    pub(crate) converged: bool,
}

impl BatchEngine {
    /// An engine for `config`, tracking estimates at `target_p`. The
    /// configuration is assumed valid (the factory validates).
    pub(crate) fn new(config: MbptaConfig, target_p: f64) -> Self {
        BatchEngine {
            config,
            target_p,
            times: Vec::new(),
            high_watermark: f64::NEG_INFINITY,
            last_fit_n: 0,
            cached: None,
            last_budget: None,
            stable_run: 0,
            converged: false,
        }
    }

    fn refit(&mut self) {
        let n = self.times.len();
        self.last_fit_n = n;
        let Ok(fit) = fit_tail(&self.times, &self.config.block) else {
            return; // retry at the next cadence point
        };
        let pwcet = Pwcet::new(fit.gumbel, fit.block_size);
        let Ok(budget) = pwcet.budget_for(self.target_p) else {
            return;
        };
        let convergence_delta = self.last_budget.map(|prev| ((budget - prev) / prev).abs());
        match convergence_delta {
            Some(delta) if delta <= BATCH_REL_TOL => self.stable_run += 1,
            Some(_) => self.stable_run = 0,
            None => {}
        }
        if self.stable_run >= BATCH_STABLE {
            self.converged = true;
        }
        self.last_budget = Some(budget);
        self.cached = Some(EngineEstimate {
            n,
            blocks: Some(fit.n_maxima),
            pwcet: budget,
            distribution: pwcet,
            ci: None,
            convergence_delta,
            iid: None,
            converged: self.converged,
            high_watermark: self.high_watermark,
        });
    }
}

impl Engine for BatchEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Batch
    }

    fn push(&mut self, x: f64) -> Result<(), MbptaError> {
        // No eager validation: `finish` defers to the classic pipeline,
        // which reports bad values with exactly the batch error
        // semantics.
        self.times.push(x);
        self.high_watermark = self.high_watermark.max(x);
        Ok(())
    }

    fn len(&self) -> usize {
        self.times.len()
    }

    fn estimate(&mut self) -> Option<EngineEstimate> {
        let n = self.times.len();
        // `last_fit_n` advances on failed fits too: a degenerate channel
        // retries at the refit cadence, not on every poll (a session
        // scheduler polls every push once primed — per-poll retries
        // would make a stuck channel quadratic over the campaign).
        if n >= self.config.min_runs
            && (self.last_fit_n == 0 || n - self.last_fit_n >= BATCH_REFIT_EVERY)
        {
            self.refit();
        }
        self.cached
    }

    fn converged(&self) -> bool {
        self.converged
    }

    fn finish(&mut self) -> Result<Verdict, MbptaError> {
        self.config.analyze(&self.times).map(Verdict::from_report)
    }

    fn save_state(&self) -> Result<Vec<u8>, MbptaError> {
        let mut w = crate::persist::Writer::new();
        crate::persist::Encode::encode(&EngineKind::Batch, &mut w);
        crate::persist::encode_batch_engine(self, &mut w);
        Ok(crate::persist::seal(
            crate::persist::MAGIC_ENGINE,
            w.into_bytes(),
        ))
    }
}

/// Assemble an [`EvtFit`] around `gumbel`, the
/// [`fit_gumbel`](proxima_stats::evt::fit_gumbel) of an externally
/// maintained block-maxima buffer — the bridge streaming engines use to
/// speak the batch fit vocabulary without fitting the same maxima twice.
/// The GoF/GEV diagnostics are computed exactly as [`fit_tail`] computes
/// them on the same maxima; the POT cross-check is `None` (it needs the
/// raw vector, which a bounded-memory engine does not keep).
///
/// # Errors
///
/// Returns [`MbptaError::Stats`] if the maxima are too few for the
/// goodness-of-fit test.
pub fn fit_from_maxima(
    gumbel: Gumbel,
    maxima: &[f64],
    block_size: usize,
) -> Result<EvtFit, MbptaError> {
    use proxima_stats::evt::{fit_gev, goodness_of_fit};
    let gof: GofReport = goodness_of_fit(maxima, &gumbel)?;
    Ok(EvtFit {
        gumbel,
        block_size,
        n_maxima: maxima.len(),
        gof,
        gev_diagnostic: fit_gev(maxima).ok(),
        pot_cross_check: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn campaign(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    #[test]
    fn batch_engine_finish_equals_classic_analyze() {
        let times = campaign(2000, 1);
        let config = MbptaConfig::default();
        let mut engine = BatchEngine::new(config.clone(), 1e-12);
        for &x in &times {
            engine.push(x).unwrap();
        }
        let verdict = engine.finish().unwrap();
        let report = config.analyze(&times).unwrap();
        assert_eq!(verdict.clone().into_report().unwrap(), report);
        assert_eq!(verdict.provenance.engine, EngineKind::Batch);
        assert_eq!(verdict.summary.n, 2000);
    }

    #[test]
    fn batch_engine_estimates_at_cadence_and_converges() {
        let times = campaign(4000, 2);
        let mut engine = BatchEngine::new(MbptaConfig::default(), 1e-12);
        let mut fits = Vec::new();
        for &x in &times {
            engine.push(x).unwrap();
            if let Some(est) = engine.estimate() {
                if fits.last() != Some(&est.n) {
                    fits.push(est.n);
                }
            }
        }
        // First estimate at min_runs, then every BATCH_REFIT_EVERY.
        assert_eq!(fits[0], MbptaConfig::default().min_runs);
        for pair in fits.windows(2) {
            assert_eq!(pair[1] - pair[0], BATCH_REFIT_EVERY);
        }
        assert!(engine.converged(), "stationary campaign converges");
    }

    #[test]
    fn batch_engine_short_buffer_has_no_estimate() {
        let mut engine = BatchEngine::new(MbptaConfig::default(), 1e-12);
        for &x in campaign(50, 3).iter() {
            engine.push(x).unwrap();
        }
        assert!(engine.estimate().is_none());
        assert!(matches!(
            engine.finish(),
            Err(MbptaError::CampaignTooSmall { .. })
        ));
    }

    #[test]
    fn verdict_report_round_trip() {
        let report = MbptaConfig::default().analyze(&campaign(1500, 4)).unwrap();
        let verdict = Verdict::from_report(report.clone());
        assert!(verdict.iid.acceptable());
        assert_eq!(verdict.iid.label(), "passed");
        assert_eq!(verdict.high_watermark(), report.campaign_summary.max);
        assert_eq!(
            verdict.budget_for(1e-9).unwrap(),
            report.budget_for(1e-9).unwrap()
        );
        assert_eq!(verdict.into_report().unwrap(), report);
    }

    #[test]
    fn fit_from_maxima_matches_fit_tail_gumbel() {
        let times = campaign(3000, 5);
        let maxima = proxima_stats::evt::block_maxima(&times, 50).unwrap();
        let gumbel = proxima_stats::evt::fit_gumbel(&maxima).unwrap();
        let from_maxima = fit_from_maxima(gumbel, &maxima, 50).unwrap();
        let tail = fit_tail(&times, &crate::config::BlockSpec::Fixed(50)).unwrap();
        assert_eq!(from_maxima.gumbel, tail.gumbel);
        assert_eq!(from_maxima.gof, tail.gof);
        assert_eq!(from_maxima.n_maxima, tail.n_maxima);
        assert!(from_maxima.pot_cross_check.is_none());
    }

    #[test]
    fn batch_engine_checkpoint_round_trips_bit_identically() {
        let times = campaign(1700, 6);
        let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        let channel = ChannelId::new("only");
        let mut engine = factory.create(&channel).unwrap();
        let mut estimates = Vec::new();
        for &x in &times[..900] {
            engine.push(x).unwrap();
            estimates.push(engine.estimate());
        }
        let blob = engine.save_state().unwrap();
        let mut restored = factory.restore(&channel, &blob).unwrap();
        // The restored engine continues exactly where the original left
        // off: every subsequent estimate and the final verdict match bit
        // for bit.
        for &x in &times[900..] {
            engine.push(x).unwrap();
            restored.push(x).unwrap();
            assert_eq!(engine.estimate(), restored.estimate());
            assert_eq!(engine.converged(), restored.converged());
        }
        assert_eq!(engine.finish().unwrap(), restored.finish().unwrap());
    }

    #[test]
    fn batch_restore_rejects_foreign_config_and_corrupt_bytes() {
        let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        let channel = ChannelId::new("only");
        let mut engine = factory.create(&channel).unwrap();
        for &x in campaign(300, 7).iter() {
            engine.push(x).unwrap();
        }
        let blob = engine.save_state().unwrap();
        // A factory with a different cutoff must refuse the blob.
        let other = BatchFactory::new(MbptaConfig::default(), 1e-9).unwrap();
        assert!(matches!(
            other.restore(&channel, &blob),
            Err(MbptaError::Checkpoint { .. })
        ));
        // Truncated and bit-flipped blobs are typed errors, not panics.
        assert!(matches!(
            factory.restore(&channel, &blob[..blob.len() / 2]),
            Err(MbptaError::Checkpoint { .. })
        ));
        let mut flipped = blob.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            factory.restore(&channel, &flipped),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn batch_factory_validates() {
        assert!(BatchFactory::new(MbptaConfig::default(), 1e-12).is_ok());
        assert!(BatchFactory::new(MbptaConfig::default(), 0.0).is_err());
        let bad = MbptaConfig {
            alpha: 0.0,
            ..MbptaConfig::default()
        };
        assert!(BatchFactory::new(bad, 1e-12).is_err());
    }
}
