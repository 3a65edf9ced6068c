//! Incremental MBPTA: ingest measurements online, refit the tail
//! periodically, emit a stream of pWCET snapshots.
//!
//! [`StreamAnalyzer`] is the streaming counterpart of the batch
//! [`analyze`](proxima_mbpta::MbptaConfig::analyze) pipeline. It holds **bounded state
//! only**:
//!
//! * a quantile [`Sketch`] for high-watermark / ECDF queries — the GK
//!   summary ([`QuantileSketch`], `O((1/ε)·log(εn))`) or the KLL summary
//!   ([`crate::kll::KllSketch`], `O(1/ε)`), selected by
//!   [`StreamConfig::sketch`];
//! * an [`IidMonitor`] window — `O(W)`;
//! * the running maximum of the current block — `O(1)`;
//! * the block-maxima buffer the Gumbel is refitted on — `O(n/B)`, the
//!   same vector the batch pipeline extracts, grown one entry per block.
//!
//! Every `refit_every_blocks` completed blocks it refits the Gumbel
//! (`fit_gumbel`, PWM + MLE — the exact fitting path of
//! `proxima_mbpta::evt_fit`) and emits a [`PwcetSnapshot`]. Because the
//! maxima buffer is identical to what [`block_maxima`] extracts from the
//! full vector, the final snapshot of a fully streamed trace **equals the
//! batch result bit for bit** at the same fixed block size.
//!
//! Convergence follows the criterion of
//! [`proxima_mbpta::convergence`]: consecutive snapshot estimates at the
//! reference cutoff must stay within `rel_tol` for `stable_snapshots`
//! checkpoints; [`StreamConfig::from_convergence`] maps a
//! [`ConvergenceConfig`] onto the streaming knobs directly.
//!
//! # Bulk ingestion
//!
//! [`StreamAnalyzer::push_batch`] ingests a slice in one call and is
//! **bit-identical** to pushing the values one by one — same snapshots,
//! same refit points, same checkpoint bytes — while amortizing sketch
//! compaction and monitor maintenance over each batch (the cost model
//! is laid out in `docs/PERFORMANCE.md`):
//!
//! ```
//! use proxima_stream::{StreamAnalyzer, StreamConfig};
//!
//! let config = StreamConfig {
//!     block_size: 25,
//!     refit_every_blocks: 4,
//!     ..StreamConfig::default()
//! };
//! let times: Vec<f64> = (0..600).map(|i| 1e5 + f64::from(i % 97)).collect();
//!
//! let mut itemized = StreamAnalyzer::new(config.clone())?;
//! let mut snaps_itemized = Vec::new();
//! for &x in &times {
//!     snaps_itemized.extend(itemized.push(x)?);
//! }
//! let mut batched = StreamAnalyzer::new(config)?;
//! let snaps_batched = batched.push_batch(&times)?;
//!
//! assert_eq!(snaps_batched, snaps_itemized);
//! assert_eq!(batched.len(), itemized.len());
//! # Ok::<(), proxima_mbpta::MbptaError>(())
//! ```

use proxima_mbpta::confidence::{interval_from_maxima, BudgetInterval};
use proxima_mbpta::convergence::ConvergenceConfig;
use proxima_mbpta::{BlockSpec, MbptaConfig, MbptaError, Pwcet};
use proxima_prng::SplitMix64;
use proxima_stats::evt::fit_gumbel;
use proxima_stats::StatsError;

use crate::monitor::{IidHealth, IidMonitor};
use crate::sketch::{Sketch, SketchKind};

#[cfg(doc)]
use crate::sketch::QuantileSketch;
#[cfg(doc)]
use proxima_stats::evt::block_maxima;

/// Per-snapshot bootstrap confidence-interval settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapSpec {
    /// Confidence level (e.g. 0.95).
    pub level: f64,
    /// Bootstrap resamples per snapshot.
    pub resamples: usize,
    /// Master seed; snapshot `k` resamples from the `k`-th element of its
    /// SplitMix64 stream, so every snapshot's interval is deterministic.
    pub seed: u64,
}

impl Default for BootstrapSpec {
    fn default() -> Self {
        BootstrapSpec {
            level: 0.95,
            resamples: 200,
            seed: 0x5EED_C0DE,
        }
    }
}

/// Configuration of the streaming analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Block size `B` for block-maxima extraction (fixed: streaming cannot
    /// re-scan for automatic selection).
    pub block_size: usize,
    /// Refit and emit a snapshot every `K` completed blocks.
    pub refit_every_blocks: usize,
    /// The per-run exceedance cutoff the estimate is tracked at.
    pub target_p: f64,
    /// Relative tolerance between consecutive snapshot estimates.
    pub rel_tol: f64,
    /// Consecutive within-tolerance snapshots required to declare
    /// convergence.
    pub stable_snapshots: usize,
    /// Complete blocks required before the first fit.
    pub min_blocks: usize,
    /// Significance level of the rolling i.i.d. diagnostics.
    pub alpha: f64,
    /// Window length of the i.i.d. monitor.
    pub monitor_window: usize,
    /// Rank-error bound of the quantile sketch.
    pub sketch_epsilon: f64,
    /// Which quantile-sketch algorithm to maintain (`--sketch {gk,kll}`):
    /// GK for a deterministic worst-case bound, KLL for smaller
    /// summaries whose error does not grow with federation depth.
    pub sketch: SketchKind,
    /// Per-snapshot bootstrap interval; `None` skips the bootstrap.
    pub bootstrap: Option<BootstrapSpec>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            block_size: 50,
            refit_every_blocks: 5,
            target_p: 1e-12,
            rel_tol: 0.01,
            stable_snapshots: 3,
            min_blocks: 10,
            alpha: 0.05,
            monitor_window: 500,
            sketch_epsilon: 0.001,
            sketch: SketchKind::Gk,
            bootstrap: Some(BootstrapSpec::default()),
        }
    }
}

impl StreamConfig {
    /// Derive streaming knobs from the batch convergence criterion: the
    /// reference cutoff, tolerance and stability count carry over; the
    /// checkpoint step becomes the refit period in blocks.
    pub fn from_convergence(c: &ConvergenceConfig) -> Self {
        let block_size = fixed_block_size(&c.block);
        StreamConfig {
            block_size,
            refit_every_blocks: (c.step / block_size).max(1),
            target_p: c.reference_cutoff,
            rel_tol: c.rel_tol,
            stable_snapshots: c.stable_checkpoints,
            min_blocks: (c.min_runs / block_size).max(2),
            ..StreamConfig::default()
        }
    }

    /// Derive streaming knobs from a batch [`MbptaConfig`]: a fixed block
    /// carries over (an automatic spec falls back to its largest
    /// candidate) along with the significance level.
    pub fn from_mbpta(c: &MbptaConfig) -> Self {
        StreamConfig {
            block_size: fixed_block_size(&c.block),
            alpha: c.alpha,
            ..StreamConfig::default()
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] for a zero block size / refit
    /// period, a cutoff outside `(0, 1)`, a non-positive tolerance, fewer
    /// than 2 minimum blocks, a sketch epsilon outside `(0, 0.5)`, or a
    /// bootstrap with a level outside `(0, 1)` or zero resamples (which
    /// would otherwise emit `ci: None` at every refit).
    pub fn validate(&self) -> Result<(), MbptaError> {
        if self.block_size == 0 {
            return Err(MbptaError::InvalidConfig {
                what: "stream block size must be non-zero",
            });
        }
        if self.refit_every_blocks == 0 {
            return Err(MbptaError::InvalidConfig {
                what: "refit period must be at least one block",
            });
        }
        if !(self.target_p > 0.0 && self.target_p < 1.0) {
            return Err(MbptaError::InvalidConfig {
                what: "target exceedance probability must be in (0, 1)",
            });
        }
        if self.rel_tol <= 0.0 || !self.rel_tol.is_finite() {
            return Err(MbptaError::InvalidConfig {
                what: "convergence tolerance must be positive",
            });
        }
        if self.min_blocks < 2 {
            return Err(MbptaError::InvalidConfig {
                what: "need at least 2 blocks before the first fit",
            });
        }
        if !(self.sketch_epsilon > 0.0 && self.sketch_epsilon < 0.5) {
            return Err(MbptaError::InvalidConfig {
                what: "sketch epsilon must be in (0, 0.5)",
            });
        }
        if let Some(spec) = &self.bootstrap {
            if !(spec.level > 0.0 && spec.level < 1.0) {
                return Err(MbptaError::InvalidConfig {
                    what: "bootstrap confidence level must be in (0, 1)",
                });
            }
            if spec.resamples == 0 {
                return Err(MbptaError::InvalidConfig {
                    what: "bootstrap resamples must be positive",
                });
            }
        }
        Ok(())
    }
}

/// Pin a batch block policy to the fixed size streaming requires: a fixed
/// block carries over; an automatic spec falls back to its largest
/// candidate (streaming cannot re-scan the data to select).
fn fixed_block_size(block: &BlockSpec) -> usize {
    match block {
        BlockSpec::Fixed(b) => (*b).max(1),
        BlockSpec::Auto(candidates) => candidates.iter().copied().max().unwrap_or(50).max(1),
    }
}

/// One emitted pWCET estimate with its context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwcetSnapshot {
    /// Measurements ingested when the snapshot was taken.
    pub n: usize,
    /// Complete blocks (= block maxima) the fit used.
    pub blocks: usize,
    /// The pWCET budget at the configured `target_p`.
    pub pwcet: f64,
    /// The full fitted pWCET distribution, for queries at other cutoffs.
    pub distribution: Pwcet,
    /// Bootstrap confidence interval for `pwcet`, when configured and the
    /// resampling succeeded.
    pub ci: Option<BudgetInterval>,
    /// Relative change versus the previous snapshot's estimate (`None` on
    /// the first snapshot).
    pub convergence_delta: Option<f64>,
    /// Rolling i.i.d. diagnostics at snapshot time.
    pub iid_status: IidHealth,
    /// `true` once the convergence criterion has been met (latched).
    pub converged: bool,
    /// Exact high watermark observed so far.
    pub high_watermark: f64,
}

/// The streaming MBPTA analyzer.
///
/// # Examples
///
/// ```
/// use proxima_stream::{StreamAnalyzer, StreamConfig};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut analyzer = StreamAnalyzer::new(StreamConfig {
///     block_size: 25,
///     refit_every_blocks: 4,
///     ..StreamConfig::default()
/// })?;
/// let mut last = None;
/// for _ in 0..5_000 {
///     let x = 2e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 150.0;
///     if let Some(snap) = analyzer.push(x)? {
///         last = Some(snap);
///     }
/// }
/// let snap = last.expect("5000 samples produce snapshots");
/// assert!(snap.pwcet > snap.high_watermark);
/// assert!(analyzer.converged());
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamAnalyzer {
    pub(crate) config: StreamConfig,
    pub(crate) sketch: Sketch,
    pub(crate) monitor: IidMonitor,
    pub(crate) n: usize,
    pub(crate) current_block_max: f64,
    pub(crate) current_block_len: usize,
    pub(crate) maxima: Vec<f64>,
    pub(crate) blocks_since_refit: usize,
    pub(crate) snapshots: usize,
    pub(crate) last_estimate: Option<f64>,
    pub(crate) stable_run: usize,
    pub(crate) converged_at: Option<usize>,
    pub(crate) last_fit_error: Option<MbptaError>,
    pub(crate) last_snapshot: Option<PwcetSnapshot>,
}

impl StreamAnalyzer {
    /// Create an analyzer for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: StreamConfig) -> Result<Self, MbptaError> {
        config.validate()?;
        let sketch =
            Sketch::new(config.sketch, config.sketch_epsilon).map_err(MbptaError::Stats)?;
        let monitor = IidMonitor::new(config.monitor_window, config.alpha);
        Ok(StreamAnalyzer {
            config,
            sketch,
            monitor,
            n: 0,
            current_block_max: f64::NEG_INFINITY,
            current_block_len: 0,
            maxima: Vec::new(),
            blocks_since_refit: 0,
            snapshots: 0,
            last_estimate: None,
            stable_run: 0,
            converged_at: None,
            last_fit_error: None,
            last_snapshot: None,
        })
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Measurements ingested so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` before the first measurement.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Complete blocks accumulated so far.
    pub fn blocks(&self) -> usize {
        self.maxima.len()
    }

    /// Exact high watermark, if any measurement arrived.
    pub fn high_watermark(&self) -> Option<f64> {
        self.sketch.max()
    }

    /// The bounded-memory quantile sketch, for ECDF / quantile queries
    /// over everything ingested so far.
    pub fn sketch(&self) -> &Sketch {
        &self.sketch
    }

    /// The rolling i.i.d. monitor.
    pub fn monitor(&self) -> &IidMonitor {
        &self.monitor
    }

    /// Snapshots emitted so far.
    pub fn snapshots_emitted(&self) -> usize {
        self.snapshots
    }

    /// `true` once the convergence criterion has been met.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// The ingest count at which convergence was first declared.
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// The block-maxima buffer accumulated so far — identical to what
    /// the batch pipeline's `block_maxima` extracts from the full vector
    /// at the same fixed block size.
    pub fn maxima(&self) -> &[f64] {
        &self.maxima
    }

    /// The most recent emitted snapshot, if any — the cached estimate a
    /// session engine exposes between refits.
    pub fn last_snapshot(&self) -> Option<&PwcetSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// The last refit failure, if the most recent checkpoint could not fit
    /// (e.g. degenerate maxima); the stream keeps running and retries at
    /// the next checkpoint.
    pub fn last_fit_error(&self) -> Option<&MbptaError> {
        self.last_fit_error.as_ref()
    }

    /// Ingest one measurement. Returns a snapshot when this measurement
    /// completed a refit checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] for a non-finite or negative value
    /// (the measurement protocol cannot produce those; a corrupted stream
    /// must not silently skew the tail).
    pub fn push(&mut self, x: f64) -> Result<Option<PwcetSnapshot>, MbptaError> {
        if !x.is_finite() || x < 0.0 {
            return Err(MbptaError::Stats(StatsError::NonFiniteData));
        }
        self.n += 1;
        self.sketch.insert(x);
        self.monitor.push(x);
        self.current_block_max = self.current_block_max.max(x);
        self.current_block_len += 1;
        if self.current_block_len < self.config.block_size {
            return Ok(None);
        }
        // Block complete.
        self.maxima.push(self.current_block_max);
        self.current_block_max = f64::NEG_INFINITY;
        self.current_block_len = 0;
        self.blocks_since_refit += 1;
        if self.maxima.len() < self.config.min_blocks
            || self.blocks_since_refit < self.config.refit_every_blocks
        {
            return Ok(None);
        }
        self.blocks_since_refit = 0;
        Ok(self.refit())
    }

    /// Ingest a batch of measurements, collecting every snapshot emitted
    /// along the way.
    ///
    /// # Errors
    ///
    /// Same as [`Self::push`]; ingestion stops at the first bad value.
    pub fn extend(
        &mut self,
        xs: impl IntoIterator<Item = f64>,
    ) -> Result<Vec<PwcetSnapshot>, MbptaError> {
        let mut out = Vec::new();
        for x in xs {
            if let Some(snap) = self.push(x)? {
                out.push(snap);
            }
        }
        Ok(out)
    }

    /// Bulk-ingest a slice of measurements, collecting every snapshot a
    /// per-item [`push`](Self::push) loop would have emitted.
    ///
    /// The analyzer afterwards is **bit-identical** to the itemized loop
    /// at every batch split — same sketch tuples, monitor window, block
    /// maxima and snapshot sequence — but the sketch and monitor are
    /// maintained in amortized chunks: the batch is cut exactly at the
    /// refit checkpoints, so each refit still observes the state as of
    /// its own measurement, and everything between two checkpoints goes
    /// through [`QuantileSketch::insert_batch`] /
    /// [`IidMonitor::push_batch`](crate::monitor::IidMonitor::push_batch).
    ///
    /// # Errors
    ///
    /// Same as [`Self::push`]: ingestion stops at the first non-finite or
    /// negative value. Everything before the bad value is ingested,
    /// leaving the analyzer exactly where the itemized loop would stop.
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_stream::analyzer::{StreamAnalyzer, StreamConfig};
    ///
    /// let config = StreamConfig::default();
    /// let xs: Vec<f64> = (0..3_000).map(|i| 1e5 + ((i * 37) % 500) as f64).collect();
    ///
    /// let mut batched = StreamAnalyzer::new(config.clone())?;
    /// let mut itemized = StreamAnalyzer::new(config)?;
    /// let snaps = batched.push_batch(&xs)?;
    /// assert_eq!(snaps, itemized.extend(xs.iter().copied())?);
    /// assert_eq!(batched.len(), itemized.len());
    /// # Ok::<(), proxima_mbpta::MbptaError>(())
    /// ```
    pub fn push_batch(&mut self, xs: &[f64]) -> Result<Vec<PwcetSnapshot>, MbptaError> {
        let (valid, bad) = match xs.iter().position(|&x| !x.is_finite() || x < 0.0) {
            Some(i) => (&xs[..i], true),
            None => (xs, false),
        };
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < valid.len() {
            let to_refit = self.measurements_until_refit();
            let chunk = &valid[i..(i + to_refit).min(valid.len())];
            i += chunk.len();
            self.ingest_chunk(chunk);
            if chunk.len() == to_refit {
                self.blocks_since_refit = 0;
                if let Some(snap) = self.refit() {
                    out.push(snap);
                }
            }
        }
        if bad {
            return Err(MbptaError::Stats(StatsError::NonFiniteData));
        }
        Ok(out)
    }

    /// Measurements until the next refit checkpoint fires, given the
    /// current partial block and refit cadence — where the bulk path must
    /// cut its next chunk (and how far a session can bulk-ingest before
    /// this analyzer's estimate can change).
    pub(crate) fn measurements_until_refit(&self) -> usize {
        let to_block = self.config.block_size - self.current_block_len;
        let k = self
            .config
            .min_blocks
            .saturating_sub(self.maxima.len())
            .max(
                self.config
                    .refit_every_blocks
                    .saturating_sub(self.blocks_since_refit),
            )
            .max(1);
        (k - 1) * self.config.block_size + to_block
    }

    /// Ingest a pre-validated chunk that never crosses a refit checkpoint:
    /// bulk sketch/monitor maintenance, per-block maxima folded in
    /// arrival order.
    fn ingest_chunk(&mut self, chunk: &[f64]) {
        self.n += chunk.len();
        self.sketch.insert_batch(chunk);
        self.monitor.push_batch(chunk);
        let mut i = 0usize;
        while i < chunk.len() {
            let take = (self.config.block_size - self.current_block_len).min(chunk.len() - i);
            for &x in &chunk[i..i + take] {
                self.current_block_max = self.current_block_max.max(x);
            }
            self.current_block_len += take;
            i += take;
            if self.current_block_len == self.config.block_size {
                self.maxima.push(self.current_block_max);
                self.current_block_max = f64::NEG_INFINITY;
                self.current_block_len = 0;
                self.blocks_since_refit += 1;
            }
        }
    }

    /// Fold another analyzer that observed the **continuation** of this
    /// stream: the merged state is what a single analyzer would hold
    /// after ingesting this analyzer's measurements followed by
    /// `other`'s.
    ///
    /// * the quantile sketches merge under their algorithm's federated
    ///   guarantee — the `ε₁+ε₂` additive rank bound for GK
    ///   ([`QuantileSketch::merge`]), depth-independent error for KLL
    ///   ([`crate::kll::KllSketch::merge`]) — and count, sum and the
    ///   high watermark stay exact either way;
    /// * the block-maxima buffers concatenate, and `other`'s trailing
    ///   partial block carries over — so when `other` started at a block
    ///   boundary the merged buffer is **bit-identical** to the single
    ///   stream's, and so is every Gumbel refit on it;
    /// * the rolling i.i.d. monitors fold windows ([`IidMonitor::merge`]).
    ///
    /// Convergence/snapshot bookkeeping is reset: convergence is a
    /// property of one observer's snapshot history, and neither shard's
    /// history is the merged stream's. Call [`Self::finish`] (or keep
    /// streaming) after merging.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] if the two configurations
    /// differ, or if this analyzer holds a partial block (its stream must
    /// sit on a block boundary — `other`'s block maxima were extracted
    /// relative to its own start, and a partial block in between would
    /// shift every one of them).
    pub fn merge(&mut self, other: &StreamAnalyzer) -> Result<(), MbptaError> {
        if other.n == 0 {
            return Ok(());
        }
        if self.config != other.config {
            return Err(MbptaError::InvalidConfig {
                what: "stream merge requires identical stream configurations",
            });
        }
        if self.current_block_len != 0 {
            return Err(MbptaError::InvalidConfig {
                what: "stream merge requires the left analyzer to sit on a block boundary",
            });
        }
        // Config equality above implies equal sketch kinds, so this can
        // only be Ok — but the kind check stays typed, not assumed.
        self.sketch
            .merge(&other.sketch)
            .map_err(MbptaError::Stats)?;
        self.monitor.merge(&other.monitor);
        self.maxima.extend_from_slice(&other.maxima);
        self.current_block_max = other.current_block_max;
        self.current_block_len = other.current_block_len;
        self.n += other.n;
        self.reset_progress();
        Ok(())
    }

    /// Drop the snapshot/convergence bookkeeping (used after a merge: the
    /// per-shard snapshot histories do not describe the merged stream).
    pub(crate) fn reset_progress(&mut self) {
        self.blocks_since_refit = 0;
        self.snapshots = 0;
        self.last_estimate = None;
        self.stable_run = 0;
        self.converged_at = None;
        self.last_fit_error = None;
        self.last_snapshot = None;
    }

    /// Force a final refit over everything ingested so far (trailing
    /// partial blocks are discarded, exactly like the batch pipeline).
    /// If the stream ended exactly on a checkpoint, the checkpoint's
    /// snapshot is returned as-is — refitting the identical maxima buffer
    /// would add no information but would double-count a zero delta into
    /// the convergence criterion.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::CampaignTooSmall`] if fewer than
    /// `min_blocks` blocks completed, or the underlying fit error.
    pub fn finish(&mut self) -> Result<PwcetSnapshot, MbptaError> {
        if self.maxima.len() < self.config.min_blocks {
            return Err(MbptaError::CampaignTooSmall {
                needed: self.config.min_blocks * self.config.block_size,
                got: self.n,
            });
        }
        if let Some(snap) = self.last_snapshot {
            if snap.blocks == self.maxima.len() {
                return Ok(snap);
            }
        }
        self.blocks_since_refit = 0;
        match self.refit() {
            Some(snap) => Ok(snap),
            None => Err(self
                .last_fit_error
                .clone()
                .unwrap_or(MbptaError::Stats(StatsError::DegenerateSample))),
        }
    }

    /// Refit the Gumbel on the maxima buffer and assemble a snapshot.
    /// A failed fit is recorded and skipped — the stream retries at the
    /// next checkpoint.
    fn refit(&mut self) -> Option<PwcetSnapshot> {
        // PWM on an all-equal maxima vector can produce a spurious
        // beta ≈ 1e-13 from rounding; reject it outright rather than emit
        // a point-mass tail.
        if self.maxima.iter().all(|&m| m == self.maxima[0]) {
            self.last_fit_error = Some(MbptaError::Stats(StatsError::DegenerateSample));
            return None;
        }
        let fit = fit_gumbel(&self.maxima)
            .map_err(MbptaError::Stats)
            .and_then(|gumbel| {
                let pwcet = Pwcet::new(gumbel, self.config.block_size);
                let budget = pwcet.budget_for(self.config.target_p)?;
                Ok((pwcet, budget))
            });
        let (pwcet, budget) = match fit {
            Ok(ok) => ok,
            Err(e) => {
                self.last_fit_error = Some(e);
                return None;
            }
        };
        self.last_fit_error = None;
        let convergence_delta = self
            .last_estimate
            .map(|prev| ((budget - prev) / prev).abs());
        match convergence_delta {
            Some(delta) if delta <= self.config.rel_tol => self.stable_run += 1,
            Some(_) => self.stable_run = 0,
            None => {}
        }
        if self.converged_at.is_none() && self.stable_run >= self.config.stable_snapshots {
            self.converged_at = Some(self.n);
        }
        self.last_estimate = Some(budget);
        let ci = self.config.bootstrap.as_ref().and_then(|spec| {
            interval_from_maxima(
                &self.maxima,
                self.config.block_size,
                budget,
                self.config.target_p,
                spec.level,
                spec.resamples,
                SplitMix64::stream_seed(spec.seed, self.snapshots as u64),
                1,
            )
            .ok()
        });
        self.snapshots += 1;
        let snap = PwcetSnapshot {
            n: self.n,
            blocks: self.maxima.len(),
            pwcet: budget,
            distribution: pwcet,
            ci,
            convergence_delta,
            iid_status: self.monitor.health(),
            converged: self.converged_at.is_some(),
            // proxima-lint: allow(no-lib-panic) -- snapshot emission is
            // gated on n > 0 earlier in this function, so max() is Some.
            high_watermark: self.sketch.max().expect("n > 0 at any snapshot"),
        };
        self.last_snapshot = Some(snap);
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::IidStatus;
    use rand::{Rng, SeedableRng};

    fn times(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    fn fixed_config(block: usize, every: usize) -> StreamConfig {
        StreamConfig {
            block_size: block,
            refit_every_blocks: every,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(StreamConfig::default().validate().is_ok());
        for bad in [
            StreamConfig {
                block_size: 0,
                ..StreamConfig::default()
            },
            StreamConfig {
                refit_every_blocks: 0,
                ..StreamConfig::default()
            },
            StreamConfig {
                target_p: 0.0,
                ..StreamConfig::default()
            },
            StreamConfig {
                rel_tol: 0.0,
                ..StreamConfig::default()
            },
            StreamConfig {
                min_blocks: 1,
                ..StreamConfig::default()
            },
            StreamConfig {
                sketch_epsilon: 0.7,
                ..StreamConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bootstrap_spec_is_validated() {
        let with = |level: f64, resamples: usize| StreamConfig {
            bootstrap: Some(BootstrapSpec {
                level,
                resamples,
                ..BootstrapSpec::default()
            }),
            ..StreamConfig::default()
        };
        for (level, resamples) in [(0.0, 200), (1.0, 200), (f64::NAN, 200), (0.95, 0)] {
            let bad = with(level, resamples);
            assert!(
                matches!(bad.validate(), Err(MbptaError::InvalidConfig { .. })),
                "level {level}, resamples {resamples}"
            );
            assert!(StreamAnalyzer::new(bad).is_err());
        }
        assert!(with(0.5, 1).validate().is_ok());
        let off = StreamConfig {
            bootstrap: None,
            ..StreamConfig::default()
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn push_batch_is_bit_identical_to_itemized_push() {
        let stream = times(4_000, 21);
        let mut itemized = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        let itemized_snaps = itemized.extend(stream.iter().copied()).unwrap();
        let reference = crate::persist::save_analyzer(&itemized);
        // Splits off, on and straddling block and refit boundaries.
        for chunk in [1, 7, 25, 100, 101, 1_000, stream.len()] {
            let mut batched = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
            let mut snaps = Vec::new();
            for piece in stream.chunks(chunk) {
                snaps.extend(batched.push_batch(piece).unwrap());
            }
            assert_eq!(snaps, itemized_snaps, "chunk {chunk} snapshots diverged");
            assert_eq!(
                crate::persist::save_analyzer(&batched),
                reference,
                "chunk {chunk} checkpoint bytes diverged"
            );
        }
    }

    #[test]
    fn push_batch_stops_at_first_bad_value_like_itemized() {
        let mut stream = times(1_234, 22);
        stream.push(f64::NAN);
        stream.extend(times(100, 23));
        let mut itemized = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        assert!(itemized.extend(stream.iter().copied()).is_err());
        let mut batched = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        assert!(batched.push_batch(&stream).is_err());
        // Both ingested exactly the prefix before the bad value.
        assert_eq!(batched.len(), 1_234);
        assert_eq!(
            crate::persist::save_analyzer(&batched),
            crate::persist::save_analyzer(&itemized)
        );
        // A negative measurement is rejected the same way.
        assert!(batched.push_batch(&[1.0, -3.0]).is_err());
        assert_eq!(batched.len(), 1_235);
    }

    #[test]
    fn snapshots_at_refit_cadence() {
        let mut a = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        let snaps = a.extend(times(5000, 1)).unwrap();
        // First snapshot needs min_blocks=10 blocks (250 samples) AND a
        // multiple of the 4-block cadence; then one every 100 samples.
        assert!(!snaps.is_empty());
        for pair in snaps.windows(2) {
            assert_eq!(pair[1].n - pair[0].n, 4 * 25);
        }
        assert_eq!(a.snapshots_emitted(), snaps.len());
    }

    #[test]
    fn final_snapshot_matches_batch_fit_exactly() {
        // The maxima buffer equals block_maxima(times, B), so the final
        // fitted distribution is the batch one bit for bit.
        let data = times(5000, 2);
        let mut a = StreamAnalyzer::new(fixed_config(50, 2)).unwrap();
        a.extend(data.iter().copied()).unwrap();
        let streamed = a.finish().unwrap();

        let maxima = proxima_stats::evt::block_maxima(&data, 50).unwrap();
        let gumbel = fit_gumbel(&maxima).unwrap();
        let batch = Pwcet::new(gumbel, 50);
        assert_eq!(
            streamed.pwcet,
            batch.budget_for(1e-12).unwrap(),
            "streaming and batch budgets must agree exactly"
        );
        assert_eq!(streamed.distribution, batch);
        assert_eq!(streamed.blocks, maxima.len());
    }

    #[test]
    fn stationary_stream_converges() {
        let mut a = StreamAnalyzer::new(fixed_config(25, 2)).unwrap();
        a.extend(times(6000, 3)).unwrap();
        assert!(a.converged(), "stationary stream should converge");
        assert!(a.converged_at().unwrap() <= 6000);
    }

    #[test]
    fn convergence_delta_tracks_previous_snapshot() {
        let mut a = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        let snaps = a.extend(times(4000, 4)).unwrap();
        assert!(snaps[0].convergence_delta.is_none());
        for pair in snaps.windows(2) {
            let expected = ((pair[1].pwcet - pair[0].pwcet) / pair[0].pwcet).abs();
            let got = pair[1].convergence_delta.unwrap();
            assert!((got - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn bootstrap_ci_brackets_estimate_and_is_deterministic() {
        let data = times(3000, 5);
        let run = || {
            let mut a = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
            a.extend(data.iter().copied()).unwrap();
            a.finish().unwrap()
        };
        let s1 = run();
        let s2 = run();
        let ci = s1.ci.expect("bootstrap on by default");
        assert!(ci.lower <= s1.pwcet && s1.pwcet <= ci.upper);
        assert_eq!(s1.ci, s2.ci, "same data, same seeds, same interval");
    }

    #[test]
    fn finish_on_checkpoint_boundary_reuses_snapshot() {
        // Checkpoints fall at blocks 10, 14, 18, … (first refit waits for
        // min_blocks = 10, then every 4). 2950 samples at block 25 give
        // 118 blocks — exactly a checkpoint — so finish() must return
        // that snapshot unchanged: no extra refit, no zero-delta pumped
        // into the stability counter.
        let mut a = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        let snaps = a.extend(times(2950, 9)).unwrap();
        let emitted_before = a.snapshots_emitted();
        let last = *snaps.last().unwrap();
        assert_eq!(last.blocks, 118);
        let fin = a.finish().unwrap();
        assert_eq!(fin, last);
        assert_eq!(a.snapshots_emitted(), emitted_before);
        // Off-boundary: new blocks since the last checkpoint do refit.
        let mut b = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        b.extend(times(3000, 9)).unwrap(); // 120 blocks, checkpoint at 118
        let emitted = b.snapshots_emitted();
        let fin = b.finish().unwrap();
        assert_eq!(fin.blocks, 120);
        assert_eq!(b.snapshots_emitted(), emitted + 1);
    }

    #[test]
    fn merge_of_aligned_shards_is_bit_identical_to_single_stream() {
        let data = times(4000, 11);
        let config = fixed_config(25, 4);
        let mut single = StreamAnalyzer::new(config.clone()).unwrap();
        single.extend(data.iter().copied()).unwrap();
        let single_final = single.finish().unwrap();

        // Four contiguous shards, each a multiple of the block size.
        let mut merged = StreamAnalyzer::new(config.clone()).unwrap();
        for chunk in data.chunks(1000) {
            let mut shard = StreamAnalyzer::new(config.clone()).unwrap();
            shard.extend(chunk.iter().copied()).unwrap();
            merged.merge(&shard).unwrap();
        }
        assert_eq!(merged.len(), single.len());
        assert_eq!(merged.maxima(), single.maxima());
        assert_eq!(merged.high_watermark(), single.high_watermark());
        assert_eq!(merged.monitor().health(), single.monitor().health());
        let merged_final = merged.finish().unwrap();
        assert_eq!(merged_final.pwcet, single_final.pwcet);
        assert_eq!(merged_final.distribution, single_final.distribution);
        assert_eq!(merged_final.blocks, single_final.blocks);
        assert_eq!(merged_final.high_watermark, single_final.high_watermark);
    }

    #[test]
    fn merge_carries_the_trailing_partial_block() {
        // 1010 samples at block 25: the shard split 1000 + 10 leaves a
        // 10-sample partial block that must keep filling after the merge.
        let data = times(1010, 12);
        let config = fixed_config(25, 4);
        let mut merged = StreamAnalyzer::new(config.clone()).unwrap();
        merged.extend(data[..1000].iter().copied()).unwrap();
        let mut tail = StreamAnalyzer::new(config.clone()).unwrap();
        tail.extend(data[1000..].iter().copied()).unwrap();
        merged.merge(&tail).unwrap();
        assert_eq!(merged.blocks(), 40);
        // 15 more samples complete the straddling block.
        let extra = times(15, 13);
        merged.extend(extra.iter().copied()).unwrap();
        assert_eq!(merged.blocks(), 41);
        let mut single = StreamAnalyzer::new(config).unwrap();
        single.extend(data.iter().copied()).unwrap();
        single.extend(extra.iter().copied()).unwrap();
        assert_eq!(merged.maxima(), single.maxima());
    }

    #[test]
    fn merge_rejects_misaligned_left_and_foreign_config() {
        let config = fixed_config(25, 4);
        let mut left = StreamAnalyzer::new(config.clone()).unwrap();
        left.extend(times(30, 14)).unwrap(); // 5 samples into block 2
        let mut right = StreamAnalyzer::new(config.clone()).unwrap();
        right.extend(times(50, 15)).unwrap();
        assert!(matches!(
            left.merge(&right),
            Err(MbptaError::InvalidConfig { .. })
        ));
        // Merging an empty right side is a no-op even off-boundary.
        let empty = StreamAnalyzer::new(config).unwrap();
        left.merge(&empty).unwrap();
        assert_eq!(left.len(), 30);
        // Config mismatch is rejected up front.
        let mut aligned = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        aligned.extend(times(25, 16)).unwrap();
        let foreign = {
            let mut a = StreamAnalyzer::new(fixed_config(50, 4)).unwrap();
            a.extend(times(50, 17)).unwrap();
            a
        };
        assert!(matches!(
            aligned.merge(&foreign),
            Err(MbptaError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn merge_resets_convergence_bookkeeping() {
        let config = fixed_config(25, 2);
        let mut left = StreamAnalyzer::new(config.clone()).unwrap();
        left.extend(times(5000, 18)).unwrap();
        assert!(left.converged());
        let mut right = StreamAnalyzer::new(config).unwrap();
        right.extend(times(500, 19)).unwrap();
        left.merge(&right).unwrap();
        assert!(!left.converged(), "per-shard convergence must not leak");
        assert_eq!(left.snapshots_emitted(), 0);
        assert!(left.last_snapshot().is_none());
        // finish() refits the merged buffer from scratch.
        let snap = left.finish().unwrap();
        assert_eq!(snap.blocks, 220);
        assert_eq!(snap.n, 5500);
    }

    #[test]
    fn rejects_bad_measurements() {
        let mut a = StreamAnalyzer::new(StreamConfig::default()).unwrap();
        assert!(a.push(f64::NAN).is_err());
        assert!(a.push(f64::INFINITY).is_err());
        assert!(a.push(-1.0).is_err());
        assert!(a.push(100.0).unwrap().is_none());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn finish_on_short_stream_errors() {
        let mut a = StreamAnalyzer::new(StreamConfig::default()).unwrap();
        a.extend((0..40).map(|i| 100.0 + i as f64)).unwrap();
        assert!(matches!(
            a.finish(),
            Err(MbptaError::CampaignTooSmall { .. })
        ));
    }

    #[test]
    fn degenerate_blocks_skip_snapshot_but_stream_survives() {
        let mut a = StreamAnalyzer::new(fixed_config(10, 1)).unwrap();
        // 200 constant samples: every checkpoint fit degenerates.
        for _ in 0..200 {
            a.push(500.0).unwrap();
        }
        assert_eq!(a.snapshots_emitted(), 0);
        assert!(a.last_fit_error().is_some());
        // Real variation afterwards un-sticks the stream.
        let snaps = a.extend(times(2000, 6)).unwrap();
        assert!(!snaps.is_empty());
        assert!(a.last_fit_error().is_none());
    }

    #[test]
    fn suspect_stream_is_reported_not_fatal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut level = 0.0f64;
        let data: Vec<f64> = (0..3000)
            .map(|_| {
                level = 0.97 * level + rng.gen::<f64>();
                1e5 + 500.0 * level
            })
            .collect();
        let mut a = StreamAnalyzer::new(fixed_config(25, 4)).unwrap();
        let snaps = a.extend(data).unwrap();
        assert!(!snaps.is_empty(), "snapshots still flow");
        assert!(
            snaps
                .iter()
                .any(|s| s.iid_status.status == IidStatus::Suspect),
            "autocorrelated stream must be flagged"
        );
    }

    #[test]
    fn memory_is_bounded_by_sketch_window_and_maxima() {
        let mut a = StreamAnalyzer::new(fixed_config(50, 5)).unwrap();
        a.extend(times(20_000, 8)).unwrap();
        assert_eq!(a.blocks(), 20_000 / 50);
        assert!(a.sketch().tuples() < 4_000, "{}", a.sketch().tuples());
        assert!(a.monitor().len() <= a.config().monitor_window);
    }

    #[test]
    fn from_convergence_maps_fields() {
        let c = ConvergenceConfig::default();
        let s = StreamConfig::from_convergence(&c);
        assert_eq!(s.block_size, 25);
        assert_eq!(s.refit_every_blocks, 10); // step 250 / block 25
        assert_eq!(s.target_p, c.reference_cutoff);
        assert_eq!(s.rel_tol, c.rel_tol);
        assert_eq!(s.stable_snapshots, c.stable_checkpoints);
        assert_eq!(s.min_blocks, 20); // min_runs 500 / block 25
    }

    #[test]
    fn from_mbpta_carries_block_and_alpha() {
        let fixed = StreamConfig::from_mbpta(&MbptaConfig {
            block: BlockSpec::Fixed(25),
            alpha: 0.01,
            ..MbptaConfig::default()
        });
        assert_eq!(fixed.block_size, 25);
        assert_eq!(fixed.alpha, 0.01);
        // An automatic spec falls back to its largest candidate.
        assert_eq!(
            StreamConfig::from_mbpta(&MbptaConfig::default()).block_size,
            100
        );
    }
}
