//! Analysis configuration and the session builder.

use crate::engine::{BatchFactory, EngineFactory};
use crate::session::AnalysisSession;

/// How the block size for block-maxima extraction is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockSpec {
    /// A fixed block size.
    Fixed(usize),
    /// Scan the candidate sizes and keep the one whose Gumbel fit has the
    /// best (smallest) Anderson-Darling statistic.
    Auto(Vec<usize>),
}

impl Default for BlockSpec {
    fn default() -> Self {
        // The default candidates bracket the customary choices in the
        // MBPTA literature for campaigns of a few thousand runs.
        BlockSpec::Auto(vec![20, 25, 50, 100])
    }
}

/// Configuration of the MBPTA pipeline.
///
/// The defaults mirror the paper's protocol: 3,000-run campaigns, 5%
/// significance for the i.i.d. tests, per-path analysis with max across
/// paths, and a Gumbel tail on block maxima.
#[derive(Debug, Clone, PartialEq)]
pub struct MbptaConfig {
    /// Significance level for the i.i.d. gate and goodness-of-fit tests
    /// (the paper uses 0.05).
    pub alpha: f64,
    /// Number of Ljung-Box lags; `None` selects `min(20, n/5)`.
    pub ljung_box_lags: Option<usize>,
    /// Block-maxima block size policy.
    pub block: BlockSpec,
    /// Minimum number of runs the pipeline accepts.
    pub min_runs: usize,
    /// Whether a failed Gumbel goodness-of-fit aborts the analysis
    /// (`true`) or is merely recorded in the report (`false`).
    pub strict_gof: bool,
}

impl Default for MbptaConfig {
    fn default() -> Self {
        MbptaConfig {
            alpha: 0.05,
            ljung_box_lags: None,
            block: BlockSpec::default(),
            min_runs: 100,
            strict_gof: false,
        }
    }
}

impl MbptaConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MbptaError::InvalidConfig`] if `alpha` is outside
    /// `(0, 0.5]`, a fixed block size is zero, or the candidate list is
    /// empty.
    pub fn validate(&self) -> Result<(), crate::MbptaError> {
        if !(self.alpha > 0.0 && self.alpha <= 0.5) {
            return Err(crate::MbptaError::InvalidConfig {
                what: "alpha must be in (0, 0.5]",
            });
        }
        match &self.block {
            BlockSpec::Fixed(0) => Err(crate::MbptaError::InvalidConfig {
                what: "fixed block size must be non-zero",
            }),
            BlockSpec::Auto(c) if c.is_empty() => Err(crate::MbptaError::InvalidConfig {
                what: "auto block candidates must be non-empty",
            }),
            _ => Ok(()),
        }
    }

    /// Start building a multi-channel [`AnalysisSession`] with this
    /// configuration — the session-oriented entry point to the MBPTA
    /// pipeline. See [`SessionBuilder`].
    pub fn session(self) -> SessionBuilder {
        SessionBuilder {
            config: self,
            ..SessionBuilder::new()
        }
    }
}

/// Builds a multi-channel [`AnalysisSession`] from the pipeline
/// configuration it was started with ([`MbptaConfig::session`]): pick the
/// snapshot cadence and the worker-thread bound, then choose an engine.
///
/// * [`build_batch`](Self::build_batch) — one [`BatchEngine`] per channel
///   (whole-campaign analysis, the classic pipeline);
/// * `build_stream` / `build_stream_with` (via `proxima-stream`'s
///   `SessionStreamExt`) — one bounded-memory streaming engine per
///   channel;
/// * [`build_with`](Self::build_with) — any custom [`EngineFactory`].
///
/// [`BatchEngine`]: crate::engine::BatchEngine
///
/// # Examples
///
/// A demultiplexing session over a tagged feed:
///
/// ```
/// use proxima_mbpta::session::Tagged;
/// use proxima_mbpta::MbptaConfig;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut session = MbptaConfig::default()
///     .session()
///     .snapshot_every(500)
///     .jobs(2)
///     .build_batch()?;
/// for _ in 0..1000 {
///     let x = 1e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 70.0;
///     let y = 1.2e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 90.0;
///     session.push(Tagged::new("path/nominal", x))?;
///     session.push(Tagged::new("path/fault", y))?;
/// }
/// let merged = session.merge();
/// let (worst, _budget) = merged.envelope_budget(1e-12)?;
/// assert_eq!(worst.as_str(), "path/fault");
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionBuilder {
    config: MbptaConfig,
    snapshot_every: usize,
    checkpoint_every: usize,
    target_p: f64,
    jobs: usize,
    early_finish: bool,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            config: MbptaConfig::default(),
            snapshot_every: 250,
            checkpoint_every: 0,
            target_p: 1e-12,
            jobs: 0,
            early_finish: false,
        }
    }
}

impl SessionBuilder {
    /// A builder with the default configuration (equivalent to
    /// `MbptaConfig::default().session()`).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Scheduler period: emit a snapshot every `every` measurements
    /// (session-wide, round-robin across channels). `0` disables
    /// scheduled snapshots; convergence announcements still fire.
    #[must_use]
    pub fn snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Auto-checkpoint cadence: have the session report a checkpoint as
    /// due every `every` measurements (`0` disables, the default). The
    /// session only counts — the feeder owns the IO: it polls
    /// [`AnalysisSession::checkpoint_due`], persists
    /// [`AnalysisSession::checkpoint`] and calls
    /// [`AnalysisSession::mark_checkpointed`]. This keeps checkpoint
    /// *policy* in the library while leaving checkpoint *placement*
    /// (file, socket, object store) to the caller — the `mbpta` CLI and
    /// the `proxima-serve` server both drive it this way.
    #[must_use]
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// The exceedance cutoff intermediate estimates are tracked at.
    #[must_use]
    pub fn target_p(mut self, p: f64) -> Self {
        self.target_p = p;
        self
    }

    /// Worker-thread bound for [`AnalysisSession::merge`] (`0` = all
    /// cores). Per-channel verdicts are bit-identical at every setting.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Finish each channel's engine as soon as that channel's estimate
    /// converges, freeing its sketch/buffer memory immediately instead
    /// of holding every engine until [`AnalysisSession::merge`] — the
    /// long-session companion of `--stop-on-converged`. Measurements
    /// arriving on an already-finished channel are counted and dropped,
    /// so the channel's verdict covers its feed up to convergence.
    #[must_use]
    pub fn early_finish(mut self, enabled: bool) -> Self {
        self.early_finish = enabled;
        self
    }

    /// The pipeline configuration as currently built.
    pub fn mbpta_config(&self) -> &MbptaConfig {
        &self.config
    }

    /// The configured estimate cutoff.
    pub fn target_cutoff(&self) -> f64 {
        self.target_p
    }

    /// Build a session running one batch engine per channel.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MbptaError::InvalidConfig`] if the configuration
    /// is invalid.
    pub fn build_batch(self) -> Result<AnalysisSession<BatchFactory>, crate::MbptaError> {
        let factory = BatchFactory::new(self.config.clone(), self.target_p)?;
        self.build_with(factory)
    }

    /// Build a session with a custom engine factory.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid factories; reserved for builder
    /// validation.
    pub fn build_with<F: EngineFactory>(
        self,
        factory: F,
    ) -> Result<AnalysisSession<F>, crate::MbptaError> {
        Ok(AnalysisSession::new(
            factory,
            self.snapshot_every,
            self.checkpoint_every,
            self.jobs,
            self.early_finish,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MbptaConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_alpha_rejected() {
        let zero = MbptaConfig {
            alpha: 0.0,
            ..MbptaConfig::default()
        };
        assert!(zero.validate().is_err());
        let huge = MbptaConfig {
            alpha: 0.9,
            ..MbptaConfig::default()
        };
        assert!(huge.validate().is_err());
    }

    #[test]
    fn invalid_block_specs_rejected() {
        let mut c = MbptaConfig {
            block: BlockSpec::Fixed(0),
            ..MbptaConfig::default()
        };
        assert!(c.validate().is_err());
        c.block = BlockSpec::Auto(vec![]);
        assert!(c.validate().is_err());
        c.block = BlockSpec::Fixed(50);
        assert!(c.validate().is_ok());
    }
}
