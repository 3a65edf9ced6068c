//! Multi-channel analysis sessions: demultiplex a tagged measurement
//! feed to one [`Engine`] per timing channel, schedule snapshots across
//! channels, and fold the per-channel [`Verdict`]s into a program-level
//! envelope.
//!
//! A *channel* is one independent timing population — a program path, a
//! core, a tenant. The session routes each [`Tagged`] measurement to its
//! channel's engine (created on first sight by the session's
//! [`EngineFactory`]), so any interleaving of channel feeds yields the
//! same per-channel verdicts as analysing each channel's measurements
//! alone. A shared scheduler emits [`SessionSnapshot`]s every `K`
//! measurements (round-robin across channels) and immediately when a
//! channel's estimate converges.
//!
//! One bad feed cannot abort the session: a channel whose engine rejects
//! a measurement (or whose analysis fails at the end) is quarantined and
//! reported per channel in the merged [`SessionVerdict`], wrapped in
//! [`MbptaError::Channel`].
//!
//! With [`SessionBuilder::early_finish`] enabled, a channel's engine is
//! finished and **dropped the moment its estimate converges** — its
//! sketch/buffer/window memory is freed mid-session instead of being
//! held until [`AnalysisSession::merge`], and later measurements on that
//! channel are counted and dropped.
//!
//! Same-channel runs can be bulk-ingested through
//! [`AnalysisSession::push_batch`] (or a [`ChannelHandle`]'s), which is
//! bit-identical to the per-item feed — identical snapshots, scheduler
//! bookkeeping and checkpoint bytes — while the scheduler scan runs once
//! per quiet stretch instead of once per measurement:
//!
//! ```
//! use proxima_mbpta::session::Tagged;
//! use proxima_mbpta::MbptaConfig;
//!
//! let times: Vec<f64> = (0..400).map(|i| 1e5 + f64::from(i % 83)).collect();
//! let mut itemized = MbptaConfig::default().session().build_batch()?;
//! for &x in &times {
//!     itemized.push(Tagged::new("chan", x))?;
//! }
//! let mut batched = MbptaConfig::default().session().build_batch()?;
//! batched.push_batch("chan", &times)?;
//! assert_eq!(batched.checkpoint()?, itemized.checkpoint()?);
//! # Ok::<(), proxima_mbpta::MbptaError>(())
//! ```
//!
//! [`SessionBuilder::early_finish`]: crate::config::SessionBuilder::early_finish
//!
//! # Examples
//!
//! ```
//! use proxima_mbpta::session::Tagged;
//! use proxima_mbpta::MbptaConfig;
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut session = MbptaConfig::default().session().build_batch()?;
//! // A tagged feed interleaving two tenants.
//! for _ in 0..1000 {
//!     let fast = 1e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 60.0;
//!     let slow = 1.4e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 90.0;
//!     session.push(Tagged::new("tenant-a", fast))?;
//!     session.push(Tagged::new("tenant-b", slow))?;
//! }
//! let verdict = session.merge();
//! assert!(verdict.all_ok());
//! let (worst, budget) = verdict.envelope_budget(1e-12)?;
//! assert_eq!(worst.as_str(), "tenant-b");
//! assert!(budget > 1.4e5);
//! # Ok::<(), proxima_mbpta::MbptaError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::campaign::run_sharded;
use crate::engine::{Engine, EngineEstimate, EngineFactory, Verdict};
use crate::MbptaError;

/// Identifies one timing channel (per path / per core / per tenant) in a
/// tagged feed. Cheap to clone (shared string).
///
/// # Examples
///
/// ```
/// use proxima_mbpta::session::ChannelId;
///
/// let a = ChannelId::new("core0/nominal");
/// let b: ChannelId = "core0/nominal".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "core0/nominal");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(Arc<str>);

impl ChannelId {
    /// A channel id with the given label.
    pub fn new(label: impl AsRef<str>) -> Self {
        ChannelId(Arc::from(label.as_ref()))
    }

    /// The label as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ChannelId {
    fn from(s: &str) -> Self {
        ChannelId::new(s)
    }
}

impl From<String> for ChannelId {
    fn from(s: String) -> Self {
        ChannelId(Arc::from(s))
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One measurement of a tagged feed: which channel it belongs to and the
/// measured execution time.
///
/// Parses from the tagged-line interchange format — `<channel> <time>`
/// (whitespace- or comma-separated) — used by `mbpta session`:
///
/// ```
/// use proxima_mbpta::session::Tagged;
///
/// let t: Tagged = "core0/nominal 104250".parse()?;
/// assert_eq!(t.channel.as_str(), "core0/nominal");
/// assert_eq!(t.time, 104250.0);
/// let u: Tagged = "tenant-b,98000.5".parse()?;
/// assert_eq!(u.channel.as_str(), "tenant-b");
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged {
    /// The channel the measurement belongs to.
    pub channel: ChannelId,
    /// The measured execution time.
    pub time: f64,
}

impl Tagged {
    /// A tagged measurement.
    pub fn new(channel: impl Into<ChannelId>, time: f64) -> Self {
        Tagged {
            channel: channel.into(),
            time,
        }
    }
}

impl std::str::FromStr for Tagged {
    type Err = MbptaError;

    fn from_str(line: &str) -> Result<Self, MbptaError> {
        let line = line.trim();
        let (channel, time) = line
            .split_once(',')
            .or_else(|| line.split_once(char::is_whitespace))
            .ok_or(MbptaError::InvalidConfig {
                what: "tagged line must be `<channel> <time>` or `<channel>,<time>`",
            })?;
        let channel = channel.trim();
        if channel.is_empty() {
            return Err(MbptaError::InvalidConfig {
                what: "tagged line has an empty channel label",
            });
        }
        let time = time
            .trim()
            .parse::<f64>()
            .map_err(|_| MbptaError::InvalidConfig {
                what: "tagged line has an unparsable time value",
            })?;
        Ok(Tagged::new(channel, time))
    }
}

/// One emitted snapshot of a session channel's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The channel the estimate belongs to.
    pub channel: ChannelId,
    /// Session-wide measurements ingested when the snapshot was emitted.
    pub total: usize,
    /// The channel engine's estimate.
    pub estimate: EngineEstimate,
}

#[derive(Clone)]
struct ChannelState<E> {
    id: ChannelId,
    /// The running engine; `None` once the channel no longer needs one —
    /// finished early (verdict moved to `early_verdict`) or quarantined
    /// (`failed` set) — so its state (sketches, buffers, windows) is
    /// freed mid-session instead of at merge.
    engine: Option<E>,
    /// The stored verdict of an early-finished channel, already
    /// channel-scoped like [`AnalysisSession::merge`] produces it.
    early_verdict: Option<Result<Verdict, MbptaError>>,
    /// Measurements the engine had accepted when it was dropped (early
    /// finish or quarantine).
    accepted: usize,
    /// First engine failure on this channel; once set, the channel is
    /// quarantined and further measurements are counted in `dropped`.
    failed: Option<MbptaError>,
    /// Measurements dropped after quarantine (or after an early finish).
    dropped: usize,
    /// `EngineEstimate::n` of the last emitted snapshot, for freshness.
    last_emitted_n: Option<usize>,
    /// Channel length at the last poll that found nothing fresh — an
    /// engine's estimate is a pure function of its pushes, so until the
    /// channel grows past this there is nothing new to poll for.
    last_polled_len: usize,
    /// Whether the convergence transition has been announced.
    converged_emitted: bool,
}

impl<E: Engine> ChannelState<E> {
    /// Poll for a fresh (not-yet-emitted) estimate. Records the polled
    /// length whenever the outcome cannot change until the channel grows,
    /// so repeated scans between refits cost one length comparison.
    fn fresh_estimate(&mut self) -> Option<EngineEstimate> {
        let engine = self.engine.as_mut()?;
        let len = engine.len();
        if len == self.last_polled_len {
            return None;
        }
        match engine.estimate() {
            Some(estimate) if self.last_emitted_n != Some(estimate.n) => Some(estimate),
            _ => {
                self.last_polled_len = len;
                None
            }
        }
    }

    /// Record an emission at estimate count `n`.
    fn mark_emitted(&mut self, n: usize) {
        self.last_emitted_n = Some(n);
        self.last_polled_len = self.engine.as_ref().map_or(0, |e| e.len());
    }

    /// Finish the engine now and drop it, freeing its state; the verdict
    /// is held for [`AnalysisSession::merge`]. Pushes arriving after
    /// this are counted in `dropped`.
    fn finish_early(&mut self) {
        if let Some(mut engine) = self.engine.take() {
            self.accepted = engine.len();
            self.early_verdict = Some(
                engine
                    .finish()
                    .map(|mut verdict| {
                        verdict.provenance.channel = Some(self.id.clone());
                        verdict
                    })
                    .map_err(|e| MbptaError::channel_scoped(self.id.clone(), e)),
            );
        }
    }
}

/// A multi-channel analysis session. Created by
/// [`SessionBuilder`](crate::config::SessionBuilder); see the
/// [module docs](self) for the overall shape.
pub struct AnalysisSession<F: EngineFactory> {
    factory: F,
    channels: Vec<ChannelState<F::Engine>>,
    /// Channel-id → slot lookup. A `BTreeMap` on purpose: nothing
    /// iterates it today, but if something ever does, the order is the
    /// channel ids' — deterministic — not a hasher's.
    index: BTreeMap<ChannelId, usize>,
    total: usize,
    snapshot_every: usize,
    since_snapshot: usize,
    rr_cursor: usize,
    /// Auto-checkpoint cadence in measurements (`0` = disabled). Like
    /// `jobs` this is runtime policy, not analysis state: it is **not**
    /// persisted in [`checkpoint`](Self::checkpoint) blobs (the blob
    /// format predates it and results never depend on it).
    checkpoint_every: usize,
    /// `total` at the last [`mark_checkpointed`](Self::mark_checkpointed)
    /// (or at construction/restore — both are checkpoint boundaries).
    last_checkpoint_at: usize,
    jobs: usize,
    /// When true, a channel's engine is finished and dropped as soon as
    /// its estimate converges — freeing sketch/buffer memory in long
    /// sessions — instead of running until [`merge`](Self::merge).
    early_finish: bool,
    /// When false the session never polls engines (no scheduled
    /// snapshots, no convergence announcements). New sessions poll; the
    /// flag is part of the checkpoint format, so a restored session
    /// keeps the value its blob records.
    polling: bool,
}

impl<F: EngineFactory> AnalysisSession<F> {
    /// Create a session. `snapshot_every` is the scheduler period in
    /// measurements (`0` disables scheduled snapshots; convergence
    /// announcements still fire); `jobs` bounds the worker threads
    /// [`merge`](Self::merge) uses (`0` = all cores); `early_finish`
    /// finishes each channel at its convergence announcement.
    pub(crate) fn new(
        factory: F,
        snapshot_every: usize,
        checkpoint_every: usize,
        jobs: usize,
        early_finish: bool,
    ) -> Self {
        AnalysisSession {
            factory,
            channels: Vec::new(),
            index: BTreeMap::new(),
            total: 0,
            snapshot_every,
            since_snapshot: 0,
            rr_cursor: 0,
            checkpoint_every,
            last_checkpoint_at: 0,
            jobs,
            early_finish,
            polling: true,
        }
    }

    /// Total measurements ingested across all channels.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` before the first measurement.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of channels seen so far.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The channel ids, in first-seen order.
    pub fn channel_ids(&self) -> impl Iterator<Item = &ChannelId> {
        self.channels.iter().map(|c| &c.id)
    }

    /// The worker-thread bound [`merge`](Self::merge) will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The auto-checkpoint cadence in measurements (`0` = disabled).
    ///
    /// Configured with
    /// [`SessionBuilder::checkpoint_every`](crate::config::SessionBuilder::checkpoint_every);
    /// the session only *counts* — the caller owns the checkpoint
    /// bytes/IO: poll [`checkpoint_due`](Self::checkpoint_due) after
    /// ingesting, write [`checkpoint`](Self::checkpoint) somewhere
    /// durable, then [`mark_checkpointed`](Self::mark_checkpointed).
    pub fn checkpoint_every(&self) -> usize {
        self.checkpoint_every
    }

    /// Change the auto-checkpoint cadence (`0` disables it). Cadence is
    /// runtime policy, so a [`restore`](Self::restore)d session starts
    /// with it disabled — set it again if checkpointing should continue.
    pub fn set_checkpoint_every(&mut self, every: usize) {
        self.checkpoint_every = every;
    }

    /// Measurements ingested since the last
    /// [`mark_checkpointed`](Self::mark_checkpointed) (or since
    /// construction/restore, which are both checkpoint boundaries).
    pub fn since_checkpoint(&self) -> usize {
        self.total - self.last_checkpoint_at
    }

    /// `true` when a cadence is set and at least that many measurements
    /// arrived since the last checkpoint mark.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_every > 0 && self.since_checkpoint() >= self.checkpoint_every
    }

    /// Measurements until the next checkpoint falls due (`None` when the
    /// cadence is disabled, `Some(0)` when one is already due). Feeders
    /// that want checkpoint positions independent of their chunking cut
    /// chunks to this bound.
    pub fn until_checkpoint(&self) -> Option<usize> {
        if self.checkpoint_every == 0 {
            None
        } else {
            Some(
                self.checkpoint_every
                    .saturating_sub(self.since_checkpoint()),
            )
        }
    }

    /// Record that the caller just persisted a
    /// [`checkpoint`](Self::checkpoint): the cadence counter restarts
    /// from the current total.
    pub fn mark_checkpointed(&mut self) {
        self.last_checkpoint_at = self.total;
    }

    /// Install a channel from engine-state bytes ([`Engine::save_state`]
    /// format), routed through [`EngineFactory::restore`] — so the blob's
    /// engine kind and configuration fingerprint are verified exactly as
    /// on a session restore. This is the federated ingestion surface: a
    /// shard ships sealed analyzer state, the coordinator folds it into
    /// engine-state bytes and adopts it as a live channel (which can keep
    /// accepting measurements afterwards).
    ///
    /// The adopted engine's measurements count toward the session total
    /// (and the checkpoint cadence), but do not retroactively trigger
    /// scheduled snapshots.
    ///
    /// # Errors
    ///
    /// * [`MbptaError::InvalidConfig`] if the channel already exists —
    ///   adopting must not silently clobber live analysis state;
    /// * [`MbptaError::Checkpoint`] for corrupt, wrong-kind or
    ///   configuration-mismatched state bytes.
    pub fn adopt_channel(
        &mut self,
        id: impl Into<ChannelId>,
        state: &[u8],
    ) -> Result<(), MbptaError> {
        let id = id.into();
        if self.index.contains_key(&id) {
            return Err(MbptaError::InvalidConfig {
                what: "cannot adopt a channel that already exists in the session",
            });
        }
        let engine = self.factory.restore(&id, state)?;
        let n = engine.len();
        let i = self.channels.len();
        self.channels.push(ChannelState {
            id: id.clone(),
            engine: Some(engine),
            early_verdict: None,
            accepted: 0,
            failed: None,
            dropped: 0,
            last_emitted_n: None,
            last_polled_len: 0,
            converged_emitted: false,
        });
        self.index.insert(id, i);
        self.total += n;
        Ok(())
    }

    /// `true` once every healthy channel's estimate has converged (and
    /// at least one channel exists). Quarantined channels are excluded —
    /// they will never converge and are reported at [`merge`](Self::merge)
    /// instead; early-finished channels count as converged.
    pub fn all_converged(&self) -> bool {
        let mut healthy = 0;
        for state in &self.channels {
            if state.failed.is_some() {
                continue;
            }
            if let Some(engine) = &state.engine {
                if !engine.converged() {
                    return false;
                }
            }
            healthy += 1;
        }
        healthy > 0
    }

    fn channel_index(&mut self, id: ChannelId) -> Result<usize, MbptaError> {
        if let Some(&i) = self.index.get(&id) {
            return Ok(i);
        }
        let engine = self
            .factory
            .create(&id)
            .map_err(|e| MbptaError::channel_scoped(id.clone(), e))?;
        let i = self.channels.len();
        self.channels.push(ChannelState {
            id: id.clone(),
            engine: Some(engine),
            early_verdict: None,
            accepted: 0,
            failed: None,
            dropped: 0,
            last_emitted_n: None,
            last_polled_len: 0,
            converged_emitted: false,
        });
        self.index.insert(id, i);
        Ok(i)
    }

    /// A handle to `channel`, creating its engine if this is the first
    /// sighting. The handle pushes without re-hashing the channel id.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Channel`] if the factory cannot create an
    /// engine for this channel (configuration error).
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_mbpta::MbptaConfig;
    /// use rand::{Rng, SeedableRng};
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    /// let mut session = MbptaConfig::default().session().build_batch()?;
    /// let mut nominal = session.channel("nominal")?;
    /// for _ in 0..1000 {
    ///     let x = 1e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 70.0;
    ///     nominal.push(x);
    /// }
    /// assert_eq!(nominal.len(), 1000);
    /// # Ok::<(), proxima_mbpta::MbptaError>(())
    /// ```
    pub fn channel(
        &mut self,
        id: impl Into<ChannelId>,
    ) -> Result<ChannelHandle<'_, F>, MbptaError> {
        let index = self.channel_index(id.into())?;
        Ok(ChannelHandle {
            session: self,
            index,
        })
    }

    /// Ingest one tagged measurement, creating the channel's engine on
    /// first sight. Returns a snapshot when the scheduler emitted one.
    ///
    /// A measurement the channel's engine rejects (non-finite value on a
    /// validating engine) **quarantines that channel** — it is reported
    /// in the merged verdict — rather than failing the session; pushes
    /// to a quarantined channel are counted and dropped. Engine
    /// *creation* failure is a configuration error and is returned.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Channel`] only if the engine factory fails
    /// for a new channel.
    pub fn push(&mut self, tagged: Tagged) -> Result<Option<SessionSnapshot>, MbptaError> {
        let index = self.channel_index(tagged.channel)?;
        Ok(self.push_at(index, tagged.time))
    }

    /// Ingest a whole feed, collecting every snapshot emitted along the
    /// way.
    ///
    /// # Errors
    ///
    /// Same as [`Self::push`].
    pub fn extend(
        &mut self,
        feed: impl IntoIterator<Item = Tagged>,
    ) -> Result<Vec<SessionSnapshot>, MbptaError> {
        let mut out = Vec::new();
        for tagged in feed {
            if let Some(snap) = self.push(tagged)? {
                out.push(snap);
            }
        }
        Ok(out)
    }

    /// Bulk-ingest a slice of measurements for one channel, collecting
    /// every snapshot the itemized [`push`](Self::push) loop would have
    /// emitted — **bit for bit**, including the scheduler's checkpointed
    /// bookkeeping — while the engine ingests in amortized batches.
    ///
    /// The slice is cut into *quiet stretches*: runs of measurements
    /// across which the channel's engine guarantees its estimate and
    /// convergence verdict cannot change ([`Engine::quiet_horizon`]) and
    /// no scheduled snapshot falls due. Each stretch takes the engine's
    /// [`Engine::push_batch`] path and settles the scheduler with one
    /// poll (or, when the scheduler is primed, one scan) instead of one
    /// per measurement; the measurements *at* refit checkpoints and
    /// snapshot deadlines go through the exact per-item path. Engines
    /// with no horizon (the batch engine's poll-cadence refits) fall
    /// back to per-item scheduling throughout.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Channel`] only if the engine factory fails
    /// for a new channel. A measurement the engine rejects does *not*
    /// error: exactly as in the itemized loop it quarantines the channel,
    /// and the rest of the slice is counted as dropped.
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_mbpta::session::Tagged;
    /// use proxima_mbpta::MbptaConfig;
    ///
    /// let feed: Vec<f64> = (0..2_000).map(|i| 1e5 + ((i * 37) % 500) as f64).collect();
    /// let mut batched = MbptaConfig::default().session().build_batch()?;
    /// let mut itemized = MbptaConfig::default().session().build_batch()?;
    ///
    /// let snaps = batched.push_batch("nominal", &feed)?;
    /// let mut reference = Vec::new();
    /// for &x in &feed {
    ///     reference.extend(itemized.push(Tagged::new("nominal", x))?);
    /// }
    /// assert_eq!(snaps, reference);
    /// # Ok::<(), proxima_mbpta::MbptaError>(())
    /// ```
    pub fn push_batch(
        &mut self,
        channel: impl Into<ChannelId>,
        xs: &[f64],
    ) -> Result<Vec<SessionSnapshot>, MbptaError> {
        let index = self.channel_index(channel.into())?;
        Ok(self.push_batch_at(index, xs))
    }

    fn push_batch_at(&mut self, index: usize, xs: &[f64]) -> Vec<SessionSnapshot> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < xs.len() {
            let stretch = self.quiet_stretch(index, xs.len() - i);
            if stretch <= 1 {
                // At a refit checkpoint, snapshot deadline or pending
                // announcement: take the exact per-item path.
                if let Some(snap) = self.push_at(index, xs[i]) {
                    out.push(snap);
                }
                i += 1;
                continue;
            }
            let chunk = &xs[i..i + stretch];
            i += stretch;
            self.ingest_quietly(index, chunk);
            if !self.polling {
                continue;
            }
            if self.snapshot_every == 0 {
                self.poll_quietly(index);
            } else if self.since_snapshot >= self.snapshot_every {
                // Primed scheduler: the per-item scans all provably
                // failed (no channel was fresh when it primed and the
                // pushed engine is inside its quiet horizon); the last
                // item's full emit reproduces their cumulative
                // bookkeeping exactly.
                let emitted = self.emit(index);
                debug_assert!(emitted.is_none(), "scan emitted inside a quiet stretch");
            } else {
                self.since_snapshot += chunk.len();
                debug_assert!(self.since_snapshot < self.snapshot_every);
                self.poll_quietly(index);
            }
        }
        out
    }

    /// How many measurements can be bulk-ingested for `channels[index]`
    /// from the current state before the per-item scheduler could do
    /// anything but bookkeeping. `<= 1` means "go item by item".
    fn quiet_stretch(&self, index: usize, remaining: usize) -> usize {
        if !self.polling {
            return remaining;
        }
        let state = &self.channels[index];
        let engine_h = match &state.engine {
            // Quarantined or early-finished: pushes only count drops and
            // can never announce.
            None => usize::MAX,
            Some(engine) => {
                if state.failed.is_none() && !state.converged_emitted && engine.converged() {
                    return 1; // announcement pending on the next push
                }
                match engine.quiet_horizon() {
                    None => return 1,
                    Some(h) => h,
                }
            }
        };
        let schedule_h = if self.snapshot_every == 0 {
            usize::MAX
        } else if self.since_snapshot >= self.snapshot_every {
            // Primed: scans run every item but provably keep failing
            // inside the engine's horizon.
            engine_h
        } else {
            self.snapshot_every - self.since_snapshot - 1
        };
        remaining.min(engine_h).min(schedule_h)
    }

    /// The per-item ingest loop of [`Self::push_at`], collapsed for a
    /// quiet stretch: bulk engine ingest, with the itemized quarantine
    /// semantics (prefix accepted, rejected value swallowed, remainder
    /// dropped) on an engine error.
    fn ingest_quietly(&mut self, index: usize, chunk: &[f64]) {
        self.total += chunk.len();
        let poll_eligible = self.polling;
        let state = &mut self.channels[index];
        match state.engine.as_mut() {
            None => state.dropped += chunk.len(),
            Some(engine) => {
                let before = engine.len();
                if let Err(e) = engine.push_batch(chunk) {
                    let ingested = engine.len() - before;
                    // The itemized loop polled after each accepted
                    // measurement; settle that bookkeeping while the
                    // engine is still here (a no-op when nothing was
                    // accepted — the outcome class cannot change inside
                    // the quiet stretch).
                    if poll_eligible && state.failed.is_none() && !state.converged_emitted {
                        let _ = state.fresh_estimate();
                    }
                    state.failed = Some(e);
                    if let Some(engine) = state.engine.take() {
                        state.accepted = engine.len();
                    }
                    // The rejected measurement itself is neither
                    // accepted nor dropped, exactly as in `push_at`.
                    state.dropped += chunk.len() - ingested - 1;
                }
            }
        }
    }

    /// The convergence-announcement poll of [`Self::emit`] for a whole
    /// quiet stretch: one `fresh_estimate` settles `last_polled_len` to
    /// exactly the per-item end state (fruitless polls record the final
    /// length; a fresh-but-unconverged estimate leaves it untouched —
    /// and the class cannot flip inside the stretch).
    fn poll_quietly(&mut self, index: usize) {
        let state = &mut self.channels[index];
        if state.failed.is_none() && !state.converged_emitted && state.engine.is_some() {
            let _ = state.fresh_estimate();
        }
    }

    fn push_at(&mut self, index: usize, time: f64) -> Option<SessionSnapshot> {
        self.total += 1;
        let state = &mut self.channels[index];
        let outcome = match state.engine.as_mut() {
            // Quarantined or early-finished: count and drop.
            None => {
                state.dropped += 1;
                Ok(())
            }
            Some(engine) => engine.push(time),
        };
        if let Err(e) = outcome {
            // Quarantine the channel AND free its engine state now: merge
            // takes the error path and never reads the engine again, so
            // holding its buffers for the rest of the session would only
            // burn memory.
            state.failed = Some(e);
            if let Some(engine) = state.engine.take() {
                state.accepted = engine.len();
            }
        }
        self.emit(index)
    }

    /// The snapshot scheduler: announce a convergence transition on the
    /// just-pushed channel immediately; otherwise, every
    /// `snapshot_every` measurements, emit the next fresh estimate in
    /// round-robin channel order.
    fn emit(&mut self, pushed: usize) -> Option<SessionSnapshot> {
        if !self.polling {
            return None;
        }
        let total = self.total;
        let state = &mut self.channels[pushed];
        if state.failed.is_none() && !state.converged_emitted && state.engine.is_some() {
            // Poll the pushed channel even when scheduled snapshots are
            // off: engines that refit on demand (batch) track their
            // convergence inside `estimate`, and the poll is cadence-
            // gated inside the engine.
            let fresh = state.fresh_estimate();
            if state.engine.as_ref().is_some_and(Engine::converged) {
                state.converged_emitted = true;
                // Announce only if the scheduler has not already emitted
                // this exact estimate (it carries `converged: true`).
                let announcement = fresh.map(|estimate| {
                    state.mark_emitted(estimate.n);
                    SessionSnapshot {
                        channel: state.id.clone(),
                        total,
                        estimate,
                    }
                });
                if self.early_finish {
                    state.finish_early();
                }
                if announcement.is_some() {
                    return announcement;
                }
            }
        }
        if self.snapshot_every == 0 {
            return None;
        }
        self.since_snapshot += 1;
        if self.since_snapshot < self.snapshot_every {
            return None;
        }
        let n_channels = self.channels.len();
        for k in 0..n_channels {
            let i = (self.rr_cursor + k) % n_channels;
            let state = &mut self.channels[i];
            if state.failed.is_some() {
                continue;
            }
            if let Some(estimate) = state.fresh_estimate() {
                state.mark_emitted(estimate.n);
                self.rr_cursor = (i + 1) % n_channels;
                self.since_snapshot = 0;
                return Some(SessionSnapshot {
                    channel: state.id.clone(),
                    total,
                    estimate,
                });
            }
        }
        // No channel had a fresh estimate: stay primed so the next fresh
        // one emits without waiting another full period (the primed
        // re-scan is one length comparison per channel).
        self.since_snapshot = self.snapshot_every;
        None
    }

    /// Serialize the session's complete state into a sealed checkpoint
    /// blob: scheduler cursors (`total`, snapshot phase, round-robin
    /// cursor), the early-finish/polling flags, and — per channel, in
    /// first-seen order — its engine state ([`Engine::save_state`]),
    /// quarantine error, early-finish verdict, drop counters and
    /// snapshot-freshness bookkeeping.
    ///
    /// [`AnalysisSession::restore`] rebuilds a session whose every
    /// subsequent snapshot, convergence announcement and merged verdict
    /// is **bit-identical** to this one's, at any `jobs` setting.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Checkpoint`] if a channel's engine cannot
    /// serialize its state.
    pub fn checkpoint(&self) -> Result<Vec<u8>, MbptaError> {
        use crate::persist::{seal, Writer, MAGIC_SESSION};
        let mut w = Writer::new();
        w.usize(self.total);
        w.usize(self.snapshot_every);
        w.usize(self.since_snapshot);
        w.usize(self.rr_cursor);
        w.bool(self.early_finish);
        w.bool(self.polling);
        w.usize(self.channels.len());
        for state in &self.channels {
            encode_channel_state(state, &mut w)?;
        }
        Ok(seal(MAGIC_SESSION, w.into_bytes()))
    }

    /// Serialize one channel's complete state — engine, early verdict,
    /// quarantine error, drop counters and snapshot bookkeeping — as a
    /// standalone sealed record (magic
    /// [`MAGIC_CHANNEL`](crate::persist::MAGIC_CHANNEL)).
    ///
    /// The record is the unit of channel migration: a sharded
    /// coordinator that re-partitions channels across worker sessions
    /// exports each channel from the session that held it and
    /// [`adopt_channel_record`](Self::adopt_channel_record)s it into
    /// its new owner. The encoding is byte-for-byte the per-channel
    /// section of a session [`checkpoint`](Self::checkpoint), so a
    /// migrated channel's later snapshots and verdicts are
    /// **bit-identical** to never having moved.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] if the channel is unknown or its
    /// engine cannot serialize its state.
    pub fn export_channel_record(&self, channel: &str) -> Result<Vec<u8>, MbptaError> {
        use crate::persist::{seal, Writer, MAGIC_CHANNEL};
        let state = self
            .channels
            .iter()
            .find(|state| state.id.as_str() == channel)
            .ok_or_else(|| {
                MbptaError::checkpoint(format!("cannot export unknown channel `{channel}`"))
            })?;
        let mut w = Writer::new();
        encode_channel_state(state, &mut w)?;
        Ok(seal(MAGIC_CHANNEL, w.into_bytes()))
    }

    /// Install a channel from an
    /// [`export_channel_record`](Self::export_channel_record) blob,
    /// restoring its engine through [`EngineFactory::restore`] (so the
    /// record's configuration fingerprint is verified against this
    /// session's factory). The channel arrives with its full history —
    /// early verdict, quarantine state, drop counters, snapshot
    /// bookkeeping — and its measurements count toward the session
    /// total, exactly as on a session restore.
    ///
    /// # Errors
    ///
    /// * [`MbptaError::InvalidConfig`] if the channel already exists;
    /// * [`MbptaError::Checkpoint`] for corrupt, wrong-magic or
    ///   configuration-mismatched record bytes.
    pub fn adopt_channel_record(&mut self, record: &[u8]) -> Result<ChannelId, MbptaError> {
        use crate::persist::{unseal, Reader, MAGIC_CHANNEL};
        let payload = unseal(record, MAGIC_CHANNEL)?;
        let mut r = Reader::new(payload);
        let state = decode_channel_state(&self.factory, &mut r)?;
        r.finish()?;
        if self.index.contains_key(&state.id) {
            return Err(MbptaError::InvalidConfig {
                what: "cannot adopt a channel that already exists in the session",
            });
        }
        let id = state.id.clone();
        let n = state.engine.as_ref().map_or(state.accepted, Engine::len);
        self.index.insert(id.clone(), self.channels.len());
        self.channels.push(state);
        self.total += n;
        Ok(id)
    }

    /// Rebuild a session from a [`checkpoint`](Self::checkpoint) blob.
    /// Channel engines are recreated through
    /// [`EngineFactory::restore`], which verifies the blob's
    /// configuration fingerprint against `factory` — a checkpoint cannot
    /// be silently resumed under different analysis settings. `jobs`
    /// bounds the worker threads [`merge`](Self::merge) will use (it
    /// does not affect results, so it may differ from the
    /// checkpointing process's setting).
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Checkpoint`] for truncated, corrupted,
    /// wrong-version or configuration-mismatched bytes.
    pub fn restore(factory: F, state: &[u8], jobs: usize) -> Result<Self, MbptaError> {
        use crate::persist::{unseal, Reader, MAGIC_SESSION};
        let payload = unseal(state, MAGIC_SESSION)?;
        let mut r = Reader::new(payload);
        let total = r.usize()?;
        let snapshot_every = r.usize()?;
        let since_snapshot = r.usize()?;
        let rr_cursor = r.usize()?;
        let early_finish = r.bool()?;
        let polling = r.bool()?;
        let n_channels = r.usize()?;
        if n_channels > payload.len() {
            return Err(MbptaError::checkpoint(
                "checkpoint channel count exceeds the payload size",
            ));
        }
        let mut channels = Vec::with_capacity(n_channels);
        let mut index = BTreeMap::new();
        for _ in 0..n_channels {
            let state = decode_channel_state(&factory, &mut r)?;
            if index.insert(state.id.clone(), channels.len()).is_some() {
                return Err(MbptaError::checkpoint(format!(
                    "checkpoint repeats channel `{}`",
                    state.id
                )));
            }
            channels.push(state);
        }
        r.finish()?;
        Ok(AnalysisSession {
            factory,
            channels,
            index,
            total,
            snapshot_every,
            since_snapshot,
            rr_cursor,
            // Cadence is runtime policy (like `jobs`), not persisted
            // state; a restore begins at a checkpoint boundary.
            checkpoint_every: 0,
            last_checkpoint_at: total,
            jobs,
            early_finish,
            polling,
        })
    }

    /// Finish every channel's engine and fold the per-channel verdicts
    /// into the merged [`SessionVerdict`]. Channels are finished in
    /// parallel over the workspace sharding engine (bounded by the
    /// session's `jobs`); each channel's verdict is a pure function of
    /// its own feed, so the result is identical for every `jobs` value.
    pub fn merge(self) -> SessionVerdict {
        let jobs = self.jobs;
        let n = self.channels.len();
        let slots: Vec<Mutex<Option<ChannelState<F::Engine>>>> = self
            .channels
            .into_iter()
            .map(|state| Mutex::new(Some(state)))
            .collect();
        let channels = run_sharded(n, jobs, |shard| {
            shard
                .map(|i| {
                    let mut state = slots[i]
                        .lock()
                        // Each index goes to exactly one worker, so a
                        // poisoned slot can only mean a panic mid-take in a
                        // prior unwinding run; the stored state is intact
                        // and safe to recover.
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                        // proxima-lint: allow(no-lib-panic) -- run_sharded
                        // hands each index to exactly one worker, so the
                        // slot is still occupied on first (only) take.
                        .expect("each channel finished exactly once");
                    let outcome = match (state.failed.take(), state.early_verdict.take()) {
                        (Some(e), _) => Err(MbptaError::channel_scoped(state.id.clone(), e)),
                        // Finished at convergence: the verdict is already
                        // scoped and the engine state long freed.
                        (None, Some(verdict)) => verdict,
                        (None, None) => state
                            .engine
                            .take()
                            // proxima-lint: allow(no-lib-panic) -- invariant:
                            // a channel that is neither failed nor
                            // early-finished still owns its engine.
                            .expect("running channel holds an engine")
                            .finish()
                            .map(|mut verdict| {
                                verdict.provenance.channel = Some(state.id.clone());
                                verdict
                            })
                            .map_err(|e| MbptaError::channel_scoped(state.id.clone(), e)),
                    };
                    ChannelVerdict {
                        channel: state.id,
                        outcome,
                        dropped: state.dropped,
                    }
                })
                .collect()
        });
        SessionVerdict { channels }
    }
}

/// Encode one channel's complete state — the per-channel section of a
/// session checkpoint, shared verbatim by
/// [`AnalysisSession::checkpoint`] and
/// [`AnalysisSession::export_channel_record`] so migrated channels and
/// checkpointed channels serialize bit-identically.
fn encode_channel_state<E: Engine>(
    state: &ChannelState<E>,
    w: &mut crate::persist::Writer,
) -> Result<(), MbptaError> {
    use crate::persist::Encode;
    state.id.encode(w);
    match &state.engine {
        Some(engine) => {
            w.bool(true);
            w.bytes(&engine.save_state()?);
        }
        None => w.bool(false),
    }
    match &state.early_verdict {
        None => w.u8(0),
        Some(Ok(verdict)) => {
            w.u8(1);
            verdict.encode(w);
        }
        Some(Err(e)) => {
            w.u8(2);
            e.encode(w);
        }
    }
    w.usize(state.accepted);
    state.failed.encode(w);
    w.usize(state.dropped);
    state.last_emitted_n.encode(w);
    w.usize(state.last_polled_len);
    w.bool(state.converged_emitted);
    Ok(())
}

/// Decode one channel-state record (the inverse of
/// [`encode_channel_state`]), restoring the engine through `factory`
/// and enforcing the structural invariants a live channel must hold.
fn decode_channel_state<F: EngineFactory>(
    factory: &F,
    r: &mut crate::persist::Reader<'_>,
) -> Result<ChannelState<F::Engine>, MbptaError> {
    use crate::persist::Decode;
    let id = ChannelId::decode(r)?;
    let engine = if r.bool()? {
        Some(factory.restore(&id, r.bytes()?)?)
    } else {
        None
    };
    let early_verdict = match r.u8()? {
        0 => None,
        1 => Some(Ok(Verdict::decode(r)?)),
        2 => Some(Err(MbptaError::decode(r)?)),
        other => {
            return Err(MbptaError::checkpoint(format!(
                "unknown early-verdict tag {other}"
            )))
        }
    };
    let accepted = r.usize()?;
    let failed = Option::decode(r)?;
    let dropped = r.usize()?;
    let last_emitted_n = Option::decode(r)?;
    let last_polled_len = r.usize()?;
    let converged_emitted = r.bool()?;
    if engine.is_none() && early_verdict.is_none() && failed.is_none() {
        return Err(MbptaError::checkpoint(
            "checkpointed channel has neither an engine nor a recorded outcome",
        ));
    }
    if engine.is_some() && early_verdict.is_some() {
        return Err(MbptaError::checkpoint(
            "checkpointed channel has both a live engine and an early verdict",
        ));
    }
    Ok(ChannelState {
        id,
        engine,
        early_verdict,
        accepted,
        failed,
        dropped,
        last_emitted_n,
        last_polled_len,
        converged_emitted,
    })
}

impl<F: EngineFactory + Clone> Clone for AnalysisSession<F>
where
    F::Engine: Clone,
{
    fn clone(&self) -> Self {
        AnalysisSession {
            factory: self.factory.clone(),
            channels: self.channels.clone(),
            index: self.index.clone(),
            total: self.total,
            snapshot_every: self.snapshot_every,
            since_snapshot: self.since_snapshot,
            rr_cursor: self.rr_cursor,
            checkpoint_every: self.checkpoint_every,
            last_checkpoint_at: self.last_checkpoint_at,
            jobs: self.jobs,
            early_finish: self.early_finish,
            polling: self.polling,
        }
    }
}

impl<F: EngineFactory> std::fmt::Debug for AnalysisSession<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("channels", &self.channels.len())
            .field("total", &self.total)
            .field("snapshot_every", &self.snapshot_every)
            .field("jobs", &self.jobs)
            .finish_non_exhaustive()
    }
}

/// A borrowed handle to one session channel: push measurements and read
/// the channel's state without re-hashing the channel id on every call.
///
/// Obtained from [`AnalysisSession::channel`]; holds the session
/// mutably, so interleave handles by re-acquiring them (cheap).
///
/// # Examples
///
/// ```
/// use proxima_mbpta::MbptaConfig;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let mut session = MbptaConfig::default().session().build_batch()?;
/// {
///     let mut fault = session.channel("fault-recovery")?;
///     for _ in 0..500 {
///         let x = 1.2e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 80.0;
///         fault.push(x);
///     }
///     assert_eq!(fault.id().as_str(), "fault-recovery");
///     assert!(!fault.failed());
/// }
/// assert_eq!(session.len(), 500);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
pub struct ChannelHandle<'a, F: EngineFactory> {
    session: &'a mut AnalysisSession<F>,
    index: usize,
}

impl<F: EngineFactory> ChannelHandle<'_, F> {
    /// The channel's id.
    pub fn id(&self) -> &ChannelId {
        &self.session.channels[self.index].id
    }

    /// Push one measurement to this channel (same semantics as
    /// [`AnalysisSession::push`], channel lookup already done).
    pub fn push(&mut self, time: f64) -> Option<SessionSnapshot> {
        self.session.push_at(self.index, time)
    }

    /// Bulk-ingest a slice of measurements into this channel (same
    /// semantics and bit-identity guarantee as
    /// [`AnalysisSession::push_batch`], channel lookup already done).
    pub fn push_batch(&mut self, xs: &[f64]) -> Vec<SessionSnapshot> {
        self.session.push_batch_at(self.index, xs)
    }

    /// Measurements this channel's engine accepted (frozen at the finish
    /// point for an early-finished channel).
    pub fn len(&self) -> usize {
        let state = &self.session.channels[self.index];
        state.engine.as_ref().map_or(state.accepted, Engine::len)
    }

    /// `true` before the channel's first measurement.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel engine's current estimate, if any (`None` once the
    /// channel was finished early — its verdict waits in
    /// [`AnalysisSession::merge`]).
    pub fn estimate(&mut self) -> Option<EngineEstimate> {
        let state = &mut self.session.channels[self.index];
        if state.failed.is_some() {
            return None;
        }
        state.engine.as_mut()?.estimate()
    }

    /// `true` once the channel's estimate converged (an early-finished
    /// channel converged by definition).
    pub fn converged(&self) -> bool {
        let state = &self.session.channels[self.index];
        state
            .engine
            .as_ref()
            .map_or(state.early_verdict.is_some(), Engine::converged)
    }

    /// `true` if this channel was finished early at convergence (its
    /// engine state freed, later measurements dropped).
    pub fn finished_early(&self) -> bool {
        let state = &self.session.channels[self.index];
        state.engine.is_none() && state.early_verdict.is_some()
    }

    /// `true` if this channel was quarantined by a bad measurement.
    pub fn failed(&self) -> bool {
        self.session.channels[self.index].failed.is_some()
    }
}

/// One channel's outcome in a merged session.
#[derive(Debug)]
pub struct ChannelVerdict {
    /// The channel.
    pub channel: ChannelId,
    /// The verdict, or the channel-scoped failure
    /// ([`MbptaError::Channel`]) that quarantined it.
    pub outcome: Result<Verdict, MbptaError>,
    /// Measurements dropped after the channel was quarantined.
    pub dropped: usize,
}

/// The merged outcome of a session: every channel's verdict (or scoped
/// failure) plus program-level envelope queries — the maximum budget
/// across channels, mirroring the per-path max-across-paths semantics of
/// [`paths`](crate::paths).
#[derive(Debug)]
pub struct SessionVerdict {
    channels: Vec<ChannelVerdict>,
}

impl SessionVerdict {
    /// Per-channel outcomes, in first-seen channel order.
    pub fn channels(&self) -> &[ChannelVerdict] {
        &self.channels
    }

    /// Consume into the per-channel outcomes.
    pub fn into_channels(self) -> Vec<ChannelVerdict> {
        self.channels
    }

    /// Look up one channel's outcome by label.
    pub fn verdict(&self, channel: &str) -> Option<&Result<Verdict, MbptaError>> {
        self.channels
            .iter()
            .find(|c| c.channel.as_str() == channel)
            .map(|c| &c.outcome)
    }

    /// The successfully analysed channels.
    pub fn ok_channels(&self) -> impl Iterator<Item = (&ChannelId, &Verdict)> {
        self.channels
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok().map(|v| (&c.channel, v)))
    }

    /// The quarantined/failed channels with their scoped errors.
    pub fn failures(&self) -> impl Iterator<Item = (&ChannelId, &MbptaError)> {
        self.channels
            .iter()
            .filter_map(|c| c.outcome.as_ref().err().map(|e| (&c.channel, e)))
    }

    /// `true` if every channel produced a verdict.
    pub fn all_ok(&self) -> bool {
        self.channels.iter().all(|c| c.outcome.is_ok())
    }

    /// The program-level pWCET budget at cutoff `p`: the maximum across
    /// the analysable channels, with the winning channel — the session
    /// form of per-path max-across-paths.
    ///
    /// # Errors
    ///
    /// Returns the first channel's scoped error if **no** channel
    /// produced a verdict, or [`MbptaError::Stats`] for an invalid `p`.
    pub fn envelope_budget(&self, p: f64) -> Result<(&ChannelId, f64), MbptaError> {
        let mut best: Option<(&ChannelId, f64)> = None;
        for (id, verdict) in self.ok_channels() {
            let budget = verdict.budget_for(p)?;
            if best.is_none_or(|(_, cur)| budget > cur) {
                best = Some((id, budget));
            }
        }
        match best {
            Some(found) => Ok(found),
            None => Err(self
                .channels
                .first()
                .and_then(|c| c.outcome.as_ref().err().cloned())
                .unwrap_or(MbptaError::InvalidConfig {
                    what: "session analysed no channel",
                })),
        }
    }

    /// The program-level pWCET curve: envelope budget at each
    /// probability.
    ///
    /// # Errors
    ///
    /// Same as [`Self::envelope_budget`].
    pub fn envelope_curve(&self, probabilities: &[f64]) -> Result<Vec<(f64, f64)>, MbptaError> {
        probabilities
            .iter()
            .map(|&p| Ok((self.envelope_budget(p)?.1, p)))
            .collect()
    }

    /// Highest observed execution time across the analysable channels.
    pub fn high_watermark(&self) -> f64 {
        self.ok_channels()
            .map(|(_, v)| v.high_watermark())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MbptaConfig;
    use crate::engine::{BatchFactory, EngineKind};
    use rand::{Rng, SeedableRng};

    fn campaign(base: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| base + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 80.0)
            .collect()
    }

    #[test]
    fn channel_id_and_tagged_parse() {
        let t: Tagged = " nominal \t 123.5 ".parse().unwrap();
        assert_eq!(t.channel.as_str(), "nominal");
        assert_eq!(t.time, 123.5);
        let c: Tagged = "a,2".parse().unwrap();
        assert_eq!(c, Tagged::new("a", 2.0));
        assert!("just-one-token".parse::<Tagged>().is_err());
        assert!(" , 5".parse::<Tagged>().is_err());
        assert!("ch abc".parse::<Tagged>().is_err());
        assert_eq!(ChannelId::new("x").to_string(), "x");
    }

    #[test]
    fn single_channel_session_equals_bare_analyze() {
        let times = campaign(1e5, 1500, 1);
        let config = MbptaConfig::default();
        let mut session = config.clone().session().build_batch().unwrap();
        for &x in &times {
            session.push(Tagged::new("only", x)).unwrap();
        }
        let merged = session.merge();
        let verdict = merged.verdict("only").unwrap().as_ref().unwrap();
        let report = config.analyze(&times).unwrap();
        assert_eq!(verdict.clone().into_report().unwrap(), report);
        assert_eq!(
            verdict.provenance.channel.as_ref().unwrap().as_str(),
            "only"
        );
    }

    #[test]
    fn interleaving_does_not_change_per_channel_verdicts() {
        let a = campaign(1.0e5, 800, 2);
        let b = campaign(1.2e5, 800, 20);
        let build = || MbptaConfig::default().session().build_batch().unwrap();

        // Round-robin interleave.
        let mut rr = build();
        for (&x, &y) in a.iter().zip(&b) {
            rr.push(Tagged::new("a", x)).unwrap();
            rr.push(Tagged::new("b", y)).unwrap();
        }
        // All of `a`, then all of `b`.
        let mut seq = build();
        for &x in &a {
            seq.push(Tagged::new("a", x)).unwrap();
        }
        for &y in &b {
            seq.push(Tagged::new("b", y)).unwrap();
        }
        let rr = rr.merge();
        let seq = seq.merge();
        for ch in ["a", "b"] {
            assert_eq!(
                rr.verdict(ch).unwrap().as_ref().unwrap(),
                seq.verdict(ch).unwrap().as_ref().unwrap(),
                "channel {ch} verdict depends on interleaving"
            );
        }
    }

    #[test]
    fn merge_jobs_invariant() {
        let a = campaign(1.0e5, 700, 3);
        let b = campaign(1.1e5, 700, 21);
        let c = campaign(1.3e5, 700, 41);
        let run = |jobs| {
            let mut session = MbptaConfig::default()
                .session()
                .jobs(jobs)
                .build_batch()
                .unwrap();
            for ((&x, &y), &z) in a.iter().zip(&b).zip(&c) {
                session.push(Tagged::new("a", x)).unwrap();
                session.push(Tagged::new("b", y)).unwrap();
                session.push(Tagged::new("c", z)).unwrap();
            }
            session.merge()
        };
        let serial = run(1);
        for jobs in [2, 3, 8] {
            let parallel = run(jobs);
            for ch in ["a", "b", "c"] {
                assert_eq!(
                    serial.verdict(ch).unwrap().as_ref().unwrap(),
                    parallel.verdict(ch).unwrap().as_ref().unwrap(),
                    "jobs={jobs} diverged on channel {ch}"
                );
            }
        }
    }

    #[test]
    fn bad_channel_is_quarantined_not_fatal() {
        let good = campaign(1e5, 1000, 4);
        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        for &x in &good {
            session.push(Tagged::new("good", x)).unwrap();
            // Constant feed: analysable only as a degenerate failure.
            session.push(Tagged::new("stuck", 500.0)).unwrap();
        }
        let merged = session.merge();
        assert!(!merged.all_ok());
        assert!(merged.verdict("good").unwrap().is_ok());
        let failures: Vec<_> = merged.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0.as_str(), "stuck");
        assert!(matches!(
            failures[0].1,
            MbptaError::Channel { channel, .. } if channel.as_str() == "stuck"
        ));
        // The envelope still answers from the good channel.
        let (winner, budget) = merged.envelope_budget(1e-12).unwrap();
        assert_eq!(winner.as_str(), "good");
        assert!(budget > 1e5);
    }

    #[test]
    fn envelope_is_max_across_channels() {
        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        for (label, base, seed) in [("slow", 1.4e5, 40), ("fast", 1.0e5, 2)] {
            let mut handle = session.channel(label).unwrap();
            for x in campaign(base, 900, seed) {
                handle.push(x);
            }
        }
        let merged = session.merge();
        let p = 1e-9;
        let (winner, envelope) = merged.envelope_budget(p).unwrap();
        assert_eq!(winner.as_str(), "slow");
        for (_, verdict) in merged.ok_channels() {
            assert!(envelope >= verdict.budget_for(p).unwrap());
        }
        let curve = merged.envelope_curve(&[1e-6, 1e-9, 1e-12]).unwrap();
        assert!(curve[0].0 <= curve[1].0 && curve[1].0 <= curve[2].0);
        assert!(merged.high_watermark() >= 1.4e5);
    }

    #[test]
    fn scheduler_emits_round_robin_across_channels() {
        let a = campaign(1.0e5, 2000, 5);
        let b = campaign(1.2e5, 2000, 22);
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(100)
            .build_batch()
            .unwrap();
        let mut snapshots = Vec::new();
        for (&x, &y) in a.iter().zip(&b) {
            if let Some(s) = session.push(Tagged::new("a", x)).unwrap() {
                snapshots.push(s);
            }
            if let Some(s) = session.push(Tagged::new("b", y)).unwrap() {
                snapshots.push(s);
            }
        }
        assert!(snapshots.len() >= 4, "got {}", snapshots.len());
        // Both channels get airtime.
        assert!(snapshots.iter().any(|s| s.channel.as_str() == "a"));
        assert!(snapshots.iter().any(|s| s.channel.as_str() == "b"));
        // Snapshots never repeat a stale estimate per channel.
        for ch in ["a", "b"] {
            let ns: Vec<usize> = snapshots
                .iter()
                .filter(|s| s.channel.as_str() == ch)
                .map(|s| s.estimate.n)
                .collect();
            for pair in ns.windows(2) {
                assert!(pair[1] > pair[0], "stale snapshot re-emitted on {ch}");
            }
        }
        // Totals are strictly increasing across the session.
        for pair in snapshots.windows(2) {
            assert!(pair[1].total > pair[0].total);
        }
    }

    #[test]
    fn batch_convergence_tracked_with_scheduling_off() {
        // With snapshot_every(0), scheduled snapshots are off but the
        // per-push convergence poll must still drive batch engines:
        // `all_converged` becomes true on a long stationary feed (the
        // `--stop-on-converged` contract).
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(0)
            .build_batch()
            .unwrap();
        let mut announced = 0;
        for x in campaign(1e5, 4000, 8) {
            if session.push(Tagged::new("only", x)).unwrap().is_some() {
                announced += 1;
            }
        }
        assert!(session.all_converged(), "batch engine never converged");
        assert_eq!(announced, 1, "exactly one convergence announcement");
    }

    #[test]
    fn snapshots_disabled_with_zero_period() {
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(0)
            .build_batch()
            .unwrap();
        let mut emitted = 0;
        for x in campaign(1e5, 600, 6) {
            if session.push(Tagged::new("only", x)).unwrap().is_some() {
                emitted += 1;
            }
        }
        // Only a convergence announcement may fire; no periodic ones.
        assert!(emitted <= 1, "scheduled snapshots leaked: {emitted}");
    }

    #[test]
    fn early_finish_freezes_channel_at_convergence() {
        let feed = campaign(1e5, 6000, 9);
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(0)
            .early_finish(true)
            .build_batch()
            .unwrap();
        let mut frozen_at = None;
        for &x in &feed {
            session.push(Tagged::new("only", x)).unwrap();
            let mut ch = session.channel("only").unwrap();
            if ch.finished_early() {
                frozen_at.get_or_insert(ch.len());
                assert!(ch.converged());
                assert!(ch.estimate().is_none(), "engine state is gone");
            }
        }
        let frozen_at = frozen_at.expect("stationary feed converges well before 6000");
        assert!(frozen_at < 6000);
        assert!(session.all_converged());
        let merged = session.merge();
        let cv = &merged.channels()[0];
        let verdict = cv.outcome.as_ref().unwrap();
        // The verdict covers the feed up to convergence; the rest was
        // dropped (and counted).
        assert_eq!(verdict.summary.n, frozen_at);
        assert_eq!(cv.dropped, 6000 - frozen_at);
        let reference = MbptaConfig::default().analyze(&feed[..frozen_at]).unwrap();
        assert_eq!(verdict.clone().into_report().unwrap(), reference);
    }

    #[test]
    fn early_finish_announces_convergence_once_then_stays_silent() {
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(0)
            .early_finish(true)
            .build_batch()
            .unwrap();
        let mut announced = 0;
        for x in campaign(1e5, 5000, 8) {
            if session.push(Tagged::new("only", x)).unwrap().is_some() {
                announced += 1;
            }
        }
        assert_eq!(announced, 1, "one announcement, then the engine is gone");
    }

    #[test]
    fn early_finish_off_keeps_engines_to_the_end() {
        let feed = campaign(1e5, 5000, 8);
        let run = |early| {
            let mut session = MbptaConfig::default()
                .session()
                .snapshot_every(0)
                .early_finish(early)
                .build_batch()
                .unwrap();
            for &x in &feed {
                session.push(Tagged::new("only", x)).unwrap();
            }
            session.merge()
        };
        let full = run(false);
        let early = run(true);
        let full_v = full.verdict("only").unwrap().as_ref().unwrap();
        let early_v = early.verdict("only").unwrap().as_ref().unwrap();
        assert_eq!(full_v.summary.n, 5000);
        assert!(early_v.summary.n < 5000);
        // Both describe the same stationary population: budgets agree to
        // the convergence tolerance even though n differs.
        let (f, e) = (
            full_v.budget_for(1e-12).unwrap(),
            early_v.budget_for(1e-12).unwrap(),
        );
        assert!((f / e - 1.0).abs() < 0.05, "full={f} early={e}");
    }

    #[test]
    fn session_checkpoint_resume_is_bit_identical_mid_feed() {
        let a = campaign(1.0e5, 1600, 31);
        let b = campaign(1.2e5, 1600, 32);
        let build = || {
            MbptaConfig::default()
                .session()
                .snapshot_every(100)
                .build_batch()
                .unwrap()
        };
        let mut uninterrupted = build();
        let mut resumed = build();
        let mut resumed_snaps = Vec::new();
        let mut uninterrupted_snaps = Vec::new();
        for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
            for (ch, v) in [("a", x), ("b", y)] {
                if let Some(s) = uninterrupted.push(Tagged::new(ch, v)).unwrap() {
                    uninterrupted_snaps.push(s);
                }
                if let Some(s) = resumed.push(Tagged::new(ch, v)).unwrap() {
                    resumed_snaps.push(s);
                }
            }
            if i == 700 {
                // Checkpoint → restore mid-feed, with a different jobs
                // setting; everything downstream must not notice.
                let blob = resumed.checkpoint().unwrap();
                let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
                resumed = AnalysisSession::restore(factory, &blob, 3).unwrap();
                assert_eq!(resumed.len(), uninterrupted.len());
                assert_eq!(resumed.jobs(), 3);
            }
        }
        assert_eq!(resumed_snaps, uninterrupted_snaps);
        let merged_u = uninterrupted.merge();
        let merged_r = resumed.merge();
        for ch in ["a", "b"] {
            assert_eq!(merged_u.verdict(ch).unwrap(), merged_r.verdict(ch).unwrap());
        }
    }

    #[test]
    fn checkpoint_captures_quarantine_and_early_finish() {
        let feed = campaign(1e5, 6000, 9);
        let mut session = MbptaConfig::default()
            .session()
            .snapshot_every(0)
            .early_finish(true)
            .build_batch()
            .unwrap();
        for &x in &feed {
            session.push(Tagged::new("good", x)).unwrap();
            session.push(Tagged::new("stuck", 500.0)).unwrap();
        }
        {
            let ch = session.channel("good").unwrap();
            assert!(ch.finished_early(), "stationary feed finishes early");
        }
        let blob = session.checkpoint().unwrap();
        let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        let restored = AnalysisSession::restore(factory, &blob, 0).unwrap();
        let (a, b) = (session.merge(), restored.merge());
        assert_eq!(a.verdict("good").unwrap(), b.verdict("good").unwrap());
        assert_eq!(a.verdict("stuck").unwrap(), b.verdict("stuck").unwrap());
        assert_eq!(a.channels()[0].dropped, b.channels()[0].dropped);
    }

    #[test]
    fn restore_rejects_corrupt_bytes_with_typed_errors() {
        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        for x in campaign(1e5, 400, 10) {
            session.push(Tagged::new("only", x)).unwrap();
        }
        let blob = session.checkpoint().unwrap();
        let factory = || BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        for cut in [0, 4, 12, blob.len() / 2, blob.len() - 1] {
            assert!(matches!(
                AnalysisSession::restore(factory(), &blob[..cut], 0),
                Err(MbptaError::Checkpoint { .. })
            ));
        }
        let mut flipped = blob.clone();
        let mid = flipped.len() / 3;
        flipped[mid] ^= 1;
        assert!(matches!(
            AnalysisSession::restore(factory(), &flipped, 0),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn merged_verdict_records_provenance_kind() {
        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        for x in campaign(1e5, 800, 7) {
            session.push(Tagged::new("only", x)).unwrap();
        }
        let merged = session.merge();
        let verdict = merged.verdict("only").unwrap().as_ref().unwrap();
        assert_eq!(verdict.provenance.engine, EngineKind::Batch);
        assert_eq!(verdict.provenance.n, 800);
        assert!(format!("{merged:?}").contains("only"));
    }

    #[test]
    fn checkpoint_cadence_counts_and_rearms() {
        let mut session = MbptaConfig::default()
            .session()
            .checkpoint_every(100)
            .build_batch()
            .unwrap();
        assert_eq!(session.checkpoint_every(), 100);
        assert_eq!(session.until_checkpoint(), Some(100));
        assert!(!session.checkpoint_due());
        for x in campaign(1e5, 99, 5) {
            session.push(Tagged::new("ch", x)).unwrap();
        }
        assert_eq!(session.until_checkpoint(), Some(1));
        assert!(!session.checkpoint_due());
        session.push(Tagged::new("ch", 1.0e5)).unwrap();
        assert!(session.checkpoint_due());
        assert_eq!(session.until_checkpoint(), Some(0));
        assert_eq!(session.since_checkpoint(), 100);
        session.mark_checkpointed();
        assert!(!session.checkpoint_due());
        assert_eq!(session.since_checkpoint(), 0);
        assert_eq!(session.until_checkpoint(), Some(100));

        // Cadence is runtime policy, not persisted state: a restored
        // session starts with checkpointing disabled until re-armed.
        let blob = session.checkpoint().unwrap();
        let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        let mut restored = AnalysisSession::restore(factory, &blob, 0).unwrap();
        assert_eq!(restored.checkpoint_every(), 0);
        assert!(restored.until_checkpoint().is_none());
        assert!(!restored.checkpoint_due());
        restored.set_checkpoint_every(40);
        assert_eq!(restored.until_checkpoint(), Some(40));
    }

    #[test]
    fn adopt_channel_installs_state_and_rejects_duplicates() {
        // Donor engine state, saved outside any session.
        let times = campaign(1.1e5, 800, 9);
        let factory = BatchFactory::new(MbptaConfig::default(), 1e-12).unwrap();
        let mut donor = factory.create(&ChannelId::new("fed")).unwrap();
        donor.push_batch(&times).unwrap();
        let state = donor.save_state().unwrap();

        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        for x in campaign(1.0e5, 700, 4) {
            session.push(Tagged::new("live", x)).unwrap();
        }
        session.adopt_channel("fed", &state).unwrap();
        assert_eq!(session.len(), 700 + 800);
        assert_eq!(session.channel_count(), 2);
        // Adopting must never clobber a live channel.
        assert!(session.adopt_channel("fed", &state).is_err());
        assert!(session.adopt_channel("live", &state).is_err());
        // Garbage state bytes are rejected by the factory fingerprint.
        assert!(session.adopt_channel("other", b"not engine state").is_err());

        // The adopted channel analyses exactly like a pushed one.
        let merged = session.merge();
        let adopted = merged.verdict("fed").unwrap().as_ref().unwrap();
        let mut direct = MbptaConfig::default().session().build_batch().unwrap();
        for &x in &times {
            direct.push(Tagged::new("fed", x)).unwrap();
        }
        let direct = direct.merge();
        assert_eq!(adopted, direct.verdict("fed").unwrap().as_ref().unwrap());
    }

    #[test]
    fn channel_record_export_adopt_migrates_bit_identically() {
        let full = campaign(1.15e5, 1400, 12);
        let (prefix, suffix) = full.split_at(900);

        // Donor holds the channel mid-feed, alongside a sibling.
        let mut donor = MbptaConfig::default().session().build_batch().unwrap();
        for &x in prefix {
            donor.push(Tagged::new("mover", x)).unwrap();
        }
        for x in campaign(1.0e5, 500, 13) {
            donor.push(Tagged::new("stayer", x)).unwrap();
        }
        assert!(matches!(
            donor.export_channel_record("ghost"),
            Err(MbptaError::Checkpoint { .. })
        ));
        let record = donor.export_channel_record("mover").unwrap();

        // The new owner adopts it, measurements counting into its total.
        let mut owner = MbptaConfig::default().session().build_batch().unwrap();
        let id = owner.adopt_channel_record(&record).unwrap();
        assert_eq!(id.as_str(), "mover");
        assert_eq!(owner.len(), prefix.len());
        // A channel lives in exactly one session shard at a time.
        assert!(matches!(
            owner.adopt_channel_record(&record),
            Err(MbptaError::InvalidConfig { .. })
        ));
        // Corrupt or wrong-magic bytes are typed errors, not panics.
        assert!(matches!(
            owner.adopt_channel_record(&record[..record.len() - 3]),
            Err(MbptaError::Checkpoint { .. })
        ));
        assert!(matches!(
            owner.adopt_channel_record(&donor.checkpoint().unwrap()),
            Err(MbptaError::Checkpoint { .. })
        ));

        // Finish the feed in the new owner; a never-migrated control
        // session sees the identical per-channel sequence.
        for &x in suffix {
            owner.push(Tagged::new("mover", x)).unwrap();
        }
        let mut control = MbptaConfig::default().session().build_batch().unwrap();
        for &x in &full {
            control.push(Tagged::new("mover", x)).unwrap();
        }
        let (moved, stayed) = (owner.merge(), control.merge());
        assert_eq!(
            moved.verdict("mover").unwrap(),
            stayed.verdict("mover").unwrap(),
            "migration must be invisible to the verdict"
        );
    }

    #[test]
    fn channel_record_carries_early_finish_and_quarantine() {
        let build = || {
            MbptaConfig::default()
                .session()
                .snapshot_every(0)
                .early_finish(true)
                .build_batch()
                .unwrap()
        };
        let mut donor = build();
        for x in campaign(1e5, 6000, 14) {
            donor.push(Tagged::new("done", x)).unwrap();
            // Constant feed: analysable only as a degenerate failure.
            donor.push(Tagged::new("stuck", 500.0)).unwrap();
        }
        assert!(donor.channel("done").unwrap().finished_early());

        // Migrate both the early-finished and the quarantined channel:
        // frozen verdicts, quarantine errors and drop counters travel
        // inside the record.
        let mut owner = build();
        for ch in ["done", "stuck"] {
            let record = donor.export_channel_record(ch).unwrap();
            owner.adopt_channel_record(&record).unwrap();
        }
        let (a, b) = (donor.merge(), owner.merge());
        assert_eq!(a.verdict("done").unwrap(), b.verdict("done").unwrap());
        assert_eq!(a.verdict("stuck").unwrap(), b.verdict("stuck").unwrap());
        assert_eq!(a.channels()[0].dropped, b.channels()[0].dropped);
        assert_eq!(a.channels()[1].dropped, b.channels()[1].dropped);
    }
}
