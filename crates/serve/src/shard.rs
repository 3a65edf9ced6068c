//! The sharded serve core: channel-partitioned analysis workers.
//!
//! One mutex-guarded session serializes every request; the federated
//! fold already proves channels are independent, so the serve layer
//! partitions them instead. A [`ShardedSession`] owns N **workers**,
//! each behind its own mutex and holding its own [`AnalysisSession`],
//! its own [`VerdictCache`] and its own latest-snapshot map. A
//! channel's owner is a pure function of its name — FNV-1a of the tag
//! mod the worker count ([`owner_of`]) — so two requests contend only
//! when they touch channels that hash to the same worker.
//!
//! Connection threads lock the owning worker and call it directly.
//! Requests to one worker run one at a time: a busy worker blocks its
//! callers — backpressure propagates to the TCP connection, and no
//! request is ever dropped.
//!
//! # Lock discipline
//!
//! A thread holding a worker lock takes no other lock. Requests that
//! span every worker (the envelope VERDICT, STATS and the checkpoint)
//! lock the workers one at a time in index order; the checkpoint may
//! hold its cursor while it does. A poisoned worker lock answers
//! [`ServeError::Poisoned`].
//!
//! # The worker-count invariance contract
//!
//! Every response must be **bit-identical at any worker count**. Three
//! design rules deliver that:
//!
//! * Worker sessions run with the session scheduler off
//!   (`snapshot_every(0)`): the core then emits only channel-pure
//!   convergence announcements. The serve layer adds its own *per
//!   channel* snapshot cadence (`snapshot_every` accepted measurements
//!   of that channel, polled at ingest-batch boundaries), so what a
//!   channel emits depends only on its own feed — never on how other
//!   channels interleave or which worker owns it.
//! * The session-wide totals in responses come from one dispatcher
//!   counter fed by per-request deltas, not from any single worker's
//!   session.
//! * Envelope verdicts fan out: each worker answers with a cached
//!   *partial* (its channels' outcomes, in first-seen order), and the
//!   dispatcher folds the partials in **global** first-seen channel
//!   order with exactly the single-session `envelope_budget` scan (max
//!   of budgets, strict `>`, first error wins) — so the fold is
//!   associative over any partitioning.
//! * A worker keeps each channel's last finished outcome with the
//!   count of measurements routed to the channel when it was finished
//!   (`AnalysisSession::channel_routed`: accepted, rejected and dropped
//!   alike, so a quarantine moves it). One-channel verdicts and
//!   partials reuse a kept outcome while that count stands, and finish
//!   clones of only the channels that moved
//!   (`AnalysisSession::finalize_channels`, over the session's `jobs`).
//!   A finished clone's outcome is the one the whole-session merge
//!   reports for that channel, so a partial folded from kept outcomes
//!   has the bytes a merge of the whole session gives.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use proxima_mbpta::engine::Engine as _;
use proxima_mbpta::persist::{self, Decode, Encode, Reader, Writer};
use proxima_mbpta::session::ChannelId;
use proxima_mbpta::{AnalysisSession, Verdict};
use proxima_stream::{StreamConfig, StreamEngine, StreamFactory};

use crate::cache::{config_fingerprint, query_key, VerdictCache};
use crate::frame::{Response, ShardStats, WireSnapshot};
use crate::server::{lock, ServeConfig, ServeError};

/// Cache-key kinds (folded into [`query_key`]).
const KIND_SNAPSHOT: u8 = 2;
const KIND_VERDICT: u8 = 3;
/// A worker's cached all-channel verdict *partial* (not a full
/// response); keyed by the worker session's total, probability-blind
/// because channel outcomes do not depend on `p`.
const KIND_PARTIAL: u8 = 4;

/// The worker that owns `channel`: FNV-1a of the tag mod the worker
/// count. Deterministic and stable across restarts, so a resumed or
/// re-partitioned server routes every channel exactly where the
/// checkpoint layout expects it.
pub(crate) fn owner_of(channel: &str, workers: usize) -> usize {
    (persist::fnv1a(channel.as_bytes()) % workers as u64) as usize
}

/// Lock one worker, surfacing poison as a typed error.
fn lock_worker(worker: &Mutex<Worker>) -> Result<MutexGuard<'_, Worker>, ServeError> {
    lock(worker, "analysis worker")
}

/// What an ingest did, from the owning worker's point of view.
struct IngestOutcome {
    channel_len: u64,
    /// Worker-session growth (counts dropped pushes too, exactly like
    /// the session's own total).
    delta: u64,
    new_channel: bool,
    snapshots: Vec<WireSnapshot>,
}

/// What a merge-adopt did, from the owning worker's point of view.
struct MergeOutcome {
    channel_len: u64,
    delta: u64,
}

/// Global first-seen channel order plus a membership set, guarded by
/// one (briefly held) mutex at the dispatch layer.
struct Registry {
    order: Vec<String>,
    known: BTreeSet<String>,
}

/// Dispatcher-side reply for an ingest.
pub(crate) struct IngestReply {
    pub channel_len: u64,
    pub total: u64,
    pub snapshots: Vec<WireSnapshot>,
}

/// Dispatcher-side reply for a merge.
pub(crate) struct MergeReply {
    pub channel_len: u64,
    pub total: u64,
}

/// The channel-partitioned session engine: N mutex-guarded workers,
/// one global channel registry, one global total.
pub(crate) struct ShardedSession {
    workers: Vec<Mutex<Worker>>,
    registry: Mutex<Registry>,
    /// Session-wide measurement count (sum of worker deltas). The
    /// single source for every `total` a response reports.
    total: AtomicU64,
    last_checkpoint_at: AtomicU64,
}

impl ShardedSession {
    /// One worker per session, each with a fresh cache sized by
    /// `config`; `channel_order` and `total` seed the global registry
    /// and counter.
    pub(crate) fn new(
        sessions: Vec<AnalysisSession<StreamFactory>>,
        channel_order: Vec<String>,
        total: u64,
        config: &ServeConfig,
    ) -> ShardedSession {
        // Anything that changes what a query would answer goes into the
        // fingerprint; progress counters go into each key instead.
        let fingerprint = config_fingerprint(&[&config.stream, &config.snapshot_every]);
        let workers = sessions
            .into_iter()
            .map(|session| {
                Mutex::new(Worker {
                    session,
                    cache: VerdictCache::with_ttl(config.cache_capacity, config.cache_ttl),
                    latest: HashMap::new(),
                    stream: config.stream.clone(),
                    snapshot_every: config.snapshot_every,
                    fingerprint,
                    outcomes: HashMap::new(),
                    finishes: 0,
                })
            })
            .collect();
        let known = channel_order.iter().cloned().collect();
        ShardedSession {
            workers,
            registry: Mutex::new(Registry {
                order: channel_order,
                known,
            }),
            total: AtomicU64::new(total),
            last_checkpoint_at: AtomicU64::new(total),
        }
    }

    /// Lock the worker that owns `channel`.
    fn owner(&self, channel: &str) -> Result<MutexGuard<'_, Worker>, ServeError> {
        lock_worker(&self.workers[owner_of(channel, self.workers.len())])
    }

    fn record_channel(&self, channel: &str) -> Result<(), ServeError> {
        let mut registry = lock(&self.registry, "channel registry")?;
        if registry.known.insert(channel.to_string()) {
            registry.order.push(channel.to_string());
        }
        Ok(())
    }

    /// Route an ingest to the channel's owner and fold its delta into
    /// the global total.
    pub(crate) fn ingest(&self, channel: &str, values: &[f64]) -> Result<IngestReply, ServeError> {
        let outcome = self.owner(channel)?.ingest(channel, values)?;
        if outcome.new_channel {
            self.record_channel(channel)?;
        }
        let before = self.total.fetch_add(outcome.delta, Ordering::SeqCst);
        Ok(IngestReply {
            channel_len: outcome.channel_len,
            total: before + outcome.delta,
            snapshots: outcome.snapshots,
        })
    }

    /// Route a federated-blob adoption to the channel's owner.
    pub(crate) fn merge(&self, channel: &str, blob: &[u8]) -> Result<MergeReply, ServeError> {
        let outcome = self.owner(channel)?.merge(channel, blob)?;
        self.record_channel(channel)?;
        let before = self.total.fetch_add(outcome.delta, Ordering::SeqCst);
        Ok(MergeReply {
            channel_len: outcome.channel_len,
            total: before + outcome.delta,
        })
    }

    /// Answer a snapshot query from the owning worker's latest map and
    /// cache. Returns the encoded response.
    pub(crate) fn snapshot(&self, channel: &str) -> Result<Vec<u8>, ServeError> {
        Ok(self.owner(channel)?.snapshot(channel))
    }

    /// Answer a verdict query: routed to the owner for one channel,
    /// fanned out and folded for the envelope. Returns the encoded
    /// response.
    pub(crate) fn verdict(&self, p: f64, channel: Option<&str>) -> Result<Vec<u8>, ServeError> {
        if let Some(name) = channel {
            let known = lock(&self.registry, "channel registry")?
                .known
                .contains(name);
            if !known {
                return Err(ServeError::Analysis(format!("unknown channel `{name}`")));
            }
            return Ok(self.owner(name)?.verdict_channel(name, p));
        }
        let mut partials = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let bytes = lock_worker(worker)?.verdict_partial();
            partials.push(decode_partial(&bytes)?);
        }
        let order = lock(&self.registry, "channel registry")?.order.clone();
        Ok(fold_verdicts(p, &order, partials).encode())
    }

    /// Per-worker counters, in worker order.
    pub(crate) fn shard_stats(&self) -> Result<Vec<ShardStats>, ServeError> {
        self.workers
            .iter()
            .map(|worker| Ok(lock_worker(worker)?.stats()))
            .collect()
    }

    /// One sealed session blob per worker, in worker order.
    pub(crate) fn checkpoint_blobs(&self) -> Result<Vec<Vec<u8>>, ServeError> {
        self.workers
            .iter()
            .map(|worker| Ok(lock_worker(worker)?.session.checkpoint()?))
            .collect()
    }

    /// Global first-seen channel order (for the checkpoint manifest).
    pub(crate) fn channel_order(&self) -> Result<Vec<String>, ServeError> {
        Ok(lock(&self.registry, "channel registry")?.order.clone())
    }

    pub(crate) fn channel_count(&self) -> Result<u64, ServeError> {
        Ok(lock(&self.registry, "channel registry")?.order.len() as u64)
    }

    pub(crate) fn total(&self) -> u64 {
        self.total.load(Ordering::SeqCst)
    }

    pub(crate) fn since_checkpoint(&self) -> u64 {
        self.total()
            .saturating_sub(self.last_checkpoint_at.load(Ordering::SeqCst))
    }

    pub(crate) fn checkpoint_due(&self, checkpoint_every: usize) -> bool {
        checkpoint_every > 0 && self.since_checkpoint() >= checkpoint_every as u64
    }

    /// Reset the cadence mark to `at_total` (the global total captured
    /// when the checkpoint blobs were taken).
    pub(crate) fn mark_checkpointed(&self, at_total: u64) {
        self.last_checkpoint_at.store(at_total, Ordering::SeqCst);
    }
}

/// Move every channel of `sessions` into `target` fresh worker
/// sessions according to [`owner_of`] — the manifest re-partitioning
/// path of `--resume --workers M` when a checkpoint was written at a
/// different worker count. Channel records round-trip byte-for-byte
/// (engine state, quarantine, drop counters, snapshot bookkeeping), so
/// a migrated channel's later responses are bit-identical to never
/// having moved.
pub(crate) fn repartition(
    sessions: &[AnalysisSession<StreamFactory>],
    target: usize,
    mut fresh: impl FnMut() -> Result<AnalysisSession<StreamFactory>, ServeError>,
) -> Result<Vec<AnalysisSession<StreamFactory>>, ServeError> {
    let mut out = Vec::with_capacity(target);
    for _ in 0..target {
        out.push(fresh()?);
    }
    for session in sessions {
        let ids: Vec<String> = session
            .channel_ids()
            .map(|id| id.as_str().to_string())
            .collect();
        for id in ids {
            let record = session.export_channel_record(&id)?;
            out[owner_of(&id, target)].adopt_channel_record(&record)?;
        }
    }
    Ok(out)
}

/// Encode a worker's all-channel verdict partial: its channels in
/// first-seen order, each an already-stringified outcome. The format
/// is process-internal (cached, never on the wire or on disk).
fn encode_partial(channels: &[(&str, &Result<Verdict, String>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(channels.len());
    for (name, outcome) in channels {
        w.str(name);
        match outcome {
            Ok(verdict) => {
                w.bool(true);
                verdict.encode(&mut w);
            }
            Err(e) => {
                w.bool(false);
                w.str(e);
            }
        }
    }
    w.into_bytes()
}

fn partial_codec_bug(e: impl std::fmt::Display) -> ServeError {
    ServeError::Analysis(format!("internal verdict-partial codec error: {e}"))
}

/// One channel's share of a worker's verdict partial: the name and
/// either the finalized verdict or that channel's quarantine error.
type ChannelPartial = (String, Result<Verdict, String>);

fn decode_partial(bytes: &[u8]) -> Result<Vec<ChannelPartial>, ServeError> {
    let mut r = Reader::new(bytes);
    let n = r.usize().map_err(partial_codec_bug)?;
    if n > bytes.len() {
        return Err(partial_codec_bug("channel count exceeds payload"));
    }
    let mut channels = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str().map_err(partial_codec_bug)?.to_string();
        let outcome = if r.bool().map_err(partial_codec_bug)? {
            Ok(Verdict::decode(&mut r).map_err(partial_codec_bug)?)
        } else {
            Err(r.str().map_err(partial_codec_bug)?.to_string())
        };
        channels.push((name, outcome));
    }
    r.finish().map_err(partial_codec_bug)?;
    Ok(channels)
}

/// Fold per-worker partials into a verdict response (the all-channel
/// envelope, or one channel's own answer), replicating
/// `SessionVerdict::envelope_budget` exactly: channels in global
/// first-seen order, the envelope the maximum budget over ok channels
/// (strict `>`, so ties keep the earlier channel), the first budget
/// error aborting the scan, and the no-ok-channel fallback reporting
/// the first channel's error.
fn fold_verdicts(
    p: f64,
    order: &[String],
    partials: Vec<Vec<(String, Result<Verdict, String>)>>,
) -> Response {
    // Each channel lives in exactly one worker's partial. Pull them
    // into global order; a channel racing into existence mid-fan-out
    // may miss the registry order, so leftovers append in worker order
    // (deterministic under any sequential schedule).
    let mut flat: Vec<Option<(String, Result<Verdict, String>)>> =
        partials.into_iter().flatten().map(Some).collect();
    let slots: BTreeMap<String, usize> = flat
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.as_ref().map(|(name, _)| (name.clone(), i)))
        .collect();
    let mut channels = Vec::with_capacity(flat.len());
    for name in order {
        if let Some(&i) = slots.get(name) {
            if let Some(entry) = flat[i].take() {
                channels.push(entry);
            }
        }
    }
    channels.extend(flat.into_iter().flatten());

    let mut best: Option<(usize, f64)> = None;
    let mut budget_error: Option<String> = None;
    for (i, (_, outcome)) in channels.iter().enumerate() {
        if let Ok(verdict) = outcome {
            match verdict.budget_for(p) {
                Err(e) => {
                    budget_error = Some(e.to_string());
                    break;
                }
                Ok(budget) => {
                    if best.is_none_or(|(_, current)| budget > current) {
                        best = Some((i, budget));
                    }
                }
            }
        }
    }
    let envelope = match (budget_error, best) {
        (Some(e), _) => Err(e),
        (None, Some((i, budget))) => Ok((channels[i].0.clone(), budget)),
        (None, None) => Err(channels
            .first()
            .and_then(|(_, outcome)| outcome.as_ref().err().cloned())
            .unwrap_or_else(|| "invalid configuration: session analysed no channel".to_string())),
    };
    Response::Verdicts {
        p,
        channels,
        envelope,
    }
}

/// A channel's last finished outcome (errors stringified, as partials
/// carry them) and the measurements routed to the channel when it was
/// finished.
struct KeptOutcome {
    routed: u64,
    outcome: Result<Verdict, String>,
}

/// One worker: an owned session, cache and latest-snapshot map. It
/// lives behind its own mutex in [`ShardedSession`], so its methods
/// run one request at a time.
struct Worker {
    session: AnalysisSession<StreamFactory>,
    cache: VerdictCache,
    /// Latest emitted estimate per owned channel (announcements and
    /// scheduled snapshots). Rebuilt from live traffic after a resume,
    /// exactly like the pre-sharding server.
    latest: HashMap<String, WireSnapshot>,
    stream: StreamConfig,
    snapshot_every: usize,
    fingerprint: u64,
    /// Each owned channel's last finished outcome, valid while the
    /// channel's routed count equals the one kept with it. Runtime
    /// state like `latest`: never persisted, empty after a resume, one
    /// entry per channel, and only ever looked up by name.
    outcomes: HashMap<String, KeptOutcome>,
    /// Channel clones finished so far, for one-channel verdicts and
    /// partials alike: the work the kept outcomes save is what this
    /// does not count.
    finishes: u64,
}

impl Worker {
    /// The channel's accepted count, 0 for a channel this worker has
    /// never seen.
    fn channel_len(&self, channel: &str) -> usize {
        self.session.channel_len(channel).unwrap_or(0)
    }

    /// Measurements routed to the channel (accepted, rejected and
    /// dropped), 0 for a channel this worker has never seen.
    fn channel_routed(&self, channel: &str) -> u64 {
        self.session.channel_routed(channel).unwrap_or(0) as u64
    }

    /// Make the kept outcome of every channel in `channels` current:
    /// finish clones of the channels whose routed count moved since
    /// their outcome was kept (in one fan-out), and keep the rest.
    fn refresh_outcomes(&mut self, channels: &[&str]) {
        let stale: Vec<&str> = channels
            .iter()
            .copied()
            .filter(|&name| {
                let routed = self.channel_routed(name);
                self.outcomes
                    .get(name)
                    .is_none_or(|kept| kept.routed != routed)
            })
            .collect();
        for finished in self.session.finalize_channels(&stale) {
            let name = finished.channel.as_str();
            let kept = KeptOutcome {
                routed: self.channel_routed(name),
                outcome: finished.outcome.map_err(|e| e.to_string()),
            };
            self.outcomes.insert(name.to_string(), kept);
            self.finishes += 1;
        }
    }

    fn ingest(&mut self, channel: &str, values: &[f64]) -> Result<IngestOutcome, ServeError> {
        let channels_before = self.session.channel_count();
        let len_before = self.channel_len(channel);
        let worker_before = self.session.len();
        let announcements = self.session.push_batch(channel, values)?;
        let worker_after = self.session.len();
        let len_after = self.channel_len(channel);

        // Convergence announcements are channel-pure; rebase their
        // session-relative totals to channel positions. (While the
        // engine is live every push is accepted — a rejected push
        // quarantines the channel and nothing announces after — so
        // push offsets are accepted offsets.)
        let mut snapshots: Vec<WireSnapshot> = announcements
            .iter()
            .map(|snap| WireSnapshot {
                channel: snap.channel.as_str().to_string(),
                total: (len_before + (snap.total - worker_before)) as u64,
                estimate: snap.estimate,
            })
            .collect();

        // Serve-layer snapshot cadence, per channel: crossing a
        // `snapshot_every` boundary of the channel's own accepted
        // count polls one estimate at the batch end. Estimates are
        // pure functions of the channel's pushes, so neither the poll
        // schedule nor the owning worker can change what is emitted.
        let crossed = self.snapshot_every > 0
            && len_after / self.snapshot_every > len_before / self.snapshot_every;
        let announced_at_end = announcements
            .last()
            .is_some_and(|snap| snap.total == worker_after);
        if crossed && !announced_at_end {
            let estimate = self
                .session
                .channel(channel)
                .ok()
                .and_then(|mut handle| handle.estimate());
            if let Some(estimate) = estimate {
                snapshots.push(WireSnapshot {
                    channel: channel.to_string(),
                    total: len_after as u64,
                    estimate,
                });
            }
        }

        for snap in &snapshots {
            self.latest.insert(snap.channel.clone(), snap.clone());
        }
        Ok(IngestOutcome {
            channel_len: len_after as u64,
            delta: (worker_after - worker_before) as u64,
            new_channel: self.session.channel_count() > channels_before,
            snapshots,
        })
    }

    fn merge(&mut self, channel: &str, blob: &[u8]) -> Result<MergeOutcome, ServeError> {
        let engine = StreamEngine::from_federated_blob(blob, &self.stream)?;
        let channel_len = engine.len() as u64;
        let state = engine.save_state()?;
        let worker_before = self.session.len();
        self.session.adopt_channel(channel, &state)?;
        Ok(MergeOutcome {
            channel_len,
            delta: (self.session.len() - worker_before) as u64,
        })
    }

    fn snapshot(&mut self, channel: &str) -> Vec<u8> {
        let progress = self.channel_len(channel) as u64;
        let key = query_key(self.fingerprint, KIND_SNAPSHOT, channel, progress, 0);
        if let Some(hit) = self.cache.get(key) {
            return hit;
        }
        let response = Response::Snapshot {
            latest: self.latest.get(channel).cloned(),
        }
        .encode();
        self.cache.insert(key, response.clone());
        response
    }

    fn verdict_channel(&mut self, channel: &str, p: f64) -> Vec<u8> {
        // Keyed on routed measurements, not accepted ones: a quarantine
        // changes the answer without changing the accepted count.
        let progress = self.channel_routed(channel);
        let key = query_key(
            self.fingerprint,
            KIND_VERDICT,
            channel,
            progress,
            p.to_bits(),
        );
        if let Some(hit) = self.cache.get(key) {
            return hit;
        }
        // The kept outcome, or a finished clone of this one channel: the
        // live session keeps streaming, and repeat queries between
        // ingests come straight from the cache.
        self.refresh_outcomes(&[channel]);
        let Some(kept) = self.outcomes.get(channel) else {
            // The dispatcher's registry check makes this unreachable
            // for routed queries; answer honestly anyway.
            return Response::Error {
                message: format!("unknown channel `{channel}`"),
            }
            .encode();
        };
        let response = fold_verdicts(
            p,
            &[channel.to_string()],
            vec![vec![(channel.to_string(), kept.outcome.clone())]],
        )
        .encode();
        self.cache.insert(key, response.clone());
        response
    }

    fn verdict_partial(&mut self) -> Vec<u8> {
        let key = query_key(
            self.fingerprint,
            KIND_PARTIAL,
            "*",
            self.session.len() as u64,
            0,
        );
        if let Some(hit) = self.cache.get(key) {
            return hit;
        }
        let ids: Vec<ChannelId> = self.session.channel_ids().cloned().collect();
        let names: Vec<&str> = ids.iter().map(ChannelId::as_str).collect();
        self.refresh_outcomes(&names);
        // Every seen channel has a current outcome now.
        let entries: Vec<(&str, &Result<Verdict, String>)> = names
            .iter()
            .filter_map(|&name| Some((name, &self.outcomes.get(name)?.outcome)))
            .collect();
        let partial = encode_partial(&entries);
        self.cache.insert(key, partial.clone());
        partial
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            channels: self.session.channel_count() as u64,
            total: self.session.len() as u64,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_insertions: self.cache.insertions(),
            cache_evictions: self.cache.evictions(),
            cache_expirations: self.cache.expirations(),
            cache_len: self.cache.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::feed;

    #[test]
    fn owner_is_a_pure_function_of_name_and_count() {
        for workers in 1..=8 {
            for name in ["nominal", "fault-recovery", "ch-17", ""] {
                let a = owner_of(name, workers);
                let b = owner_of(name, workers);
                assert_eq!(a, b);
                assert!(a < workers);
            }
        }
    }

    #[test]
    fn one_worker_owns_everything() {
        for name in ["a", "b", "c", "☃"] {
            assert_eq!(owner_of(name, 1), 0);
        }
    }

    #[test]
    fn fold_keeps_global_order_and_max_budget() {
        let verdict = |pwcet: f64| sample_verdict(pwcet);
        // Worker 0 holds b (seen 2nd globally), worker 1 holds a, c.
        let partials = vec![
            vec![("b".to_string(), Ok(verdict(200.0)))],
            vec![
                ("a".to_string(), Ok(verdict(100.0))),
                ("c".to_string(), Ok(verdict(150.0))),
            ],
        ];
        let order = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let response = fold_verdicts(1e-12, &order, partials);
        let Response::Verdicts {
            channels, envelope, ..
        } = response
        else {
            panic!("fold produced a non-verdict response");
        };
        let names: Vec<&str> = channels.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"], "global first-seen order");
        let (winner, budget) = envelope.unwrap();
        assert_eq!(winner, "b", "largest budget wins");
        let direct = sample_verdict(200.0).budget_for(1e-12).unwrap();
        assert_eq!(budget.to_bits(), direct.to_bits(), "budget is bit-exact");
    }

    #[test]
    fn fold_tie_keeps_the_earlier_channel() {
        let partials = vec![
            vec![("later".to_string(), Ok(sample_verdict(100.0)))],
            vec![("earlier".to_string(), Ok(sample_verdict(100.0)))],
        ];
        let order = vec!["earlier".to_string(), "later".to_string()];
        let Response::Verdicts { envelope, .. } = fold_verdicts(1e-12, &order, partials) else {
            panic!("fold produced a non-verdict response");
        };
        assert_eq!(envelope.unwrap().0, "earlier");
    }

    #[test]
    fn fold_with_no_ok_channel_reports_the_first_channels_error() {
        let partials = vec![
            vec![("second".to_string(), Err("second failed".to_string()))],
            vec![("first".to_string(), Err("first failed".to_string()))],
        ];
        let order = vec!["first".to_string(), "second".to_string()];
        let Response::Verdicts { envelope, .. } = fold_verdicts(1e-12, &order, partials) else {
            panic!("fold produced a non-verdict response");
        };
        assert_eq!(envelope.unwrap_err(), "first failed");
    }

    /// The one-channel VERDICT goes through the same fold: its
    /// envelope is the channel's own budget, budget error or channel
    /// error, exactly as the single-session scan reports them.
    #[test]
    fn fold_of_a_single_channel_is_that_channels_outcome() {
        let one = |p: f64, outcome: Result<Verdict, String>| {
            let order = ["solo".to_string()];
            match fold_verdicts(p, &order, vec![vec![("solo".to_string(), outcome)]]) {
                Response::Verdicts { envelope, .. } => envelope,
                other => panic!("fold produced {other:?}"),
            }
        };

        let (winner, budget) = one(1e-12, Ok(sample_verdict(150.0))).unwrap();
        assert_eq!(winner, "solo");
        let direct = sample_verdict(150.0).budget_for(1e-12).unwrap();
        assert_eq!(budget.to_bits(), direct.to_bits(), "budget is bit-exact");

        let failed = one(1e-12, Err("solo failed".to_string()));
        assert_eq!(failed.unwrap_err(), "solo failed");

        let budget_error = sample_verdict(150.0).budget_for(2.0).unwrap_err();
        let envelope = one(2.0, Ok(sample_verdict(150.0)));
        assert_eq!(envelope.unwrap_err(), budget_error.to_string());
    }

    #[test]
    fn fold_with_no_channels_matches_the_session_error() {
        let Response::Verdicts { envelope, .. } = fold_verdicts(1e-12, &[], vec![]) else {
            panic!("fold produced a non-verdict response");
        };
        assert_eq!(
            envelope.unwrap_err(),
            "invalid configuration: session analysed no channel",
        );
    }

    #[test]
    fn partial_codec_round_trips() {
        let ok = Ok(sample_verdict(123.25));
        let bad = Err("invalid configuration: session analysed no channel".to_string());
        let bytes = encode_partial(&[("ok-channel", &ok), ("bad-channel", &bad)]);
        let decoded = decode_partial(&bytes).unwrap();
        assert_eq!(
            decoded,
            [
                ("ok-channel".to_string(), ok),
                ("bad-channel".to_string(), bad)
            ]
        );
    }

    /// A sharded session at `workers` workers with `cache_capacity`
    /// cache entries each, its worker sessions built as the server
    /// builds them.
    fn sharded(workers: usize, cache_capacity: usize) -> ShardedSession {
        let config = ServeConfig {
            workers,
            cache_capacity,
            ..ServeConfig::default()
        };
        let sessions = (0..workers)
            .map(|_| crate::server::new_worker_session(&config).unwrap())
            .collect();
        ShardedSession::new(sessions, Vec::new(), 0, &config)
    }

    /// A sealed federated blob over `values` under the server's default
    /// stream configuration.
    fn sealed_blob(values: &[f64]) -> Vec<u8> {
        use proxima_stream::{persist::save_federated, FederatedAnalyzer, FederatedConfig};
        let mut fed =
            FederatedAnalyzer::new(FederatedConfig::new(StreamConfig::default(), 3)).unwrap();
        fed.push_batch(values).unwrap();
        save_federated(&fed)
    }

    /// The oracle: the envelope as the server built it before it kept
    /// outcomes — each worker's whole session cloned and merged, the
    /// merged channels encoded into a partial, the partials folded in
    /// global first-seen order.
    fn merged_envelope(sharded: &ShardedSession, p: f64) -> Vec<u8> {
        let partials = sharded
            .workers
            .iter()
            .map(|worker| {
                let merged = lock_worker(worker).unwrap().session.clone().merge();
                let outcomes: Vec<(String, Result<Verdict, String>)> = merged
                    .into_channels()
                    .into_iter()
                    .map(|c| {
                        (
                            c.channel.as_str().to_string(),
                            c.outcome.map_err(|e| e.to_string()),
                        )
                    })
                    .collect();
                let entries: Vec<(&str, &Result<Verdict, String>)> = outcomes
                    .iter()
                    .map(|(name, o)| (name.as_str(), o))
                    .collect();
                decode_partial(&encode_partial(&entries)).unwrap()
            })
            .collect();
        fold_verdicts(p, &sharded.channel_order().unwrap(), partials).encode()
    }

    /// Channel clones finished so far, summed over the workers.
    fn finishes(sharded: &ShardedSession) -> u64 {
        sharded
            .workers
            .iter()
            .map(|worker| lock_worker(worker).unwrap().finishes)
            .sum()
    }

    #[test]
    fn envelope_from_kept_outcomes_equals_a_whole_session_merge() {
        let p = 1e-12;
        let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();
        for workers in [1, 2, 4] {
            let sharded = sharded(workers, 256);
            let mut envelopes = Vec::new();
            let mut check = |sharded: &ShardedSession| {
                let got = sharded.verdict(p, None).unwrap();
                assert_eq!(got, merged_envelope(sharded, p), "--workers {workers}");
                envelopes.push(got);
            };
            sharded.ingest("alpha", &feed(1, 600)).unwrap();
            sharded.ingest("bravo", &feed(2, 800)).unwrap();
            // Too short for a fit: a failed outcome in the envelope.
            sharded.ingest("charlie", &feed(3, 40)).unwrap();
            check(&sharded);
            sharded.verdict(p, Some("alpha")).unwrap();
            sharded.ingest("alpha", &feed(4, 150)).unwrap();
            sharded.ingest("delta", &feed(5, 700)).unwrap();
            sharded.verdict(p, Some("delta")).unwrap();
            check(&sharded);
            sharded
                .merge("remote", &sealed_blob(&feed(6, 900)))
                .unwrap();
            sharded.verdict(p, Some("remote")).unwrap();
            check(&sharded);
            // A rejected first value quarantines bravo; its accepted
            // count stays at 800.
            let reply = sharded
                .ingest("bravo", &[-5.0, 80_000.0, 80_010.0])
                .unwrap();
            assert_eq!(reply.channel_len, 800);
            sharded.verdict(p, Some("bravo")).unwrap();
            check(&sharded);
            check(&sharded);
            sharded.ingest("echo", &feed(7, 20)).unwrap();
            sharded.verdict(p, Some("alpha")).unwrap();
            check(&sharded);
            runs.push(envelopes);
        }
        assert_eq!(runs[0], runs[1], "--workers 1 vs 2");
        assert_eq!(runs[0], runs[2], "--workers 1 vs 4");
    }

    #[test]
    fn an_envelope_finishes_only_the_channels_that_moved() {
        for cache_capacity in [256, 0] {
            let sharded = sharded(2, cache_capacity);
            for (i, name) in ["alpha", "bravo", "charlie", "delta"].iter().enumerate() {
                sharded.ingest(name, &feed(10 + i as u64, 600)).unwrap();
            }
            sharded.verdict(1e-12, None).unwrap();
            assert_eq!(finishes(&sharded), 4, "cache {cache_capacity}");
            sharded.ingest("charlie", &feed(20, 50)).unwrap();
            sharded.verdict(1e-12, None).unwrap();
            assert_eq!(finishes(&sharded), 5, "one INGEST, one channel finished");
            sharded.verdict(1e-9, None).unwrap();
            assert_eq!(finishes(&sharded), 5, "a repeated envelope finishes none");
            sharded.verdict(1e-12, Some("charlie")).unwrap();
            sharded.verdict(1e-12, Some("alpha")).unwrap();
            assert_eq!(
                finishes(&sharded),
                5,
                "one-channel verdicts reuse kept outcomes"
            );
            sharded.ingest("alpha", &feed(21, 10)).unwrap();
            sharded.verdict(1e-12, Some("alpha")).unwrap();
            sharded.verdict(1e-12, None).unwrap();
            assert_eq!(
                finishes(&sharded),
                6,
                "the envelope reuses a one-channel finish"
            );
            // A quarantine moves the routed count once; after it the
            // failed outcome is kept like any other.
            sharded.ingest("bravo", &[-5.0, 80_000.0]).unwrap();
            sharded.verdict(1e-12, None).unwrap();
            sharded.verdict(1e-9, None).unwrap();
            sharded.verdict(1e-12, Some("bravo")).unwrap();
            assert_eq!(finishes(&sharded), 7, "a quarantined channel finishes once");
        }
    }

    /// A real verdict from a tiny deterministic campaign, computed once,
    /// with its pWCET tail re-pinned at `mu` so fold tests can dial in
    /// distinct (or deliberately tied) envelope budgets.
    fn sample_verdict(mu: f64) -> Verdict {
        use proxima_mbpta::Pwcet;
        use proxima_stats::dist::Gumbel;
        let mut verdict = base_verdict();
        verdict.pwcet = Pwcet::new(Gumbel::new(mu, 10.0).unwrap(), 100);
        verdict
    }

    fn base_verdict() -> Verdict {
        use std::sync::OnceLock;
        static BASE: OnceLock<Verdict> = OnceLock::new();
        BASE.get_or_init(|| {
            use proxima_stream::SessionStreamExt;
            let stream = StreamConfig::default();
            let mut session = proxima_mbpta::MbptaConfig {
                block: proxima_mbpta::BlockSpec::Fixed(stream.block_size),
                ..proxima_mbpta::MbptaConfig::default()
            }
            .session()
            .snapshot_every(0)
            .target_p(1e-12)
            .build_stream_with(stream)
            .unwrap();
            // SplitMix64 feed: deterministic, no clock, no OS entropy.
            let mut state = 41u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let values: Vec<f64> = (0..1500)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    1000.0 + 200.0 * ((z >> 11) as f64 / (1u64 << 53) as f64)
                })
                .collect();
            session.push_batch("base", &values).unwrap();
            session.merge().into_channels().remove(0).outcome.unwrap()
        })
        .clone()
    }
}
