//! The analysis service: a framed-TCP front end over a **sharded**
//! session core.
//!
//! The server partitions channels across `workers` analysis workers
//! (the private `shard` module): each worker owns its own
//! `AnalysisSession<StreamFactory>`, verdict cache and latest-snapshot
//! map behind one mutex, and a channel's owner is FNV-1a of its tag
//! mod the worker count. Connection threads lock the owning worker and
//! call it directly — a busy worker blocks its callers (backpressure)
//! instead of dropping requests. Ingest frames append through the
//! same `push_batch` hot path the CLI feeder uses; SNAPSHOT answers
//! from the owner's latest emitted estimate; VERDICT finalizes a
//! **clone** of the owner's session (or fans out and folds per-worker
//! partials for the envelope) so the live campaign keeps streaming;
//! MERGE adopts sealed federated shard blobs into the owner, so remote
//! shards ship folded analyzer state — never raw measurements — into
//! the coordinator.
//!
//! Every response is **bit-identical at any worker count**: estimates
//! are pure functions of a channel's own feed, session-wide totals
//! come from one dispatcher counter, and the envelope fold replicates
//! the single-session scan exactly.
//!
//! Admission control is explicit: past `max_conns` concurrent
//! connections the accept loop answers a typed `Busy` frame and closes
//! — clients distinguish "come back later" from failure.
//!
//! Durability shards with the session: a checkpoint writes one sealed
//! session blob per worker plus a manifest (stream config, cadences,
//! channel order, shard digests), each file atomically (write, fsync,
//! rename), manifest last as the commit point. [`Server::resume`]
//! restores the shard set — at the same worker count by restoring each
//! blob in place, at a different one by re-partitioning channels
//! through the session core's export/adopt records — with verdicts
//! bit-identical to an uninterrupted run over the same feed order.
//!
//! Everything is hand-rolled on `std::net` — no async runtime, no
//! external dependencies, fully offline-safe.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use proxima_mbpta::persist::{self, Decode, Encode, Reader, Writer};
use proxima_mbpta::{AnalysisSession, BlockSpec, MbptaConfig};
use proxima_stream::{SessionStreamExt, StreamConfig, StreamFactory};

use crate::frame::{read_frame, write_frame, Request, Response, ServerStats};
use crate::shard::{repartition, ShardedSession};

/// Magic for the server's checkpoint **manifest**: `PXSV`
/// ("proxima server"). The manifest carries the serve parameters, the
/// global channel order and one digest per shard blob; the blobs
/// themselves live in sibling `.g<generation>.shard<i>` files, and the
/// manifest rename is the commit point.
pub const MAGIC_SERVE: [u8; 4] = *b"PXSV";

/// Everything the service needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Streaming-engine knobs shared by every channel (block size,
    /// target cutoff, refit cadence, …).
    pub stream: StreamConfig,
    /// Emit a snapshot every this many accepted measurements **of a
    /// channel** (`0` disables scheduled estimates; convergence
    /// announcements still flow).
    pub snapshot_every: usize,
    /// Where the checkpoint manifest goes; `None` disables durability.
    pub checkpoint_path: Option<PathBuf>,
    /// Auto-checkpoint every this many session measurements (`0`
    /// disables; must be paired with `checkpoint_path`).
    pub checkpoint_every: usize,
    /// Bound on each worker's cached query responses.
    pub cache_capacity: usize,
    /// Cached responses expire after this many cache operations on
    /// their worker (`0` disables expiry). Logical ticks, never wall
    /// clock — see [`crate::cache`].
    pub cache_ttl: u64,
    /// Analysis workers: channels are partitioned across them by name
    /// hash, and each worker serves its requests one at a time. Must be
    /// at least 1. Responses are bit-identical at any value.
    pub workers: usize,
    /// Concurrent connection bound; past it new connections get a
    /// typed `Busy` frame (`0` = unlimited).
    pub max_conns: usize,
    /// Threads for the finalize fan-out of an all-channel verdict
    /// inside each worker's session (`0` = all cores; results are
    /// identical at any value). A one-channel verdict finishes that
    /// channel alone and uses none.
    pub jobs: usize,
    /// Abort the process once the session holds at least this many
    /// measurements — crash-injection for restart drills; never set it
    /// in production.
    pub crash_after: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            stream: StreamConfig::default(),
            snapshot_every: 500,
            checkpoint_path: None,
            checkpoint_every: 0,
            cache_capacity: 256,
            cache_ttl: 0,
            workers: 1,
            max_conns: 0,
            jobs: 0,
            crash_after: None,
        }
    }
}

/// The caller-side knobs of [`Server::resume`]; everything else comes
/// from the checkpoint manifest.
#[derive(Debug, Clone, Default)]
pub struct ResumeOptions {
    /// Threads for the all-channel verdict's finalize fan-out inside
    /// each worker's session.
    pub jobs: usize,
    /// Crash injection (see [`ServeConfig::crash_after`]).
    pub crash_after: Option<usize>,
    /// Worker count to resume at; `0` keeps the manifest's count. A
    /// different count re-partitions channels through the session
    /// core's export/adopt records — responses stay bit-identical.
    pub workers: usize,
    /// Concurrent connection bound (`0` = unlimited).
    pub max_conns: usize,
}

/// Why the server could not start, serve a request, or persist.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid or inconsistent serve configuration.
    Config(String),
    /// Socket or checkpoint-file I/O failed.
    Io(String),
    /// The analysis core rejected a request, blob, or checkpoint.
    Analysis(String),
    /// A shared-state mutex was poisoned: a connection thread panicked
    /// while holding it, so the protected state cannot be trusted. The
    /// poisoned request is answered with an error frame and the server
    /// keeps accepting; it never unwraps the poison into a panic of its
    /// own.
    Poisoned(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) | ServeError::Io(m) | ServeError::Analysis(m) => f.write_str(m),
            ServeError::Poisoned(what) => {
                write!(f, "{what} poisoned by a panicked connection thread")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<proxima_mbpta::MbptaError> for ServeError {
    fn from(e: proxima_mbpta::MbptaError) -> Self {
        ServeError::Analysis(e.to_string())
    }
}

/// Checkpoint generation bookkeeping, serialized by one mutex so
/// concurrent checkpoint triggers write distinct generations and
/// retire the right predecessors.
struct CheckpointCursor {
    /// Generation the next checkpoint writes.
    next_gen: u64,
    /// Last committed generation and its shard count (the files to
    /// retire after the next commit).
    prev: Option<(u64, usize)>,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    sharded: ShardedSession,
    config: ServeConfig,
    counters: Counters,
    shutdown: AtomicBool,
    /// A second handle of every connection being served, keyed by its
    /// connection number. Its size is the admission-control load, and
    /// shutdown closes each read side so an idle client cannot keep
    /// the server alive.
    open_conns: Mutex<BTreeMap<u64, TcpStream>>,
    checkpoint: Mutex<CheckpointCursor>,
    addr: SocketAddr,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    busy_rejections: AtomicU64,
    frames_ingest: AtomicU64,
    frames_snapshot: AtomicU64,
    frames_verdict: AtomicU64,
    frames_merge: AtomicU64,
    frames_admin: AtomicU64,
    protocol_errors: AtomicU64,
    checkpoints_written: AtomicU64,
    last_checkpoint_bytes: AtomicU64,
}

/// The analysis service.
///
/// Bind it, then either [`run`](Self::run) the accept loop on the
/// current thread or [`spawn`](Self::spawn) it. Clients speak the
/// framed protocol from [`crate::frame`]; the blocking
/// [`ServeClient`](crate::client::ServeClient) wraps it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Acquire a shared-state mutex, surfacing poison as a typed
/// [`ServeError::Poisoned`] instead of unwrapping it into a panic. A
/// handler that panicked mid-mutation may have left the guarded state
/// half-applied, so later requests get an honest error frame rather
/// than answers computed from state nobody can vouch for — and the
/// panic stays confined to the one connection that caused it.
pub(crate) fn lock<'a, T>(
    m: &'a Mutex<T>,
    what: &'static str,
) -> Result<MutexGuard<'a, T>, ServeError> {
    m.lock().map_err(|_| ServeError::Poisoned(what))
}

/// The open-connection map. Its critical sections only insert, remove,
/// count or shut down handles — none of which panics — so poison can
/// never guard a half-applied update and is ignored.
fn open_conns(shared: &Shared) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
    shared
        .open_conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A fresh worker session: the session scheduler stays off
/// (`snapshot_every(0)`, `checkpoint_every(0)`) because snapshot
/// cadence and checkpoint cadence are serve-layer policy — per channel
/// and per dispatcher respectively — so they cannot depend on how
/// channels interleave across workers.
pub(crate) fn new_worker_session(
    config: &ServeConfig,
) -> Result<AnalysisSession<StreamFactory>, ServeError> {
    Ok(MbptaConfig {
        block: BlockSpec::Fixed(config.stream.block_size),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(0)
    .checkpoint_every(0)
    .target_p(config.stream.target_p)
    .jobs(config.jobs)
    .build_stream_with(config.stream.clone())?)
}

impl Server {
    /// Bind a fresh sharded session on `addr` (use port 0 to let the
    /// OS pick; read the port back from [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Invalid configuration (bad streaming knobs, zero workers, a
    /// checkpoint path without a cadence or vice versa) or a bind
    /// failure.
    pub fn bind(addr: &str, config: ServeConfig) -> Result<Server, ServeError> {
        validate(&config)?;
        let sessions = (0..config.workers)
            .map(|_| new_worker_session(&config))
            .collect::<Result<_, _>>()?;
        Server::start(
            addr,
            config,
            sessions,
            Vec::new(),
            0,
            CheckpointCursor {
                next_gen: 1,
                prev: None,
            },
        )
    }

    /// Restart from a checkpoint manifest previously written by a
    /// server with a checkpoint path configured. The serve parameters
    /// (stream config, cadences, cache bound, worker count) come from
    /// the manifest; [`ResumeOptions`] carries only the caller-side
    /// knobs, including an optional different worker count — the shard
    /// set is then re-partitioned channel by channel, and responses
    /// stay bit-identical. Checkpointing continues to the same path.
    ///
    /// # Errors
    ///
    /// An unreadable/corrupt/mismatched manifest or shard file, or any
    /// [`Server::bind`] failure.
    pub fn resume(
        addr: &str,
        path: impl Into<PathBuf>,
        opts: ResumeOptions,
    ) -> Result<Server, ServeError> {
        let path = path.into();
        let manifest = Manifest::read(&path)?;
        let target = if opts.workers == 0 {
            manifest.workers
        } else {
            opts.workers
        };
        let config = ServeConfig {
            stream: manifest.stream.clone(),
            snapshot_every: manifest.snapshot_every,
            checkpoint_path: Some(path.clone()),
            checkpoint_every: manifest.checkpoint_every,
            cache_capacity: manifest.cache_capacity,
            cache_ttl: manifest.cache_ttl,
            workers: target,
            max_conns: opts.max_conns,
            jobs: opts.jobs,
            crash_after: opts.crash_after,
        };
        validate(&config)?;

        let mut sessions = Vec::with_capacity(manifest.workers);
        for (index, &(len, checksum)) in manifest.shards.iter().enumerate() {
            let file = shard_file(&path, manifest.generation, index);
            let blob = std::fs::read(&file)
                .map_err(|e| ServeError::Io(format!("cannot open {}: {e}", file.display())))?;
            if blob.len() as u64 != len || persist::fnv1a(&blob) != checksum {
                return Err(ServeError::Io(format!(
                    "checkpoint shard {index} ({}) does not match its manifest digest",
                    file.display()
                )));
            }
            let factory = StreamFactory::new(manifest.stream.clone())?;
            sessions.push(AnalysisSession::restore(factory, &blob, opts.jobs)?);
        }

        // The dispatcher total comes from the restored sessions (each
        // preserves its own total, dropped pushes included), captured
        // before any migration — adopting a record recounts only
        // accepted measurements.
        let total: u64 = sessions.iter().map(|s| s.len() as u64).sum();

        // Reconcile the channel order against what the blobs actually
        // hold: the manifest order first (filtered to channels
        // present), then any channel the order missed, in worker
        // order. A live checkpoint can lose that race without losing
        // data.
        let mut order = Vec::new();
        let mut known = std::collections::BTreeSet::new();
        let present: std::collections::BTreeSet<String> = sessions
            .iter()
            .flat_map(|s| s.channel_ids().map(|id| id.as_str().to_string()))
            .collect();
        for name in &manifest.channel_order {
            if present.contains(name) && known.insert(name.clone()) {
                order.push(name.clone());
            }
        }
        for session in &sessions {
            for id in session.channel_ids() {
                let name = id.as_str().to_string();
                if known.insert(name.clone()) {
                    order.push(name);
                }
            }
        }

        let sessions = if target == manifest.workers {
            sessions
        } else {
            repartition(&sessions, target, || new_worker_session(&config))?
        };
        Server::start(
            addr,
            config,
            sessions,
            order,
            total,
            CheckpointCursor {
                next_gen: manifest.generation + 1,
                prev: Some((manifest.generation, manifest.workers)),
            },
        )
    }

    fn start(
        addr: &str,
        config: ServeConfig,
        sessions: Vec<AnalysisSession<StreamFactory>>,
        channel_order: Vec<String>,
        total: u64,
        cursor: CheckpointCursor,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Io(format!("cannot bind {addr}: {e}")))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sharded: ShardedSession::new(sessions, channel_order, total, &config),
            config,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            open_conns: Mutex::new(BTreeMap::new()),
            checkpoint: Mutex::new(cursor),
            addr,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Run the accept loop until a client sends `Shutdown`. Open
    /// connections then stop reading: a request in flight still gets
    /// its answer, an idle connection is closed, and every connection
    /// thread joins before this returns.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for fatal
    /// accept-loop failures.
    pub fn run(self) -> Result<(), ServeError> {
        let Server { listener, shared } = self;
        let mut handles: Vec<thread::JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            // Admission control: past the bound, answer a typed Busy
            // farewell instead of queueing work we cannot serve soon.
            // Only the accept loop admits, so load-then-admit is
            // race-free; connection threads only ever remove themselves.
            let limit = shared.config.max_conns as u64;
            let active = open_conns(&shared).len() as u64;
            if limit > 0 && active >= limit {
                shared
                    .counters
                    .busy_rejections
                    .fetch_add(1, Ordering::SeqCst);
                reject_busy(stream, active, limit);
                continue;
            }
            let id = shared.counters.connections.fetch_add(1, Ordering::SeqCst);
            let Ok(handle) = stream.try_clone() else {
                continue;
            };
            open_conns(&shared).insert(id, handle);
            let shared = Arc::clone(&shared);
            handles.retain(|h| !h.is_finished());
            // proxima-lint: allow(no-thread-spawn-outside-sharding) -- connection
            // fan-out of the serve front end; analysis runs under the
            // owning worker's lock, and answers depend only on each
            // channel's own feed.
            handles.push(thread::spawn(move || {
                serve_connection(stream, &shared);
                open_conns(&shared).remove(&id);
            }));
        }
        // An idle connection blocks in `read_frame` until its client
        // hangs up; closing the read side ends it now, and a request
        // in flight still writes its answer.
        for conn in open_conns(&shared).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Run the accept loop on a fresh thread (for in-process tests and
    /// embedding).
    pub fn spawn(self) -> thread::JoinHandle<Result<(), ServeError>> {
        // proxima-lint: allow(no-thread-spawn-outside-sharding) -- the embedding
        // entry point that runs the accept loop off-thread.
        thread::spawn(move || self.run())
    }
}

fn validate(config: &ServeConfig) -> Result<(), ServeError> {
    if config.workers == 0 {
        return Err(ServeError::Config("workers must be at least 1".to_string()));
    }
    if config.checkpoint_path.is_some() != (config.checkpoint_every > 0) {
        return Err(ServeError::Config(
            "checkpoint_path and checkpoint_every must be set together".to_string(),
        ));
    }
    Ok(())
}

/// Write the `Busy` farewell to a rejected connection and close it.
fn reject_busy(stream: TcpStream, active: u64, limit: u64) {
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(stream);
    let farewell = Response::Busy { active, limit }.encode();
    let _ = write_frame(&mut writer, &farewell).and_then(|()| writer.flush());
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    loop {
        match read_frame(&mut reader) {
            // Peer hung up cleanly between frames.
            Ok(None) => break,
            Ok(Some(payload)) => {
                let (response, shutdown) = match Request::decode(&payload) {
                    Ok(request) => handle(shared, request),
                    Err(e) => {
                        // The frame envelope was intact (checksum
                        // passed), so the stream stays synchronized:
                        // report and keep serving this client.
                        shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::SeqCst);
                        (
                            Response::Error {
                                message: e.to_string(),
                            }
                            .encode(),
                            false,
                        )
                    }
                };
                if write_frame(&mut writer, &response)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                if shutdown {
                    // Unblock the accept loop so `run` observes the
                    // flag; the poke connection is never served.
                    let _ = TcpStream::connect(shared.addr);
                    break;
                }
            }
            Err(e) => {
                // Bad envelope: the byte stream is desynchronized, so
                // this connection is done — but only this connection.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::SeqCst);
                let farewell = Response::Error {
                    message: e.to_string(),
                }
                .encode();
                let _ = write_frame(&mut writer, &farewell).and_then(|()| writer.flush());
                break;
            }
        }
    }
}

/// Serve one decoded request. Returns the encoded response payload and
/// whether the server should shut down after sending it.
fn handle(shared: &Shared, request: Request) -> (Vec<u8>, bool) {
    let counters = &shared.counters;
    match request {
        Request::Ingest { channel, values } => {
            counters.frames_ingest.fetch_add(1, Ordering::SeqCst);
            (handle_ingest(shared, &channel, &values), false)
        }
        Request::Snapshot { channel } => {
            counters.frames_snapshot.fetch_add(1, Ordering::SeqCst);
            let response = shared
                .sharded
                .snapshot(&channel)
                .unwrap_or_else(|e| error_response(e.to_string()));
            (response, false)
        }
        Request::Verdict { p, channel } => {
            counters.frames_verdict.fetch_add(1, Ordering::SeqCst);
            let response = shared
                .sharded
                .verdict(p, channel.as_deref())
                .unwrap_or_else(|e| error_response(e.to_string()));
            (response, false)
        }
        Request::Merge { channel, blob } => {
            counters.frames_merge.fetch_add(1, Ordering::SeqCst);
            (handle_merge(shared, &channel, &blob), false)
        }
        Request::Checkpoint => {
            counters.frames_admin.fetch_add(1, Ordering::SeqCst);
            if shared.config.checkpoint_path.is_none() {
                return (error_response("no checkpoint path configured"), false);
            }
            match write_server_checkpoint(shared, false) {
                Ok(bytes) => (Response::Checkpointed { bytes }.encode(), false),
                Err(e) => (error_response(format!("checkpoint failed: {e}")), false),
            }
        }
        Request::Stats => {
            counters.frames_admin.fetch_add(1, Ordering::SeqCst);
            match build_stats(shared) {
                Ok(stats) => (Response::Stats(stats).encode(), false),
                Err(e) => (error_response(e.to_string()), false),
            }
        }
        Request::Shutdown => {
            counters.frames_admin.fetch_add(1, Ordering::SeqCst);
            shared.shutdown.store(true, Ordering::SeqCst);
            // Persist the final state so a later `resume` continues
            // exactly where the campaign stopped.
            if shared.config.checkpoint_path.is_some() {
                if let Err(e) = write_server_checkpoint(shared, false) {
                    return (
                        error_response(format!("shutdown checkpoint failed: {e}")),
                        true,
                    );
                }
            }
            (Response::ShuttingDown.encode(), true)
        }
    }
}

fn error_response(message: impl Into<String>) -> Vec<u8> {
    Response::Error {
        message: message.into(),
    }
    .encode()
}

fn handle_ingest(shared: &Shared, channel: &str, values: &[f64]) -> Vec<u8> {
    let reply = match shared.sharded.ingest(channel, values) {
        Ok(reply) => reply,
        Err(e) => return error_response(e.to_string()),
    };
    if let Err(e) = after_mutation(shared) {
        return error_response(format!("ingested, but checkpointing failed: {e}"));
    }
    Response::Ingested {
        channel_len: reply.channel_len,
        total: reply.total,
        snapshots: reply.snapshots,
    }
    .encode()
}

fn handle_merge(shared: &Shared, channel: &str, blob: &[u8]) -> Vec<u8> {
    let reply = match shared.sharded.merge(channel, blob) {
        Ok(reply) => reply,
        Err(e) => return error_response(e.to_string()),
    };
    if let Err(e) = after_mutation(shared) {
        return error_response(format!("merged, but checkpointing failed: {e}"));
    }
    Response::Merged {
        channel_len: reply.channel_len,
        total: reply.total,
    }
    .encode()
}

/// Post-mutation bookkeeping shared by ingest and merge: write an
/// auto-checkpoint when one falls due, then fire crash injection.
fn after_mutation(shared: &Shared) -> Result<(), ServeError> {
    if shared.config.checkpoint_path.is_some()
        && shared
            .sharded
            .checkpoint_due(shared.config.checkpoint_every)
    {
        write_server_checkpoint(shared, true)?;
    }
    if let Some(limit) = shared.config.crash_after {
        let total = shared.sharded.total();
        if total >= limit as u64 {
            eprintln!("mbpta serve: injected crash at {total} measurements (crash_after {limit})");
            let _ = io::stderr().flush();
            // proxima-lint: allow(no-exit-in-lib) -- deliberate crash
            // injection for the restart-determinism battery, reachable
            // only when the operator sets --crash-after.
            std::process::abort();
        }
    }
    Ok(())
}

/// The sibling file holding worker `index`'s sealed session blob for
/// checkpoint generation `generation`.
fn shard_file(path: &Path, generation: u64, index: usize) -> PathBuf {
    let name = path.file_name().map_or_else(
        || "checkpoint".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    path.with_file_name(format!("{name}.g{generation}.shard{index}"))
}

/// Write `bytes` to `path` atomically: a sibling temp file, fsync,
/// rename over the target, then best-effort fsync the directory — a
/// crash at any point leaves either the old or the new file intact,
/// never a torn one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let name = path.file_name().map_or_else(
        || "checkpoint".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let tmp = path.with_file_name(format!("{name}.tmp"));
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| ServeError::Io(format!("cannot create {}: {e}", tmp.display())))?;
    file.write_all(bytes)
        .map_err(|e| ServeError::Io(format!("cannot write {}: {e}", tmp.display())))?;
    file.sync_all()
        .map_err(|e| ServeError::Io(format!("cannot sync {}: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| {
        ServeError::Io(format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// What the checkpoint manifest records.
struct Manifest {
    stream: StreamConfig,
    snapshot_every: usize,
    checkpoint_every: usize,
    cache_capacity: usize,
    cache_ttl: u64,
    workers: usize,
    generation: u64,
    channel_order: Vec<String>,
    /// Per-shard `(byte length, FNV-1a digest)` of the sealed blobs.
    shards: Vec<(u64, u64)>,
}

impl Manifest {
    fn read(path: &Path) -> Result<Manifest, ServeError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::Io(format!("cannot open {}: {e}", path.display())))?;
        let payload = persist::unseal(&bytes, MAGIC_SERVE)?;
        let mut r = Reader::new(payload);
        let stream = StreamConfig::decode(&mut r)?;
        let snapshot_every = r.usize()?;
        let checkpoint_every = r.usize()?;
        let cache_capacity = r.usize()?;
        let cache_ttl = r.u64()?;
        let workers = r.usize()?;
        let generation = r.u64()?;
        let n = r.usize()?;
        if n > payload.len() {
            return Err(ServeError::Analysis(format!(
                "manifest channel count {n} exceeds the payload size"
            )));
        }
        let mut channel_order = Vec::with_capacity(n);
        for _ in 0..n {
            channel_order.push(r.str()?.to_string());
        }
        let m = r.usize()?;
        if m != workers {
            return Err(ServeError::Analysis(format!(
                "manifest lists {m} shard digests for {workers} workers"
            )));
        }
        let mut shards = Vec::with_capacity(m);
        for _ in 0..m {
            shards.push((r.u64()?, r.u64()?));
        }
        r.finish()?;
        Ok(Manifest {
            stream,
            snapshot_every,
            checkpoint_every,
            cache_capacity,
            cache_ttl,
            workers,
            generation,
            channel_order,
            shards,
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.stream.encode(&mut w);
        w.usize(self.snapshot_every);
        w.usize(self.checkpoint_every);
        w.usize(self.cache_capacity);
        w.u64(self.cache_ttl);
        w.usize(self.workers);
        w.u64(self.generation);
        w.usize(self.channel_order.len());
        for name in &self.channel_order {
            w.str(name);
        }
        w.usize(self.shards.len());
        for &(len, checksum) in &self.shards {
            w.u64(len);
            w.u64(checksum);
        }
        persist::seal(MAGIC_SERVE, w.into_bytes())
    }
}

/// Checkpoint the sharded session: one sealed session blob per worker
/// in generation-tagged sibling files, then the manifest (serve
/// parameters, channel order, shard digests) renamed over
/// `checkpoint_path` as the commit point. After the commit the
/// previous generation's shard files are retired best-effort — a crash
/// anywhere leaves a complete generation on disk.
///
/// With `only_if_due` set the write is skipped when another trigger
/// already checkpointed while this one waited on the cursor.
fn write_server_checkpoint(shared: &Shared, only_if_due: bool) -> Result<u64, ServeError> {
    let path = shared
        .config
        .checkpoint_path
        .clone()
        .ok_or_else(|| ServeError::Config("no checkpoint path configured".to_string()))?;
    let mut cursor = lock(&shared.checkpoint, "checkpoint cursor")?;
    if only_if_due
        && !shared
            .sharded
            .checkpoint_due(shared.config.checkpoint_every)
    {
        return Ok(0);
    }
    // Order before blobs: a channel racing into existence mid-capture
    // then appears in the blobs and is reconciled at resume; the other
    // way around the manifest would name a channel no blob holds.
    let channel_order = shared.sharded.channel_order()?;
    let total = shared.sharded.total();
    let blobs = shared.sharded.checkpoint_blobs()?;
    let generation = cursor.next_gen;

    let mut shards = Vec::with_capacity(blobs.len());
    let mut written = 0u64;
    for (index, blob) in blobs.iter().enumerate() {
        write_atomic(&shard_file(&path, generation, index), blob)?;
        shards.push((blob.len() as u64, persist::fnv1a(blob)));
        written += blob.len() as u64;
    }
    let manifest = Manifest {
        stream: shared.config.stream.clone(),
        snapshot_every: shared.config.snapshot_every,
        checkpoint_every: shared.config.checkpoint_every,
        cache_capacity: shared.config.cache_capacity,
        cache_ttl: shared.config.cache_ttl,
        workers: blobs.len(),
        generation,
        channel_order,
        shards,
    }
    .encode();
    write_atomic(&path, &manifest)?;
    written += manifest.len() as u64;

    if let Some((prev_gen, prev_count)) = cursor.prev {
        for index in 0..prev_count {
            let _ = std::fs::remove_file(shard_file(&path, prev_gen, index));
        }
    }
    cursor.prev = Some((generation, blobs.len()));
    cursor.next_gen = generation + 1;
    drop(cursor);

    shared.sharded.mark_checkpointed(total);
    shared
        .counters
        .checkpoints_written
        .fetch_add(1, Ordering::SeqCst);
    shared
        .counters
        .last_checkpoint_bytes
        .store(written, Ordering::SeqCst);
    Ok(written)
}

fn build_stats(shared: &Shared) -> Result<ServerStats, ServeError> {
    let shards = shared.sharded.shard_stats()?;
    let sum = |f: fn(&crate::frame::ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    let c = &shared.counters;
    Ok(ServerStats {
        total: shared.sharded.total(),
        channels: shared.sharded.channel_count()?,
        connections: c.connections.load(Ordering::SeqCst),
        frames_ingest: c.frames_ingest.load(Ordering::SeqCst),
        frames_snapshot: c.frames_snapshot.load(Ordering::SeqCst),
        frames_verdict: c.frames_verdict.load(Ordering::SeqCst),
        frames_merge: c.frames_merge.load(Ordering::SeqCst),
        frames_admin: c.frames_admin.load(Ordering::SeqCst),
        protocol_errors: c.protocol_errors.load(Ordering::SeqCst),
        cache_hits: sum(|s| s.cache_hits),
        cache_misses: sum(|s| s.cache_misses),
        cache_insertions: sum(|s| s.cache_insertions),
        cache_evictions: sum(|s| s.cache_evictions),
        cache_len: sum(|s| s.cache_len),
        cache_capacity: (shared.config.cache_capacity * shared.config.workers) as u64,
        checkpoints_written: c.checkpoints_written.load(Ordering::SeqCst),
        last_checkpoint_bytes: c.last_checkpoint_bytes.load(Ordering::SeqCst),
        since_checkpoint: shared.sharded.since_checkpoint(),
        cache_expirations: sum(|s| s.cache_expirations),
        busy_rejections: c.busy_rejections.load(Ordering::SeqCst),
        workers: shared.config.workers as u64,
        shards,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{ClientError, ServeClient};

    fn start(config: ServeConfig) -> (SocketAddr, thread::JoinHandle<Result<(), ServeError>>) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        (addr, server.spawn())
    }

    /// Deterministic per-channel feed (no clock, no OS randomness).
    pub(crate) fn feed(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                // SplitMix64 step.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                1000.0 + 200.0 * ((z >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    /// A scratch path under the target-relative temp dir, unique per
    /// test via a process-wide counter (no clock, no randomness).
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "proxima-serve-{}-{tag}-{id}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn ingest_query_shutdown_round_trip() {
        let (addr, handle) = start(ServeConfig {
            snapshot_every: 100,
            ..ServeConfig::default()
        });
        let mut client = ServeClient::connect(addr).unwrap();
        let values = feed(7, 1500);
        let (channel_len, total, _snaps) = client.ingest("nominal", &values).unwrap();
        assert_eq!(channel_len, 1500);
        assert_eq!(total, 1500);

        let latest = client.snapshot("nominal").unwrap();
        let latest = latest.expect("a snapshot was emitted for the channel");
        assert_eq!(latest.channel, "nominal");
        assert!(latest.estimate.pwcet > latest.estimate.high_watermark);

        let verdicts = client.verdict(1e-12, None).unwrap();
        match verdicts {
            Response::Verdicts {
                channels, envelope, ..
            } => {
                assert_eq!(channels.len(), 1);
                assert!(channels[0].1.is_ok(), "{:?}", channels[0].1);
                let (winner, budget) = envelope.unwrap();
                assert_eq!(winner, "nominal");
                assert!(budget > latest.estimate.high_watermark);
            }
            other => panic!("unexpected response {other:?}"),
        }

        // The same query again must come from the cache.
        let _ = client.verdict(1e-12, None).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.total, 1500);
        assert_eq!(stats.channels, 1);
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.shards.len(), 1);
        assert_eq!(stats.shards[0].total, 1500);

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn ingest_invalidates_cached_verdicts() {
        let (addr, handle) = start(ServeConfig::default());
        let mut client = ServeClient::connect(addr).unwrap();
        let values = feed(11, 1200);
        client.ingest("ch", &values[..600]).unwrap();
        let before = client.verdict(1e-12, Some("ch")).unwrap();
        client.ingest("ch", &values[600..]).unwrap();
        let after = client.verdict(1e-12, Some("ch")).unwrap();
        assert_ne!(before, after, "new data must re-key the cached answer");
        let stats = client.stats().unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    /// A rejected first value quarantines a channel without moving its
    /// accepted count, so the VERDICT cache must not key on that count:
    /// the cached server answers what a cache-off server answers.
    #[test]
    fn a_quarantine_re_keys_the_cached_verdict() {
        let replies = |cache_capacity: usize| {
            let (addr, handle) = start(ServeConfig {
                cache_capacity,
                ..ServeConfig::default()
            });
            let mut client = ServeClient::connect(addr).unwrap();
            client.ingest("rig", &feed(23, 600)).unwrap();
            let before = client.verdict(1e-12, Some("rig")).unwrap();
            let (channel_len, total, _) =
                client.ingest("rig", &[-5.0, 80_000.0, 80_010.0]).unwrap();
            assert_eq!(
                (channel_len, total),
                (600, 603),
                "replies report accepted values"
            );
            let after = client.verdict(1e-12, Some("rig")).unwrap();
            let envelope = client.verdict(1e-12, None).unwrap();
            client.shutdown().unwrap();
            handle.join().unwrap().unwrap();
            (before, after, envelope)
        };
        let cached = replies(256);
        assert_eq!(cached, replies(0), "the cache changed an answer");
        assert_ne!(cached.0, cached.1);
        let Response::Verdicts { channels, .. } = &cached.1 else {
            panic!("unexpected response {:?}", cached.1);
        };
        let error = channels[0].1.as_ref().unwrap_err();
        assert!(error.contains("execution time is negative"), "{error}");
    }

    #[test]
    fn responses_are_bit_identical_across_worker_counts() {
        let channels = ["alpha", "bravo", "charlie", "delta", "echo"];
        let mut captured: Vec<Vec<(Option<u64>, Response, Response)>> = Vec::new();
        for workers in [1usize, 2, 4] {
            let (addr, handle) = start(ServeConfig {
                workers,
                snapshot_every: 100,
                ..ServeConfig::default()
            });
            let mut client = ServeClient::connect(addr).unwrap();
            let mut per_channel = Vec::new();
            for (i, name) in channels.iter().enumerate() {
                let values = feed(100 + i as u64, 700);
                client.ingest(name, &values[..350]).unwrap();
                client.ingest(name, &values[350..]).unwrap();
            }
            for name in &channels {
                let latest = client.snapshot(name).unwrap();
                per_channel.push((
                    latest.map(|s| s.estimate.pwcet.to_bits()),
                    client.verdict(1e-12, Some(name)).unwrap(),
                    client.verdict(1e-9, None).unwrap(),
                ));
            }
            let stats = client.stats().unwrap();
            assert_eq!(stats.total, 5 * 700);
            assert_eq!(stats.channels, 5);
            assert_eq!(stats.workers, workers as u64);
            assert_eq!(stats.shards.len(), workers);
            assert_eq!(
                stats.shards.iter().map(|s| s.total).sum::<u64>(),
                5 * 700,
                "every measurement lands on exactly one worker"
            );
            captured.push(per_channel);
            client.shutdown().unwrap();
            handle.join().unwrap().unwrap();
        }
        for other in &captured[1..] {
            assert_eq!(
                &captured[0], other,
                "snapshots and verdicts must not depend on the worker count"
            );
        }
    }

    #[test]
    fn busy_admission_answers_a_typed_frame() {
        let (addr, handle) = start(ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        });
        let mut first = ServeClient::connect(addr).unwrap();
        // Served once, so the accept loop has definitely admitted it.
        first.ingest("ch", &feed(3, 100)).unwrap();
        let mut second = ServeClient::connect(addr).unwrap();
        match second.stats() {
            Err(ClientError::Busy { active, limit }) => {
                assert_eq!(limit, 1);
                assert!(active >= 1);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(second);
        let stats = first.stats().unwrap();
        assert_eq!(stats.busy_rejections, 1);
        assert_eq!(stats.connections, 1, "rejected connections are not served");
        first.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn sharded_checkpoint_resumes_bit_identical_at_any_worker_count() {
        let path = scratch("resume");
        let (addr, handle) = start(ServeConfig {
            workers: 4,
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 400,
            ..ServeConfig::default()
        });
        let mut client = ServeClient::connect(addr).unwrap();
        for (i, name) in ["alpha", "bravo", "charlie"].iter().enumerate() {
            client.ingest(name, &feed(200 + i as u64, 600)).unwrap();
        }
        let reference = client.verdict(1e-12, None).unwrap();
        let total_before = client.stats().unwrap().total;
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();

        // Resume at the manifest's count, at fewer, and at more
        // workers: bit-identical verdicts every time.
        for workers in [0usize, 2, 5] {
            let server = Server::resume(
                "127.0.0.1:0",
                &path,
                ResumeOptions {
                    workers,
                    ..ResumeOptions::default()
                },
            )
            .unwrap();
            let addr = server.local_addr();
            let handle = server.spawn();
            let mut client = ServeClient::connect(addr).unwrap();
            let stats = client.stats().unwrap();
            assert_eq!(stats.total, total_before);
            assert_eq!(stats.channels, 3);
            assert_eq!(stats.workers, if workers == 0 { 4 } else { workers as u64 });
            let resumed = client.verdict(1e-12, None).unwrap();
            assert_eq!(
                resumed, reference,
                "resume at {workers} workers changed the verdict"
            );
            client.shutdown().unwrap();
            handle.join().unwrap().unwrap();
        }

        // Only the last generation's files remain.
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut generations: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with(&format!("{name}.g")))
            .collect();
        generations.sort();
        let distinct: std::collections::BTreeSet<&str> = generations
            .iter()
            .filter_map(|f| f.split(".shard").next())
            .collect();
        assert_eq!(
            distinct.len(),
            1,
            "only the last generation's shard files may remain: {generations:?}"
        );

        let _ = std::fs::remove_file(&path);
        for file in generations {
            let _ = std::fs::remove_file(dir.join(file));
        }
    }

    #[test]
    fn shutdown_closes_idle_connections() {
        let (addr, handle) = start(ServeConfig::default());
        let idle = TcpStream::connect(addr).unwrap();
        let mut client = ServeClient::connect(addr).unwrap();
        // Served, so the accept loop has taken the idle socket too.
        client.stats().unwrap();
        client.shutdown().unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || tx.send(handle.join()));
        let joined = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("an idle connection must not keep the server running");
        joined.unwrap().unwrap();
        drop(idle);
    }

    #[test]
    fn poisoned_mutex_surfaces_as_typed_error_not_panic() {
        let m = Arc::new(Mutex::new(17u32));
        let m2 = Arc::clone(&m);
        thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the guard");
        })
        .join()
        .unwrap_err();
        match lock(&m, "test state") {
            Err(ServeError::Poisoned(what)) => assert_eq!(what, "test state"),
            other => panic!("expected Poisoned, got {other:?}"),
        }
        let message = lock(&m, "test state").unwrap_err().to_string();
        assert!(
            message.contains("poisoned"),
            "the error frame should say why the request failed: {message}"
        );
    }

    #[test]
    fn bind_rejects_orphan_checkpoint_settings() {
        let config = ServeConfig {
            checkpoint_path: Some(PathBuf::from("ck.bin")),
            checkpoint_every: 0,
            ..ServeConfig::default()
        };
        assert!(Server::bind("127.0.0.1:0", config).is_err());
        let config = ServeConfig {
            checkpoint_path: None,
            checkpoint_every: 100,
            ..ServeConfig::default()
        };
        assert!(Server::bind("127.0.0.1:0", config).is_err());
    }

    #[test]
    fn bind_rejects_zero_workers() {
        let config = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        match Server::bind("127.0.0.1:0", config) {
            Err(ServeError::Config(m)) => assert!(m.contains("workers"), "{m}"),
            Err(other) => panic!("expected a Config error, got {other:?}"),
            Ok(_) => panic!("zero workers must not bind"),
        }
    }
}
