//! `mbpta serve`: an offline-safe framed-TCP analysis service over a
//! **sharded** multi-channel session core.
//!
//! A measurement campaign often runs where the analysis cannot: on a
//! target board, across a test-rig farm, in per-tenant shards. This
//! crate turns the library's [`AnalysisSession`] into a long-running
//! **service** that many concurrent producers and observers share over
//! plain TCP:
//!
//! * [`frame`] — the wire protocol: length-prefixed, checksummed
//!   frames (`PXNF`) carrying typed [`Request`]/[`Response`] payloads
//!   encoded with the same codec as on-disk checkpoints. Hostile or
//!   corrupt input maps to typed errors and poisons only its own
//!   connection.
//! * [`server`] — the service: a hand-rolled `std::net` accept loop,
//!   one thread per connection, and `--workers N` channel partitions
//!   behind them — each worker owns its own session shard and response
//!   cache behind one mutex, channels route to workers by name hash,
//!   and a busy worker blocks its callers (backpressure) instead of
//!   dropping requests. Past `--max-conns` the accept loop answers a
//!   typed `Busy` frame. INGEST streams tagged batches in,
//!   SNAPSHOT/VERDICT answer from per-worker fingerprint-keyed caches
//!   (the envelope verdict fans out and folds per-worker partials),
//!   MERGE adopts sealed federated shard blobs (state travels, data
//!   does not), and the service auto-checkpoints — one sealed blob per
//!   worker plus a manifest — so [`Server::resume`] restarts a killed
//!   service bit-identically, even at a different worker count.
//!   **Every response is bit-identical at any worker count.**
//! * [`cache`] — the query cache: responses keyed by a fingerprint of
//!   the analysis configuration, the query, and the ingest progress it
//!   was computed at, so any ingest invalidates exactly the answers it
//!   changes and repeat queries are O(1). A deterministic tick-based
//!   TTL (`--cache-ttl`) opportunistically expires cold entries.
//! * [`client`] — a small blocking client ([`ServeClient`]) used by
//!   the `mbpta call` CLI, the test batteries, and embedders.
//!
//! No async runtime, no new dependencies, no network access beyond the
//! sockets the embedder binds — everything runs offline on loopback.
//!
//! # Example
//!
//! ```
//! use proxima_serve::{ServeClient, ServeConfig, Server};
//!
//! let config = ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! };
//! let server = Server::bind("127.0.0.1:0", config)?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let mut client = ServeClient::connect(addr)?;
//! let feed: Vec<f64> = (0..1500).map(|i| 1000.0 + f64::from(i % 97)).collect();
//! client.ingest("nominal", &feed).unwrap();
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.total, 1500);
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`AnalysisSession`]: proxima_mbpta::AnalysisSession
//! [`Request`]: frame::Request
//! [`Response`]: frame::Response

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod frame;
pub mod server;
mod shard;

pub use cache::VerdictCache;
pub use client::{ClientError, ServeClient};
pub use frame::{
    FrameError, Request, Response, ServerStats, ShardStats, WireSnapshot, MAGIC_FRAME, MAX_FRAME,
};
pub use server::{ResumeOptions, ServeConfig, ServeError, Server, MAGIC_SERVE};
