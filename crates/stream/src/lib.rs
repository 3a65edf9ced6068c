//! Streaming MBPTA: online ingestion, sketch-based tail tracking, and
//! incremental pWCET refit.
//!
//! The batch pipeline (`MbptaConfig::analyze`) needs the full
//! measurement vector in memory and answers only once the campaign ends.
//! This crate analyses a campaign **while it runs**, in bounded memory:
//!
//! * [`StreamAnalyzer`] ingests measurements one at a time (or in
//!   batches), maintains a quantile sketch — [GK](sketch::QuantileSketch)
//!   or [KLL](kll::KllSketch), selected by [`SketchKind`]
//!   — for high-watermark/ECDF queries, rolling i.i.d. diagnostics
//!   ([`monitor::IidMonitor`]: online autocorrelation + runs-test
//!   windows), and an incremental block-maxima buffer; every `K` new
//!   blocks it refits the Gumbel tail and emits a [`PwcetSnapshot`] until
//!   the batch convergence criterion stabilizes.
//! * [`replay::TraceReplay`] streams a simulated platform run-by-run with
//!   the same SplitMix64 per-run seeds as the batch campaign engine, and
//!   [`replay::LineSource`] streams the measurement-file format — so both
//!   existing traces and live rigs plug straight in.
//! * [`engine::StreamEngine`] plugs the analyzer into the multi-channel
//!   session core ([`proxima_mbpta::session`]):
//!   `config.session().build_stream()` (via [`SessionStreamExt`]) serves
//!   one bounded-memory engine per timing channel.
//! * The analyzer state is **mergeable** — quantile sketch
//!   ([`QuantileSketch::merge`](sketch::QuantileSketch::merge), `ε₁+ε₂`
//!   rank error), block-maxima buffer and rolling i.i.d. window all fold
//!   — so shards of one campaign can stream independently and combine:
//!   [`federated::FederatedAnalyzer`] runs N per-shard analyzers over
//!   contiguous block-aligned run ranges and folds them at finish into a
//!   pWCET **bit-identical** to the single-stream one;
//!   `config.session().build_federated(n)` (via [`SessionFederatedExt`])
//!   backs a session channel with shards transparently.
//!
//! # Examples
//!
//! Stream a simulated campaign through a session and watch the estimate
//! settle:
//!
//! ```
//! use proxima_mbpta::session::Tagged;
//! use proxima_mbpta::MbptaConfig;
//! use proxima_stream::replay::TraceReplay;
//! use proxima_stream::{SessionStreamExt, StreamConfig};
//! use proxima_workload::tvca::{ControlMode, TvcaConfig};
//!
//! let mut session = MbptaConfig::default()
//!     .session()
//!     .snapshot_every(1)
//!     .build_stream_with(StreamConfig {
//!         block_size: 25,
//!         refit_every_blocks: 4,
//!         ..StreamConfig::default()
//!     })?;
//! let source = TraceReplay::tvca(ControlMode::Nominal, TvcaConfig::default(), 800, 7);
//! let mut snapshots = 0;
//! for x in source {
//!     if let Some(snapshot) = session.push(Tagged::new("nominal", x))? {
//!         assert!(snapshot.estimate.pwcet > snapshot.estimate.high_watermark);
//!         snapshots += 1;
//!     }
//! }
//! assert!(snapshots > 0);
//! assert!(session.merge().all_ok());
//! # Ok::<(), proxima_mbpta::MbptaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod engine;
pub mod federated;
pub mod kll;
pub mod monitor;
pub mod persist;
pub mod replay;
pub mod sketch;

pub use analyzer::{BootstrapSpec, PwcetSnapshot, StreamAnalyzer, StreamConfig};
pub use engine::{SessionStreamExt, StreamEngine, StreamFactory};
pub use federated::{
    FederatedAnalyzer, FederatedConfig, FederatedEngine, FederatedFactory, SessionFederatedExt,
};
pub use kll::KllSketch;
pub use monitor::{IidHealth, IidMonitor, IidStatus};
pub use replay::{ByteLines, LineSource, LineSourceError, TraceReplay};
pub use sketch::{QuantileSketch, Sketch, SketchKind};
