//! Streaming MBPTA: online ingestion, rolling i.i.d. diagnostics, and
//! incremental pWCET refit.
//!
//! The batch pipeline (`MbptaConfig::analyze`) needs the full
//! measurement vector in memory and answers only once the campaign ends.
//! This crate analyses a campaign **while it runs**, keeping one block
//! maximum per `B` measurements instead of the measurements themselves:
//!
//! * [`StreamAnalyzer`] ingests measurements one at a time (or in
//!   batches), maintains a [GK quantile sketch](sketch::QuantileSketch)
//!   whose exact side statistics supply the high watermark and mean,
//!   rolling i.i.d. diagnostics ([`monitor::IidMonitor`]: windowed
//!   Ljung-Box + runs test), and an incremental block-maxima buffer;
//!   every `K` new blocks it refits the Gumbel tail and emits an
//!   [`EngineEstimate`](proxima_mbpta::engine::EngineEstimate) until the
//!   batch convergence criterion stabilizes. The analyzer, the federated
//!   fold and the session engines all return that one core type, with
//!   the monitor's [`IidEvidence::Rolling`](proxima_mbpta::engine::IidEvidence)
//!   as its i.i.d. evidence.
//! * [`replay::LineSource`] streams the measurement-file format from any
//!   reader, so a live rig plugs straight in. A simulated campaign is
//!   measured once, by [`CampaignRunner`](proxima_mbpta::CampaignRunner),
//!   and its times are ingested as a slice.
//! * [`engine::StreamEngine`] plugs the analyzer into the multi-channel
//!   session core ([`proxima_mbpta::session`]):
//!   `config.session().build_stream()` (via [`SessionStreamExt`]) serves
//!   one streaming engine per timing channel.
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
//! use proxima_mbpta::{CampaignRunner, MbptaConfig};
//! use proxima_sim::PlatformConfig;
//! use proxima_stream::{SessionStreamExt, StreamConfig};
//! use proxima_workload::tvca::{ControlMode, Tvca, TvcaConfig};
//!
//! let trace = Tvca::new(TvcaConfig::default()).trace(ControlMode::Nominal);
//! let campaign = CampaignRunner::new(PlatformConfig::mbpta_compliant()).run(trace, 800, 7)?;
//! let mut session = MbptaConfig::default()
//!     .session()
//!     .snapshot_every(1)
//!     .build_stream_with(StreamConfig {
//!         block_size: 25,
//!         refit_every_blocks: 4,
//!         ..StreamConfig::default()
//!     })?;
//! let mut snapshots = 0;
//! for &x in campaign.times() {
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
pub mod monitor;
pub mod persist;
pub mod replay;
pub mod sketch;

pub use analyzer::{BootstrapSpec, StreamAnalyzer, StreamConfig};
pub use engine::{SessionStreamExt, StreamEngine, StreamFactory};
pub use federated::{
    FederatedAnalyzer, FederatedConfig, FederatedEngine, FederatedFactory, SessionFederatedExt,
};
pub use monitor::IidMonitor;
pub use replay::{ByteLines, LineSource, LineSourceError};
pub use sketch::{QuantileSketch, Sketch, SketchKind};
