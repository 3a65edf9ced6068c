//! **proxima** — probabilistic timing analysis on time-randomized
//! platforms.
//!
//! A full reproduction of Fernandez et al., *"Probabilistic Timing Analysis
//! on Time-Randomized Platforms for the Space Domain"* (DATE 2017): an
//! MBPTA-compliant LEON3-class platform model with time-randomized caches,
//! a synthetic ESA-style Thrust Vector Control Application, and the MBPTA
//! statistical pipeline (i.i.d. validation, extreme-value tail fitting,
//! pWCET estimation) together with the industrial MBTA baseline it is
//! compared against.
//!
//! This crate is a facade: it re-exports the workspace crates —
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`prng`] | `proxima-prng` | SIL3-style PRNGs + health tests |
//! | [`stats`] | `proxima-stats` | distributions, hypothesis tests, EVT |
//! | [`sim`] | `proxima-sim` | LEON3-like randomized platform model |
//! | [`workload`] | `proxima-workload` | TVCA + control kernels |
//! | [`mbpta`] | `proxima-mbpta` | the MBPTA pipeline and pWCET type |
//! | [`stream`] | `proxima-stream` | streaming MBPTA: online ingestion + incremental refit |
//! | [`serve`] | `proxima-serve` | framed-TCP analysis service over the session core |
//!
//! # Quickstart
//!
//! Measure the TVCA on the randomized platform and derive a pWCET:
//!
//! ```
//! use proxima::prelude::*;
//!
//! // 1. The MBPTA-compliant platform and the application.
//! let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
//! let tvca = Tvca::new(TvcaConfig { scale: Scale::Full, layout_seed: 0 });
//!
//! // 2. Measurement campaign on one path (fresh seed per run).
//! let trace = tvca.trace(ControlMode::Nominal);
//! let campaign = Campaign::measure(&mut platform, &trace, 300, 0)?;
//!
//! // 3. MBPTA: i.i.d. gate, EVT fit, pWCET.
//! let report = MbptaConfig::default().analyze(campaign.times())?;
//! let budget = report.budget_for(1e-12)?;
//! assert!(budget > report.high_watermark());
//! # Ok::<(), proxima::mbpta::MbptaError>(())
//! ```
//!
//! Multi-channel feeds (per path / per core / per tenant) go through the
//! same builder: `MbptaConfig::default().session().build_batch()` (or
//! `.build_stream()` from the [`stream`] crate's `SessionStreamExt`)
//! demultiplexes `Tagged { channel, time }` measurements to one engine
//! per channel and merges the per-channel verdicts into a program-level
//! envelope — see `examples/session_demux.rs` and `mbpta session`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use proxima_mbpta as mbpta;
pub use proxima_prng as prng;
pub use proxima_serve as serve;
pub use proxima_sim as sim;
pub use proxima_stats as stats;
pub use proxima_stream as stream;
pub use proxima_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use proxima_mbpta::persist::{Decode, Encode};
    pub use proxima_mbpta::session::SessionVerdict;
    pub use proxima_mbpta::{
        baseline::MbtaEstimate, confidence::budget_interval, cv::analyze_cv, render_report,
        AnalysisSession, BlockSpec, Campaign, CampaignRunner, ChannelHandle, ChannelId,
        EngineEstimate, MbptaConfig, MbptaReport, Pwcet, SessionBuilder, SessionSnapshot, Tagged,
        Verdict,
    };
    pub use proxima_prng::{Mwc64, PrngKind, RandomSource};
    pub use proxima_sim::{Inst, InstKind, Platform, PlatformConfig};
    pub use proxima_stats::dist::ContinuousDistribution;
    pub use proxima_stream::persist::{
        load_analyzer, load_federated, save_analyzer, save_federated,
    };
    pub use proxima_stream::{
        FederatedAnalyzer, FederatedConfig, FederatedEngine, LineSource, SessionFederatedExt,
        SessionStreamExt, StreamAnalyzer, StreamConfig, StreamEngine,
    };
    pub use proxima_workload::bench_suite::Benchmark;
    pub use proxima_workload::tvca::{ControlMode, Scale, Tvca, TvcaConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = PlatformConfig::mbpta_compliant();
        let _ = MbptaConfig::default();
        let _ = ControlMode::Nominal;
        let _ = Benchmark::all();
    }
}
