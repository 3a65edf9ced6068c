//! Measurement-Based Probabilistic Timing Analysis (MBPTA).
//!
//! This crate implements the analysis half of Fernandez et al.,
//! *"Probabilistic Timing Analysis on Time-Randomized Platforms for the
//! Space Domain"* (DATE 2017), following the MBPTA process of Cucu-Grosjean
//! et al. (ECRTS 2012):
//!
//! 1. **Measure** — collect end-to-end execution times of the program on an
//!    MBPTA-compliant (time-randomized) platform, flushing caches and
//!    reseeding the hardware PRNG for every run ([`Campaign`]).
//! 2. **Validate i.i.d.** — Ljung-Box independence test and two-sample
//!    Kolmogorov-Smirnov identical-distribution test at α = 0.05; the
//!    analysis is enabled only if both pass ([`iid`]).
//! 3. **Fit the tail** — group the measurements into blocks, take block
//!    maxima, fit a Gumbel distribution (PWM + MLE), check goodness of fit,
//!    and cross-check with a peaks-over-threshold GPD fit ([`evt_fit`]).
//! 4. **Answer pWCET queries** — the [`Pwcet`] distribution converts
//!    between execution-time budgets and per-run exceedance probabilities
//!    (10⁻³ … 10⁻¹⁵), honouring the block/run probability relation
//!    ([`pwcet`]).
//! 5. **Per-path analysis** — analyse each program path separately and
//!    take the maximum across paths, as the paper does ([`paths`]).
//!
//! The industrial-practice baseline the paper compares against — the
//! maximum observed execution time (*high watermark*) inflated by an
//! engineering factor on the deterministic platform — is in [`baseline`].
//!
//! One campaign is analysed with [`MbptaConfig::analyze`], which returns
//! an [`MbptaReport`]. A feed of many timing channels (per path / per
//! core / per tenant) goes through [`MbptaConfig::session`]: the
//! [`SessionBuilder`] builds an [`AnalysisSession`] demultiplexing the
//! tagged feed to one [`Engine`] per channel behind one result
//! vocabulary ([`Verdict`]).
//!
//! # Examples
//!
//! End-to-end analysis of a synthetic campaign:
//!
//! ```
//! use proxima_mbpta::MbptaConfig;
//! use rand::{Rng, SeedableRng};
//!
//! // Stand-in for measured execution times on a randomized platform.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let times: Vec<f64> = (0..1000)
//!     .map(|_| 100_000.0 + 500.0 * rng.gen::<f64>() + 200.0 * rng.gen::<f64>())
//!     .collect();
//!
//! let report = MbptaConfig::default().analyze(&times)?;
//! assert!(report.iid.passed);
//! let budget = report.budget_for(1e-12)?;
//! assert!(budget > report.high_watermark());
//! # Ok::<(), proxima_mbpta::MbptaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod campaign;
pub mod confidence;
pub mod convergence;
pub mod cv;
pub mod engine;
pub mod evt_fit;
pub mod iid;
pub mod paths;
pub mod persist;
pub mod pwcet;
pub mod risk;
pub mod sched;
pub mod session;

mod config;
mod error;
mod pipeline;
mod report;

pub use campaign::{Campaign, CampaignRunner};
pub use config::{BlockSpec, MbptaConfig, SessionBuilder};
pub use engine::{BatchFactory, Engine, EngineEstimate, EngineFactory, Verdict};
pub use error::MbptaError;
pub use pipeline::MbptaReport;
pub use pwcet::Pwcet;
pub use report::{render_pwcet_csv, render_report, render_survival_csv};
pub use session::{AnalysisSession, ChannelHandle, ChannelId, SessionSnapshot, Tagged};
