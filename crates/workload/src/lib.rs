//! Synthetic space-domain workloads for timing analysis.
//!
//! The paper's case study is a **Thrust Vector Control Application
//! (TVCA)** developed by the European Space Agency: auto-generated C from a
//! closed-loop control model, running bare-metal under a fixed-priority
//! scheduler with three periodic tasks — *sensor data acquisition*,
//! *actuator control X* and *actuator control Y*. The original application
//! is proprietary, so this crate builds a synthetic equivalent with the
//! same structure and the same interaction with the timing-relevant
//! hardware (cache footprint, FPU divide/sqrt usage, multi-path control
//! flow). MBPTA sees an application only through the execution-time
//! distribution those interactions produce, so a program with the same
//! footprint, FPU mix and paths stands in for the original.
//!
//! Contents:
//!
//! * [`trace`] — the [`trace::TraceBuilder`]: structured emission of
//!   instruction traces (loops with back-edges, calls, data objects) for
//!   the [`proxima_sim`] platform model;
//! * [`kernels`] — control-law building blocks (FIR filter, PID step,
//!   matrix multiply, vector normalization with FSQRT, table
//!   interpolation with FDIV, CRC);
//! * [`tvca`] — the three-task TVCA under a fixed-priority cyclic
//!   executive, with enumerable execution paths for per-path MBPTA;
//! * [`bench_suite`] — small auxiliary kernels used by the average
//!   performance experiment (E4).
//!
//! # Examples
//!
//! ```
//! use proxima_workload::tvca::{Tvca, TvcaConfig};
//! use proxima_sim::{Platform, PlatformConfig};
//!
//! let tvca = Tvca::new(TvcaConfig::default());
//! let trace = tvca.trace(tvca.paths()[0]);
//! let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
//! let result = platform.run(&trace, 0);
//! assert!(result.cycles > 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aocs;
pub mod bench_suite;
pub mod kernels;
pub mod trace;
pub mod tvca;
