//! Cycle-approximate timing model of a LEON3-class processor with
//! MBPTA-compliant hardware randomization.
//!
//! This crate is the *platform substrate* of the DATE 2017 reproduction
//! (Fernandez et al.): a trace-driven timing simulator of the paper's
//! reference architecture — a LEON3 [Figure 1] with
//!
//! * 7-stage in-order pipelined cores,
//! * 16 KB 4-way set-associative first-level instruction (IL1) and data
//!   (DL1) caches, the DL1 write-through / no-write-allocate,
//! * 64-entry instruction and data TLBs,
//! * a shared bus propagating misses to a DRAM memory controller,
//! * an FPU whose FDIV/FSQRT latency depends on operand values.
//!
//! Two platform personalities are provided:
//!
//! * [`PlatformConfig::deterministic`] — the **DET** baseline: modulo
//!   placement, LRU replacement, value-dependent FPU latency. Execution
//!   time depends on the memory layout of the program, which is exactly the
//!   hard-to-cover jitter source industrial MBTA struggles with.
//! * [`PlatformConfig::mbpta_compliant`] — the **RAND** platform of the
//!   paper: random-modulo placement and random replacement for IL1/DL1,
//!   random replacement for both TLBs, and FDIV/FSQRT forced to their
//!   worst-case latency during analysis, all driven by a SIL3-style PRNG
//!   ([`proxima_prng`]) reseeded per run.
//!
//! Execution is trace-driven: programs are sequences of [`Inst`] records
//! (instruction kind + addresses), and the pipeline model charges per-stage
//! latencies plus cache/TLB/bus/DRAM stall cycles. Absolute cycle counts are
//! not those of the FPGA board. MBPTA consumes only the shape of the
//! execution-time distribution, and here that shape comes from the same
//! sources as on the board: which lines share a set and which way a miss
//! evicts, drawn afresh each run, plus bounded bus and FPU latencies.
//!
//! A trace is decoded once per configuration into a [`DecodedTrace`]: the
//! costs that do not depend on the seed become constants, and a run
//! replays on the cache and TLB models only the memory-system events
//! whose outcome the seed can change — those of cache sets that must
//! choose a victim under the run's placement, and of TLBs that can fill
//! — bit-identical to stepping through every instruction (see
//! [`decoded`]).
//! [`Platform::execute`] runs a decoded trace; [`Platform::run`] decodes
//! and runs in one call; [`Platform::campaign`] decodes once for all its
//! runs.
//!
//! # Examples
//!
//! ```
//! use proxima_sim::{Inst, PlatformConfig, Platform};
//!
//! // A tiny straight-line program: loads sweeping one cache line.
//! let prog: Vec<Inst> = (0..64)
//!     .map(|i| Inst::load(0x1000 + 4 * i, 0x8000))
//!     .collect();
//! let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
//! let run = platform.run(&prog, 1234);
//! assert!(run.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bus;
pub mod cache;
pub mod decoded;
pub mod fpu;
pub mod mem;
pub mod pipeline;
pub mod platform;
pub mod tlb;

mod inst;

pub use addr::Addr;
pub use cache::{CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
pub use decoded::DecodedTrace;
pub use fpu::{FpuLatencyMode, FpuModel, ValueClass};
pub use inst::{Inst, InstKind};
pub use platform::{CampaignObservation, Platform, PlatformConfig, RunResult, RunStats};
pub use tlb::{Tlb, TlbConfig};
