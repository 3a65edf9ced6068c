//! A trace decoded for one platform configuration — the form every run
//! executes.
//!
//! Most of a run's work depends only on the trace and the configuration,
//! not on the seed. Decoding does that work once:
//!
//! * it folds the instruction count, base CPI, the multiply, divide,
//!   taken-branch and store extras, and the FPU stalls into constants;
//! * it keeps, in program order, only the memory-system events a run must
//!   replay: ITLB lookups, IL1 line fetches, DTLB lookups, and DL1 loads
//!   and stores. Each names its page or line by an index into the
//!   structure's table of distinct keys.
//!
//! [`Platform::execute`](crate::Platform::execute) then replays the
//! events on the platform's caches and TLBs. Its result equals what
//! stepping through every instruction would give, bit for bit:
//!
//! * **RNG order.** One RNG per run serves every structure's victim
//!   choice and the bus, so the events stay in program order.
//! * **Guaranteed hits.** An access joins a per-structure hit count
//!   instead of becoming an event only if it repeats the previous access
//!   to the same structure and that access left the entry present: any
//!   TLB repeat; an IL1 fetch of the line fetched last (a taken branch
//!   back into the same line); a DL1 access to the previous DL1 access's
//!   line when that access was a load, a folded hit, or a store with
//!   `allocate_on_write`. A no-write-allocate store may leave its line
//!   absent, so the access after it stays an event. A folded hit draws
//!   nothing and costs nothing beyond the constants.
//! * **Replacement state.** Skipping a folded hit leaves its entry's LRU
//!   stamp one tick older, but that entry was already the most recent of
//!   its structure, so the recency order `victim` reads is unchanged.
//!   Round-robin pointers move only when a victim is chosen.
//! * **Placement.** Every placement policy is a pure function of (line,
//!   set count, seed), so computing each distinct line's set once per
//!   run gives the set every access to it would compute.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::fpu::FpuModel;
use crate::inst::{Inst, InstKind};
use crate::platform::{PlatformConfig, RunResult, RunStats};

/// One memory-system access a run replays. The index names the key in
/// the structure's table of distinct pages or lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// ITLB lookup of `itlb_pages[i]`.
    Itlb(u32),
    /// IL1 fetch of `il1_lines[i]`.
    Fetch(u32),
    /// DTLB lookup of `dtlb_pages[i]`.
    Dtlb(u32),
    /// DL1 load of `dl1_lines[i]`.
    Load(u32),
    /// DL1 store to `dl1_lines[i]`.
    Store(u32),
}

/// An instruction trace decoded for one [`PlatformConfig`].
///
/// Build it once per (configuration, trace) and run it at as many seeds
/// as needed with [`Platform::execute`](crate::Platform::execute) on a
/// platform of the same configuration. [`Platform::run`](crate::Platform::run)
/// decodes and executes in one call.
///
/// # Examples
///
/// ```
/// use proxima_sim::{DecodedTrace, Inst, Platform, PlatformConfig};
///
/// let prog: Vec<Inst> = (0..100).map(|i| Inst::load(0x100 + 4 * i, 0x9000 + 32 * i)).collect();
/// let config = PlatformConfig::mbpta_compliant();
/// let decoded = DecodedTrace::new(&config, &prog);
/// assert!(decoded.events() < 3 * decoded.instructions() as usize);
///
/// let mut p = Platform::new(config);
/// assert_eq!(p.execute(&decoded, 7), p.run(&prog, 7));
/// ```
#[derive(Debug, Clone)]
pub struct DecodedTrace {
    pub(crate) config: PlatformConfig,
    /// The part of every run's result that does not depend on the seed:
    /// the instruction count, the cycles of base CPI, fixed extras and FPU
    /// stalls, and the folded hits. A run adds what its events replay.
    pub(crate) fixed: RunResult,
    pub(crate) events: Vec<Event>,
    pub(crate) itlb_pages: Vec<u64>,
    pub(crate) il1_lines: Vec<u64>,
    pub(crate) dtlb_pages: Vec<u64>,
    pub(crate) dl1_lines: Vec<u64>,
}

impl DecodedTrace {
    /// Decode `trace` for `config`.
    ///
    /// # Panics
    ///
    /// Panics if a line or page size is not a power of two, or if one
    /// structure sees more than `u32::MAX` distinct keys.
    pub fn new(config: &PlatformConfig, trace: &[Inst]) -> Self {
        let t = config.timing;
        let fpu = FpuModel::new(config.fpu_mode);
        let fetch_line_size = config.il1.line_size;
        let allocate_on_write = config.dl1.allocate_on_write;

        let mut itlb = Keys::default();
        let mut il1 = Keys::default();
        let mut dtlb = Keys::default();
        let mut dl1 = Keys::default();
        let mut events = Vec::new();
        let mut fixed = RunStats {
            instructions: trace.len() as u64,
            ..RunStats::default()
        };
        // Base CPI and the multiply, divide, taken-branch and store extras.
        let mut pipeline_cycles: u64 = 0;

        let mut last_itlb: Option<u64> = None;
        let mut last_dtlb: Option<u64> = None;
        // The line an IL1 fetch would skip (sequential code), and the
        // line IL1 was last accessed for. A taken branch clears the
        // first but not the second.
        let mut fetch_line_hot: Option<u64> = None;
        let mut last_fetch: Option<u64> = None;
        // The line the last DL1 access left present, if it surely did.
        let mut dl1_present: Option<u64> = None;

        for inst in trace {
            pipeline_cycles += t.base_cpi;

            let page = inst.pc.page(config.itlb.page_size);
            if last_itlb == Some(page) {
                fixed.itlb.0 += 1;
            } else {
                last_itlb = Some(page);
                events.push(Event::Itlb(itlb.id(page)));
            }
            let fetch_line = inst.pc.line(fetch_line_size);
            if fetch_line_hot != Some(fetch_line) {
                fetch_line_hot = Some(fetch_line);
                if last_fetch == Some(fetch_line) {
                    fixed.il1.0 += 1;
                } else {
                    last_fetch = Some(fetch_line);
                    events.push(Event::Fetch(il1.id(fetch_line)));
                }
            }

            match inst.kind {
                InstKind::IntAlu | InstKind::Nop => {}
                InstKind::IntMul => pipeline_cycles += t.int_mul_extra,
                InstKind::IntDiv => pipeline_cycles += t.int_div_extra,
                InstKind::Branch { taken } => {
                    if taken {
                        pipeline_cycles += t.taken_branch_extra;
                        // A taken branch redirects the fetch stream.
                        fetch_line_hot = None;
                    }
                }
                InstKind::FpAdd => fixed.fpu_stall_cycles += fpu.add_latency() - 1,
                InstKind::FpMul => fixed.fpu_stall_cycles += fpu.mul_latency() - 1,
                InstKind::FpDiv(class) => fixed.fpu_stall_cycles += fpu.div_latency(class) - 1,
                InstKind::FpSqrt(class) => fixed.fpu_stall_cycles += fpu.sqrt_latency(class) - 1,
                InstKind::Load(addr) | InstKind::Store(addr) => {
                    let is_store = matches!(inst.kind, InstKind::Store(_));
                    let page = addr.page(config.dtlb.page_size);
                    if last_dtlb == Some(page) {
                        fixed.dtlb.0 += 1;
                    } else {
                        last_dtlb = Some(page);
                        events.push(Event::Dtlb(dtlb.id(page)));
                    }
                    let line = addr.line(config.dl1.line_size);
                    if dl1_present == Some(line) {
                        // A hit leaves the line present, store or load.
                        fixed.dl1.0 += 1;
                    } else if is_store {
                        events.push(Event::Store(dl1.id(line)));
                        dl1_present = allocate_on_write.then_some(line);
                    } else {
                        events.push(Event::Load(dl1.id(line)));
                        dl1_present = Some(line);
                    }
                    if is_store {
                        pipeline_cycles += t.store_extra;
                    }
                }
            }
        }

        DecodedTrace {
            config: config.clone(),
            fixed: RunResult {
                cycles: pipeline_cycles + fixed.fpu_stall_cycles,
                stats: fixed,
            },
            events,
            itlb_pages: itlb.keys,
            il1_lines: il1.keys,
            dtlb_pages: dtlb.keys,
            dl1_lines: dl1.keys,
        }
    }

    /// The configuration the trace was decoded for.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Instructions in the trace.
    pub fn instructions(&self) -> u64 {
        self.fixed.stats.instructions
    }

    /// Memory-system events a run replays (accesses that are not folded
    /// guaranteed hits).
    pub fn events(&self) -> usize {
        self.events.len()
    }
}

/// The distinct keys (pages or lines) one structure sees, in first-use
/// order, with the index of each.
#[derive(Debug, Default)]
struct Keys {
    keys: Vec<u64>,
    ids: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
}

impl Keys {
    fn id(&mut self, key: u64) -> u32 {
        let next = self.keys.len();
        *self.ids.entry(key).or_insert_with(|| {
            self.keys.push(key);
            u32::try_from(next).expect("fewer than 2^32 distinct keys per structure")
        })
    }
}

/// Multiplicative hashing of one `u64` key. Page and line numbers are
/// dense integers, which one odd multiply spreads over the table's low
/// bits (its bucket index) and high bits (its tag) alike, at a fraction of
/// the default hasher's cost. The keys come from a trace the caller
/// built, not from untrusted input, so collision resistance buys nothing.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}
