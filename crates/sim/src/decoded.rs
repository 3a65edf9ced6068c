//! A trace decoded for one platform configuration — the form every run
//! executes.
//!
//! Most of a run's work depends only on the trace and the configuration,
//! not on the seed. Decoding does that work once:
//!
//! * it folds the instruction count, base CPI, the multiply, divide,
//!   taken-branch and store extras, and the FPU stalls into constants;
//! * it keeps, in program order, only the memory-system events a run may
//!   replay: ITLB lookups, IL1 line fetches, DTLB lookups, and DL1 loads
//!   and stores. Each names its page or line by an index into the
//!   structure's table of distinct keys;
//! * it folds every lookup of a TLB that can never fill into constants;
//! * it gives each distinct IL1 and DL1 line the outcome its events have
//!   when nothing is evicted, and the positions of those events.
//!
//! [`Platform::execute`](crate::Platform::execute) then replays, in
//! program order, only the events whose outcome can depend on the seed,
//! on the platform's caches and TLBs. Every other access takes the
//! outcome decoded for it. The result equals what stepping through every
//! instruction would give, bit for bit:
//!
//! * **RNG order.** One RNG per run serves every structure's victim
//!   choice and the bus, so replayed events stay in program order. Only
//!   two things draw: a victim choice in a full set or TLB, and an L1
//!   fill when the bus has interferers.
//! * **Guaranteed hits.** An access joins a per-structure hit count
//!   instead of becoming an event only if it repeats the previous access
//!   to the same structure and that access left the entry present: any
//!   TLB repeat; an IL1 fetch of the line fetched last (a taken branch
//!   back into the same line); a DL1 access to the previous DL1 access's
//!   line when that access was a load, a folded hit, or a store with
//!   `allocate_on_write`. A no-write-allocate store may leave its line
//!   absent, so the access after it stays an event. A folded hit draws
//!   nothing and costs nothing beyond the constants.
//! * **TLBs that cannot fill.** A TLB that sees no more distinct pages
//!   than it has entries never evicts: each page misses once, into a free
//!   slot, without a draw, and every other lookup hits. Its lookups
//!   become constants (misses equal the distinct pages, and their walks
//!   join the fixed cycles) and leave no event. A TLB that sees more
//!   pages keeps its events, and every run replays them.
//! * **Quiet sets.** Loads and fetches allocate their line; stores
//!   allocate only with `allocate_on_write`. A set that at most `ways`
//!   allocating lines map to under a run's placement never chooses a
//!   victim, so each of its lines has the outcome decoded for it and the
//!   set draws nothing; nothing reads its LRU stamps or its round-robin
//!   pointer. A run replays every event of a line in a *contended* set
//!   (more allocating lines than ways), so recency and round-robin order
//!   inside it are exact; stamps are only ever compared within one set.
//!   When the bus has interferers, every fill draws, so a run also
//!   replays each quiet line's fill, at its own position.
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

/// One memory-system access a run may replay. The index names the key in
/// the structure's table of distinct pages or lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// ITLB lookup of `itlb_pages[i]`.
    Itlb(u32),
    /// IL1 fetch of `il1.keys[i]`.
    Fetch(u32),
    /// DTLB lookup of `dtlb_pages[i]`.
    Dtlb(u32),
    /// DL1 load of `dl1.keys[i]`.
    Load(u32),
    /// DL1 store to `dl1.keys[i]`.
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
    /// the instruction count, the cycles of base CPI, fixed extras, FPU
    /// stalls and the walks of folded TLBs, the folded hits, and the
    /// lookups of folded TLBs. A run adds what its events give.
    pub(crate) fixed: RunResult,
    pub(crate) events: Vec<Event>,
    /// One bit per event, set for the lookups of a TLB that was not
    /// folded: every run replays them.
    pub(crate) tlb_events: Vec<u64>,
    pub(crate) itlb_pages: Vec<u64>,
    pub(crate) dtlb_pages: Vec<u64>,
    pub(crate) il1: Lines,
    pub(crate) dl1: Lines,
}

impl DecodedTrace {
    /// Decode `trace` for `config`.
    ///
    /// # Panics
    ///
    /// Panics if a line or page size is not a power of two, if one
    /// structure sees more than `u32::MAX` distinct keys, or if the trace
    /// has more than `u32::MAX` events.
    pub fn new(config: &PlatformConfig, trace: &[Inst]) -> Self {
        // Scan as if neither TLB could fill. A TLB that turns out to see
        // more pages than it has entries is scanned again, keeping its
        // lookups as events.
        let mut scan = Scan::new(config, trace, false, false);
        let keep_itlb = scan.itlb.keys.len() > config.itlb.entries;
        let keep_dtlb = scan.dtlb.keys.len() > config.dtlb.entries;
        if keep_itlb || keep_dtlb {
            scan = Scan::new(config, trace, keep_itlb, keep_dtlb);
        }
        let Scan {
            mut fixed,
            pipeline_cycles,
            data_accesses,
            events,
            mut itlb,
            il1,
            mut dtlb,
            dl1,
        } = scan;
        assert!(
            u32::try_from(events.len()).is_ok(),
            "a decoded trace holds at most 2^32 - 1 events"
        );

        // A TLB that cannot fill: each page misses once, and every other
        // lookup hits. No event names its pages.
        let mut walks = 0;
        for (keep, pages, lookups, counts) in [
            (keep_itlb, &mut itlb, fixed.instructions, &mut fixed.itlb),
            (keep_dtlb, &mut dtlb, data_accesses, &mut fixed.dtlb),
        ] {
            if !keep {
                let distinct = pages.keys.len() as u64;
                *counts = (lookups - distinct, distinct);
                walks += distinct;
                pages.keys = Vec::new();
            }
        }

        // Mark the lookups of kept TLBs, and give each line the outcome
        // of its events.
        let allocate_on_write = config.dl1.allocate_on_write;
        let mut il1 = Lines::new(il1.keys);
        let mut dl1 = Lines::new(dl1.keys);
        let mut tlb_events = vec![0; events.len().div_ceil(64)];
        for (pos, &e) in events.iter().enumerate() {
            let pos = pos as u32;
            match e {
                Event::Itlb(_) | Event::Dtlb(_) => mark(&mut tlb_events, pos),
                Event::Fetch(i) => il1.note(i, pos, true, true),
                Event::Load(i) => dl1.note(i, pos, true, true),
                Event::Store(i) => dl1.note(i, pos, allocate_on_write, false),
            }
        }
        // Sort the event positions by line, walking backwards so that
        // each line's positions come out in program order.
        il1.count();
        dl1.count();
        for (pos, &e) in events.iter().enumerate().rev() {
            match e {
                Event::Fetch(i) => il1.place(i, pos as u32),
                Event::Load(i) | Event::Store(i) => dl1.place(i, pos as u32),
                Event::Itlb(_) | Event::Dtlb(_) => {}
            }
        }

        DecodedTrace {
            config: config.clone(),
            fixed: RunResult {
                cycles: pipeline_cycles
                    + fixed.fpu_stall_cycles
                    + walks * config.timing.tlb_walk_cycles,
                stats: fixed,
            },
            events,
            tlb_events,
            itlb_pages: itlb.keys,
            dtlb_pages: dtlb.keys,
            il1,
            dl1,
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

    /// Memory-system events a run may replay: accesses that are neither
    /// folded guaranteed hits nor lookups of a TLB that cannot fill.
    pub fn events(&self) -> usize {
        self.events.len()
    }
}

/// One walk over a trace: the seed-independent costs, the events, and
/// the distinct keys of each structure.
struct Scan {
    /// Counters so far: the instruction count, FPU stalls and folded
    /// repeat hits.
    fixed: RunStats,
    /// Base CPI and the multiply, divide, taken-branch and store extras.
    pipeline_cycles: u64,
    /// Loads and stores: the DTLB's lookups.
    data_accesses: u64,
    events: Vec<Event>,
    itlb: Keys,
    il1: Keys,
    dtlb: Keys,
    dl1: Keys,
}

impl Scan {
    /// Walk `trace`, keeping ITLB and DTLB lookups as events only if
    /// `keep_itlb` and `keep_dtlb`; the pages of both are counted either
    /// way.
    fn new(config: &PlatformConfig, trace: &[Inst], keep_itlb: bool, keep_dtlb: bool) -> Self {
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
        let mut pipeline_cycles: u64 = 0;
        let mut data_accesses: u64 = 0;

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
                let id = itlb.id(page);
                if keep_itlb {
                    events.push(Event::Itlb(id));
                }
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
                    data_accesses += 1;
                    let is_store = matches!(inst.kind, InstKind::Store(_));
                    let page = addr.page(config.dtlb.page_size);
                    if last_dtlb == Some(page) {
                        fixed.dtlb.0 += 1;
                    } else {
                        last_dtlb = Some(page);
                        let id = dtlb.id(page);
                        if keep_dtlb {
                            events.push(Event::Dtlb(id));
                        }
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
        Scan {
            fixed,
            pipeline_cycles,
            data_accesses,
            events,
            itlb,
            il1,
            dtlb,
            dl1,
        }
    }
}

/// The distinct lines one L1 cache sees, each with the outcome of its
/// events when nothing is evicted and their positions among the events.
#[derive(Debug, Clone)]
pub(crate) struct Lines {
    pub(crate) keys: Vec<u64>,
    pub(crate) outcomes: Vec<LineOutcome>,
    /// `positions[starts[i]..starts[i + 1]]` are the positions of line
    /// `i`'s events, in program order.
    starts: Vec<u32>,
    positions: Vec<u32>,
}

/// What one line's events give when nothing is evicted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LineOutcome {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// The position of the load or fetch that misses and brings the line
    /// in, if one does: the only event of the line that pays the bus.
    pub(crate) fill: Option<u32>,
    /// Whether any event allocates the line, that is, whether the line
    /// ever takes a way of its set.
    pub(crate) allocates: bool,
}

impl Lines {
    fn new(keys: Vec<u64>) -> Self {
        Lines {
            outcomes: vec![LineOutcome::default(); keys.len()],
            starts: vec![0; keys.len() + 1],
            positions: Vec::new(),
            keys,
        }
    }

    /// Take the event at `pos` on line `i`, in program order. It
    /// `allocates` the line on a miss (a load or fetch always does, a
    /// store only with `allocate_on_write`), and `fills` it, paying the
    /// bus, if it is a load or fetch.
    fn note(&mut self, i: u32, pos: u32, allocates: bool, fills: bool) {
        // With nothing evicted, a line is present from the access that
        // allocates it on.
        let line = &mut self.outcomes[i as usize];
        if line.allocates {
            line.hits += 1;
        } else {
            line.misses += 1;
            line.allocates = allocates;
            if fills {
                line.fill = Some(pos);
            }
        }
    }

    /// Make room for the positions of the events noted: `starts[i]`
    /// becomes the end of line `i`'s range, for [`Lines::place`] to
    /// count down from.
    fn count(&mut self) {
        let mut total = 0;
        for (end, line) in self.starts.iter_mut().zip(&self.outcomes) {
            total += (line.hits + line.misses) as u32;
            *end = total;
        }
        self.starts[self.outcomes.len()] = total;
        self.positions = vec![0; total as usize];
    }

    /// Record the event at `pos` on line `i`. Called for each event in
    /// reverse program order, it leaves `starts[i]` at the start of line
    /// `i`'s range.
    fn place(&mut self, i: u32, pos: u32) {
        let start = &mut self.starts[i as usize];
        *start -= 1;
        self.positions[*start as usize] = pos;
    }

    /// The positions of line `i`'s events, in program order.
    pub(crate) fn events(&self, i: usize) -> &[u32] {
        &self.positions[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Set bit `pos` of a bitmap over event positions.
pub(crate) fn mark(bits: &mut [u64], pos: u32) {
    bits[pos as usize / 64] |= 1 << (pos % 64);
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
