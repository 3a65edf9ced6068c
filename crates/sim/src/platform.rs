//! The assembled platform: caches + TLBs + FPU + bus + DRAM + pipeline,
//! with the DET and RAND personalities and the per-run measurement
//! protocol.

use proxima_prng::{PrngKind, RandomSource, SplitMix64};

use crate::bus::BusModel;
use crate::cache::{CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
use crate::decoded::{mark, rank, DecodedTrace, Event, Lines, PackedEvent, Tally};
use crate::fpu::FpuLatencyMode;
use crate::inst::Inst;
use crate::mem::DramModel;
use crate::pipeline::PipelineTiming;
use crate::tlb::{Tlb, TlbConfig};

/// Complete configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Instruction L1 cache.
    pub il1: CacheConfig,
    /// Data L1 cache.
    pub dl1: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// FPU latency mode.
    pub fpu_mode: FpuLatencyMode,
    /// Shared bus model.
    pub bus: BusModel,
    /// DRAM controller model.
    pub dram: DramModel,
    /// Pipeline fixed timing.
    pub timing: PipelineTiming,
    /// Which PRNG drives the randomized resources.
    pub prng: PrngKind,
}

impl PlatformConfig {
    /// The **RAND** platform of the paper: random-modulo placement and
    /// random replacement on IL1/DL1, random replacement on both TLBs, FPU
    /// forced to worst-case latency, SIL3-style MWC PRNG.
    pub fn mbpta_compliant() -> Self {
        PlatformConfig {
            il1: CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Random),
            dl1: CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Random),
            itlb: TlbConfig::leon3(ReplacementPolicy::Random),
            dtlb: TlbConfig::leon3(ReplacementPolicy::Random),
            fpu_mode: FpuLatencyMode::ForcedWorst,
            bus: BusModel::leon3(0),
            dram: DramModel::leon3(),
            timing: PipelineTiming::leon3(),
            prng: PrngKind::Mwc,
        }
    }

    /// The RAND hardware as deployed at **operation**: caches and TLBs
    /// randomized (they always are — the randomization is the hardware),
    /// but the FPU in its natural value-dependent mode. The forced-worst
    /// FPU of [`PlatformConfig::mbpta_compliant`] is an analysis-phase
    /// configuration bit; average-performance comparisons against DET
    /// (experiment E4) must use this personality.
    pub fn mbpta_operation() -> Self {
        PlatformConfig {
            fpu_mode: FpuLatencyMode::Variable,
            ..PlatformConfig::mbpta_compliant()
        }
    }

    /// The **DET** baseline: conventional modulo placement, LRU caches and
    /// TLBs, value-dependent FPU latency.
    pub fn deterministic() -> Self {
        PlatformConfig {
            il1: CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru),
            dl1: CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru),
            itlb: TlbConfig::leon3(ReplacementPolicy::Lru),
            dtlb: TlbConfig::leon3(ReplacementPolicy::Lru),
            fpu_mode: FpuLatencyMode::Variable,
            bus: BusModel::leon3(0),
            dram: DramModel::leon3(),
            timing: PipelineTiming::leon3(),
            prng: PrngKind::Mwc,
        }
    }

    /// `true` if every jitter source is MBPTA-compliant (randomized or
    /// forced to worst case).
    pub fn is_mbpta_compliant(&self) -> bool {
        self.il1.placement.is_randomized()
            && self.il1.replacement.is_randomized()
            && self.dl1.placement.is_randomized()
            && self.dl1.replacement.is_randomized()
            && self.itlb.replacement.is_randomized()
            && self.dtlb.replacement.is_randomized()
            && self.fpu_mode == FpuLatencyMode::ForcedWorst
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::mbpta_compliant()
    }
}

/// Per-run event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instructions executed.
    pub instructions: u64,
    /// IL1 hits / misses.
    pub il1: (u64, u64),
    /// DL1 hits / misses (loads and stores).
    pub dl1: (u64, u64),
    /// ITLB hits / misses.
    pub itlb: (u64, u64),
    /// DTLB hits / misses.
    pub dtlb: (u64, u64),
    /// Cycles stalled on the FPU.
    pub fpu_stall_cycles: u64,
    /// Cycles spent in bus + DRAM for L1 misses.
    pub memory_cycles: u64,
}

/// The outcome of one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// End-to-end execution time in cycles.
    pub cycles: u64,
    /// Event counters.
    pub stats: RunStats,
}

/// One observation of a measurement campaign: the seed used and the
/// measured execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignObservation {
    /// The per-run seed (the protocol sets a fresh seed per run).
    pub seed: u64,
    /// Execution time in cycles.
    pub cycles: u64,
}

/// The assembled platform.
///
/// # Examples
///
/// Run the same program twice with the same seed — identical timing — and
/// with different seeds — (typically) different timing on RAND:
///
/// ```
/// use proxima_sim::{Inst, Platform, PlatformConfig};
///
/// let prog: Vec<Inst> = (0..100).map(|i| Inst::load(0x100 + 4 * i, 0x9000 + 32 * i)).collect();
/// let mut p = Platform::new(PlatformConfig::mbpta_compliant());
/// assert_eq!(p.run(&prog, 7).cycles, p.run(&prog, 7).cycles);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    config: PlatformConfig,
    il1: SetAssocCache,
    dl1: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    tables: RunTables,
}

/// Per-run lookup tables over a decoded trace's distinct keys, kept
/// between runs so a run allocates nothing.
#[derive(Debug, Clone, Default)]
struct RunTables {
    il1: SetTable,
    dl1: SetTable,
    /// The slot each distinct ITLB / DTLB page was last installed in
    /// (`usize::MAX`: not yet this run).
    itlb_slots: Vec<usize>,
    dtlb_slots: Vec<usize>,
    /// One bit per event: set for the events this run replays.
    replay: Vec<u64>,
}

/// One L1 cache's placement of a decoded trace's lines under one run's
/// seed. Bitmaps over sets have one bit per set, in words of 64.
#[derive(Debug, Clone, Default)]
struct SetTable {
    /// The set of each line this run replays an event of; the entries of
    /// other lines are stale.
    sets: Vec<u64>,
    /// Each window's placement offset this run.
    offsets: Vec<u64>,
    /// The allocating lines each set receives, bit-sliced: bit `b` of a
    /// set's count is its bit in `counts[b]`, and its bit in the last
    /// bitmap is set once the count no longer fits.
    counts: Vec<u64>,
    /// Each window's bitmap rotated by its offset: the sets its lines
    /// take.
    rotated: Vec<u64>,
    /// The contended sets: more allocating lines than ways.
    contended: Vec<u64>,
    /// The sets this run's replay touches, which the next run resets.
    touched: Vec<u64>,
    /// The allocating lines of contended sets, each with the index of
    /// the previous one of its set (`NONE`: the first).
    members: Vec<(u32, u32)>,
    /// The index in `members` of each set's last line (`NONE`: none).
    last: Vec<u32>,
    /// One contended set's merge cursors: for each of its lines not yet
    /// done, the range of positions left.
    heads: Vec<(u32, u32)>,
}

impl SetTable {
    /// Place the lines of `lines` under `seed`, a window at a time, and
    /// classify their sets. Mark in `replay` the events of contended sets
    /// that can change what their set holds and, if `replay_fills`, the
    /// fill of each line in a quiet set; return what every other cache
    /// event gives.
    fn prepare(
        &mut self,
        cache: &CacheConfig,
        lines: &Lines,
        events: &[PackedEvent],
        seed: u64,
        replay_fills: bool,
        replay: &mut [u64],
    ) -> Tally {
        let n_sets = cache.n_sets();
        let words = lines.words;
        // Counts up to `2^planes - 1` are exact, and `ways` is below that.
        let planes = (u64::BITS - cache.ways.leading_zeros()) as usize;
        self.offsets.clear();
        self.counts.clear();
        self.counts.resize((planes + 1) * words, 0);
        self.rotated.resize(lines.window_bits.len(), 0);
        for ((window, bits), rotated) in lines.windows().zip(self.rotated.chunks_mut(words)) {
            let offset = cache.placement.offset(window.key, n_sets, seed);
            self.offsets.push(offset);
            rotate(bits, offset, n_sets, rotated);
            // Add one to the count of every set the window's lines take.
            for (i, &add) in rotated.iter().enumerate() {
                let mut carry = add;
                for plane in self.counts[i..].iter_mut().step_by(words).take(planes) {
                    let sum = *plane ^ carry;
                    carry &= *plane;
                    *plane = sum;
                }
                self.counts[planes * words + i] |= carry;
            }
        }
        // A set is contended if its count exceeds `ways`: compare the
        // counts against `ways` from the top bit down.
        self.contended.clear();
        self.contended.extend((0..words).map(|i| {
            let (mut above, mut equal) = (self.counts[planes * words + i], !0);
            for b in (0..planes).rev() {
                let bit = self.counts[b * words + i];
                if cache.ways >> b & 1 == 1 {
                    equal &= bit;
                } else {
                    above |= equal & bit;
                    equal &= !bit;
                }
            }
            above
        }));

        // Visit the lines of contended sets only, chaining each set's.
        self.members.clear();
        self.last.resize(n_sets as usize, NONE);
        for (((window, bits), rotated), &offset) in lines
            .windows()
            .zip(self.rotated.chunks(words))
            .zip(&self.offsets)
        {
            for (w, (&taken, &contended)) in rotated.iter().zip(&self.contended).enumerate() {
                let mut hit = taken & contended;
                while hit != 0 {
                    let set = w * 64 + hit.trailing_zeros() as usize;
                    hit &= hit - 1;
                    let x = (set as u64 + n_sets - offset) & (n_sets - 1);
                    let line = lines.order[(window.first + rank(bits, x as usize)) as usize];
                    self.members.push((line, self.last[set]));
                    self.last[set] = (self.members.len() - 1) as u32;
                }
            }
        }

        // A contended line's events give what the replay and the fold
        // below count; every other line gives its decoded outcome.
        let mut quiet = lines.total;
        self.sets.resize(lines.keys.len(), 0);
        let allocates = |pos: u32| {
            cache.allocate_on_write || !matches!(events[pos as usize].get(), Event::Store(_))
        };
        for (w, &word) in self.contended.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let set = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.heads.clear();
                let mut member = std::mem::replace(&mut self.last[set], NONE);
                while member != NONE {
                    let (line, previous) = self.members[member as usize];
                    let line = line as usize;
                    self.sets[line] = set as u64;
                    quiet.remove(&lines.outcomes[line]);
                    self.heads
                        .push((lines.starts[line], lines.starts[line + 1]));
                    member = previous;
                }
                quiet.hits += fold_set(&lines.positions, &mut self.heads, allocates, replay);
            }
        }

        self.touched.clone_from(&self.contended);
        if replay_fills {
            // Every fill draws the bus: replay the quiet lines' fills too.
            for ((window, bits), &offset) in lines.windows().zip(&self.offsets) {
                let mut next = window.first as usize;
                for (w, &word) in bits.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let x = (w * 64) as u64 + u64::from(word.trailing_zeros());
                        word &= word - 1;
                        let set = (x + offset) & (n_sets - 1);
                        let line = lines.order[next] as usize;
                        next += 1;
                        let quiet_set = self.contended[set as usize / 64] >> (set % 64) & 1 == 0;
                        if let (true, Some(pos)) = (quiet_set, lines.outcomes[line].fill) {
                            // The cache model counts this miss when it
                            // replays it.
                            mark(replay, pos);
                            self.sets[line] = set;
                            self.touched[set as usize / 64] |= 1 << (set % 64);
                            quiet.misses -= 1;
                            quiet.fills -= 1;
                        }
                    }
                }
            }
        }
        quiet
    }
}

/// No entry of [`SetTable::members`].
const NONE: u32 = u32::MAX;

/// Mark for replay the events of one contended set that can change what
/// the set holds, given `heads`, the range of `positions` each of the
/// set's allocating lines spans; return how many events were folded as
/// hits.
///
/// The set's events are taken in program order, one run of a line's
/// events at a time, up to the next event of another of its lines. A
/// run's events up to and including its first allocating one are
/// replayed: the line may be absent until then. The rest hit: nothing
/// else entered the set since the line was made present, and the line
/// is already the most recent of its set.
fn fold_set(
    positions: &[u32],
    heads: &mut Vec<(u32, u32)>,
    allocates: impl Fn(u32) -> bool,
    replay: &mut [u64],
) -> u64 {
    let mut folded = 0;
    while !heads.is_empty() {
        // The line whose next event comes first, and the first event of
        // any other line after it.
        let (mut first, mut at, mut bound) = (0, u32::MAX, u32::MAX);
        for (j, &(cursor, _)) in heads.iter().enumerate() {
            let pos = positions[cursor as usize];
            if pos < at {
                (first, at, bound) = (j, pos, at);
            } else if pos < bound {
                bound = pos;
            }
        }
        let (mut cursor, end) = heads[first];
        loop {
            let pos = positions[cursor as usize];
            mark(replay, pos);
            cursor += 1;
            if allocates(pos) || cursor == end || positions[cursor as usize] > bound {
                break;
            }
        }
        let run = positions[cursor as usize..end as usize].partition_point(|&pos| pos < bound);
        folded += run as u64;
        cursor += run as u32;
        if cursor == end {
            heads.swap_remove(first);
        } else {
            heads[first].0 = cursor;
        }
    }
    folded
}

/// Rotate the `n_sets`-bit bitmap `bits` up by `by` places into `out`:
/// bit `(x + by) mod n_sets` of `out` is bit `x` of `bits`.
fn rotate(bits: &[u64], by: u64, n_sets: u64, out: &mut [u64]) {
    if n_sets < 64 {
        let word = bits[0];
        out[0] = if by == 0 {
            word
        } else {
            (word << by | word >> (n_sets - by)) & ((1 << n_sets) - 1)
        };
        return;
    }
    // `words` is a power of two.
    let last = bits.len() - 1;
    let (skip, shift) = ((by / 64) as usize, by % 64);
    for (i, out) in out.iter_mut().enumerate() {
        let low = bits[i.wrapping_sub(skip) & last];
        *out = if shift == 0 {
            low
        } else {
            low << shift | bits[i.wrapping_sub(skip + 1) & last] >> (64 - shift)
        };
    }
}

impl Platform {
    /// Assemble a platform from its configuration.
    pub fn new(config: PlatformConfig) -> Self {
        Platform {
            il1: SetAssocCache::new(config.il1),
            dl1: SetAssocCache::new(config.dl1),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            tables: RunTables::default(),
            config,
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Execute `trace` once under the paper's measurement protocol:
    /// caches and TLBs are flushed, the PRNG is reseeded from `seed`
    /// (independent per-resource streams are derived from it), and the
    /// program runs to completion.
    ///
    /// This decodes `trace` first. To run one trace at many seeds, decode
    /// it once with [`DecodedTrace::new`] and call [`Platform::execute`].
    pub fn run(&mut self, trace: &[Inst], seed: u64) -> RunResult {
        let decoded = DecodedTrace::new(&self.config, trace);
        self.execute(&decoded, seed)
    }

    /// Execute a decoded trace once under the measurement protocol of
    /// [`Platform::run`], with the same result bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `trace` was decoded for another configuration.
    pub fn execute(&mut self, trace: &DecodedTrace, seed: u64) -> RunResult {
        assert!(
            trace.config == self.config,
            "trace was decoded for a different platform configuration"
        );
        // Protocol: "We flush caches, reset the FPGA and reload the
        // executable across executions … We also set a new seed for each
        // experiment." Only replayed events change a cache, so only the
        // sets the last run touched hold anything.
        self.il1.flush_sets(&self.tables.il1.touched);
        self.dl1.flush_sets(&self.tables.dl1.touched);
        self.itlb.flush();
        self.dtlb.flush();

        let mut seeder = SplitMix64::new(seed);
        let il1_seed = seeder.next_u64();
        let dl1_seed = seeder.next_u64();
        self.il1.reseed(il1_seed);
        self.dl1.reseed(dl1_seed);
        let mut rng = self.config.prng.build(seeder.next_u64());

        // A fill that draws nothing costs the same at every position.
        let bus = self.config.bus;
        let mem_latency_base = self.config.dram.access_latency();
        let quiet_fill_cycles = bus.fixed_transaction_cycles().map(|c| c + mem_latency_base);
        let replay_fills = quiet_fill_cycles.is_none();
        let tables = &mut self.tables;
        tables.replay.clear();
        tables.replay.extend_from_slice(&trace.tlb_events);
        let quiet_il1 = tables.il1.prepare(
            &self.config.il1,
            &trace.il1,
            &trace.events,
            il1_seed,
            replay_fills,
            &mut tables.replay,
        );
        let quiet_dl1 = tables.dl1.prepare(
            &self.config.dl1,
            &trace.dl1,
            &trace.events,
            dl1_seed,
            replay_fills,
            &mut tables.replay,
        );
        tables.itlb_slots.clear();
        tables.itlb_slots.resize(trace.itlb_pages.len(), usize::MAX);
        tables.dtlb_slots.clear();
        tables.dtlb_slots.resize(trace.dtlb_pages.len(), usize::MAX);

        let mut walks: u64 = 0;
        let mut memory_cycles: u64 =
            (quiet_il1.fills + quiet_dl1.fills) * quiet_fill_cycles.unwrap_or(0);
        // The replayed events in program order: the set bits of `replay`,
        // a word at a time.
        for (w, &word) in tables.replay.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let pos = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                match trace.events[pos].get() {
                    Event::Itlb(i) => {
                        let i = i as usize;
                        let page = trace.itlb_pages[i];
                        if !self
                            .itlb
                            .access_page(page, &mut tables.itlb_slots[i], &mut rng)
                        {
                            walks += 1;
                        }
                    }
                    Event::Fetch(i) => {
                        let i = i as usize;
                        let (set, line) = (tables.il1.sets[i], trace.il1.keys[i]);
                        if !self.il1.access_in_set(set, line, false, &mut rng).is_hit() {
                            memory_cycles += bus.transaction_cycles(&mut rng) + mem_latency_base;
                        }
                    }
                    Event::Dtlb(i) => {
                        let i = i as usize;
                        let page = trace.dtlb_pages[i];
                        if !self
                            .dtlb
                            .access_page(page, &mut tables.dtlb_slots[i], &mut rng)
                        {
                            walks += 1;
                        }
                    }
                    Event::Load(i) => {
                        let i = i as usize;
                        let (set, line) = (tables.dl1.sets[i], trace.dl1.keys[i]);
                        if !self.dl1.access_in_set(set, line, false, &mut rng).is_hit() {
                            memory_cycles += bus.transaction_cycles(&mut rng) + mem_latency_base;
                        }
                    }
                    Event::Store(i) => {
                        // Write-through, no-write-allocate: the store posts
                        // to the write buffer; the cache is updated only on
                        // hit.
                        let i = i as usize;
                        let (set, line) = (tables.dl1.sets[i], trace.dl1.keys[i]);
                        let _ = self.dl1.access_in_set(set, line, true, &mut rng);
                    }
                }
            }
        }

        let mut result = trace.fixed;
        result.cycles += walks * self.config.timing.tlb_walk_cycles + memory_cycles;
        let stats = &mut result.stats;
        let (il1, dl1) = (self.il1.stats(), self.dl1.stats());
        let (itlb, dtlb) = (self.itlb.stats(), self.dtlb.stats());
        stats.il1.0 += il1.hits + quiet_il1.hits;
        stats.il1.1 += il1.misses + quiet_il1.misses;
        stats.dl1.0 += dl1.hits + quiet_dl1.hits;
        stats.dl1.1 += dl1.misses + quiet_dl1.misses;
        stats.itlb = (stats.itlb.0 + itlb.0, stats.itlb.1 + itlb.1);
        stats.dtlb = (stats.dtlb.0 + dtlb.0, stats.dtlb.1 + dtlb.1);
        stats.memory_cycles = memory_cycles;
        result
    }

    /// Run a full measurement campaign: `runs` executions of `trace`, with
    /// per-run seeds `base_seed, base_seed+1, …` (each expanded through the
    /// platform seeder), returning one observation per run. The trace is
    /// decoded once; pass it by value to free it as soon as it is.
    pub fn campaign(
        &mut self,
        trace: impl AsRef<[Inst]>,
        runs: usize,
        base_seed: u64,
    ) -> Vec<CampaignObservation> {
        let decoded = DecodedTrace::new(&self.config, trace.as_ref());
        drop(trace);
        (0..runs as u64)
            .map(|i| {
                let seed = base_seed.wrapping_add(i);
                CampaignObservation {
                    seed,
                    cycles: self.execute(&decoded, seed).cycles,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpu::ValueClass;
    use crate::inst::InstKind;

    fn loads(n: u64, stride: u64) -> Vec<Inst> {
        (0..n)
            .map(|i| Inst::load(0x100 + 4 * i, 0x10_0000 + stride * i))
            .collect()
    }

    #[test]
    fn same_seed_same_cycles() {
        let prog = loads(500, 32);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let a = p.run(&prog, 42);
        let b = p.run(&prog, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn rand_platform_cycles_vary_with_seed() {
        // A working set above DL1 capacity (600 lines > 512): how the lines
        // collide, and hence the execution time, is seed-dependent.
        let prog: Vec<Inst> = (0..3000)
            .map(|i| Inst::load(0x100 + 4 * (i % 64), 0x10_0000 + 4096 * (i % 600)))
            .collect();
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let times: std::collections::HashSet<u64> =
            (0..20).map(|s| p.run(&prog, s).cycles).collect();
        assert!(times.len() > 1, "randomized platform should show jitter");
    }

    #[test]
    fn det_platform_is_seed_insensitive() {
        let prog = loads(2000, 64);
        let mut p = Platform::new(PlatformConfig::deterministic());
        let t0 = p.run(&prog, 0).cycles;
        for s in 1..10 {
            assert_eq!(
                p.run(&prog, s).cycles,
                t0,
                "DET must not depend on the seed"
            );
        }
    }

    #[test]
    fn compliance_flags() {
        assert!(PlatformConfig::mbpta_compliant().is_mbpta_compliant());
        assert!(!PlatformConfig::deterministic().is_mbpta_compliant());
        let mut half = PlatformConfig::mbpta_compliant();
        half.fpu_mode = FpuLatencyMode::Variable;
        assert!(!half.is_mbpta_compliant());
    }

    #[test]
    fn operation_mode_keeps_randomized_caches_but_variable_fpu() {
        let op = PlatformConfig::mbpta_operation();
        assert!(op.il1.placement.is_randomized());
        assert!(op.dl1.replacement.is_randomized());
        assert_eq!(op.fpu_mode, FpuLatencyMode::Variable);
        // Not analysis-compliant (the FPU bit is off) by design.
        assert!(!op.is_mbpta_compliant());
    }

    #[test]
    fn fpu_worst_mode_dominates_variable_mode() {
        let prog: Vec<Inst> = (0..200)
            .map(|i| Inst::new(0x100 + 4 * i, InstKind::FpDiv(ValueClass::Fast)))
            .collect();
        let mut worst = Platform::new(PlatformConfig::mbpta_compliant());
        let mut var_cfg = PlatformConfig::mbpta_compliant();
        var_cfg.fpu_mode = FpuLatencyMode::Variable;
        let mut variable = Platform::new(var_cfg);
        assert!(
            worst.run(&prog, 1).cycles > variable.run(&prog, 1).cycles,
            "forced-worst FPU must cost more on fast operands"
        );
    }

    #[test]
    fn cache_misses_cost_cycles() {
        // Same instruction count; one program fits a line, the other
        // strides across pages.
        let hot = loads(1000, 0);
        let cold = loads(1000, 4096);
        let mut p = Platform::new(PlatformConfig::deterministic());
        let t_hot = p.run(&hot, 0).cycles;
        let t_cold = p.run(&cold, 0).cycles;
        assert!(t_cold > t_hot * 2, "hot={t_hot} cold={t_cold}");
    }

    #[test]
    fn stats_are_populated() {
        let prog = loads(100, 64);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let r = p.run(&prog, 3);
        assert_eq!(r.stats.instructions, 100);
        assert!(r.stats.dl1.0 + r.stats.dl1.1 == 100);
        assert!(r.stats.memory_cycles > 0);
    }

    #[test]
    fn campaign_produces_one_observation_per_run() {
        let prog = loads(50, 32);
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let obs = p.campaign(&prog, 25, 100);
        assert_eq!(obs.len(), 25);
        assert_eq!(obs[0].seed, 100);
        assert_eq!(obs[24].seed, 124);
        assert!(obs.iter().all(|o| o.cycles > 0));
    }

    #[test]
    fn taken_branch_costs_more_than_not_taken() {
        let taken: Vec<Inst> = (0..100)
            .map(|i| Inst::branch(0x100 + 4 * i, true))
            .collect();
        let not_taken: Vec<Inst> = (0..100)
            .map(|i| Inst::branch(0x100 + 4 * i, false))
            .collect();
        let mut p = Platform::new(PlatformConfig::deterministic());
        assert!(p.run(&taken, 0).cycles > p.run(&not_taken, 0).cycles);
    }

    /// The RAND platform with a 2 KB IL1 and a 4 KB DL1: the trace below
    /// contends for sets in both, at every seed.
    fn small_l1() -> PlatformConfig {
        let rand = PlatformConfig::mbpta_compliant();
        PlatformConfig {
            il1: CacheConfig {
                size_bytes: 2 * 1024,
                ..rand.il1
            },
            dl1: CacheConfig {
                size_bytes: 4 * 1024,
                ..rand.dl1
            },
            ..rand
        }
    }

    /// A fixed trace in the shape of a control loop: a straight run of
    /// code wider than the IL1, then a loop that walks two arrays of
    /// words in step and stores into a third, so each line comes back
    /// after accesses to other lines, and more lines than the DL1 holds.
    fn control_loop() -> Vec<Inst> {
        let mut words = SplitMix64::new(2017);
        let mut trace = Vec::new();
        for round in 0..4u64 {
            trace.extend((0..800).map(|i| Inst::alu(0x8000 + 4 * i)));
            for i in 0..640u64 {
                let pc = 0x4000 + 4 * (i % 6);
                let j = (i + 97 * round) % 1024;
                trace.push(Inst::load(pc, 0x10_0000 + 4 * j));
                trace.push(Inst::load(pc + 4, 0x10_8000 + 4 * j));
                if words.next_u64() % 4 == 0 {
                    trace.push(Inst::store(pc + 8, 0x11_0000 + 4 * (j % 384)));
                }
                trace.push(Inst::branch(pc + 12, i % 6 == 5));
            }
        }
        trace
    }

    #[test]
    fn replayed_events_are_counted_work() {
        // Deterministic counted work, not wall clock: the events a run
        // replays, summed over 64 seeds of a trace whose sets contend.
        let config = small_l1();
        let decoded = DecodedTrace::new(&config, &control_loop());
        let mut platform = Platform::new(config);
        let replayed: u64 = (0..64)
            .map(|seed| {
                platform.execute(&decoded, seed);
                let bits = &platform.tables.replay;
                bits.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
            })
            .sum();
        assert_eq!(
            replayed,
            REPLAYED_EVENTS,
            "events replayed over 64 seeds moved from {REPLAYED_EVENTS} to {replayed} \
             (of {} decoded): a lower count is an improvement, to be pinned here; a \
             higher one is a regression",
            64 * decoded.events()
        );
    }

    /// The pinned value of [`replayed_events_are_counted_work`].
    const REPLAYED_EVENTS: u64 = 75_532;

    #[test]
    fn a_reused_platform_runs_every_seed_as_a_fresh_one() {
        // A run empties only the sets the run before it touched, so one
        // platform must give, for seeds taken in either order, what a
        // fresh platform gives each seed.
        let trace = control_loop();
        for config in [
            small_l1(),
            PlatformConfig {
                bus: BusModel::leon3(3),
                ..small_l1()
            },
            PlatformConfig::deterministic(),
        ] {
            let decoded = DecodedTrace::new(&config, &trace);
            let fresh: Vec<RunResult> = (0..24)
                .map(|seed| Platform::new(config.clone()).execute(&decoded, seed))
                .collect();
            let mut platform = Platform::new(config);
            let forwards: Vec<RunResult> = (0..24)
                .map(|seed| platform.execute(&decoded, seed))
                .collect();
            let mut backwards: Vec<RunResult> = (0..24)
                .rev()
                .map(|seed| platform.execute(&decoded, seed))
                .collect();
            backwards.reverse();
            assert_eq!(forwards, fresh);
            assert_eq!(backwards, fresh);
        }
    }

    #[test]
    fn store_miss_does_not_pollute_cache() {
        // Stores to a cold region must not evict: program of stores then
        // loads to a *different* region should cost the same as loads alone.
        let mut prog: Vec<Inst> = (0..128)
            .map(|i| Inst::store(0x100, 0x50_0000 + 32 * i))
            .collect();
        let loads_only: Vec<Inst> = (0..128)
            .map(|i| Inst::load(0x100, 0x20_0000 + 32 * i))
            .collect();
        prog.extend(loads_only.iter().copied());
        let mut p = Platform::new(PlatformConfig::deterministic());
        let full = p.run(&prog, 0);
        // The loads in the combined program missed exactly as often as alone.
        let alone = p.run(&loads_only, 0);
        assert_eq!(full.stats.dl1.1, alone.stats.dl1.1 + 128); // 128 store misses
    }
}
