//! The assembled platform: caches + TLBs + FPU + bus + DRAM + pipeline,
//! with the DET and RAND personalities and the per-run measurement
//! protocol.

use proxima_prng::{PrngKind, RandomSource, SplitMix64};

use crate::bus::BusModel;
use crate::cache::{CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
use crate::decoded::{DecodedTrace, Event};
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
    /// The set of each distinct IL1 / DL1 line under this run's seed.
    il1_sets: Vec<u64>,
    dl1_sets: Vec<u64>,
    /// The slot each distinct ITLB / DTLB page was last installed in
    /// (`usize::MAX`: not yet this run).
    itlb_slots: Vec<usize>,
    dtlb_slots: Vec<usize>,
}

impl RunTables {
    fn prepare(&mut self, trace: &DecodedTrace, il1_seed: u64, dl1_seed: u64) {
        let place = |sets: &mut Vec<u64>, cache: &CacheConfig, lines: &[u64], seed: u64| {
            let n_sets = cache.n_sets();
            sets.clear();
            sets.extend(
                lines
                    .iter()
                    .map(|&line| cache.placement.set_index(line, n_sets, seed)),
            );
        };
        place(
            &mut self.il1_sets,
            &trace.config.il1,
            &trace.il1_lines,
            il1_seed,
        );
        place(
            &mut self.dl1_sets,
            &trace.config.dl1,
            &trace.dl1_lines,
            dl1_seed,
        );
        self.itlb_slots.clear();
        self.itlb_slots.resize(trace.itlb_pages.len(), usize::MAX);
        self.dtlb_slots.clear();
        self.dtlb_slots.resize(trace.dtlb_pages.len(), usize::MAX);
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
        // experiment."
        self.il1.flush();
        self.dl1.flush();
        self.itlb.flush();
        self.dtlb.flush();

        let mut seeder = SplitMix64::new(seed);
        let il1_seed = seeder.next_u64();
        let dl1_seed = seeder.next_u64();
        self.il1.reseed(il1_seed);
        self.dl1.reseed(dl1_seed);
        let mut rng = self.config.prng.build(seeder.next_u64());
        self.tables.prepare(trace, il1_seed, dl1_seed);

        let bus = self.config.bus;
        let mem_latency_base = self.config.dram.access_latency();
        let tables = &mut self.tables;
        let mut walks: u64 = 0;
        let mut memory_cycles: u64 = 0;
        for &event in &trace.events {
            match event {
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
                    let (set, line) = (tables.il1_sets[i], trace.il1_lines[i]);
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
                    let (set, line) = (tables.dl1_sets[i], trace.dl1_lines[i]);
                    if !self.dl1.access_in_set(set, line, false, &mut rng).is_hit() {
                        memory_cycles += bus.transaction_cycles(&mut rng) + mem_latency_base;
                    }
                }
                Event::Store(i) => {
                    // Write-through, no-write-allocate: the store posts to
                    // the write buffer; the cache is updated only on hit.
                    let i = i as usize;
                    let (set, line) = (tables.dl1_sets[i], trace.dl1_lines[i]);
                    let _ = self.dl1.access_in_set(set, line, true, &mut rng);
                }
            }
        }

        let mut result = trace.fixed;
        result.cycles += walks * self.config.timing.tlb_walk_cycles + memory_cycles;
        let stats = &mut result.stats;
        let (il1, dl1) = (self.il1.stats(), self.dl1.stats());
        let (itlb, dtlb) = (self.itlb.stats(), self.dtlb.stats());
        stats.il1 = (stats.il1.0 + il1.hits, il1.misses);
        stats.dl1 = (stats.dl1.0 + dl1.hits, dl1.misses);
        stats.itlb = (stats.itlb.0 + itlb.0, itlb.1);
        stats.dtlb = (stats.dtlb.0 + dtlb.0, dtlb.1);
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
