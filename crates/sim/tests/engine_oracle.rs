//! The decoded engine against the per-instruction loop it replaced.
//!
//! [`Oracle::run`] is the simulator's old `Platform::run`, kept verbatim:
//! it steps through every instruction and sends every access to the
//! public cache and TLB models. The decoded engine must give the same
//! `RunResult` — cycles and every counter — on any trace, configuration
//! and seed. The TVCA traces never evict a TLB entry, rarely contend for
//! a cache set, and run only random-modulo placement with random
//! replacement, so these traces are built to reach what TVCA does not:
//! few pages and lines (TLBs and sets overflow, so runs replay contended
//! sets beside quiet ones), taken branches back into the fetched line,
//! store misses followed by loads of the same line, and pages alternating
//! back and forth, on every placement and replacement policy and with
//! 0–3 bus interferers.

use proptest::prelude::*;
use proxima_prng::{PrngKind, RandomSource, SplitMix64};
use proxima_sim::bus::BusModel;
use proxima_sim::mem::DramModel;
use proxima_sim::pipeline::PipelineTiming;
use proxima_sim::{
    CacheConfig, DecodedTrace, FpuLatencyMode, FpuModel, Inst, InstKind, PlacementPolicy, Platform,
    PlatformConfig, ReplacementPolicy, RunResult, RunStats, SetAssocCache, Tlb, TlbConfig,
    ValueClass,
};

/// The per-instruction engine, as `Platform::run` was before traces were
/// decoded.
struct Oracle {
    config: PlatformConfig,
    il1: SetAssocCache,
    dl1: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    fpu: FpuModel,
}

impl Oracle {
    fn new(config: PlatformConfig) -> Self {
        Oracle {
            il1: SetAssocCache::new(config.il1),
            dl1: SetAssocCache::new(config.dl1),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            fpu: FpuModel::new(config.fpu_mode),
            config,
        }
    }

    fn run(&mut self, trace: &[Inst], seed: u64) -> RunResult {
        // Protocol: "We flush caches, reset the FPGA and reload the
        // executable across executions … We also set a new seed for each
        // experiment."
        self.il1.flush();
        self.dl1.flush();
        self.itlb.flush();
        self.dtlb.flush();

        let mut seeder = SplitMix64::new(seed);
        self.il1.reseed(seeder.next_u64());
        self.dl1.reseed(seeder.next_u64());
        let mut rng = self.config.prng.build(seeder.next_u64());

        let t = self.config.timing;
        let mem_latency_base = self.config.dram.access_latency();
        let line_size = self.config.il1.line_size;

        let mut cycles: u64 = 0;
        let mut stats = RunStats::default();
        let mut fetch_line_hot: Option<u64> = None;

        for inst in trace {
            cycles += t.base_cpi;
            stats.instructions += 1;

            // --- Fetch: ITLB, then IL1 (once per line for sequential code).
            if !self.itlb.access(inst.pc, &mut rng) {
                cycles += t.tlb_walk_cycles;
            }
            let fetch_line = inst.pc.line(line_size);
            if fetch_line_hot != Some(fetch_line) {
                fetch_line_hot = Some(fetch_line);
                if !self.il1.access_line(fetch_line, false, &mut rng).is_hit() {
                    let mem = self.config.bus.transaction_cycles(&mut rng) + mem_latency_base;
                    cycles += mem;
                    stats.memory_cycles += mem;
                }
            }

            // --- Execute / memory.
            match inst.kind {
                InstKind::IntAlu | InstKind::Nop => {}
                InstKind::IntMul => cycles += t.int_mul_extra,
                InstKind::IntDiv => cycles += t.int_div_extra,
                InstKind::Branch { taken } => {
                    if taken {
                        cycles += t.taken_branch_extra;
                    }
                    // A taken branch redirects the fetch stream.
                    if taken {
                        fetch_line_hot = None;
                    }
                }
                InstKind::FpAdd => {
                    let s = self.fpu.add_latency() - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpMul => {
                    let s = self.fpu.mul_latency() - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpDiv(class) => {
                    let s = self.fpu.div_latency(class) - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::FpSqrt(class) => {
                    let s = self.fpu.sqrt_latency(class) - 1;
                    cycles += s;
                    stats.fpu_stall_cycles += s;
                }
                InstKind::Load(addr) => {
                    if !self.dtlb.access(addr, &mut rng) {
                        cycles += t.tlb_walk_cycles;
                    }
                    if !self.dl1.access(addr, false, &mut rng).is_hit() {
                        let mem = self.config.bus.transaction_cycles(&mut rng) + mem_latency_base;
                        cycles += mem;
                        stats.memory_cycles += mem;
                    }
                }
                InstKind::Store(addr) => {
                    if !self.dtlb.access(addr, &mut rng) {
                        cycles += t.tlb_walk_cycles;
                    }
                    // Write-through, no-write-allocate: the store posts to
                    // the write buffer; the cache is updated only on hit.
                    let _ = self.dl1.access(addr, true, &mut rng);
                    cycles += t.store_extra;
                }
            }
        }

        stats.il1 = {
            let s = self.il1.stats();
            (s.hits, s.misses)
        };
        stats.dl1 = {
            let s = self.dl1.stats();
            (s.hits, s.misses)
        };
        stats.itlb = self.itlb.stats();
        stats.dtlb = self.dtlb.stats();

        RunResult { cycles, stats }
    }
}

/// Draws bounded choices from the digits of one random word.
struct Digits(u64);

impl Digits {
    fn below(&mut self, n: u64) -> u64 {
        let i = self.0 % n;
        self.0 /= n;
        i
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

const PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::Modulo,
    PlacementPolicy::RandomModulo,
    PlacementPolicy::HashRandom,
];
const REPLACEMENTS: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Random,
    ReplacementPolicy::RoundRobin,
];
const PRNGS: [PrngKind; 4] = [
    PrngKind::Mwc,
    PrngKind::XorShift,
    PrngKind::SplitMix,
    PrngKind::WeakLcg,
];

fn cache_from(d: &mut Digits) -> CacheConfig {
    let ways = d.pick(&[1u64, 2, 4, 8]);
    let line_size = d.pick(&[16u64, 32, 64]);
    let sets = d.pick(&[1u64, 2, 4, 8, 16]);
    CacheConfig {
        size_bytes: ways * line_size * sets,
        ways,
        line_size,
        placement: d.pick(&PLACEMENTS),
        replacement: d.pick(&REPLACEMENTS),
        allocate_on_write: d.pick(&[false, true]),
    }
}

fn tlb_from(d: &mut Digits) -> TlbConfig {
    TlbConfig {
        entries: d.pick(&[1usize, 2, 3, 4, 5, 6, 7, 8, 64]),
        page_size: d.pick(&[256u64, 4096]),
        replacement: d.pick(&REPLACEMENTS),
    }
}

/// A small-geometry configuration: caches of 1–16 sets and 1, 2, 4 or 8
/// ways, TLBs of 1–8 or 64 entries, every policy, 0–3 bus interferers,
/// every PRNG and both FPU modes.
fn config_from(word: u64) -> PlatformConfig {
    let mut d = Digits(word);
    PlatformConfig {
        il1: cache_from(&mut d),
        dl1: cache_from(&mut d),
        itlb: tlb_from(&mut d),
        dtlb: tlb_from(&mut d),
        fpu_mode: d.pick(&[FpuLatencyMode::Variable, FpuLatencyMode::ForcedWorst]),
        bus: BusModel::leon3(d.pick(&[0u64, 1, 2, 3])),
        dram: DramModel::leon3(),
        timing: PipelineTiming::leon3(),
        prng: d.pick(&PRNGS),
    }
}

const CODE: u64 = 0x4000;
const DATA: u64 = 0x10_0000;

/// A trace over few code and data pages: loops whose taken branches land
/// in the line just fetched, repeats of the last data line, stores and
/// loads to the same lines, and two data pages visited alternately.
fn trace_from(ops: &[u64]) -> Vec<Inst> {
    let classes = [ValueClass::Fast, ValueClass::Typical, ValueClass::Worst];
    let mut pc = CODE;
    let mut last_data = DATA;
    let mut side = 0u64;
    ops.iter()
        .map(|&op| {
            let mut d = Digits(op);
            let mut data = |d: &mut Digits| {
                last_data = match d.pick(&[0u8, 1, 2, 3, 4, 5]) {
                    // The last line again, at another word.
                    0 | 1 => (last_data & !3) ^ (d.pick(&[0u64, 4, 8, 12])),
                    // Two pages back and forth.
                    2 => {
                        side ^= 1;
                        DATA + side * 0x1000 + d.pick(&[0u64, 0x20, 0x40])
                    }
                    // A few hot lines on few pages.
                    3 | 4 => DATA + d.pick(&[0u64, 0x100, 0x1000, 0x2100, 0x3000, 0x40]),
                    // Anywhere in a wider region.
                    _ => DATA + 4 * d.below(4096),
                };
                last_data
            };
            let kind = match d.pick(&[0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]) {
                0..=2 => InstKind::Load(data(&mut d).into()),
                3 | 4 => InstKind::Store(data(&mut d).into()),
                5 | 6 => InstKind::Branch {
                    taken: d.pick(&[false, true, true]),
                },
                7 => d.pick(&[InstKind::IntMul, InstKind::IntDiv, InstKind::Nop]),
                8 => d.pick(&[InstKind::FpAdd, InstKind::FpMul]),
                9 => InstKind::FpDiv(d.pick(&classes)),
                10 => InstKind::FpSqrt(d.pick(&classes)),
                _ => InstKind::IntAlu,
            };
            let inst = Inst::new(pc, kind);
            pc = match kind {
                InstKind::Branch { taken: true } => match d.pick(&[0u8, 1, 2, 3]) {
                    // Back into the line just fetched (lines are ≥ 16 B).
                    0 | 1 => pc & !15,
                    // A short loop back.
                    2 => pc.saturating_sub(4 * d.pick(&[2u64, 5, 9])).max(CODE),
                    // Another routine on one of a few code pages.
                    _ => CODE + d.pick(&[0u64, 0x100, 0x400, 0x1000, 0x2040]),
                },
                _ => pc + 4,
            };
            inst
        })
        .collect()
}

/// Assert the decoded engine equals the oracle on `trace` at `seeds`,
/// running every seed on one reused platform; return the decode.
fn assert_matches_oracle(
    config: &PlatformConfig,
    trace: &[Inst],
    seeds: impl IntoIterator<Item = u64>,
) -> DecodedTrace {
    let decoded = DecodedTrace::new(config, trace);
    let mut platform = Platform::new(config.clone());
    let mut oracle = Oracle::new(config.clone());
    for seed in seeds {
        assert_eq!(
            platform.execute(&decoded, seed),
            oracle.run(trace, seed),
            "seed {seed}, config {config:?}"
        );
    }
    decoded
}

proptest! {
    /// Every field of every run equals the oracle's, on four
    /// configurations and four seeds per trace.
    #[test]
    fn decoded_engine_matches_the_oracle(
        config_word in any::<u64>(),
        ops in prop::collection::vec(any::<u64>(), 1..700),
        seed in any::<u64>(),
    ) {
        let trace = trace_from(&ops);
        for k in 0..4 {
            let config = config_from(SplitMix64::new(config_word.wrapping_add(k)).next_u64());
            let decoded = DecodedTrace::new(&config, &trace);
            let mut platform = Platform::new(config.clone());
            let mut oracle = Oracle::new(config);
            for s in 0..4 {
                let s = seed.wrapping_add(s);
                prop_assert_eq!(platform.execute(&decoded, s), oracle.run(&trace, s));
            }
        }
    }

    /// One platform alternating between two decoded traces keeps giving
    /// the oracle's result: the per-run tables follow the trace.
    #[test]
    fn a_platform_reused_across_traces_matches_the_oracle(
        config_word in any::<u64>(),
        ops in (prop::collection::vec(any::<u64>(), 1..300), prop::collection::vec(any::<u64>(), 1..300)),
        seed in any::<u64>(),
    ) {
        let config = config_from(config_word);
        let traces = [trace_from(&ops.0), trace_from(&ops.1)];
        let decoded = traces.each_ref().map(|t| DecodedTrace::new(&config, t));
        let mut platform = Platform::new(config.clone());
        let mut oracle = Oracle::new(config);
        for s in 0..6u64 {
            let t = (s % 2) as usize;
            let s = seed.wrapping_add(s / 2);
            prop_assert_eq!(platform.execute(&decoded[t], s), oracle.run(&traces[t], s));
        }
    }
}

/// The paper's platforms with 64-entry TLBs, on the generated traces.
#[test]
fn paper_personalities_match_the_oracle() {
    let mut words = SplitMix64::new(2017);
    let ops: Vec<u64> = (0..3000).map(|_| words.next_u64()).collect();
    let trace = trace_from(&ops);
    for config in [
        PlatformConfig::mbpta_compliant(),
        PlatformConfig::mbpta_operation(),
        PlatformConfig::deterministic(),
    ] {
        assert_matches_oracle(&config, &trace, 0..16);
    }
}

fn alu_run(pc: u64, n: u64) -> impl Iterator<Item = Inst> {
    (0..n).map(move |i| Inst::alu(pc + 4 * i))
}

/// A small DET-style configuration: LRU everywhere, modulo placement.
fn small(replacement: ReplacementPolicy, allocate_on_write: bool) -> PlatformConfig {
    let cache = CacheConfig {
        size_bytes: 2 * 32 * 2,
        ways: 2,
        line_size: 32,
        placement: PlacementPolicy::Modulo,
        replacement,
        allocate_on_write,
    };
    let tlb = TlbConfig {
        entries: 2,
        page_size: 4096,
        replacement,
    };
    PlatformConfig {
        il1: cache,
        dl1: cache,
        itlb: tlb,
        dtlb: tlb,
        ..PlatformConfig::deterministic()
    }
}

#[test]
fn a_tlb_repeat_is_a_folded_hit() {
    // Eight instructions in one line on each of three pages, through a
    // two-entry ITLB that must evict: one ITLB lookup and one IL1 fetch
    // per page; the other seven lookups of each page are hits folded at
    // decode.
    let trace: Vec<Inst> = [0x1000, 0x2000, 0x3000]
        .into_iter()
        .flat_map(|pc| alu_run(pc, 8))
        .collect();
    let config = small(ReplacementPolicy::Lru, false);
    let decoded = assert_matches_oracle(&config, &trace, 0..8);
    assert_eq!(decoded.events(), 6, "three ITLB lookups, three IL1 fetches");
    let r = Platform::new(config.clone()).execute(&decoded, 1);
    assert_eq!(r.stats.itlb, (21, 3));

    // Loads walking each of three data pages in turn: one DTLB lookup per
    // page. The one code page fits the ITLB, so its lookups fold.
    let loads: Vec<Inst> = (0..24)
        .map(|i| Inst::load(0x1000, 0x9000 + 0x1000 * (i / 8) + 64 * (i % 8)))
        .collect();
    let decoded = assert_matches_oracle(&config, &loads, 0..8);
    assert_eq!(
        decoded.events(),
        1 + 3 + 24,
        "one IL1 fetch, three DTLB lookups, 24 loads of distinct lines"
    );
    let r = Platform::new(config).execute(&decoded, 1);
    assert_eq!(r.stats.dtlb, (21, 3));
    assert_eq!(r.stats.itlb, (23, 1));
}

#[test]
fn a_taken_branch_back_into_the_fetched_line_is_a_folded_hit() {
    // A four-instruction loop inside one line, taken 10 times: after the
    // first fetch, every refetch of the line is a guaranteed IL1 hit.
    let mut trace = Vec::new();
    for _ in 0..10 {
        trace.extend(alu_run(0x2000, 3));
        trace.push(Inst::branch(0x200c, true));
    }
    let config = PlatformConfig::mbpta_compliant();
    let decoded = assert_matches_oracle(&config, &trace, 0..8);
    assert_eq!(decoded.events(), 1, "one IL1 fetch; the ITLB cannot fill");
    let r = Platform::new(config).execute(&decoded, 3);
    assert_eq!(r.stats.il1, (9, 1));
}

#[test]
fn a_fetch_after_another_line_is_an_event() {
    // A loop spanning two lines refetches both each iteration: neither is
    // the line fetched last, so both stay events (and hit, or not, by the
    // cache's own state).
    let mut trace = Vec::new();
    for _ in 0..6 {
        trace.extend(alu_run(0x3018, 3));
        trace.push(Inst::branch(0x3024, true));
    }
    let config = small(ReplacementPolicy::Lru, false);
    let decoded = assert_matches_oracle(&config, &trace, 0..4);
    assert_eq!(decoded.events(), 12, "twelve IL1 fetches; one code page");
}

#[test]
fn a_dl1_access_after_a_load_of_its_line_is_a_folded_hit() {
    // Load, load, store to one line: the load makes the line present, so
    // the next two accesses are folded hits.
    let trace = [
        Inst::load(0x1000, 0x9000),
        Inst::load(0x1004, 0x9004),
        Inst::store(0x1008, 0x9008),
    ];
    let config = small(ReplacementPolicy::Lru, false);
    let decoded = assert_matches_oracle(&config, &trace, 0..4);
    assert_eq!(decoded.events(), 2, "one IL1 fetch, one load");
    let r = Platform::new(config).execute(&decoded, 0);
    assert_eq!(r.stats.dl1, (2, 1));
}

#[test]
fn a_store_with_allocate_on_write_makes_its_line_a_folded_hit() {
    let trace = [Inst::store(0x1000, 0x9000), Inst::load(0x1004, 0x9010)];
    let allocate = small(ReplacementPolicy::Lru, true);
    let decoded = assert_matches_oracle(&allocate, &trace, 0..4);
    assert_eq!(
        decoded.events(),
        2,
        "one IL1 fetch, one store; the load is a folded hit"
    );
    assert_eq!(
        Platform::new(allocate).execute(&decoded, 0).stats.dl1,
        (1, 1)
    );
}

#[test]
fn a_load_after_a_no_write_allocate_store_miss_is_an_event() {
    // The store misses and leaves the line out, so the load misses too:
    // folding it would count a hit that never happened.
    let trace = [Inst::store(0x1000, 0x9000), Inst::load(0x1004, 0x9010)];
    let config = small(ReplacementPolicy::Lru, false);
    let decoded = assert_matches_oracle(&config, &trace, 0..4);
    assert_eq!(
        decoded.events(),
        3,
        "one IL1 fetch; the store and the load are both events"
    );
    assert_eq!(Platform::new(config).execute(&decoded, 0).stats.dl1, (0, 2));
}

#[test]
fn a_folded_hit_keeps_its_line_foldable() {
    // Load, then a store hit (folded), then loads: the store hit leaves
    // the line present even without write-allocate.
    let trace = [
        Inst::load(0x1000, 0x9000),
        Inst::store(0x1004, 0x9004),
        Inst::load(0x1008, 0x9008),
        Inst::store(0x100c, 0x900c),
    ];
    let config = small(ReplacementPolicy::Lru, false);
    let decoded = assert_matches_oracle(&config, &trace, 0..4);
    assert_eq!(decoded.events(), 2, "one IL1 fetch, one load");
    assert_eq!(Platform::new(config).execute(&decoded, 0).stats.dl1, (3, 1));
}

#[test]
fn folded_hits_keep_the_replacement_order() {
    // Two-way sets and two-entry TLBs that evict on every third line or
    // page, with folded repeats in between: the victims must be the ones
    // the per-access engine picks, for LRU, random and round-robin alike.
    let mut trace = Vec::new();
    let mut pc = 0x1000;
    for round in 0..40u64 {
        for page in [0u64, 1, 0, 2, (round % 3) + 3] {
            let addr = 0x10_0000 + page * 0x1000 + (round % 2) * 0x80;
            for _ in 0..2 {
                trace.push(Inst::load(pc, addr));
                pc += 4;
            }
        }
        if round % 4 == 0 {
            pc += 0x1000;
        }
    }
    for replacement in REPLACEMENTS {
        for allocate_on_write in [false, true] {
            assert_matches_oracle(&small(replacement, allocate_on_write), &trace, 0..16);
        }
    }
}

#[test]
fn alternating_pages_find_their_tlb_slots() {
    // Pages A, B, A, B, … through one- to eight-entry TLBs and back and
    // forth across more pages than entries: each lookup finds its entry
    // by the slot it was installed in, including after evictions.
    let mut trace = Vec::new();
    for i in 0..200u64 {
        let page = if i % 2 == 0 { i % 7 } else { 7 + (i % 3) };
        trace.push(Inst::load(0x1000 + 4 * (i % 8), 0x10_0000 + page * 0x1000));
    }
    for entries in [1usize, 2, 3, 4, 5, 6, 7, 8, 64] {
        for replacement in REPLACEMENTS {
            let tlb = TlbConfig {
                entries,
                page_size: 4096,
                replacement,
            };
            let config = PlatformConfig {
                itlb: tlb,
                dtlb: tlb,
                ..PlatformConfig::mbpta_compliant()
            };
            assert_matches_oracle(&config, &trace, 0..8);
        }
    }
}

#[test]
fn a_per_run_set_table_gives_every_placement_the_hashed_set() {
    // Lines across many alignment windows, overflowing a 16-set cache,
    // under each placement policy: the set computed once per run for
    // each distinct line equals the set hashed at every access.
    let trace: Vec<Inst> = (0..600u64)
        .map(|i| Inst::load(0x1000 + 4 * (i % 8), 0x10_0000 + 0x220 * (i % 37)))
        .collect();
    for placement in PLACEMENTS {
        let cache = CacheConfig {
            size_bytes: 2 * 32 * 16,
            ways: 2,
            line_size: 32,
            placement,
            replacement: ReplacementPolicy::Random,
            allocate_on_write: false,
        };
        let config = PlatformConfig {
            il1: cache,
            dl1: cache,
            ..PlatformConfig::mbpta_compliant()
        };
        assert_matches_oracle(&config, &trace, 0..32);
    }
}

#[test]
fn a_tlb_folds_at_entries_pages_and_replays_one_page_more() {
    // Loads cycling over four, then five data pages through a four-entry
    // DTLB, one code page: four pages never fill it, so every lookup
    // folds (each page misses once); five pages evict, so every lookup
    // stays an event.
    let config = PlatformConfig {
        dtlb: TlbConfig {
            entries: 4,
            ..PlatformConfig::mbpta_compliant().dtlb
        },
        ..PlatformConfig::mbpta_compliant()
    };
    for pages in [4u64, 5] {
        let trace: Vec<Inst> = (0..40)
            .map(|i| Inst::load(0x1000, 0x10_0000 + 0x1000 * (i % pages)))
            .collect();
        let decoded = assert_matches_oracle(&config, &trace, 0..16);
        let r = Platform::new(config.clone()).execute(&decoded, 1);
        if pages == 4 {
            assert_eq!(decoded.events(), 1 + 40, "one IL1 fetch, 40 loads");
            assert_eq!(r.stats.dtlb, (36, 4));
        } else {
            assert_eq!(
                decoded.events(),
                1 + 40 + 40,
                "one IL1 fetch, 40 DTLB lookups, 40 loads"
            );
            assert!(r.stats.dtlb.1 > 5, "five pages in four entries evict");
        }
    }
}

/// A 4-way, 16-set cache of 32-byte lines under `placement` and
/// `replacement`, as both L1s of an otherwise paper-like platform.
fn with_l1(
    placement: PlacementPolicy,
    replacement: ReplacementPolicy,
    allocate_on_write: bool,
) -> PlatformConfig {
    let cache = CacheConfig {
        size_bytes: 4 * 32 * 16,
        ways: 4,
        line_size: 32,
        placement,
        replacement,
        allocate_on_write,
    };
    PlatformConfig {
        il1: cache,
        dl1: cache,
        ..PlatformConfig::mbpta_compliant()
    }
}

#[test]
fn a_contended_set_is_replayed_beside_a_quiet_one() {
    // Five lines aliasing to one set of a 4-way cache under modulo
    // placement evict each other at random; four lines of other sets
    // never leave. Only the victims vary with the seed.
    let config = with_l1(PlacementPolicy::Modulo, ReplacementPolicy::Random, false);
    let trace: Vec<Inst> = (0..300u64)
        .map(|i| {
            let addr = if i % 2 == 0 {
                0x10_0000 + 0x200 * ((i / 2) % 5)
            } else {
                0x10_0020 + 0x20 * ((i / 2) % 4)
            };
            Inst::load(0x1000 + 4 * (i % 8), addr)
        })
        .collect();
    assert_matches_oracle(&config, &trace, 0..64);
    let mut platform = Platform::new(config.clone());
    let decoded = DecodedTrace::new(&config, &trace);
    let misses: std::collections::HashSet<u64> = (0..64)
        .map(|seed| platform.execute(&decoded, seed).stats.dl1.1)
        .collect();
    assert!(misses.len() > 1, "random victims vary with the seed");
    assert!(misses.iter().all(|&m| m > 9), "beyond the nine cold misses");
}

#[test]
fn a_line_quiet_at_one_seed_is_contended_at_another() {
    // Two lines of a direct-mapped cache from different alignment
    // windows: random-modulo placement puts them in one set at some
    // seeds (each then evicts the other) and apart at others (each
    // misses once).
    let cache = CacheConfig {
        size_bytes: 32 * 8,
        ways: 1,
        line_size: 32,
        placement: PlacementPolicy::RandomModulo,
        replacement: ReplacementPolicy::Random,
        allocate_on_write: false,
    };
    let config = PlatformConfig {
        dl1: cache,
        ..PlatformConfig::mbpta_compliant()
    };
    let trace: Vec<Inst> = (0..40u64)
        .map(|i| Inst::load(0x1000, 0x10_0040 + 0x100 * (i % 2)))
        .collect();
    assert_matches_oracle(&config, &trace, 0..64);
    let mut platform = Platform::new(config.clone());
    let decoded = DecodedTrace::new(&config, &trace);
    let misses: Vec<u64> = (0..64)
        .map(|seed| platform.execute(&decoded, seed).stats.dl1.1)
        .collect();
    assert!(misses.contains(&2), "apart at some seed: {misses:?}");
    assert!(misses.contains(&40), "together at some seed: {misses:?}");
}

#[test]
fn a_no_write_allocate_store_before_a_first_load_in_a_quiet_set() {
    // The store misses without allocating; the load after it is the
    // line's fill; the next load of the line hits; the store after a load
    // of its line is a folded hit.
    let trace = [
        Inst::store(0x1000, 0x9000),
        Inst::load(0x1004, 0x9000),
        Inst::load(0x1008, 0x9040),
        Inst::load(0x100c, 0x9000),
        Inst::store(0x1010, 0x9004),
        Inst::load(0x1014, 0x9040),
    ];
    for interferers in 0..4 {
        let config = PlatformConfig {
            bus: BusModel::leon3(interferers),
            ..PlatformConfig::mbpta_compliant()
        };
        let decoded = assert_matches_oracle(&config, &trace, 0..16);
        assert_eq!(decoded.events(), 1 + 5, "one IL1 fetch, five DL1 events");
        let r = Platform::new(config).execute(&decoded, 0);
        assert_eq!(r.stats.dl1, (3, 3), "two fills and the store miss");
    }
}

#[test]
fn lines_allocated_only_by_stores_count_toward_their_set() {
    // Two lines loaded and a third only stored to, all in one set of a
    // 2-way write-allocate cache: the stores allocate, so the set holds
    // three lines and evicts.
    let config = small(ReplacementPolicy::Lru, true);
    let mut trace = Vec::new();
    for _ in 0..10 {
        trace.push(Inst::load(0x1000, 0x10_0000));
        trace.push(Inst::load(0x1000, 0x10_0080));
        trace.push(Inst::store(0x1000, 0x10_0100));
    }
    assert_matches_oracle(&config, &trace, 0..4);
    let decoded = DecodedTrace::new(&config, &trace);
    let r = Platform::new(config).execute(&decoded, 0);
    assert_eq!(r.stats.dl1, (0, 30), "LRU evicts the line used next");
}

#[test]
fn quiet_fills_draw_the_bus_in_program_order() {
    // With interferers every fill draws the bus, so the fills of quiet
    // lines interleave with the victim draws of a contended set.
    let mut words = SplitMix64::new(23);
    let ops: Vec<u64> = (0..2000).map(|_| words.next_u64()).collect();
    let trace = trace_from(&ops);
    for interferers in 1..4 {
        for replacement in REPLACEMENTS {
            let config = PlatformConfig {
                bus: BusModel::leon3(interferers),
                ..with_l1(PlacementPolicy::RandomModulo, replacement, false)
            };
            assert_matches_oracle(&config, &trace, 0..16);
        }
    }
}

#[test]
fn an_empty_trace_costs_nothing() {
    let config = PlatformConfig::mbpta_compliant();
    let decoded = assert_matches_oracle(&config, &[], 0..2);
    assert_eq!(decoded.events(), 0);
    assert_eq!(decoded.instructions(), 0);
}

#[test]
#[should_panic(expected = "different platform configuration")]
fn a_trace_decoded_for_another_configuration_is_refused() {
    let decoded = DecodedTrace::new(&PlatformConfig::deterministic(), &[Inst::alu(0x1000)]);
    Platform::new(PlatformConfig::mbpta_compliant()).execute(&decoded, 0);
}
