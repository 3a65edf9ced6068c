//! Bit-level pins of the simulator's output.
//!
//! The golden corpus sees the simulator only through the verdict on one
//! simulated `nominal` channel, so a change to a run's counters, or to a
//! path the analysis never reads, would pass it unseen. These digests
//! fold every field of every `RunResult` (cycles and all eleven
//! counters) of the four TVCA paths and the six `bench_suite` kernels on
//! the three platform personalities, plus the campaign engines' cycle
//! vectors. The constants were captured before the simulator decoded
//! its traces; any change to them is a change of results.
//!
//! Two more configurations reach what the personalities do not: a bus
//! with three interferers, where every L1 fill draws from the run's RNG,
//! and 16-entry TLBs, which TVCA's 18 data pages overflow, so its DTLB
//! evicts. Their constants were captured before a run skipped the
//! accesses no seed can change.
//!
//! Four more, all on the RAND platform otherwise, reach the cache
//! policies and geometries the personalities leave out: a 2 KB IL1 with
//! a 4 KB DL1, where every set of every TVCA path is contended;
//! random-modulo placement with LRU and with round-robin replacement;
//! and hash-random placement, whose windows hold one line each. Their
//! constants were captured before a run folded the repeats of one line
//! inside a contended set.

use proxima::prelude::*;
use proxima::sim::bus::BusModel;
use proxima::sim::{CacheConfig, PlacementPolicy, ReplacementPolicy, RunResult, TlbConfig};

/// Seeds per (trace, personality) pair.
const SEEDS: u64 = 64;

/// FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn run(&mut self, r: &RunResult) {
        let s = r.stats;
        for x in [
            r.cycles,
            s.instructions,
            s.il1.0,
            s.il1.1,
            s.dl1.0,
            s.dl1.1,
            s.itlb.0,
            s.itlb.1,
            s.dtlb.0,
            s.dtlb.1,
            s.fpu_stall_cycles,
            s.memory_cycles,
        ] {
            self.word(x);
        }
    }
}

fn configurations() -> [(&'static str, PlatformConfig); 9] {
    let rand = PlatformConfig::mbpta_compliant();
    let small_tlb = TlbConfig {
        entries: 16,
        ..rand.dtlb
    };
    let l1 = |placement, replacement| PlatformConfig {
        il1: CacheConfig {
            placement,
            replacement,
            ..rand.il1
        },
        dl1: CacheConfig {
            placement,
            replacement,
            ..rand.dl1
        },
        ..rand.clone()
    };
    [
        ("mbpta_compliant", rand.clone()),
        ("deterministic", PlatformConfig::deterministic()),
        ("mbpta_operation", PlatformConfig::mbpta_operation()),
        (
            "bus_interferers_3",
            PlatformConfig {
                bus: BusModel::leon3(3),
                ..rand.clone()
            },
        ),
        (
            "tlb_entries_16",
            PlatformConfig {
                itlb: small_tlb,
                dtlb: small_tlb,
                ..rand.clone()
            },
        ),
        (
            "l1_2k_4k",
            PlatformConfig {
                il1: CacheConfig {
                    size_bytes: 2 * 1024,
                    ..rand.il1
                },
                dl1: CacheConfig {
                    size_bytes: 4 * 1024,
                    ..rand.dl1
                },
                ..rand.clone()
            },
        ),
        (
            "lru",
            l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Lru),
        ),
        (
            "round_robin",
            l1(PlacementPolicy::RandomModulo, ReplacementPolicy::RoundRobin),
        ),
        (
            "hash_random",
            l1(PlacementPolicy::HashRandom, ReplacementPolicy::Random),
        ),
    ]
}

fn tvca_traces() -> Vec<(String, Vec<Inst>)> {
    let tvca = Tvca::new(TvcaConfig::default());
    ControlMode::all()
        .into_iter()
        .map(|m| (m.to_string(), tvca.trace(m)))
        .collect()
}

fn all_traces() -> Vec<(String, Vec<Inst>)> {
    let mut traces = tvca_traces();
    traces.extend(
        Benchmark::all()
            .into_iter()
            .map(|b| (b.name().to_string(), b.trace())),
    );
    traces
}

/// `(trace, configuration, digest)` of `Platform::run` at seeds `0..64`.
const RUN_DIGESTS: [(&str, &str, u64); 90] = [
    ("nominal", "mbpta_compliant", 0x261d_5953_b3c0_f021),
    ("nominal", "deterministic", 0xf3b9_7e01_5e4e_4f25),
    ("nominal", "mbpta_operation", 0x196e_c029_57f7_98ed),
    ("nominal", "bus_interferers_3", 0x9d56_db65_8ebd_52b3),
    ("nominal", "tlb_entries_16", 0x1fed_7351_f226_29cd),
    ("nominal", "l1_2k_4k", 0xf3e0_4c3f_5b4f_7c3c),
    ("nominal", "lru", 0x3aa4_302d_f9db_dcc8),
    ("nominal", "round_robin", 0x434c_3ff4_72de_6617),
    ("nominal", "hash_random", 0xcd2d_cbfc_96a0_a9ef),
    ("saturated-x", "mbpta_compliant", 0x8549_d8c2_f521_36b2),
    ("saturated-x", "deterministic", 0x0b67_c7bb_23a6_6825),
    ("saturated-x", "mbpta_operation", 0xab0f_f900_6891_0856),
    ("saturated-x", "bus_interferers_3", 0x4242_1d41_5e01_9a71),
    ("saturated-x", "tlb_entries_16", 0x86f4_a7ab_d8c4_5162),
    ("saturated-x", "l1_2k_4k", 0xa030_e331_bdd2_ec22),
    ("saturated-x", "lru", 0x2559_ab20_3489_3c62),
    ("saturated-x", "round_robin", 0xfd2e_d522_48e5_d43c),
    ("saturated-x", "hash_random", 0x7a9d_6870_39e7_8fc9),
    ("saturated-y", "mbpta_compliant", 0x3dc5_7ba4_a61b_3792),
    ("saturated-y", "deterministic", 0x0b67_c7bb_23a6_6825),
    ("saturated-y", "mbpta_operation", 0x4bac_4fae_a109_28ae),
    ("saturated-y", "bus_interferers_3", 0x6fa6_c885_2b38_6ad3),
    ("saturated-y", "tlb_entries_16", 0x3281_bbd3_540f_ecfa),
    ("saturated-y", "l1_2k_4k", 0x292e_1d92_3d16_4db5),
    ("saturated-y", "lru", 0x2559_ab20_3489_3c62),
    ("saturated-y", "round_robin", 0xfd2e_d522_48e5_d43c),
    ("saturated-y", "hash_random", 0x8cec_87e3_65a7_145e),
    ("fault-recovery", "mbpta_compliant", 0xa637_2d27_488b_d598),
    ("fault-recovery", "deterministic", 0x0cae_c4c3_6a03_54a5),
    ("fault-recovery", "mbpta_operation", 0x629b_60a1_c7e4_9011),
    ("fault-recovery", "bus_interferers_3", 0x1ee1_cbd0_ca2f_4513),
    ("fault-recovery", "tlb_entries_16", 0x46b4_fcc8_9534_a14d),
    ("fault-recovery", "l1_2k_4k", 0xff45_6652_533c_58cb),
    ("fault-recovery", "lru", 0x7edc_0ad3_03aa_de4e),
    ("fault-recovery", "round_robin", 0x40b5_2adc_6d3e_83ef),
    ("fault-recovery", "hash_random", 0xa9de_f081_56e7_1672),
    ("fir", "mbpta_compliant", 0x4144_5e76_b672_9125),
    ("fir", "deterministic", 0x4144_5e76_b672_9125),
    ("fir", "mbpta_operation", 0x4144_5e76_b672_9125),
    ("fir", "bus_interferers_3", 0x1c05_0a2b_1765_70a8),
    ("fir", "tlb_entries_16", 0x4144_5e76_b672_9125),
    ("fir", "l1_2k_4k", 0x4144_5e76_b672_9125),
    ("fir", "lru", 0x4144_5e76_b672_9125),
    ("fir", "round_robin", 0x4144_5e76_b672_9125),
    ("fir", "hash_random", 0x4144_5e76_b672_9125),
    ("matmul", "mbpta_compliant", 0xb2ae_f63a_5e74_2925),
    ("matmul", "deterministic", 0xb2ae_f63a_5e74_2925),
    ("matmul", "mbpta_operation", 0xb2ae_f63a_5e74_2925),
    ("matmul", "bus_interferers_3", 0xc8ca_393c_eb10_2e7e),
    ("matmul", "tlb_entries_16", 0xb2ae_f63a_5e74_2925),
    ("matmul", "l1_2k_4k", 0xb2ae_f63a_5e74_2925),
    ("matmul", "lru", 0xb2ae_f63a_5e74_2925),
    ("matmul", "round_robin", 0xb2ae_f63a_5e74_2925),
    ("matmul", "hash_random", 0xb2ae_f63a_5e74_2925),
    ("crc", "mbpta_compliant", 0x2fae_0da0_ea98_1ca5),
    ("crc", "deterministic", 0x2fae_0da0_ea98_1ca5),
    ("crc", "mbpta_operation", 0x2fae_0da0_ea98_1ca5),
    ("crc", "bus_interferers_3", 0xa4c2_0b3d_420b_e84a),
    ("crc", "tlb_entries_16", 0x2fae_0da0_ea98_1ca5),
    ("crc", "l1_2k_4k", 0x2fae_0da0_ea98_1ca5),
    ("crc", "lru", 0x2fae_0da0_ea98_1ca5),
    ("crc", "round_robin", 0x2fae_0da0_ea98_1ca5),
    ("crc", "hash_random", 0x2fae_0da0_ea98_1ca5),
    ("table-interp", "mbpta_compliant", 0xb2bb_8ee8_9020_3325),
    ("table-interp", "deterministic", 0xe80f_529b_e053_1c25),
    ("table-interp", "mbpta_operation", 0xe80f_529b_e053_1c25),
    ("table-interp", "bus_interferers_3", 0xb7d3_9e60_25e2_26a0),
    ("table-interp", "tlb_entries_16", 0xb2bb_8ee8_9020_3325),
    ("table-interp", "l1_2k_4k", 0xaf26_eb82_ba2f_e1dc),
    ("table-interp", "lru", 0xb2bb_8ee8_9020_3325),
    ("table-interp", "round_robin", 0xb2bb_8ee8_9020_3325),
    ("table-interp", "hash_random", 0x1882_5c3b_c5d7_ffce),
    ("vec-norm", "mbpta_compliant", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "deterministic", 0xa27c_30f1_e25b_ab25),
    ("vec-norm", "mbpta_operation", 0xa27c_30f1_e25b_ab25),
    ("vec-norm", "bus_interferers_3", 0xd199_809c_e60d_5bf5),
    ("vec-norm", "tlb_entries_16", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "l1_2k_4k", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "lru", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "round_robin", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "hash_random", 0x8085_f1c9_d207_cf25),
    ("stride-sweep", "mbpta_compliant", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "deterministic", 0x2bb5_75b0_4a44_9e25),
    ("stride-sweep", "mbpta_operation", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "bus_interferers_3", 0xf87e_c62e_6e4a_5ca5),
    ("stride-sweep", "tlb_entries_16", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "l1_2k_4k", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "lru", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "round_robin", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "hash_random", 0x2fcb_b117_f850_3325),
];

#[test]
fn every_run_result_field_is_pinned() {
    let mut computed = Vec::new();
    for (trace_name, trace) in all_traces() {
        for (config_name, config) in configurations() {
            let mut platform = Platform::new(config);
            let mut hash = Fnv::new();
            for seed in 0..SEEDS {
                hash.run(&platform.run(&trace, seed));
            }
            computed.push((trace_name.clone(), config_name, hash.0));
        }
    }
    assert_eq!(computed.len(), RUN_DIGESTS.len(), "one digest per pair");
    let moved: Vec<String> = computed
        .iter()
        .zip(RUN_DIGESTS)
        .filter(|(got, want)| got.0 != want.0 || got.1 != want.1 || got.2 != want.2)
        .map(|(got, _)| format!("(\"{}\", \"{}\", {:#018x}),", got.0, got.1, got.2))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} run digests moved; computed:\n{}",
        moved.len(),
        computed.len(),
        moved.join("\n")
    );
}

/// Runs per path of the campaign-engine digests.
const CAMPAIGN_RUNS: usize = 48;
/// Master seed of the campaign-engine digests.
const CAMPAIGN_SEED: u64 = 20_170_327;

/// Cycles of `run_many` over the four TVCA paths, the same at every
/// `jobs` setting.
const RUN_MANY_DIGEST: u64 = 0x522c_4d12_4e04_6510;
/// Cycles of `Platform::campaign` over each TVCA path in turn.
const CAMPAIGN_DIGEST: u64 = 0x478b_7350_ab09_e3a4;

#[test]
fn campaign_engines_are_pinned() {
    let traces: Vec<Vec<Inst>> = tvca_traces().into_iter().map(|(_, t)| t).collect();
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
    for jobs in [1, 2, 3] {
        let campaigns = runner
            .clone()
            .with_jobs(jobs)
            .run_many(&traces, CAMPAIGN_RUNS, CAMPAIGN_SEED)
            .expect("run_many");
        let mut hash = Fnv::new();
        for campaign in &campaigns {
            for &t in campaign.times() {
                hash.word(t.to_bits());
            }
        }
        assert_eq!(
            hash.0, RUN_MANY_DIGEST,
            "run_many at jobs {jobs}: {:#018x}",
            hash.0
        );
    }

    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let mut hash = Fnv::new();
    for trace in &traces {
        for obs in platform.campaign(trace, CAMPAIGN_RUNS, CAMPAIGN_SEED) {
            hash.word(obs.seed);
            hash.word(obs.cycles);
        }
    }
    assert_eq!(
        hash.0, CAMPAIGN_DIGEST,
        "Platform::campaign: {:#018x}",
        hash.0
    );
}
