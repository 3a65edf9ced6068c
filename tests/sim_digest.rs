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

use proxima::prelude::*;
use proxima::sim::RunResult;

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

fn personalities() -> [(&'static str, PlatformConfig); 3] {
    [
        ("mbpta_compliant", PlatformConfig::mbpta_compliant()),
        ("deterministic", PlatformConfig::deterministic()),
        ("mbpta_operation", PlatformConfig::mbpta_operation()),
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

/// `(trace, personality, digest)` of `Platform::run` at seeds `0..64`.
const RUN_DIGESTS: [(&str, &str, u64); 30] = [
    ("nominal", "mbpta_compliant", 0x261d_5953_b3c0_f021),
    ("nominal", "deterministic", 0xf3b9_7e01_5e4e_4f25),
    ("nominal", "mbpta_operation", 0x196e_c029_57f7_98ed),
    ("saturated-x", "mbpta_compliant", 0x8549_d8c2_f521_36b2),
    ("saturated-x", "deterministic", 0x0b67_c7bb_23a6_6825),
    ("saturated-x", "mbpta_operation", 0xab0f_f900_6891_0856),
    ("saturated-y", "mbpta_compliant", 0x3dc5_7ba4_a61b_3792),
    ("saturated-y", "deterministic", 0x0b67_c7bb_23a6_6825),
    ("saturated-y", "mbpta_operation", 0x4bac_4fae_a109_28ae),
    ("fault-recovery", "mbpta_compliant", 0xa637_2d27_488b_d598),
    ("fault-recovery", "deterministic", 0x0cae_c4c3_6a03_54a5),
    ("fault-recovery", "mbpta_operation", 0x629b_60a1_c7e4_9011),
    ("fir", "mbpta_compliant", 0x4144_5e76_b672_9125),
    ("fir", "deterministic", 0x4144_5e76_b672_9125),
    ("fir", "mbpta_operation", 0x4144_5e76_b672_9125),
    ("matmul", "mbpta_compliant", 0xb2ae_f63a_5e74_2925),
    ("matmul", "deterministic", 0xb2ae_f63a_5e74_2925),
    ("matmul", "mbpta_operation", 0xb2ae_f63a_5e74_2925),
    ("crc", "mbpta_compliant", 0x2fae_0da0_ea98_1ca5),
    ("crc", "deterministic", 0x2fae_0da0_ea98_1ca5),
    ("crc", "mbpta_operation", 0x2fae_0da0_ea98_1ca5),
    ("table-interp", "mbpta_compliant", 0xb2bb_8ee8_9020_3325),
    ("table-interp", "deterministic", 0xe80f_529b_e053_1c25),
    ("table-interp", "mbpta_operation", 0xe80f_529b_e053_1c25),
    ("vec-norm", "mbpta_compliant", 0x8085_f1c9_d207_cf25),
    ("vec-norm", "deterministic", 0xa27c_30f1_e25b_ab25),
    ("vec-norm", "mbpta_operation", 0xa27c_30f1_e25b_ab25),
    ("stride-sweep", "mbpta_compliant", 0x2fcb_b117_f850_3325),
    ("stride-sweep", "deterministic", 0x2bb5_75b0_4a44_9e25),
    ("stride-sweep", "mbpta_operation", 0x2fcb_b117_f850_3325),
];

#[test]
fn every_run_result_field_is_pinned() {
    let mut computed = Vec::new();
    for (trace_name, trace) in all_traces() {
        for (config_name, config) in personalities() {
            let mut platform = Platform::new(config);
            let mut hash = Fnv::new();
            for seed in 0..SEEDS {
                hash.run(&platform.run(&trace, seed));
            }
            computed.push((trace_name.clone(), config_name, hash.0));
        }
    }
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
