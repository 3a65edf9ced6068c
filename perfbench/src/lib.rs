//! Shared pieces of the benchmark: command-line arguments, the seeded
//! input generator, sample statistics, the host-speed probe, the result
//! line, and child-process supervision.
//!
//! Nothing here depends on a program layer, so the end-to-end harness
//! (`perfbench-e2e`) keeps building when a layer is deleted; only the
//! traced run (`perfbench-trace`) names layer functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub mod proc;

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["long_channel", "serve_fleet", "sim_paths"];

/// Analysis settings every workload runs at: the CLI and `serve` defaults.
pub const BLOCK: usize = 50;
/// Snapshot cadence of `session` and `serve` (`--every`).
pub const EVERY: usize = 250;
/// Exceedance probability queried and printed (`--target-p`).
pub const TARGET_P: f64 = 1e-12;

/// Inputs each seed generates per workload; successive runs of the
/// program cycle through them. The analysis cost of one input depends on
/// its draws (Gumbel MLE iterations vary with the sample, ±15 % between
/// inputs), so a run must average over many inputs, or the seed rather
/// than the program sets the figure. 32 is about as many runs or rounds
/// as a 30-second measurement holds.
pub const POOL: usize = 32;

/// `long_channel`: measurements in the single channel. 20,100 is not a
/// multiple of the 250-measurement refit cadence, so the final verdict
/// runs one more fit and bootstrap after the last snapshot.
pub const LONG_LEN: usize = 20_100;
/// `long_channel` set-up input: the smallest file that yields a verdict
/// (10 blocks of 50).
pub const LONG_SETUP_LEN: usize = 500;
/// Channel tag of the `long_channel` file.
pub const LONG_CHANNEL: &str = "nominal";

/// `serve_fleet`: rigs (channels), measurements per rig, values per
/// INGEST frame, and the all-channel VERDICT cadence in frames.
pub const FLEET_RIGS: usize = 16;
/// Measurements each rig sends in one round.
pub const FLEET_PER_RIG: usize = 2_560;
/// Values per INGEST frame.
pub const FLEET_FRAME: usize = 512;
/// An all-channel VERDICT after every this many frames.
pub const FLEET_ENVELOPE_EVERY: usize = 8;
/// `serve --checkpoint-every`, the cadence of the OPERATIONS.md example.
pub const FLEET_CHECKPOINT_EVERY: usize = 10_000;
/// `serve --workers`.
pub const FLEET_WORKERS: usize = 2;

/// `sim_paths`: simulated runs per TVCA path (`--runs`). 42 blocks per
/// path, so the final verdict refits after the last 5-block refit.
pub const SIM_RUNS: usize = 2_100;
/// `session --simulate --jobs`.
pub const SIM_JOBS: usize = 2;

/// Parsed command line of both harness binaries: `--workload <name>
/// --seed <n> --seconds <s> --mbpta <path> --work <dir>` (`run.py` picks
/// the binary from `--trace` and supplies the last two).
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// The built `mbpta` binary.
    pub mbpta: PathBuf,
    /// Work directory for inputs, checkpoints and traces.
    pub work: PathBuf,
}

impl Args {
    /// Parse `std::env::args`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse() -> Result<Args, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&str, String> {
            raw.iter()
                .position(|a| a == flag)
                .and_then(|i| raw.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag} <value>"))
        };
        let workload = value("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
            ));
        }
        let seed = value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?;
        let seconds: f64 = value("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number".to_string())?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            mbpta: PathBuf::from(value("--mbpta")?),
            work: PathBuf::from(value("--work")?),
        })
    }
}

/// A work directory removed again when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<base>/<workload>-<pid>`, empty.
    ///
    /// # Errors
    ///
    /// Any I/O error creating it.
    pub fn create(base: &Path, workload: &str) -> std::io::Result<WorkDir> {
        let dir = base.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Seeded input generator. Deliberately independent of the repository's PRNG
// crate and simulator, so a change to either cannot change these inputs.
// ---------------------------------------------------------------------------

/// SplitMix64 (Steele, Lea & Flood 2014), written out here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label, so each input of a
    /// workload draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One timing source: integer cycle counts `base + step * K`, where `K`
/// counts failures before a success of probability `p` (capped at 400).
/// At `p ≈ 0.2` that gives about 50 distinct values in 100k draws, many
/// ties, and an exponential tail, like the simulator's TVCA paths.
///
/// The parameters are fixed per source; the seed only changes the draws,
/// so every seed asks the program for the same amount of work.
#[derive(Debug, Clone, Copy)]
pub struct CycleSource {
    base: u64,
    step: u64,
    p: f64,
}

impl CycleSource {
    /// Source `index` of a workload.
    pub fn nth(index: usize) -> CycleSource {
        let i = index as u64;
        CycleSource {
            base: 150_000 + 9_973 * i,
            step: 31 + (7 * i) % 40,
            p: 0.17 + 0.004 * (i % 16) as f64,
        }
    }

    /// Draw `n` measurements.
    pub fn sample(&self, rng: &mut Rng, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let mut k = 0u64;
                while k < 400 && rng.unit() >= self.p {
                    k += 1;
                }
                self.base + self.step * k
            })
            .collect()
    }
}

/// Input `index` of the `long_channel` pool: one source, [`LONG_LEN`]
/// measurements.
pub fn long_channel_values(seed: u64, index: usize) -> Vec<u64> {
    CycleSource::nth(7).sample(&mut Rng::new(seed, 100 + index as u64), LONG_LEN)
}

/// Render values as a tagged feed file (`<channel> <cycles>` per line),
/// the format `mbpta session <file>` reads.
pub fn tagged_file(channel: &str, values: &[u64]) -> String {
    let mut out = String::with_capacity(values.len() * (channel.len() + 8));
    for v in values {
        let _ = writeln!(out, "{channel} {v}");
    }
    out
}

/// One `serve_fleet` rig: a channel name and its measurements.
#[derive(Debug, Clone)]
pub struct Rig {
    /// Channel name.
    pub name: String,
    /// Measurements in send order.
    pub values: Vec<f64>,
}

/// Input `index` of the `serve_fleet` pool: the rigs, each with its own
/// source.
pub fn fleet(seed: u64, index: usize) -> Vec<Rig> {
    let mut rng = Rng::new(seed, 200 + index as u64);
    (0..FLEET_RIGS)
        .map(|r| Rig {
            name: format!("rig{r:02}"),
            values: CycleSource::nth(r)
                .sample(&mut rng, FLEET_PER_RIG)
                .into_iter()
                .map(|v| v as f64)
                .collect(),
        })
        .collect()
}

/// The order the producer sends frames in: round-robin over rigs, one
/// [`FLEET_FRAME`]-value slice per frame. Yields `(rig index, range)`.
pub fn fleet_frames() -> Vec<(usize, std::ops::Range<usize>)> {
    let per_rig = FLEET_PER_RIG.div_ceil(FLEET_FRAME);
    let mut frames = Vec::with_capacity(per_rig * FLEET_RIGS);
    for f in 0..per_rig {
        for r in 0..FLEET_RIGS {
            let start = f * FLEET_FRAME;
            frames.push((r, start..(start + FLEET_FRAME).min(FLEET_PER_RIG)));
        }
    }
    frames
}

/// FNV-1a 64 over a byte stream, for input digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fold a fleet feed into `d` exactly as sent: per frame, the channel
/// name and the little-endian bytes of each value.
pub fn digest_fleet(d: &mut Digest, rigs: &[Rig]) {
    for (r, range) in fleet_frames() {
        d.update(rigs[r].name.as_bytes());
        for v in &rigs[r].values[range] {
            d.update(&v.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics and reporting.
// ---------------------------------------------------------------------------

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (the "type 7" rule). `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The highest of the usual percentiles with at least ten samples beyond
/// it, for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
}

/// One reported number: value, unit, how many samples it summarizes,
/// and a free-form note (quartiles, definition).
#[derive(Debug, Clone)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Extra context printed on the report line.
    pub note: String,
}

impl Metric {
    /// The median of `xs` (`None` when empty), with quartiles in the note.
    pub fn median(xs: &[f64], unit: &'static str) -> Option<Metric> {
        Metric::percentile(xs, 0.5, unit)
    }

    /// Percentile `q` of `xs`, with the sample count and the highest
    /// percentile that has ten samples beyond it in the note.
    pub fn percentile(xs: &[f64], q: f64, unit: &'static str) -> Option<Metric> {
        let value = quantile(xs, q)?;
        let tail = tail_percentile(xs.len()).map_or("none".to_string(), |p| format!("p{p}"));
        Some(Metric {
            value,
            unit,
            samples: xs.len(),
            note: format!(
                "p25={:.6} p75={:.6}; highest percentile with >=10 samples beyond: {tail}",
                quantile(xs, 0.25).unwrap_or(value),
                quantile(xs, 0.75).unwrap_or(value),
            ),
        })
    }

    /// A value computed over `samples` samples or operations.
    pub fn new(value: f64, unit: &'static str, samples: usize, note: impl Into<String>) -> Metric {
        Metric {
            value,
            unit,
            samples,
            note: note.into(),
        }
    }
}

/// Operations attempted and failed in a run, with the reasons.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error reply, mismatch, bad exit, timeout).
    pub failed: u64,
    /// One line per failure.
    pub reasons: Vec<String>,
}

impl Ops {
    /// Count one attempted operation; a failure when `result` is `Err`
    /// (the first 20 reasons are kept for the report).
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(reason);
            }
        }
    }
}

/// Print the human-readable report, then the result line: one JSON
/// object with `correct`, `attempted`, `failed` and the metrics named in
/// `keep`, which must all be present.
///
/// # Errors
///
/// The name of a metric in `keep` that the run could not measure.
pub fn emit(
    header: &str,
    ops: &Ops,
    metrics: &BTreeMap<String, Metric>,
    keep: &[&str],
    diagnostics: &[(String, String)],
) -> Result<(), String> {
    println!("{header}");
    for (name, m) in metrics {
        println!(
            "metric {name} = {} {} (samples {}; {})",
            m.value, m.unit, m.samples, m.note
        );
    }
    for (name, value) in diagnostics {
        println!("diagnostic {name} = {value}");
    }
    println!(
        "operations attempted={} failed={}",
        ops.attempted, ops.failed
    );
    for reason in &ops.reasons {
        println!("failure {reason}");
    }
    if ops.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, name) in keep.iter().enumerate() {
        let m = metrics
            .get(*name)
            .filter(|m| m.value.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// A fixed CPU loop in the benchmark's own code, timed: a host-speed
/// probe recorded with every run as a diagnostic, so drift of the shared
/// host can be told apart from a change in the program.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x9E37, 0);
    let mut acc = 0u64;
    let mut buf = vec![0u64; 4096];
    for i in 0..20_000_000usize {
        let x = rng.next_u64();
        let slot = (x as usize) & 4095;
        buf[slot] = buf[slot].wrapping_add(x ^ acc);
        acc = acc.rotate_left(7) ^ buf[(i * 31) & 4095];
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reset this process's peak resident memory to its current value
/// (`/proc/self/clear_refs`), so set-up allocations do not raise the
/// floor under a CLI child's `ru_maxrss`. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's own peak resident memory (`VmHWM`), KiB.
pub fn own_peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
