//! Measurement campaigns: collections of execution-time observations, and
//! the sharded parallel engine that collects them.

use proxima_prng::SplitMix64;
use proxima_sim::{DecodedTrace, Inst, Platform, PlatformConfig};
use proxima_stats::descriptive::Summary;
use proxima_stats::StatsError;

use crate::MbptaError;

/// A measurement campaign: the execution times (in cycles) of repeated
/// runs of one program path under the MBPTA protocol.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::Campaign;
///
/// let c = Campaign::from_times(vec![100.0, 105.0, 103.0, 108.0])?;
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.high_watermark(), 108.0);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    times: Vec<f64>,
}

impl Campaign {
    /// Wrap a vector of measured execution times.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] if the sample is empty, or for its
    /// first value that is not a possible execution time:
    /// [`StatsError::NonFiniteData`] for NaN or ±∞,
    /// [`StatsError::InvalidArgument`] for a negative time.
    pub fn from_times(times: Vec<f64>) -> Result<Self, MbptaError> {
        if times.is_empty() {
            return Err(MbptaError::Stats(StatsError::InsufficientData {
                needed: 1,
                got: 0,
            }));
        }
        for &t in &times {
            if !t.is_finite() {
                return Err(MbptaError::Stats(StatsError::NonFiniteData));
            }
            if t < 0.0 {
                return Err(MbptaError::Stats(StatsError::InvalidArgument {
                    what: "execution time is negative",
                }));
            }
        }
        Ok(Campaign { times })
    }

    /// Write the campaign in the one-time-per-line interchange format of
    /// measurement rigs and the `mbpta` CLI.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        for t in &self.times {
            writeln!(writer, "{t}")?;
        }
        Ok(())
    }

    /// Execute the paper's measurement protocol on a simulated platform:
    /// `runs` executions of `trace`, flushing and reseeding per run
    /// (the platform does this inside every run), with per-run seeds
    /// `base_seed, base_seed + 1, …`. The trace is decoded once; pass it
    /// by value to free it as soon as it is.
    pub fn measure(
        platform: &mut Platform,
        trace: impl AsRef<[Inst]>,
        runs: usize,
        base_seed: u64,
    ) -> Result<Self, MbptaError> {
        let obs = platform.campaign(trace, runs, base_seed);
        Campaign::from_times(obs.into_iter().map(|o| o.cycles as f64).collect())
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the campaign holds no observations (impossible by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The observations, in measurement order (order matters: the
    /// independence test runs over this sequence).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The maximum observed execution time — industry's *high watermark*.
    pub fn high_watermark(&self) -> f64 {
        self.times.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Descriptive summary of the observations.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] for campaigns of fewer than 2 runs.
    pub fn summary(&self) -> Result<Summary, MbptaError> {
        Ok(Summary::of(&self.times)?)
    }

    /// A prefix of the campaign (used by the convergence analysis).
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::CampaignTooSmall`] if `n` exceeds the number
    /// of observations.
    pub fn prefix(&self, n: usize) -> Result<Campaign, MbptaError> {
        if n > self.times.len() || n == 0 {
            return Err(MbptaError::CampaignTooSmall {
                needed: n.max(1),
                got: self.times.len(),
            });
        }
        Ok(Campaign {
            times: self.times[..n].to_vec(),
        })
    }
}

impl AsRef<[f64]> for Campaign {
    fn as_ref(&self) -> &[f64] {
        &self.times
    }
}

/// Sharded parallel campaign engine.
///
/// Measurement campaigns are embarrassingly parallel: the paper's protocol
/// gives every run a fresh platform state (flushed caches, new seed), so
/// runs share nothing. `CampaignRunner` decodes the trace once
/// ([`DecodedTrace`]), splits the `runs` indices into one contiguous
/// shard per worker, gives each shard its own [`Platform`] instance, and
/// draws the per-run seed for run `i` from the SplitMix64
/// stream of the master seed via [`SplitMix64::stream_seed`] — an O(1)
/// random access, so the seed of a run depends only on `(master_seed, i)`,
/// never on which shard executed it. Merging the shards in index order
/// therefore reproduces **bit for bit** the measurement vector a serial run
/// (`jobs = 1`) with the same master seed produces.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::CampaignRunner;
/// use proxima_sim::{Inst, PlatformConfig};
///
/// let trace: Vec<Inst> = (0..100)
///     .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * (i % 40)))
///     .collect();
/// let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
/// let serial = runner.clone().with_jobs(1).run(&trace, 40, 7)?;
/// let parallel = runner.with_jobs(4).run(&trace, 40, 7)?;
/// assert_eq!(serial.times(), parallel.times());
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    config: PlatformConfig,
    jobs: usize,
}

impl CampaignRunner {
    /// Create a runner for `config` using all available cores.
    pub fn new(config: PlatformConfig) -> Self {
        CampaignRunner { config, jobs: 0 }
    }

    /// Limit the runner to `jobs` worker threads (`0` = all available
    /// cores).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The number of worker threads the runner will use.
    pub fn jobs(&self) -> usize {
        resolve_jobs(self.jobs)
    }

    /// The platform configuration each shard instantiates.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Execute the measurement protocol: `runs` executions of `trace`, the
    /// run at index `i` seeded with the `i`-th element of the master seed's
    /// SplitMix64 stream. The result is identical for every `jobs` setting.
    /// The trace is decoded once; pass it by value to free it as soon as
    /// it is.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] if `runs == 0`.
    pub fn run(
        &self,
        trace: impl AsRef<[Inst]>,
        runs: usize,
        master_seed: u64,
    ) -> Result<Campaign, MbptaError> {
        let decoded = DecodedTrace::new(&self.config, trace.as_ref());
        drop(trace);
        let times = run_sharded(runs, self.jobs(), |shard| {
            let mut platform = Platform::new(self.config.clone());
            shard
                .map(|i| {
                    let seed = SplitMix64::stream_seed(master_seed, i as u64);
                    platform.execute(&decoded, seed).cycles as f64
                })
                .collect()
        });
        Campaign::from_times(times)
    }

    /// Measure several traces — one per program path / session channel —
    /// in **one thread pool**: the `traces.len() × runs` run indices are
    /// flattened and sharded over the same engine as [`Self::run`], so a
    /// many-path campaign saturates the cores even when each path alone
    /// would not.
    ///
    /// Trace `t` draws its per-run seeds from the SplitMix64 stream of
    /// the derived master seed [`SplitMix64::stream_seed`]`(master_seed,
    /// t)`; campaign `t` of the result is therefore **bit-identical** to
    /// `self.run(&traces[t], runs, SplitMix64::stream_seed(master_seed,
    /// t))` — at every `jobs` setting.
    ///
    /// Each trace is decoded once, before the pool starts. Pass the
    /// traces by value (a `Vec<Vec<Inst>>`) to free each one as soon as
    /// it is decoded, or by reference (`&traces`) to keep them.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] for an empty trace list and
    /// [`MbptaError::Stats`] if `runs == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_mbpta::CampaignRunner;
    /// use proxima_prng::SplitMix64;
    /// use proxima_sim::{Inst, PlatformConfig};
    ///
    /// let traces: Vec<Vec<Inst>> = (0..3)
    ///     .map(|p| {
    ///         (0..60)
    ///             .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * ((p + i) % 40)))
    ///             .collect()
    ///     })
    ///     .collect();
    /// let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
    /// let pooled = runner.run_many(&traces, 30, 7)?;
    /// let alone = runner.run(&traces[1], 30, SplitMix64::stream_seed(7, 1))?;
    /// assert_eq!(pooled[1].times(), alone.times());
    /// # Ok::<(), proxima_mbpta::MbptaError>(())
    /// ```
    pub fn run_many<I>(
        &self,
        traces: I,
        runs: usize,
        master_seed: u64,
    ) -> Result<Vec<Campaign>, MbptaError>
    where
        I: IntoIterator,
        I::Item: AsRef<[Inst]>,
    {
        let mut traces = traces.into_iter().peekable();
        if traces.peek().is_none() {
            return Err(MbptaError::InvalidConfig {
                what: "run_many needs at least one trace",
            });
        }
        if runs == 0 {
            return Err(MbptaError::Stats(StatsError::InsufficientData {
                needed: 1,
                got: 0,
            }));
        }
        let decoded: Vec<DecodedTrace> = traces
            .map(|trace| DecodedTrace::new(&self.config, trace.as_ref()))
            .collect();
        let total = decoded.len() * runs;
        let times = run_sharded(total, self.jobs(), |shard| {
            // Every run flushes and reseeds, so one platform serves every
            // trace of the shard.
            let mut platform = Platform::new(self.config.clone());
            shard
                .map(|global| {
                    let t = global / runs;
                    let i = (global % runs) as u64;
                    let trace_seed = SplitMix64::stream_seed(master_seed, t as u64);
                    let seed = SplitMix64::stream_seed(trace_seed, i);
                    platform.execute(&decoded[t], seed).cycles as f64
                })
                .collect()
        });
        times
            .chunks(runs)
            .map(|chunk| Campaign::from_times(chunk.to_vec()))
            .collect()
    }
}

/// Resolve a `jobs` knob: `0` means all available cores.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// The sharding engine: run `work` over the shards of `0..len` on up to
/// `jobs` scoped workers (`0` = all cores) and concatenate the per-shard
/// results **in index order** — joining in spawn order, so the output is
/// identical to a serial `work(0..len)` whenever `work` is a pure function
/// of its range. Shared by the campaign runner, the bootstrap resampler
/// and the per-path fan-out.
pub(crate) fn run_sharded<T, F>(len: usize, jobs: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
{
    let jobs = resolve_jobs(jobs);
    if jobs <= 1 || len <= 1 {
        return work(0..len);
    }
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = shard_ranges(len, jobs)
            .into_iter()
            .map(|shard| scope.spawn(move || work(shard)))
            .collect();
        workers
            .into_iter()
            // proxima-lint: allow(no-lib-panic) -- join() only errs if the
            // worker itself panicked; this re-raises that panic, it does
            // not introduce a new failure mode.
            .flat_map(|w| w.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Split `0..runs` into at most `jobs` contiguous ranges of near-equal
/// size, in index order — the work-splitting half of the sharding engine.
fn shard_ranges(runs: usize, jobs: usize) -> Vec<std::ops::Range<usize>> {
    let shards = jobs.min(runs).max(1);
    let base = runs / shards;
    let extra = runs % shards;
    let mut start = 0;
    (0..shards)
        .map(|s| {
            let len = base + usize::from(s < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_sim::{Inst, Platform, PlatformConfig};

    #[test]
    fn construction_validates() {
        assert!(Campaign::from_times(vec![]).is_err());
        assert_eq!(
            Campaign::from_times(vec![1.0, f64::NAN, -1.0]),
            Err(MbptaError::Stats(StatsError::NonFiniteData))
        );
        let negative = Campaign::from_times(vec![1.0, -3.0, f64::NAN]).unwrap_err();
        assert_eq!(
            negative.to_string(),
            "statistics error: invalid argument: execution time is negative"
        );
        assert!(Campaign::from_times(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn high_watermark_is_max() {
        let c = Campaign::from_times(vec![5.0, 9.0, 7.0]).unwrap();
        assert_eq!(c.high_watermark(), 9.0);
    }

    #[test]
    fn measure_runs_protocol() {
        let prog: Vec<Inst> = (0..100)
            .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * (i % 40)))
            .collect();
        let mut p = Platform::new(PlatformConfig::mbpta_compliant());
        let c = Campaign::measure(&mut p, &prog, 50, 0).unwrap();
        assert_eq!(c.len(), 50);
        assert!(c.times().iter().all(|&t| t > 0.0));
    }

    #[test]
    fn prefix_takes_first_runs() {
        let c = Campaign::from_times(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = c.prefix(2).unwrap();
        assert_eq!(p.times(), &[1.0, 2.0]);
        assert!(c.prefix(5).is_err());
        assert!(c.prefix(0).is_err());
    }

    fn striding_loads(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::load(
                    0x100 + 4 * (i as u64 % 16),
                    0x10_0000 + 4096 * (i as u64 % 40),
                )
            })
            .collect()
    }

    #[test]
    fn runner_matches_serial_reference() {
        // The runner at jobs=1 must equal a hand-rolled serial loop over
        // the SplitMix64 seed stream.
        let prog = striding_loads(200);
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(1);
        let c = runner.run(&prog, 30, 99).unwrap();
        let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
        let reference: Vec<f64> = (0..30u64)
            .map(|i| {
                platform
                    .run(&prog, proxima_prng::SplitMix64::stream_seed(99, i))
                    .cycles as f64
            })
            .collect();
        assert_eq!(c.times(), &reference[..]);
    }

    #[test]
    fn runner_deterministic_across_job_counts() {
        let prog = striding_loads(300);
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
        let reference = runner.clone().with_jobs(1).run(&prog, 97, 1234).unwrap();
        for jobs in [2, 3, 4, 8, 16] {
            let parallel = runner.clone().with_jobs(jobs).run(&prog, 97, 1234).unwrap();
            assert_eq!(
                reference.times(),
                parallel.times(),
                "jobs={jobs} diverged from serial"
            );
        }
    }

    #[test]
    fn runner_rejects_empty_campaign() {
        let prog = striding_loads(10);
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(2);
        assert!(runner.run(&prog, 0, 0).is_err());
    }

    #[test]
    fn runner_different_seeds_differ() {
        let prog = striding_loads(500);
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(4);
        let a = runner.run(&prog, 50, 1).unwrap();
        let b = runner.run(&prog, 50, 2).unwrap();
        assert_ne!(a.times(), b.times());
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for runs in [0usize, 1, 7, 97, 1000] {
            for jobs in [1usize, 2, 3, 8, 64] {
                let ranges = shard_ranges(runs, jobs);
                assert!(ranges.len() <= jobs.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "runs={runs} jobs={jobs}");
                    next = r.end;
                }
                assert_eq!(next, runs, "runs={runs} jobs={jobs}");
            }
        }
    }

    #[test]
    fn run_many_matches_per_trace_runs_at_any_jobs() {
        let traces: Vec<Vec<Inst>> = (0..3)
            .map(|p| {
                (0..80)
                    .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * ((p + i) % 40)))
                    .collect()
            })
            .collect();
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
        let reference = runner
            .clone()
            .with_jobs(1)
            .run_many(&traces, 40, 9)
            .unwrap();
        // Each pooled campaign equals the standalone run with the
        // per-trace stream seed.
        for (t, campaign) in reference.iter().enumerate() {
            let alone = runner
                .clone()
                .with_jobs(1)
                .run(&traces[t], 40, SplitMix64::stream_seed(9, t as u64))
                .unwrap();
            assert_eq!(campaign.times(), alone.times(), "trace {t}");
        }
        // And the pool is bit-identical at every jobs setting, including
        // shards that straddle trace boundaries.
        for jobs in [2, 3, 5, 8, 16] {
            let pooled = runner
                .clone()
                .with_jobs(jobs)
                .run_many(&traces, 40, 9)
                .unwrap();
            for (r, p) in reference.iter().zip(&pooled) {
                assert_eq!(r.times(), p.times(), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn run_many_rejects_empty_inputs() {
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
        assert!(runner.run_many(Vec::<Vec<Inst>>::new(), 10, 0).is_err());
        assert!(runner.run_many(&[striding_loads(10)], 0, 0).is_err());
    }

    #[test]
    fn jobs_zero_means_auto() {
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
        assert!(runner.jobs() >= 1);
        assert_eq!(runner.clone().with_jobs(3).jobs(), 3);
    }

    #[test]
    fn summary_consistent() {
        let c = Campaign::from_times(vec![10.0, 20.0, 30.0]).unwrap();
        let s = c.summary().unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.max, c.high_watermark());
    }
}
