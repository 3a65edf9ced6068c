//! Per-path analysis: analyse each program path separately and take the
//! maximum, as the paper does ("we make per-path analysis taking the
//! maximum across paths").

use crate::campaign::run_sharded;
use crate::pipeline::MbptaReport;
use crate::{MbptaConfig, MbptaError};

/// One analysed path: its label and its MBPTA report.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAnalysis {
    /// Path label (e.g. the TVCA control mode).
    pub label: String,
    /// The path's MBPTA report.
    pub report: MbptaReport,
}

/// The per-path analysis result: every path's report plus max-across-paths
/// queries.
#[derive(Debug, Clone, PartialEq)]
pub struct PerPathAnalysis {
    paths: Vec<PathAnalysis>,
}

impl PerPathAnalysis {
    /// Analyse each labelled campaign with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::InvalidConfig`] for an empty path list, or the
    /// first path's analysis error (a single non-analysable path
    /// invalidates the program-level claim).
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_mbpta::paths::PerPathAnalysis;
    /// use proxima_mbpta::MbptaConfig;
    /// use rand::{Rng, SeedableRng};
    ///
    /// let campaign = |base: f64, seed: u64| -> Vec<f64> {
    ///     let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ///     (0..1000)
    ///         .map(|_| base + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 50.0)
    ///         .collect()
    /// };
    /// let paths = vec![
    ///     ("nominal".to_string(), campaign(1e5, 4)),
    ///     ("fault".to_string(), campaign(1.2e5, 20)),
    /// ];
    /// let analysis = PerPathAnalysis::run(&paths, &MbptaConfig::default())?;
    /// let (worst, _) = analysis.worst_path_budget(1e-12)?;
    /// assert_eq!(worst, "fault");
    /// # Ok::<(), proxima_mbpta::MbptaError>(())
    /// ```
    pub fn run(
        labelled_campaigns: &[(String, Vec<f64>)],
        config: &MbptaConfig,
    ) -> Result<Self, MbptaError> {
        Self::run_with_jobs(labelled_campaigns, config, 0)
    }

    /// [`Self::run`] with an explicit worker-thread count (`0` = all
    /// cores): the paths are sharded over scoped threads on the same
    /// engine as the measurement campaigns. Each path's analysis is a pure
    /// function of its campaign, so the result — including which path's
    /// error is reported (the first by path order, matching the serial
    /// semantics) — is identical for every `jobs` value.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_with_jobs(
        labelled_campaigns: &[(String, Vec<f64>)],
        config: &MbptaConfig,
        jobs: usize,
    ) -> Result<Self, MbptaError> {
        if labelled_campaigns.is_empty() {
            return Err(MbptaError::InvalidConfig {
                what: "per-path analysis needs at least one path",
            });
        }
        let results = run_sharded(labelled_campaigns.len(), jobs, |shard| {
            labelled_campaigns[shard]
                .iter()
                .map(|(label, times)| {
                    Ok(PathAnalysis {
                        label: label.clone(),
                        report: config.analyze(times)?,
                    })
                })
                .collect()
        });
        // The engine concatenates shards in path order, so the first error
        // by path index wins deterministically.
        let paths = results
            .into_iter()
            .collect::<Result<Vec<_>, MbptaError>>()?;
        Ok(PerPathAnalysis { paths })
    }

    /// The individual path analyses.
    pub fn paths(&self) -> &[PathAnalysis] {
        &self.paths
    }

    /// The program-level pWCET budget at cutoff `p`: the maximum across
    /// paths, with the winning path's label.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] unless `0 < p < 1`.
    pub fn worst_path_budget(&self, p: f64) -> Result<(&str, f64), MbptaError> {
        let mut best: Option<(&str, f64)> = None;
        for path in &self.paths {
            let b = path.report.budget_for(p)?;
            if best.is_none_or(|(_, cur)| b > cur) {
                best = Some((path.label.as_str(), b));
            }
        }
        // proxima-lint: allow(no-lib-panic) -- PathSet construction rejects
        // an empty path list, so the loop above ran at least once.
        Ok(best.expect("at least one path by construction"))
    }

    /// The program-level pWCET curve: max across paths at each probability.
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is invalid.
    pub fn envelope_curve(&self, probabilities: &[f64]) -> Result<Vec<(f64, f64)>, MbptaError> {
        probabilities
            .iter()
            .map(|&p| Ok((self.worst_path_budget(p)?.1, p)))
            .collect()
    }

    /// Highest observed execution time across all paths.
    pub fn high_watermark(&self) -> f64 {
        self.paths
            .iter()
            .map(|p| p.report.high_watermark())
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn campaign(base: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| base + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 80.0)
            .collect()
    }

    fn three_paths() -> Vec<(String, Vec<f64>)> {
        // Seeds chosen to pass the 5%-level iid gate (any generator has a
        // 5% false-rejection rate per test; fixed seeds keep CI stable).
        vec![
            ("nominal".into(), campaign(1.0e5, 1000, 4)),
            ("saturated".into(), campaign(1.1e5, 1000, 20)),
            ("fault".into(), campaign(1.3e5, 1000, 40)),
        ]
    }

    #[test]
    fn worst_path_is_the_slowest() {
        let a = PerPathAnalysis::run(&three_paths(), &MbptaConfig::default()).unwrap();
        let (label, budget) = a.worst_path_budget(1e-12).unwrap();
        assert_eq!(label, "fault");
        assert!(budget > 1.3e5);
    }

    #[test]
    fn envelope_dominates_each_path() {
        let a = PerPathAnalysis::run(&three_paths(), &MbptaConfig::default()).unwrap();
        let p = 1e-9;
        let (_, envelope) = a.worst_path_budget(p).unwrap();
        for path in a.paths() {
            assert!(envelope >= path.report.budget_for(p).unwrap());
        }
    }

    #[test]
    fn envelope_curve_monotone() {
        let a = PerPathAnalysis::run(&three_paths(), &MbptaConfig::default()).unwrap();
        let probs: Vec<f64> = (3..=15).map(|e| 10f64.powi(-e)).collect();
        let curve = a.envelope_curve(&probs).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn high_watermark_across_paths() {
        let paths = three_paths();
        let expected = paths
            .iter()
            .flat_map(|(_, t)| t.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        let a = PerPathAnalysis::run(&paths, &MbptaConfig::default()).unwrap();
        assert_eq!(a.high_watermark(), expected);
    }

    #[test]
    fn fan_out_identical_across_job_counts() {
        let paths = three_paths();
        let serial = PerPathAnalysis::run_with_jobs(&paths, &MbptaConfig::default(), 1).unwrap();
        for jobs in [2, 3, 8] {
            let parallel =
                PerPathAnalysis::run_with_jobs(&paths, &MbptaConfig::default(), jobs).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn parallel_error_is_first_by_path_order() {
        // Two failing paths with distinct errors: every job count must
        // report the earlier one — the degenerate path at index 1 (stats
        // error), not the drifting tail path (iid rejection).
        let mut paths = three_paths();
        paths.insert(1, ("degenerate".into(), vec![100.0; 1000]));
        let drifting: Vec<f64> = (0..1000).map(|i| 1e5 + i as f64 * 50.0).collect();
        paths.push(("drift".into(), drifting));
        let serial = PerPathAnalysis::run_with_jobs(&paths, &MbptaConfig::default(), 1)
            .expect_err("degenerate path must fail");
        for jobs in [2, 8] {
            let parallel = PerPathAnalysis::run_with_jobs(&paths, &MbptaConfig::default(), jobs)
                .expect_err("degenerate path must fail");
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_paths_rejected() {
        assert!(matches!(
            PerPathAnalysis::run(&[], &MbptaConfig::default()),
            Err(MbptaError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn failing_path_fails_the_analysis() {
        let mut paths = three_paths();
        paths.push(("degenerate".into(), vec![100.0; 1000]));
        assert!(PerPathAnalysis::run(&paths, &MbptaConfig::default()).is_err());
    }
}
