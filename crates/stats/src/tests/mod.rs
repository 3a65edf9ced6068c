//! Hypothesis tests used by the MBPTA i.i.d. gate and goodness-of-fit
//! checks.
//!
//! The paper's protocol (Section III, "Fulfilling the i.i.d properties"):
//! *independence* is tested with the Ljung-Box test and *identical
//! distribution* with the two-sample Kolmogorov-Smirnov test, both at a 5%
//! significance level; i.i.d. is rejected only if either p-value falls below
//! 0.05. The paper reports p-values of 0.83 (Ljung-Box) and 0.45 (KS) for
//! the TVCA campaign on the randomized platform.

mod anderson_darling;
mod ks;
mod ljung_box;
mod runs;

pub use anderson_darling::anderson_darling;
pub use ks::{ks_one_sample, ks_two_sample};
pub use ljung_box::{ljung_box, ljung_box_from_autocorr};
pub use runs::runs_test;

/// Result of a hypothesis test: the statistic and its p-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The value of the test statistic.
    pub statistic: f64,
    /// The p-value: probability, under the null hypothesis, of a statistic
    /// at least as extreme as observed.
    pub p_value: f64,
}

impl TestResult {
    /// `true` if the null hypothesis is **not** rejected at significance
    /// level `alpha` (i.e. `p_value >= alpha`).
    ///
    /// MBPTA convention: "the test is passed" means the sample is consistent
    /// with the null (independence / identical distribution), enabling the
    /// analysis.
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_stats::tests::TestResult;
    ///
    /// let r = TestResult { statistic: 12.3, p_value: 0.83 };
    /// assert!(r.passes(0.05));
    /// ```
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

impl std::fmt::Display for TestResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "statistic={:.4}, p={:.4}", self.statistic, self.p_value)
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn passes_threshold_semantics() {
        let r = TestResult {
            statistic: 1.0,
            p_value: 0.05,
        };
        assert!(r.passes(0.05), "boundary counts as pass (>= alpha)");
        let r2 = TestResult {
            statistic: 1.0,
            p_value: 0.049,
        };
        assert!(!r2.passes(0.05));
    }

    #[test]
    fn display_format() {
        let r = TestResult {
            statistic: 2.5,
            p_value: 0.45,
        };
        let s = r.to_string();
        assert!(s.contains("2.5") && s.contains("0.45"));
    }
}
