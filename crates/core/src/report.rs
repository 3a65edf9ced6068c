//! Human-readable analysis reports and plot-data export.

use crate::pipeline::MbptaReport;
use crate::MbptaError;

/// Render an [`MbptaReport`] as the text block an engineer would paste in
/// a verification dossier: campaign summary, i.i.d. evidence, fit
/// diagnostics, and the pWCET table at the customary cutoffs.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::{render_report, MbptaConfig};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let times: Vec<f64> = (0..1000)
///     .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
///     .collect();
/// let report = MbptaConfig::default().analyze(&times)?;
/// let text = render_report(&report);
/// assert!(text.contains("Ljung-Box"));
/// assert!(text.contains("1e-12"));
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
pub fn render_report(report: &MbptaReport) -> String {
    let mut out = String::new();
    let s = &report.campaign_summary;
    out.push_str("=== MBPTA analysis report ===\n");
    out.push_str(&format!(
        "campaign: n={} mean={:.1} sd={:.1} min={:.0} max={:.0} (high watermark)\n",
        s.n, s.mean, s.std_dev, s.min, s.max
    ));
    out.push_str(&format!(
        "i.i.d. gate (alpha={:.2}): Ljung-Box p={:.3} | two-sample KS p={:.3} => {}\n",
        report.iid.alpha,
        report.iid.ljung_box.p_value,
        report.iid.ks.p_value,
        if report.iid.passed {
            "PASSED"
        } else {
            "REJECTED"
        }
    ));
    if let Some(runs) = report.iid.runs {
        out.push_str(&format!(
            "runs-test diagnostic: z={:+.2}, p={:.3}\n",
            runs.statistic, runs.p_value
        ));
    }
    out.push_str(&format!(
        "tail fit: Gumbel(mu={:.1}, beta={:.2}) on {} maxima (block={}), KS GoF p={:.3}\n",
        report.fit.gumbel.mu(),
        report.fit.gumbel.beta(),
        report.fit.n_maxima,
        report.fit.block_size,
        report.fit.gof.ks.p_value
    ));
    if let Some(gev) = report.fit.gev_diagnostic {
        out.push_str(&format!("GEV shape diagnostic: xi={:+.3}\n", gev.xi()));
    }
    if let Some(gpd) = report.fit.pot_cross_check {
        out.push_str(&format!(
            "POT cross-check: GPD(xi={:+.3}, sigma={:.2}) above u={:.0}\n",
            gpd.xi(),
            gpd.sigma(),
            gpd.threshold()
        ));
    }
    out.push_str("pWCET estimates:\n");
    for exp in [3i32, 6, 9, 12, 15] {
        let p = 10f64.powi(-exp);
        match report.pwcet.budget_for(p) {
            Ok(budget) => {
                let vs_hwm = budget / s.max;
                out.push_str(&format!(
                    "  P(exceed) = 1e-{exp:<2} : {budget:>14.0} cycles  ({vs_hwm:.3}x high watermark)\n"
                ));
            }
            Err(e) => out.push_str(&format!("  P(exceed) = 1e-{exp:<2} : error {e}\n")),
        }
    }
    out
}

/// Render the pWCET curve as CSV (`budget_cycles,exceedance_probability`),
/// ready for external plotting of Figure 2's projection line.
///
/// # Errors
///
/// Returns [`MbptaError::Stats`] if any probability is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::{render_pwcet_csv, MbptaConfig};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let times: Vec<f64> = (0..1000)
///     .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
///     .collect();
/// let report = MbptaConfig::default().analyze(&times)?;
/// let csv = render_pwcet_csv(&report, &[1e-6, 1e-9, 1e-12])?;
/// assert!(csv.starts_with("budget_cycles,exceedance_probability"));
/// assert_eq!(csv.lines().count(), 4);
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
pub fn render_pwcet_csv(report: &MbptaReport, probabilities: &[f64]) -> Result<String, MbptaError> {
    let mut out = String::from("budget_cycles,exceedance_probability\n");
    for (budget, p) in report.pwcet.curve(probabilities)? {
        out.push_str(&format!("{budget:.3},{p:e}\n"));
    }
    Ok(out)
}

/// Render the empirical survival staircase of a campaign as CSV
/// (`execution_time,empirical_exceedance`) — the observed side of a pWCET
/// plot.
///
/// # Errors
///
/// Returns [`MbptaError::Stats`] on an empty or non-finite sample.
pub fn render_survival_csv(times: &[f64]) -> Result<String, MbptaError> {
    let ecdf = proxima_stats::ecdf::Ecdf::new(times).map_err(MbptaError::Stats)?;
    let mut out = String::from("execution_time,empirical_exceedance\n");
    for (x, s) in ecdf.survival_points() {
        out.push_str(&format!("{x:.3},{s:e}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MbptaConfig;
    use rand::{Rng, SeedableRng};

    fn sample_report() -> MbptaReport {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let times: Vec<f64> = (0..1500)
            .map(|_| 2e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 120.0)
            .collect();
        MbptaConfig::default().analyze(&times).unwrap()
    }

    #[test]
    fn report_contains_all_sections() {
        let text = render_report(&sample_report());
        for needle in [
            "MBPTA analysis report",
            "high watermark",
            "Ljung-Box",
            "two-sample KS",
            "Gumbel",
            "pWCET estimates",
            "1e-15",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn passed_gate_rendered() {
        let text = render_report(&sample_report());
        assert!(text.contains("PASSED"));
    }

    #[test]
    fn pwcet_csv_well_formed() {
        let r = sample_report();
        let csv = render_pwcet_csv(&r, &[1e-3, 1e-6, 1e-9]).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "budget_cycles,exceedance_probability");
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 2);
            assert!(cols[0].parse::<f64>().is_ok(), "{line}");
            assert!(cols[1].parse::<f64>().is_ok(), "{line}");
        }
        assert!(render_pwcet_csv(&r, &[2.0]).is_err());
    }

    #[test]
    fn survival_csv_covers_all_observations() {
        let times = vec![3.0, 1.0, 2.0, 2.0];
        let csv = render_survival_csv(&times).unwrap();
        assert_eq!(csv.lines().count(), 5); // header + 4 points
        assert!(csv.lines().last().unwrap().starts_with("3.000"));
        assert!(render_survival_csv(&[]).is_err());
    }

    #[test]
    fn budgets_in_report_increase_with_exponent() {
        let r = sample_report();
        let b3 = r.budget_for(1e-3).unwrap();
        let b15 = r.budget_for(1e-15).unwrap();
        assert!(b15 > b3);
        let text = render_report(&r);
        // The 1e-15 row exists and mentions a multiplier of the HWM.
        assert!(text.contains("x high watermark"));
    }
}
