//! Shared harness code for the experiment binaries.
//!
//! Each `exp_*` binary regenerates one table or figure of the paper
//! (README's "Benchmarks and experiments" lists them, and
//! `tests/exp_golden.rs` pins their stdout); this library holds the common
//! campaign plumbing so every experiment uses exactly the same protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proxima_mbpta::Campaign;
use proxima_sim::{Inst, Platform, PlatformConfig};
use proxima_workload::tvca::{ControlMode, Tvca, TvcaConfig};

/// The number of measured runs the paper uses (3,000).
pub const PAPER_RUNS: usize = 3000;

/// Default base seed for campaigns; chosen away from the known bad pocket
/// near 1.0e6 (see `tests/per_path.rs`).
pub const BASE_SEED: u64 = 10_000_000;

/// Run a measurement campaign of the TVCA `mode` path on `config`.
///
/// # Panics
///
/// Panics if the campaign cannot be constructed (simulated platforms
/// always produce valid times).
pub fn tvca_campaign(
    config: PlatformConfig,
    mode: ControlMode,
    runs: usize,
    base_seed: u64,
) -> Campaign {
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(mode);
    let mut platform = Platform::new(config);
    Campaign::measure(&mut platform, &trace, runs, base_seed).expect("simulated campaign is valid")
}

/// Run a campaign of an arbitrary trace.
///
/// # Panics
///
/// Panics if the campaign cannot be constructed.
pub fn trace_campaign(
    config: PlatformConfig,
    trace: &[Inst],
    runs: usize,
    base_seed: u64,
) -> Campaign {
    let mut platform = Platform::new(config);
    Campaign::measure(&mut platform, trace, runs, base_seed).expect("simulated campaign is valid")
}

/// Format a cycle count with thousands separators for table output.
pub fn fmt_cycles(c: f64) -> String {
    let raw = format!("{c:.0}");
    let mut out = String::new();
    for (i, ch) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_cycles_groups_thousands() {
        assert_eq!(fmt_cycles(1234567.0), "1,234,567");
        assert_eq!(fmt_cycles(999.0), "999");
        assert_eq!(fmt_cycles(1000.0), "1,000");
    }

    #[test]
    fn tvca_campaign_runs() {
        let c = tvca_campaign(
            PlatformConfig::mbpta_compliant(),
            ControlMode::Nominal,
            20,
            BASE_SEED,
        );
        assert_eq!(c.len(), 20);
    }
}
