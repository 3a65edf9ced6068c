//! Cache placement (index-generation) policies.

use proxima_prng::{RandomSource, SplitMix64};

/// How a line address is mapped to a cache set.
///
/// * [`PlacementPolicy::Modulo`] — the conventional layout-sensitive
///   mapping: set = line mod n_sets. The memory position of code/data
///   determines which objects conflict, and the worst layout is practically
///   impossible for a measurement protocol to guarantee it has observed.
/// * [`PlacementPolicy::RandomModulo`] — the DAC 2016 design used by the
///   paper: the set index is the modulo index *rotated by a random amount
///   that depends on the upper address bits and the per-run seed*.
///   Consecutive lines within one alignment window still map to distinct
///   sets (spatial locality is preserved and intra-window conflicts remain
///   impossible), but whether two different windows collide is a fresh
///   random event each run — the property MBPTA needs.
/// * [`PlacementPolicy::HashRandom`] — fully hashed random placement
///   (ablation A1): every line gets an independent random set, destroying
///   the sequential-line guarantee. MBPTA-compliant but with worse average
///   behaviour for sequential code; included to reproduce the design
///   argument for random modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Conventional modulo placement (deterministic, layout-sensitive).
    Modulo,
    /// Random modulo placement (DAC 2016) — the paper's choice.
    #[default]
    RandomModulo,
    /// Parametric hash-based random placement (ablation).
    HashRandom,
}

impl PlacementPolicy {
    /// `true` if the policy randomizes placement across runs (and hence is
    /// MBPTA-compliant for the placement jitter source).
    pub fn is_randomized(self) -> bool {
        !matches!(self, PlacementPolicy::Modulo)
    }

    /// Map `line` (a cache-line index) to a set in `0..n_sets`, given the
    /// per-run placement `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_sets` is not a power of two (hardware index bits).
    pub fn set_index(self, line: u64, n_sets: u64, seed: u64) -> u64 {
        assert!(n_sets.is_power_of_two(), "n_sets must be a power of two");
        let (window, idx) = self.split(line, n_sets);
        (idx + self.offset(window, n_sets, seed)) & (n_sets - 1)
    }

    /// Split `line` into its placement window and its index in the
    /// window. Every policy places a line at `(idx + offset(window,
    /// seed)) mod n_sets`, so the lines of one window take distinct sets
    /// under every seed, and one hash per window places all of them.
    pub(crate) fn split(self, line: u64, n_sets: u64) -> (u64, u64) {
        match self {
            // The upper address bits name the window, the lower the index.
            PlacementPolicy::Modulo | PlacementPolicy::RandomModulo => {
                (line / n_sets, line & (n_sets - 1))
            }
            // Every line is a window of its own.
            PlacementPolicy::HashRandom => (line, 0),
        }
    }

    /// The rotation of `window`'s lines under the placement `seed`, in
    /// `0..n_sets`.
    pub(crate) fn offset(self, window: u64, n_sets: u64, seed: u64) -> u64 {
        match self {
            PlacementPolicy::Modulo => 0,
            // A window-specific random rotation: lines within a window
            // keep distinct sets.
            PlacementPolicy::RandomModulo => {
                hash64(seed ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & (n_sets - 1)
            }
            // An independent random set per line.
            PlacementPolicy::HashRandom => {
                hash64(seed ^ window.wrapping_mul(0xD6E8_FEB8_6659_FD93)) & (n_sets - 1)
            }
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlacementPolicy::Modulo => "modulo",
            PlacementPolicy::RandomModulo => "random-modulo",
            PlacementPolicy::HashRandom => "hash-random",
        })
    }
}

/// One round of SplitMix64 output as a stateless 64-bit mixer.
fn hash64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N_SETS: u64 = 128;

    #[test]
    fn modulo_matches_low_bits() {
        for line in [0u64, 1, 127, 128, 129, 100_000] {
            assert_eq!(
                PlacementPolicy::Modulo.set_index(line, N_SETS, 99),
                line % N_SETS
            );
        }
    }

    #[test]
    fn modulo_ignores_seed() {
        for seed in 0..10 {
            assert_eq!(
                PlacementPolicy::Modulo.set_index(1234, N_SETS, seed),
                1234 % N_SETS
            );
        }
    }

    #[test]
    fn random_modulo_preserves_intra_window_distinctness() {
        // All lines in one window must map to distinct sets, any seed.
        for seed in [0u64, 1, 7, 0xDEAD] {
            for window in [0u64, 3, 17] {
                let mut seen = vec![false; N_SETS as usize];
                for i in 0..N_SETS {
                    let line = window * N_SETS + i;
                    let s = PlacementPolicy::RandomModulo.set_index(line, N_SETS, seed) as usize;
                    assert!(!seen[s], "collision within window {window} at seed {seed}");
                    seen[s] = true;
                }
            }
        }
    }

    #[test]
    fn random_modulo_sequential_lines_stay_adjacent() {
        // Consecutive lines within a window map to consecutive (mod n) sets:
        // spatial locality in the index is preserved.
        let seed = 42;
        for i in 0..N_SETS - 1 {
            let a = PlacementPolicy::RandomModulo.set_index(i, N_SETS, seed);
            let b = PlacementPolicy::RandomModulo.set_index(i + 1, N_SETS, seed);
            assert_eq!((a + 1) & (N_SETS - 1), b);
        }
    }

    #[test]
    fn random_modulo_varies_with_seed() {
        let line = 5 * N_SETS + 3;
        let sets: std::collections::HashSet<u64> = (0..64)
            .map(|seed| PlacementPolicy::RandomModulo.set_index(line, N_SETS, seed))
            .collect();
        assert!(
            sets.len() > 16,
            "placement should vary across seeds, got {}",
            sets.len()
        );
    }

    #[test]
    fn random_modulo_windows_decorrelated() {
        // Two windows that conflict under modulo placement should conflict
        // only sometimes under random modulo.
        let line_a = 3; // window 0
        let line_b = N_SETS + 3; // window 1, same modulo index
        let mut collisions = 0;
        let trials = 1000;
        for seed in 0..trials {
            let sa = PlacementPolicy::RandomModulo.set_index(line_a, N_SETS, seed);
            let sb = PlacementPolicy::RandomModulo.set_index(line_b, N_SETS, seed);
            if sa == sb {
                collisions += 1;
            }
        }
        // Expected collision rate 1/n_sets ≈ 0.8%; allow generous band.
        assert!(collisions < trials / 20, "collisions={collisions}");
        assert!(collisions >= 1, "windows should collide occasionally");
    }

    #[test]
    fn hash_random_spreads_uniformly() {
        let mut counts = vec![0u32; N_SETS as usize];
        for line in 0..50_000u64 {
            let s = PlacementPolicy::HashRandom.set_index(line, N_SETS, 7);
            counts[s as usize] += 1;
        }
        let expected = 50_000.0 / N_SETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // χ²(127): mean 127, sd ≈ 16; anything below 250 is comfortably uniform.
        assert!(chi2 < 250.0, "chi2={chi2}");
    }

    #[test]
    fn hash_random_breaks_sequential_guarantee() {
        // Unlike random modulo, hashed placement lets two lines of the same
        // window collide for some seed.
        let mut found = false;
        'outer: for seed in 0..200u64 {
            for i in 0..N_SETS {
                for j in (i + 1)..N_SETS {
                    if PlacementPolicy::HashRandom.set_index(i, N_SETS, seed)
                        == PlacementPolicy::HashRandom.set_index(j, N_SETS, seed)
                    {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            found,
            "hash placement should produce intra-window collisions"
        );
    }

    #[test]
    fn lines_in_order_come_window_by_window_in_index_order() {
        // Decoding groups a cache's lines by window by sorting them by
        // line number, under every policy.
        for policy in [
            PlacementPolicy::Modulo,
            PlacementPolicy::RandomModulo,
            PlacementPolicy::HashRandom,
        ] {
            let split: Vec<(u64, u64)> = (0..4 * N_SETS)
                .map(|line| policy.split(line, N_SETS))
                .collect();
            assert!(split.windows(2).all(|p| p[0] < p[1]), "{policy}");
            assert!(split.iter().all(|&(_, idx)| idx < N_SETS));
        }
    }

    #[test]
    fn randomization_flags() {
        assert!(!PlacementPolicy::Modulo.is_randomized());
        assert!(PlacementPolicy::RandomModulo.is_randomized());
        assert!(PlacementPolicy::HashRandom.is_randomized());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        PlacementPolicy::Modulo.set_index(0, 100, 0);
    }
}
