//! Shared bus and arbitration model.

use proxima_prng::RandomSource;

/// The shared bus connecting the four cores' L1 misses to the memory
/// controller.
///
/// Arbitration is round-robin across cores. For the analysed core this
/// appears as a bounded, *randomized* extra delay per bus transaction: the
/// position of the round-robin token relative to the core's request is a
/// random variable in `0..cores`, and each interfering core that holds the
/// bus adds one transfer slot. Randomizing the token at each arbitration
/// (equivalent to the analysed task observing an arbitrary arbitration
/// phase) makes the bus MBPTA-compliant: the measured delays sample the
/// full delay distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusModel {
    /// Number of cores that can contend (the LEON3 board has 4).
    pub cores: u64,
    /// Number of *active* interfering cores (0 = the analysed core runs
    /// alone, the paper's TVCA configuration).
    pub interfering: u64,
    /// Cycles for one bus transfer slot.
    pub slot_cycles: u64,
}

impl BusModel {
    /// A 4-core LEON3 bus with the given number of interfering cores.
    ///
    /// # Panics
    ///
    /// Panics if `interfering >= 4`.
    pub fn leon3(interfering: u64) -> Self {
        assert!(interfering < 4, "a 4-core bus has at most 3 interferers");
        BusModel {
            cores: 4,
            interfering,
            slot_cycles: 8,
        }
    }

    /// Delay (cycles) for one bus transaction of the analysed core,
    /// including the transfer itself plus randomized arbitration among the
    /// interfering cores.
    pub fn transaction_cycles<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        // Token position uniform over 0..=interfering: each interferer
        // ahead of us in the round costs one slot.
        self.fixed_transaction_cycles()
            .unwrap_or_else(|| self.slot_cycles * (1 + rng.below(self.interfering + 1)))
    }

    /// The delay of every transaction when arbitration draws nothing
    /// (no interfering core), or `None` when each transaction draws its
    /// delay from the RNG.
    pub(crate) fn fixed_transaction_cycles(&self) -> Option<u64> {
        (self.interfering == 0).then_some(self.slot_cycles)
    }

    /// Worst-case delay for one transaction (all interferers ahead).
    pub fn worst_transaction_cycles(&self) -> u64 {
        self.slot_cycles * (1 + self.interfering)
    }
}

impl Default for BusModel {
    fn default() -> Self {
        BusModel::leon3(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_prng::Mwc64;

    #[test]
    fn no_interference_is_deterministic() {
        let bus = BusModel::leon3(0);
        let mut rng = Mwc64::new(1);
        for _ in 0..100 {
            assert_eq!(bus.transaction_cycles(&mut rng), 8);
        }
        assert_eq!(bus.fixed_transaction_cycles(), Some(8));
        assert_eq!(bus.worst_transaction_cycles(), 8);
        assert_eq!(BusModel::leon3(1).fixed_transaction_cycles(), None);
    }

    #[test]
    fn interference_bounded_by_worst_case() {
        let bus = BusModel::leon3(3);
        let mut rng = Mwc64::new(2);
        for _ in 0..1000 {
            let c = bus.transaction_cycles(&mut rng);
            assert!(c >= bus.slot_cycles);
            assert!(c <= bus.worst_transaction_cycles());
        }
        assert_eq!(bus.worst_transaction_cycles(), 32);
    }

    #[test]
    fn interference_covers_full_range() {
        let bus = BusModel::leon3(3);
        let mut rng = Mwc64::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(bus.transaction_cycles(&mut rng));
        }
        assert_eq!(seen.len(), 4, "should see 8, 16, 24, 32: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn too_many_interferers_panics() {
        BusModel::leon3(4);
    }
}
