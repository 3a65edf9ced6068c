//! Translation lookaside buffer model.

use proxima_prng::RandomSource;

use crate::addr::Addr;
use crate::cache::ReplacementPolicy;

/// TLB geometry and policy.
///
/// The paper's platform has 64-entry instruction and data TLBs with random
/// replacement (one of the listed hardware modifications). LEON3 TLBs are
/// fully associative, which is how this model treats them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_size: u64,
    /// Victim-selection policy on a miss.
    pub replacement: ReplacementPolicy,
}

impl TlbConfig {
    /// The paper's 64-entry TLB with 4 KB pages and the given policy.
    pub fn leon3(replacement: ReplacementPolicy) -> Self {
        TlbConfig {
            entries: 64,
            page_size: 4096,
            replacement,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::leon3(ReplacementPolicy::Random)
    }
}

/// Fully associative TLB.
///
/// # Examples
///
/// ```
/// use proxima_sim::{Addr, Tlb, TlbConfig};
/// use proxima_prng::Mwc64;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// let mut rng = Mwc64::new(0);
/// assert!(!tlb.access(Addr::new(0x1000), &mut rng)); // cold miss
/// assert!(tlb.access(Addr::new(0x1FFF), &mut rng));  // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    pages: Vec<Option<u64>>,
    stamps: Vec<u64>,
    rr_ptr: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Build an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            pages: vec![None; config.entries],
            stamps: vec![0; config.entries],
            rr_ptr: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// The TLB configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// `(hits, misses)` since the last flush.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidate all entries and reset statistics.
    pub fn flush(&mut self) {
        self.pages.fill(None);
        self.stamps.fill(0);
        self.rr_ptr = 0;
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Translate `addr`; returns `true` on a TLB hit. On a miss the page is
    /// installed, evicting a victim chosen by the replacement policy.
    pub fn access<R: RandomSource + ?Sized>(&mut self, addr: Addr, rng: &mut R) -> bool {
        let page = addr.page(self.config.page_size);
        let mut slot = self
            .pages
            .iter()
            .position(|&p| p == Some(page))
            .unwrap_or(usize::MAX);
        self.access_page(page, &mut slot, rng)
    }

    /// Translate `page`, given `*slot`: the slot `page` was last installed
    /// in since the flush, or any out-of-range value if it never was.
    /// Entries never move, so `page` is present exactly when that slot
    /// still holds it, and no scan is needed. A miss installs `page` and
    /// writes its new slot back.
    pub(crate) fn access_page<R: RandomSource + ?Sized>(
        &mut self,
        page: u64,
        slot: &mut usize,
        rng: &mut R,
    ) -> bool {
        self.tick += 1;
        if self.pages.get(*slot) == Some(&Some(page)) {
            self.stamps[*slot] = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let victim = (0..self.pages.len())
            .find(|&i| self.pages[i].is_none())
            .unwrap_or_else(|| {
                self.config
                    .replacement
                    .victim(&self.stamps, &mut self.rr_ptr, rng)
            });
        self.pages[victim] = Some(page);
        self.stamps[victim] = self.tick;
        *slot = victim;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_prng::Mwc64;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let mut rng = Mwc64::new(0);
        assert!(!tlb.access(Addr::new(0x1000), &mut rng));
        assert!(tlb.access(Addr::new(0x1ABC), &mut rng));
        assert!(!tlb.access(Addr::new(0x2000), &mut rng));
        assert_eq!(tlb.stats(), (1, 2));
    }

    #[test]
    fn capacity_is_respected() {
        // Touch 64 distinct pages, then all should hit.
        let mut tlb = Tlb::new(TlbConfig::leon3(ReplacementPolicy::Lru));
        let mut rng = Mwc64::new(0);
        for p in 0..64u64 {
            tlb.access(Addr::new(p * 4096), &mut rng);
        }
        for p in 0..64u64 {
            assert!(tlb.access(Addr::new(p * 4096), &mut rng), "page {p}");
        }
    }

    #[test]
    fn lru_eviction_on_65th_page() {
        let mut tlb = Tlb::new(TlbConfig::leon3(ReplacementPolicy::Lru));
        let mut rng = Mwc64::new(0);
        for p in 0..65u64 {
            tlb.access(Addr::new(p * 4096), &mut rng);
        }
        // Page 0 was LRU: must have been evicted.
        assert!(!tlb.access(Addr::new(0), &mut rng));
    }

    #[test]
    fn random_replacement_survivors_vary() {
        let survivors = |seed: u64| {
            let mut tlb = Tlb::new(TlbConfig::leon3(ReplacementPolicy::Random));
            let mut rng = Mwc64::new(seed);
            for p in 0..80u64 {
                tlb.access(Addr::new(p * 4096), &mut rng);
            }
            (0..80u64)
                .filter(|&p| {
                    // Probe without disturbing: check via a fresh read of
                    // internal state is not exposed; use stats delta trick.
                    let (h0, _) = tlb.stats();
                    let hit = {
                        // Cloning keeps the probe side-effect free.
                        let mut probe = tlb.clone();
                        let mut r2 = Mwc64::new(0);
                        probe.access(Addr::new(p * 4096), &mut r2)
                    };
                    let _ = h0;
                    hit
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(survivors(1), survivors(2));
    }

    #[test]
    fn flush_resets() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let mut rng = Mwc64::new(0);
        tlb.access(Addr::new(0x5000), &mut rng);
        tlb.flush();
        assert_eq!(tlb.stats(), (0, 0));
        assert!(!tlb.access(Addr::new(0x5000), &mut rng));
    }
}
