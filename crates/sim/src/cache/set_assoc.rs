//! The set-associative cache structure.

use super::{PlacementPolicy, ReplacementPolicy};
use crate::addr::Addr;
use proxima_prng::RandomSource;

/// Geometry and policies of one cache.
///
/// The paper's IL1 and DL1 are 16 KB, 4-way, and this crate defaults to
/// 32-byte lines (the LEON3 line size), giving 128 sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Index-generation policy.
    pub placement: PlacementPolicy,
    /// Victim-selection policy.
    pub replacement: ReplacementPolicy,
    /// Whether a store miss allocates the line (`false` for the LEON3 DL1,
    /// which is write-through **no-write-allocate**).
    pub allocate_on_write: bool,
}

impl CacheConfig {
    /// The paper's 16 KB 4-way L1 geometry with the given policies.
    pub fn leon3_l1(placement: PlacementPolicy, replacement: ReplacementPolicy) -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_size: 32,
            placement,
            replacement,
            allocate_on_write: false,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (not power-of-two sets).
    pub fn n_sets(&self) -> u64 {
        let sets = self.size_bytes / (self.ways * self.line_size);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "cache geometry must give a power-of-two set count, got {sets}"
        );
        sets
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::leon3_l1(PlacementPolicy::default(), ReplacementPolicy::default())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; `allocated` says whether it was brought in.
    Miss {
        /// Whether the line was allocated into the cache.
        allocated: bool,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 if there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache with pluggable placement and replacement.
///
/// # Examples
///
/// ```
/// use proxima_sim::{Addr, CacheConfig, PlacementPolicy, ReplacementPolicy, SetAssocCache};
/// use proxima_prng::Mwc64;
///
/// let cfg = CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Lru);
/// let mut cache = SetAssocCache::new(cfg);
/// let mut rng = Mwc64::new(0);
/// cache.reseed(0);
/// assert!(!cache.access(Addr::new(0x1000), false, &mut rng).is_hit()); // cold miss
/// assert!(cache.access(Addr::new(0x1000), false, &mut rng).is_hit());  // now present
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    n_sets: u64,
    /// `tags[set * ways + way]`: Some(line) if valid.
    tags: Vec<Option<u64>>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    /// Per-set round-robin pointers.
    rr_ptrs: Vec<usize>,
    /// Monotonic access counter for LRU stamping.
    tick: u64,
    /// Per-run placement seed (set by [`SetAssocCache::reseed`]).
    placement_seed: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.n_sets();
        let slots = (n_sets * config.ways) as usize;
        SetAssocCache {
            config,
            n_sets,
            tags: vec![None; slots],
            stamps: vec![0; slots],
            rr_ptrs: vec![0; n_sets as usize],
            tick: 0,
            placement_seed: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters accumulated since the last [`SetAssocCache::flush`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate every line and reset statistics (the per-run cache flush
    /// of the measurement protocol).
    pub fn flush(&mut self) {
        self.tags.fill(None);
        self.stamps.fill(0);
        self.rr_ptrs.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Invalidate the lines of the sets `touched` names (one bit per set)
    /// and reset statistics: the per-run flush, when every other set is
    /// known to be empty already.
    pub(crate) fn flush_sets(&mut self, touched: &[u64]) {
        let ways = self.config.ways as usize;
        for (w, &word) in touched.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let set = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.tags[set * ways..(set + 1) * ways].fill(None);
                self.stamps[set * ways..(set + 1) * ways].fill(0);
                self.rr_ptrs[set] = 0;
            }
        }
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Install the per-run placement seed (a fresh seed per run is the
    /// "set a new seed for each experiment" step of the paper's protocol).
    pub fn reseed(&mut self, placement_seed: u64) {
        self.placement_seed = placement_seed;
    }

    /// Access the line containing `addr`.
    ///
    /// `is_write` selects store semantics: with
    /// [`CacheConfig::allocate_on_write`] false (write-through
    /// no-write-allocate), a store miss does not install the line.
    /// `rng` supplies victim-way randomness for random replacement.
    pub fn access<R: RandomSource + ?Sized>(
        &mut self,
        addr: Addr,
        is_write: bool,
        rng: &mut R,
    ) -> AccessOutcome {
        let line = addr.line(self.config.line_size);
        self.access_line(line, is_write, rng)
    }

    /// Access by pre-computed line index.
    pub fn access_line<R: RandomSource + ?Sized>(
        &mut self,
        line: u64,
        is_write: bool,
        rng: &mut R,
    ) -> AccessOutcome {
        let set = self
            .config
            .placement
            .set_index(line, self.n_sets, self.placement_seed);
        self.access_in_set(set, line, is_write, rng)
    }

    /// Access `line` in `set`, which must be the set the placement policy
    /// gives it under the current placement seed. The decoded engine
    /// computes each distinct line's set once per run and comes in here.
    pub(crate) fn access_in_set<R: RandomSource + ?Sized>(
        &mut self,
        set: u64,
        line: u64,
        is_write: bool,
        rng: &mut R,
    ) -> AccessOutcome {
        let base = (set * self.config.ways) as usize;
        let ways = self.config.ways as usize;
        self.tick += 1;

        // Lookup.
        for way in 0..ways {
            if self.tags[base + way] == Some(line) {
                self.stamps[base + way] = self.tick;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }
        self.stats.misses += 1;

        let allocate = !is_write || self.config.allocate_on_write;
        if allocate {
            // Prefer an invalid way; otherwise consult the policy.
            let victim = (0..ways)
                .find(|&w| self.tags[base + w].is_none())
                .unwrap_or_else(|| {
                    self.config.replacement.victim(
                        &self.stamps[base..base + ways],
                        &mut self.rr_ptrs[set as usize],
                        rng,
                    )
                });
            self.tags[base + victim] = Some(line);
            self.stamps[base + victim] = self.tick;
        }
        AccessOutcome::Miss {
            allocated: allocate,
        }
    }

    /// `true` if the line containing `addr` is currently cached (no state
    /// change, no statistics impact).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = addr.line(self.config.line_size);
        let set = self
            .config
            .placement
            .set_index(line, self.n_sets, self.placement_seed);
        let base = (set * self.config.ways) as usize;
        (0..self.config.ways as usize).any(|w| self.tags[base + w] == Some(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_prng::Mwc64;

    fn det_cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::leon3_l1(
            PlacementPolicy::Modulo,
            ReplacementPolicy::Lru,
        ))
    }

    #[test]
    fn geometry_of_leon3_l1() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.n_sets(), 128);
        assert_eq!(cfg.size_bytes, 16 * 1024);
        assert_eq!(cfg.ways, 4);
        assert!(!cfg.allocate_on_write);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x4000);
        assert!(!c.access(a, false, &mut rng).is_hit());
        assert!(c.access(a, false, &mut rng).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        c.access(Addr::new(0x4000), false, &mut rng);
        assert!(c.access(Addr::new(0x401F), false, &mut rng).is_hit());
        assert!(!c.access(Addr::new(0x4020), false, &mut rng).is_hit());
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x8000);
        let out = c.access(a, true, &mut rng);
        assert_eq!(out, AccessOutcome::Miss { allocated: false });
        assert!(!c.probe(a), "no-write-allocate must leave the line out");
        // A subsequent load still misses.
        assert!(!c.access(a, false, &mut rng).is_hit());
    }

    #[test]
    fn write_hit_keeps_line() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        let a = Addr::new(0x8000);
        c.access(a, false, &mut rng); // allocate via load
        assert!(c.access(a, true, &mut rng).is_hit());
        assert!(c.probe(a));
    }

    #[test]
    fn lru_evicts_least_recent_of_full_set() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        // 5 lines mapping to the same set (stride = n_sets * line = 4096).
        let lines: Vec<Addr> = (0..5).map(|i| Addr::new(0x1000 + i * 4096)).collect();
        for a in &lines[..4] {
            c.access(*a, false, &mut rng);
        }
        // Touch 0..3 again so line 0 is oldest → fills stamps.
        for a in &lines[..4] {
            assert!(c.access(*a, false, &mut rng).is_hit());
        }
        c.access(lines[4], false, &mut rng); // evicts lines[0]
        assert!(!c.probe(lines[0]));
        assert!(c.probe(lines[1]));
        assert!(c.probe(lines[4]));
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        for i in 0..32 {
            c.access(Addr::new(i * 32), false, &mut rng);
        }
        c.flush();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.probe(Addr::new(0)));
        assert!(!c.access(Addr::new(0), false, &mut rng).is_hit());
    }

    #[test]
    fn working_set_within_capacity_has_no_conflict_misses() {
        // 512 distinct lines = exactly 16KB / 32B: with modulo placement
        // and LRU, a second sweep hits on every line.
        let mut c = det_cache();
        let mut rng = Mwc64::new(0);
        for i in 0..512u64 {
            c.access(Addr::new(i * 32), false, &mut rng);
        }
        for i in 0..512u64 {
            assert!(
                c.access(Addr::new(i * 32), false, &mut rng).is_hit(),
                "line {i} should hit on the second sweep"
            );
        }
    }

    #[test]
    fn random_replacement_varies_across_seeds() {
        // Thrash one set with 8 lines; the surviving tags depend on the RNG.
        let cfg = CacheConfig::leon3_l1(PlacementPolicy::Modulo, ReplacementPolicy::Random);
        let survivors = |seed: u64| {
            let mut c = SetAssocCache::new(cfg);
            let mut rng = Mwc64::new(seed);
            for i in 0..8u64 {
                c.access(Addr::new(0x100 + i * 4096), false, &mut rng);
            }
            (0..8u64)
                .filter(|i| c.probe(Addr::new(0x100 + i * 4096)))
                .collect::<Vec<_>>()
        };
        let all_same = (1..20).all(|s| survivors(s) == survivors(0));
        assert!(!all_same, "random replacement should differ across seeds");
    }

    #[test]
    fn random_modulo_defuses_pathological_aliasing() {
        // 8 lines aliasing to one modulo set thrash a 4-way LRU set under
        // modulo placement but scatter across sets under random modulo.
        let run = |placement: PlacementPolicy, seed: u64| {
            let cfg = CacheConfig::leon3_l1(placement, ReplacementPolicy::Lru);
            let mut c = SetAssocCache::new(cfg);
            c.reseed(seed);
            let mut rng = Mwc64::new(seed);
            for _round in 0..20 {
                for i in 0..8u64 {
                    c.access(Addr::new(0x100 + i * 4096), false, &mut rng);
                }
            }
            c.stats().misses
        };
        let det = run(PlacementPolicy::Modulo, 0);
        assert_eq!(det, 160, "8 lines round-robin in a 4-way LRU set: all miss");
        for seed in 0..16 {
            assert!(
                run(PlacementPolicy::RandomModulo, seed) < det,
                "random modulo must break the alias pathology (seed {seed})"
            );
        }
    }

    #[test]
    fn random_modulo_miss_count_varies_across_seeds() {
        // Exceed capacity (600 windows > 512 lines of space): how badly the
        // working set collides is a per-seed random variable.
        let cfg = CacheConfig::leon3_l1(PlacementPolicy::RandomModulo, ReplacementPolicy::Lru);
        let misses = |seed: u64| {
            let mut c = SetAssocCache::new(cfg);
            c.reseed(seed);
            let mut rng = Mwc64::new(seed);
            for _round in 0..3 {
                for i in 0..600u64 {
                    // One line per alignment window: placement fully random.
                    c.access(Addr::new(i * 4096), false, &mut rng);
                }
            }
            c.stats().misses
        };
        let counts: std::collections::HashSet<u64> = (0..16).map(misses).collect();
        assert!(
            counts.len() > 1,
            "miss counts should vary across placement seeds"
        );
    }

    #[test]
    fn stats_miss_ratio() {
        let s = CacheStats {
            hits: 30,
            misses: 10,
        };
        assert_eq!(s.accesses(), 40);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-15);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
