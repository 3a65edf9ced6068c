//! Fingerprint-keyed query cache for snapshot/verdict responses.
//!
//! A verdict finishes a clone of what it covers: the one channel a
//! one-channel `VERDICT` names, or every channel of each worker for the
//! all-channel envelope — a final Gumbel refit plus its fit diagnostics
//! per channel. That is cheap once and wasteful when a dashboard polls
//! the same question between ingests. The cache stores **encoded
//! response payloads** keyed by a fingerprint of everything the answer
//! depends on:
//!
//! * the analysis-configuration fingerprint (stream config + cadences),
//! * the query kind and its parameters (channel, probability bits),
//! * the ingest progress the answer was computed at (per-channel
//!   count, or the session total for cross-channel queries).
//!
//! Folding the progress counters into the key makes invalidation
//! automatic: any ingest or merge moves the counters, so stale entries
//! simply stop being addressed and age out of the LRU. Repeat queries
//! between ingests are O(log n) — frame decode, one hash, one map
//! lookup, one recency refresh.
//!
//! Keys follow the FERN fingerprinting discipline (arXiv 2405.04435):
//! hash the *canonical encoding* of the inputs, never ad-hoc string
//! concatenation, so two queries collide only when their answers must
//! be bit-identical.
//!
//! Eviction is least-recently-*used* (a hit refreshes recency), not
//! FIFO: a dashboard that re-asks the same two questions between
//! ingests keeps them resident no matter how many one-off queries pass
//! through. Recency is a monotonic tick in a `BTreeMap`, so eviction
//! order is a pure function of the request sequence — the
//! `no-unordered-iter` lint rule can vouch for it, and so can a replay.
//!
//! An optional **opportunistic TTL** bounds how long an entry may stay
//! addressable, measured in the same logical ticks (never the wall
//! clock — expiry must replay deterministically). An entry older than
//! `ttl` ticks is dropped the next time it is touched: a `get` that
//! lands on it counts one expiry plus one miss, and every `insert`
//! sweeps expired entries from the cold end of the recency order
//! before applying the LRU bound. Nothing scans the whole cache —
//! expiry rides on operations that were happening anyway.

use std::collections::{BTreeMap, HashMap};

use proxima_mbpta::persist::{self, Encode, Writer};

/// One cached response with its bookkeeping ticks.
#[derive(Debug)]
struct Entry {
    payload: Vec<u8>,
    /// Recency tick of the last touch (mirrored in `recency`).
    touched: u64,
    /// Tick at which the payload was (re-)inserted; expiry measures
    /// from here, so refreshing recency does not extend a stale
    /// entry's life.
    inserted: u64,
}

/// LRU-bounded map from query fingerprint to encoded response payload.
#[derive(Debug)]
pub struct VerdictCache {
    capacity: usize,
    /// Entries older than this many ticks expire on touch (0 = never).
    ttl: u64,
    map: HashMap<u64, Entry>,
    /// Recency tick → key, oldest first. Mirrors `map` exactly: every
    /// entry holds the tick stored alongside its payload.
    recency: BTreeMap<u64, u64>,
    /// Monotonic logical clock; bumps on every get-hit and insert.
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    expirations: u64,
}

impl VerdictCache {
    /// Create a cache holding at most `capacity` responses, with no
    /// expiry.
    ///
    /// A capacity of 0 disables caching: every `get` misses and every
    /// `insert` is dropped.
    pub fn new(capacity: usize) -> Self {
        VerdictCache::with_ttl(capacity, 0)
    }

    /// Create a cache holding at most `capacity` responses whose
    /// entries expire once they are older than `ttl` logical ticks
    /// (one tick per get-hit or insert; `ttl` 0 disables expiry).
    ///
    /// "Older than" is strict: an entry inserted at tick `t` still
    /// answers a touch at tick `t + ttl` and is dropped by the first
    /// touch at `t + ttl + 1`. A `get` right after an `insert` sees age
    /// 1, so even `ttl = 1` answers it from the cache.
    pub fn with_ttl(capacity: usize, ttl: u64) -> Self {
        VerdictCache {
            capacity,
            ttl,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            expirations: 0,
        }
    }

    /// `true` when `inserted` is more than `ttl` ticks behind `now`.
    ///
    /// The boundary is **inclusive-exclusive**: an entry inserted at
    /// tick `t` is still live when touched at tick `t + ttl` (age
    /// exactly `ttl` is a hit) and expires on the first touch at
    /// `t + ttl + 1` or later. The strict `>` is what makes an
    /// insert-then-query at the same logical instant safe for every
    /// positive ttl: a `get` issued right after an `insert` sees age 1,
    /// so even `ttl = 1` answers it from the cache. A `>=` here would
    /// silently turn `ttl = 1` into "never hits".
    fn expired(&self, inserted: u64, now: u64) -> bool {
        self.ttl > 0 && now.saturating_sub(inserted) > self.ttl
    }

    /// Look up the encoded response for `key`, counting a hit or miss.
    /// A hit refreshes the entry's recency; a lookup that lands on an
    /// expired entry drops it and counts one expiry plus one miss.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let now = self.tick + 1;
        let stale = self
            .map
            .get(&key)
            .is_some_and(|entry| self.expired(entry.inserted, now));
        if stale {
            if let Some(entry) = self.map.remove(&key) {
                self.recency.remove(&entry.touched);
            }
            self.expirations += 1;
            self.misses += 1;
            return None;
        }
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                let bytes = entry.payload.clone();
                self.tick = now;
                self.recency.remove(&entry.touched);
                entry.touched = now;
                self.recency.insert(now, key);
                Some(bytes)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store the encoded response for `key`, sweeping expired entries
    /// from the cold end and then evicting the least-recently-used
    /// entry once the cache is full. Re-inserting an existing key
    /// replaces its payload and refreshes both its recency and its
    /// expiry clock.
    pub fn insert(&mut self, key: u64, value: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let entry = Entry {
            payload: value,
            touched: self.tick,
            inserted: self.tick,
        };
        match self.map.insert(key, entry) {
            Some(old) => {
                self.recency.remove(&old.touched);
            }
            None => {
                self.insertions += 1;
            }
        }
        self.recency.insert(self.tick, key);
        // Opportunistic sweep: the coldest entries are also the ones
        // most likely stale, so walk from the cold end while they are
        // expired. Stops at the first live entry — O(expired), not
        // O(cache).
        while let Some((&coldest_tick, &coldest_key)) = self.recency.first_key_value() {
            let stale = self
                .map
                .get(&coldest_key)
                .is_some_and(|e| self.expired(e.inserted, self.tick));
            if !stale {
                break;
            }
            self.recency.remove(&coldest_tick);
            self.map.remove(&coldest_key);
            self.expirations += 1;
        }
        while self.map.len() > self.capacity {
            // pop_first is the coldest tick; the mirror invariant
            // guarantees its key is present in the map.
            if let Some((_, coldest)) = self.recency.pop_first() {
                self.map.remove(&coldest);
                self.evictions += 1;
            }
        }
    }

    /// Entries currently held (always ≤ [`Self::capacity`]).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to recompute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Responses stored.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Entries dropped to respect the bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries dropped because they outlived the TTL.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }
}

/// Fingerprint an analysis configuration: FNV-1a over the canonical
/// encoding of anything that changes what a query would answer.
///
/// Use one fingerprint per server/session lifetime and fold it into
/// every [`query_key`].
pub fn config_fingerprint(parts: &[&dyn Encode]) -> u64 {
    let mut w = Writer::new();
    for part in parts {
        part.encode(&mut w);
    }
    persist::fnv1a(&w.into_bytes())
}

/// Build the cache key for one query.
///
/// `progress` is the ingest position the answer depends on: the
/// channel's accepted count for per-channel queries, the session total
/// for cross-channel ones. Any ingest moves it, which is what
/// invalidates stale entries. `p_bits` carries the probability as raw
/// bits (`f64::to_bits`) so distinct cutoffs never alias.
pub fn query_key(
    config_fingerprint: u64,
    kind: u8,
    channel: &str,
    progress: u64,
    p_bits: u64,
) -> u64 {
    let mut w = Writer::new();
    w.u64(config_fingerprint);
    w.u8(kind);
    w.str(channel);
    w.u64(progress);
    w.u64(p_bits);
    persist::fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = VerdictCache::new(4);
        let key = query_key(1, 2, "ch", 100, 0);
        assert_eq!(cache.get(key), None);
        cache.insert(key, vec![1, 2, 3]);
        assert_eq!(cache.get(key), Some(vec![1, 2, 3]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.insertions(), 1);
    }

    #[test]
    fn progress_in_key_invalidates_on_ingest() {
        let mut cache = VerdictCache::new(4);
        let before = query_key(1, 2, "ch", 100, 0);
        cache.insert(before, vec![9]);
        // After more measurements arrive the progress counter moved, so
        // the same logical query addresses a different key.
        let after = query_key(1, 2, "ch", 150, 0);
        assert_ne!(before, after);
        assert_eq!(cache.get(after), None);
    }

    #[test]
    fn distinct_probabilities_never_alias() {
        let a = query_key(1, 3, "*", 100, 1e-12f64.to_bits());
        let b = query_key(1, 3, "*", 100, 1e-9f64.to_bits());
        assert_ne!(a, b);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut cache = VerdictCache::new(2);
        let keys: Vec<u64> = (0..4).map(|i| query_key(7, 1, "ch", i, 0)).collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(k, vec![i as u8]);
            assert!(cache.len() <= 2);
        }
        assert_eq!(cache.evictions(), 2);
        // With no touches between inserts, LRU degenerates to FIFO:
        // oldest two gone, newest two present.
        assert_eq!(cache.get(keys[0]), None);
        assert_eq!(cache.get(keys[1]), None);
        assert_eq!(cache.get(keys[2]), Some(vec![2]));
        assert_eq!(cache.get(keys[3]), Some(vec![3]));
    }

    #[test]
    fn hit_refreshes_recency_and_redirects_eviction() {
        let mut cache = VerdictCache::new(2);
        let keys: Vec<u64> = (0..3).map(|i| query_key(7, 1, "ch", i, 0)).collect();
        cache.insert(keys[0], vec![0]);
        cache.insert(keys[1], vec![1]);
        // Touch the older entry: now keys[1] is the LRU victim.
        assert_eq!(cache.get(keys[0]), Some(vec![0]));
        cache.insert(keys[2], vec![2]);
        assert_eq!(cache.get(keys[1]), None, "untouched entry evicts first");
        assert_eq!(cache.get(keys[0]), Some(vec![0]), "touched entry survives");
        assert_eq!(cache.get(keys[2]), Some(vec![2]));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn repeat_hits_keep_working_set_resident_through_churn() {
        let mut cache = VerdictCache::new(2);
        let hot = query_key(7, 1, "hot", 1, 0);
        cache.insert(hot, vec![42]);
        for i in 0..50 {
            let one_off = query_key(7, 1, "cold", i, 0);
            cache.insert(one_off, vec![i as u8]);
            // The dashboard re-asks its question between one-offs.
            assert_eq!(cache.get(hot), Some(vec![42]), "iteration {i}");
        }
        assert_eq!(
            cache.evictions(),
            49,
            "every one-off evicted the prior one-off"
        );
    }

    #[test]
    fn reinsert_does_not_duplicate_order_entries() {
        let mut cache = VerdictCache::new(2);
        let key = query_key(7, 1, "ch", 1, 0);
        cache.insert(key, vec![1]);
        cache.insert(key, vec![2]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.insertions(), 1);
        assert_eq!(cache.get(key), Some(vec![2]));
    }

    #[test]
    fn recency_mirror_stays_consistent() {
        // Interleave inserts, hits, and re-inserts, then check the
        // map/recency mirror invariant the evictor relies on.
        let mut cache = VerdictCache::new(3);
        let keys: Vec<u64> = (0..6).map(|i| query_key(9, 1, "ch", i, 0)).collect();
        for round in 0..4 {
            for (i, &k) in keys.iter().enumerate() {
                if (i + round) % 2 == 0 {
                    cache.insert(k, vec![i as u8, round as u8]);
                } else {
                    let _ = cache.get(k);
                }
            }
        }
        assert!(cache.len() <= 3);
        assert_eq!(cache.map.len(), cache.recency.len());
        for (tick, key) in &cache.recency {
            assert_eq!(cache.map.get(key).map(|e| &e.touched), Some(tick));
        }
    }

    #[test]
    fn ttl_zero_never_expires() {
        let mut cache = VerdictCache::new(4);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]);
        for i in 0..1000 {
            let churn = query_key(1, 1, "other", i, 0);
            cache.insert(churn, vec![0]);
            // Keep the entry LRU-hot so only expiry could drop it.
            assert_eq!(cache.get(key), Some(vec![1]), "tick {i}");
        }
        assert_eq!(cache.expirations(), 0);
    }

    #[test]
    fn expired_entry_counts_expiry_plus_miss_on_get() {
        // ttl = 2 ticks; insert (tick 1), then two churn inserts push
        // the clock to 3, so the lookup at tick 4 finds the entry
        // 3 ticks old — expired.
        let mut cache = VerdictCache::with_ttl(8, 2);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]);
        cache.insert(query_key(1, 1, "a", 1, 0), vec![0]);
        cache.insert(query_key(1, 1, "b", 1, 0), vec![0]);
        assert_eq!(cache.get(key), None);
        assert_eq!(cache.expirations(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2, "expired entry left the map");
    }

    #[test]
    fn fresh_entry_still_hits_within_ttl() {
        let mut cache = VerdictCache::with_ttl(8, 3);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]);
        cache.insert(query_key(1, 1, "a", 1, 0), vec![0]);
        // Lookup at tick 3: the entry is 2 ticks old, within ttl 3.
        assert_eq!(cache.get(key), Some(vec![1]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.expirations(), 0);
    }

    #[test]
    fn recency_refresh_does_not_extend_ttl() {
        // Hits refresh recency but not the insertion tick: an entry
        // re-read forever still expires ttl ticks after its insert.
        let mut cache = VerdictCache::with_ttl(8, 3);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]); // tick 1
        assert_eq!(cache.get(key), Some(vec![1])); // tick 2, age 1
        assert_eq!(cache.get(key), Some(vec![1])); // tick 3, age 2
        assert_eq!(cache.get(key), Some(vec![1])); // tick 4, age 3
        assert_eq!(cache.get(key), None, "age 4 > ttl 3"); // tick would be 5
        assert_eq!(cache.expirations(), 1);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn entry_survives_a_touch_at_exactly_ttl_ticks() {
        // The expiry boundary is inclusive on the near side: age == ttl
        // is still a hit. ttl = 3; insert at tick 1, two churn inserts
        // advance the clock to 3, and a get evaluates at now = tick + 1
        // = 4 — the entry is exactly ttl ticks old.
        let mut cache = VerdictCache::with_ttl(8, 3);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![7]); // tick 1
        cache.insert(query_key(1, 1, "a", 1, 0), vec![0]); // tick 2
        cache.insert(query_key(1, 1, "b", 1, 0), vec![0]); // tick 3
                                                           // Lookup evaluates at now = 4: age 3 == ttl 3 → still live.
        assert_eq!(cache.get(key), Some(vec![7]), "age == ttl must hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.expirations(), 0);
    }

    #[test]
    fn entry_expires_one_tick_past_ttl() {
        // ...and exclusive on the far side: age == ttl + 1 is the first
        // tick that misses. Same shape as above with one more churn
        // insert between.
        let mut cache = VerdictCache::with_ttl(8, 3);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![7]); // tick 1
        cache.insert(query_key(1, 1, "a", 1, 0), vec![0]); // tick 2
        cache.insert(query_key(1, 1, "b", 1, 0), vec![0]); // tick 3
        cache.insert(query_key(1, 1, "c", 1, 0), vec![0]); // tick 4
                                                           // Lookup evaluates at now = 5: age 4 == ttl + 1 → expired.
        assert_eq!(cache.get(key), None, "age == ttl + 1 must expire");
        assert_eq!(cache.expirations(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn same_instant_insert_then_query_never_expires() {
        // An insert immediately followed by its own lookup must hit for
        // every positive ttl — in particular the smallest one. With a
        // `>=` boundary, ttl = 1 would expire its own insert.
        let mut cache = VerdictCache::with_ttl(8, 1);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![7]);
        assert_eq!(
            cache.get(key),
            Some(vec![7]),
            "back-to-back insert+get must hit at ttl 1"
        );
        assert_eq!(cache.expirations(), 0);
        // One more hit advances the clock past the ttl; the next touch
        // is the first one strictly past the boundary and expires.
        assert_eq!(cache.get(key), None, "second touch is age 2 > ttl 1");
        assert_eq!(cache.expirations(), 1);
    }

    #[test]
    fn reinsert_restarts_the_expiry_clock() {
        let mut cache = VerdictCache::with_ttl(8, 2);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]); // tick 1
        cache.insert(query_key(1, 1, "a", 1, 0), vec![0]); // tick 2
        cache.insert(key, vec![2]); // tick 3: clock restarts
        cache.insert(query_key(1, 1, "b", 1, 0), vec![0]); // tick 4
        assert_eq!(cache.get(key), Some(vec![2]), "age 2 ≤ ttl 2");
        assert_eq!(cache.expirations(), 0);
    }

    #[test]
    fn insert_sweeps_expired_entries_from_the_cold_end() {
        let mut cache = VerdictCache::with_ttl(16, 2);
        let a = query_key(1, 1, "a", 1, 0);
        let b = query_key(1, 1, "b", 1, 0);
        cache.insert(a, vec![1]); // tick 1
        cache.insert(b, vec![2]); // tick 2
        cache.insert(query_key(1, 1, "c", 1, 0), vec![0]); // tick 3: none stale yet
        cache.insert(query_key(1, 1, "d", 1, 0), vec![0]); // tick 4: sweeps a (age 3)
        cache.insert(query_key(1, 1, "e", 1, 0), vec![0]); // tick 5: sweeps b (age 3)
        assert_eq!(cache.expirations(), 2, "a and b swept without any get");
        assert_eq!(cache.len(), 3, "c, d, e remain — sweep stopped at live c");
        assert_eq!(cache.misses(), 0, "sweep never counts misses");
    }

    #[test]
    fn expiry_is_a_pure_function_of_the_request_sequence() {
        // Replaying the same operation sequence twice must produce
        // identical counters and contents — tick-based expiry has no
        // hidden wall-clock input.
        let run = || {
            let mut cache = VerdictCache::with_ttl(4, 3);
            let mut trace = Vec::new();
            for i in 0..40u64 {
                let key = query_key(5, 1, "ch", i % 6, 0);
                if i % 3 == 0 {
                    cache.insert(key, vec![i as u8]);
                } else {
                    trace.push(cache.get(key));
                }
            }
            (
                trace,
                cache.hits(),
                cache.misses(),
                cache.expirations(),
                cache.evictions(),
                cache.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = VerdictCache::new(0);
        let key = query_key(1, 1, "ch", 1, 0);
        cache.insert(key, vec![1]);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(key), None);
    }

    #[test]
    fn config_fingerprint_separates_configs() {
        let a = config_fingerprint(&[&42u64, &true]);
        let b = config_fingerprint(&[&43u64, &true]);
        assert_ne!(a, b);
    }
}
