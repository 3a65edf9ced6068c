//! Bounded-memory streaming quantile sketch (Greenwald–Khanna).
//!
//! The batch pipeline holds the full measurement vector in memory; a
//! streaming deployment cannot. [`QuantileSketch`] summarizes an unbounded
//! stream of execution times in `O((1/ε)·log(εn))` space while answering
//! rank and quantile queries with additive rank error at most `εn` — the
//! classic GK summary (Greenwald & Khanna, SIGMOD 2001), the same family of
//! non-parametric streaming quantile estimators used by the federated
//! quantile literature.
//!
//! The exact minimum, maximum (the *high watermark* — load-bearing for
//! MBPTA reporting), count and sum are tracked exactly on the side: they
//! cost O(1) and the watermark must never be approximated.
//!
//! Sketches are **mergeable** ([`QuantileSketch::merge`]): two summaries
//! built over disjoint shards of one stream combine into a summary of the
//! union with the standard additive rank-error guarantee — a merged
//! sketch answers any rank query within `ε₁n₁ + ε₂n₂`, which at equal
//! per-shard `ε` is exactly `ε·(n₁+n₂)`. This is the federated
//! quantile-estimation shape: shards sketch independently, a coordinator
//! folds the sketches.
//!
//! The analyzer holds its GK summary as a [`Sketch`], the name the
//! checkpoint format and [`SketchKind`] still carry.

use proxima_stats::StatsError;

/// Exact `⌊2^log2_scale · ε · n⌋` in integer arithmetic.
///
/// The obvious `(2.0 * ε * n as f64).floor() as u64` loses precision
/// once `n` exceeds 2⁵³ (the `u64 → f64` conversion rounds) and the
/// final cast saturates silently at the `f64` edge — both bugs for the
/// GK invariant, which needs the *exact* floor. Instead, decompose the
/// (finite, positive) `ε` into an integer mantissa and a power of two,
/// so `ε·n` becomes one exact `u128` multiply and a shift.
pub(crate) fn scaled_eps_count_floor(epsilon: f64, n: u64, log2_scale: u32) -> u64 {
    let (floor, _) = scaled_eps_count_parts(epsilon, n, log2_scale);
    floor
}

/// Exact `⌈2^log2_scale·ε·n⌉` with `log2_scale = 0`, i.e. `⌈εn⌉` — the
/// quantile-query slack — in the same checked integer arithmetic as
/// [`scaled_eps_count_floor`].
pub(crate) fn scaled_eps_count_ceil(epsilon: f64, n: u64) -> u64 {
    let (floor, exact) = scaled_eps_count_parts(epsilon, n, 0);
    if exact {
        floor
    } else {
        floor.saturating_add(1)
    }
}

/// `(⌊2^log2_scale·ε·n⌋, was the product an exact integer)` for a
/// finite `ε ∈ (0, 1)` and `log2_scale ∈ {0, 1}` (so the result always
/// fits in `u64`; saturates defensively rather than wrapping if ever
/// called outside that envelope).
fn scaled_eps_count_parts(epsilon: f64, n: u64, log2_scale: u32) -> (u64, bool) {
    if n == 0 || epsilon <= 0.0 || !epsilon.is_finite() {
        return (0, true);
    }
    // ε = mantissa · 2^exp exactly (IEEE-754 binary64).
    let bits = epsilon.to_bits();
    let raw_exp = ((bits >> 52) & 0x7FF) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    let (mantissa, exp) = if raw_exp == 0 {
        (frac, -1074i64) // subnormal
    } else {
        (frac | (1u64 << 52), raw_exp - 1075)
    };
    // mantissa ≤ 2^53 and n ≤ 2^64, so the product fits in u128.
    let product = mantissa as u128 * n as u128;
    // 2^log2_scale·ε·n = product · 2^(exp + log2_scale); for ε < 1 the
    // exponent is at most -52, so the shift is always a right shift.
    let shift = -(exp + i64::from(log2_scale));
    if shift <= 0 {
        let shifted = product << ((-shift) as u32).min(127);
        return (u64::try_from(shifted).unwrap_or(u64::MAX), true);
    }
    if shift >= 128 {
        return (0, product == 0);
    }
    let shift = shift as u32;
    let floor = product >> shift;
    let exact = product & ((1u128 << shift) - 1) == 0;
    (u64::try_from(floor).unwrap_or(u64::MAX), exact)
}

/// One GK summary tuple: a stored value `v` covering `g` observations, with
/// rank uncertainty `delta`.
///
/// With `r_min(i) = Σ_{j≤i} g_j` and `r_max(i) = r_min(i) + delta_i`, the
/// true rank of `v` lies in `[r_min, r_max]`; the GK invariant keeps
/// `g_i + delta_i ≤ ⌊2εn⌋ + 1` so any rank query is answerable within `εn`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tuple {
    pub(crate) v: f64,
    pub(crate) g: u64,
    pub(crate) delta: u64,
}

/// An ε-approximate streaming quantile sketch over `f64` observations.
///
/// # Examples
///
/// ```
/// use proxima_stream::sketch::QuantileSketch;
///
/// let mut s = QuantileSketch::new(0.01)?;
/// for i in 0..10_000 {
///     s.insert(i as f64);
/// }
/// let med = s.quantile(0.5)?;
/// assert!((med / 5000.0 - 1.0).abs() < 0.05);
/// assert_eq!(s.max(), Some(9999.0));
/// assert!(s.tuples() < 600); // bounded memory, not 10k points
/// # Ok::<(), proxima_stats::StatsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    pub(crate) epsilon: f64,
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) n: u64,
    pub(crate) inserts_since_compress: u64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) sum: f64,
    /// Cumulative tuple-maintenance work (shifted/merged/sorted tuple
    /// slots) — a machine-independent cost counter for `ingest_report`
    /// and the traced benchmark. Not part of the sketch's logical
    /// state: excluded from equality and never persisted.
    pub(crate) maintenance_ops: u64,
}

/// Equality is over the logical sketch state only; the
/// [`maintenance_ops`](QuantileSketch::maintenance_ops) work counter is
/// bookkeeping about *how* the state was reached, not part of it (the
/// batched and itemized ingest paths must compare equal).
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.epsilon == other.epsilon
            && self.tuples == other.tuples
            && self.n == other.n
            && self.inserts_since_compress == other.inserts_since_compress
            && self.min == other.min
            && self.max == other.max
            && self.sum == other.sum
    }
}

impl QuantileSketch {
    /// Create a sketch with rank-error bound `epsilon` (e.g. `0.001` keeps
    /// every quantile within ±0.1% of the true rank).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] unless `0 < epsilon < 0.5`.
    pub fn new(epsilon: f64) -> Result<Self, StatsError> {
        if !(epsilon > 0.0 && epsilon < 0.5) {
            return Err(StatsError::InvalidArgument {
                what: "sketch epsilon must be in (0, 0.5)",
            });
        }
        Ok(QuantileSketch {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            inserts_since_compress: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            maintenance_ops: 0,
        })
    }

    /// The configured rank-error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of observations ingested.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of summary tuples currently held — the memory footprint.
    pub fn tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Exact minimum observed, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Exact maximum observed — the campaign's high watermark.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Exact running mean, if any observation arrived.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.sum / self.n as f64)
    }

    /// The `⌊2εn⌋` rank-error band of the GK invariant at the current
    /// `n` — every tuple keeps `g + delta ≤ ⌊2εn⌋ + 1`, so any rank
    /// query is answerable within `εn`.
    ///
    /// Computed exactly in integer arithmetic: the earlier
    /// `(2.0 * ε * n as f64).floor() as u64` spelling lost precision
    /// past `n = 2⁵³` and saturated silently at the cast, which would
    /// let the invariant drift at large `n`.
    pub fn rank_error_bound(&self) -> u64 {
        scaled_eps_count_floor(self.epsilon, self.n, 1)
    }

    /// Internal alias for [`rank_error_bound`](Self::rank_error_bound),
    /// under the GK literature's name for the quantity.
    fn band(&self) -> u64 {
        self.rank_error_bound()
    }

    /// The smallest insert count at which the periodic compress fires —
    /// the integer form of the `inserts as f64 >= 1/(2ε)` trigger, so the
    /// batch path can cut its segments at exactly the itemized
    /// compression points.
    fn compress_threshold(&self) -> u64 {
        let limit = 1.0 / (2.0 * self.epsilon);
        let mut k = limit.ceil() as u64;
        // Defend the float edge: k must be the *smallest* integer whose
        // f64 image clears the trigger.
        while k > 1 && (k - 1) as f64 >= limit {
            k -= 1;
        }
        k.max(1)
    }

    /// Ingest one observation. Non-finite values are ignored by the sketch
    /// proper (the analyzer validates before inserting).
    pub fn insert(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        // Position of the first tuple with v >= x.
        let pos = self.tuples.partition_point(|t| t.v < x);
        let delta = if pos == 0 || pos == self.tuples.len() {
            // New extreme values have exact rank.
            0
        } else {
            self.band().saturating_sub(1)
        };
        // Cost model: the mid-list insert shifts every tuple behind it.
        self.maintenance_ops += (self.tuples.len() - pos) as u64 + 1;
        self.tuples.insert(pos, Tuple { v: x, g: 1, delta });
        self.inserts_since_compress += 1;
        if self.inserts_since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Bulk-ingest a slice of observations, maintaining the summary in
    /// amortized chunks: each segment between two compression points is
    /// sorted once and sort-merged into the tuple list in a single pass,
    /// instead of `len` binary-searched mid-list inserts.
    ///
    /// The resulting sketch is **bit-identical** to folding
    /// [`insert`](Self::insert) over the slice — every tuple, counter and
    /// side statistic, at every batch split — so checkpoints, merges and
    /// the `εn` rank bound are untouched; only the maintenance cost
    /// changes (see [`maintenance_ops`](Self::maintenance_ops)).
    ///
    /// # Examples
    ///
    /// ```
    /// use proxima_stream::sketch::QuantileSketch;
    ///
    /// let mut batched = QuantileSketch::new(0.01)?;
    /// let mut itemized = QuantileSketch::new(0.01)?;
    /// let xs: Vec<f64> = (0..5_000).map(|i| ((i * 37) % 1000) as f64).collect();
    /// batched.insert_batch(&xs);
    /// for &x in &xs {
    ///     itemized.insert(x);
    /// }
    /// assert_eq!(batched, itemized);
    /// # Ok::<(), proxima_stats::StatsError>(())
    /// ```
    pub fn insert_batch(&mut self, xs: &[f64]) {
        let threshold = self.compress_threshold();
        let mut seg: Vec<f64> = Vec::new();
        let mut i = 0usize;
        while i < xs.len() {
            // A segment ends exactly where the itemized path would have
            // compressed; `max(1)` keeps progress if a decoded counter
            // somehow sits at/past the threshold (itemized would then
            // compress after one more insert).
            let room = threshold
                .saturating_sub(self.inserts_since_compress)
                .max(1)
                .min(xs.len() as u64) as usize;
            seg.clear();
            while i < xs.len() && seg.len() < room {
                let x = xs[i];
                i += 1;
                // Non-finite values are ignored and do not advance the
                // compression counter, exactly as in `insert`.
                if x.is_finite() {
                    seg.push(x);
                }
            }
            if seg.is_empty() {
                break;
            }
            self.insert_segment(&seg);
            self.inserts_since_compress += seg.len() as u64;
            if self.inserts_since_compress >= threshold {
                self.compress();
                self.inserts_since_compress = 0;
            }
        }
    }

    /// Uniform bulk-ingest spelling shared with the monitor/analyzer/
    /// session layers; identical to [`insert_batch`](Self::insert_batch).
    pub fn push_batch(&mut self, xs: &[f64]) {
        self.insert_batch(xs);
    }

    /// Sort-merge one all-finite segment (never spanning a compression
    /// point) into the tuple list, reproducing the per-item insert state
    /// exactly: each element's `delta` is fixed by whether it was a new
    /// extreme *at its own arrival* (against both the pre-existing tuples
    /// and the earlier elements of the segment) and by `band(n)` at its
    /// own `n`; ties land before equal-valued earlier arrivals, as
    /// `partition_point` places them.
    fn insert_segment(&mut self, seg: &[f64]) {
        // Running extremes of the evolving tuple list: `pos == 0` in the
        // itemized path means `x <= tuples[0].v`, `pos == len` means
        // `x > tuples.last().v`.
        let mut lo = self.tuples.first().map_or(f64::INFINITY, |t| t.v);
        let mut hi = self.tuples.last().map_or(f64::NEG_INFINITY, |t| t.v);
        // (value, arrival index, delta)
        let mut entries: Vec<(f64, usize, u64)> = Vec::with_capacity(seg.len());
        for (seq, &x) in seg.iter().enumerate() {
            self.n += 1;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
            self.sum += x;
            let delta = if x <= lo || x > hi {
                0
            } else {
                self.band().saturating_sub(1)
            };
            lo = lo.min(x);
            hi = hi.max(x);
            entries.push((x, seq, delta));
        }
        // Later arrivals sort before earlier ones at equal values: a
        // repeated insert lands at the partition point, *before* the
        // equal-valued tuple already present.
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let old = std::mem::take(&mut self.tuples);
        let m = entries.len();
        // Cost model: one O(m log m) sort plus one linear merge pass.
        self.maintenance_ops +=
            (old.len() + m) as u64 + m as u64 * u64::from((m.max(2) - 1).ilog2() + 1);
        let mut merged = Vec::with_capacity(old.len() + m);
        let mut j = 0usize;
        for t in old {
            while j < m && entries[j].0 <= t.v {
                let (v, _, delta) = entries[j];
                merged.push(Tuple { v, g: 1, delta });
                j += 1;
            }
            merged.push(t);
        }
        for &(v, _, delta) in &entries[j..] {
            merged.push(Tuple { v, g: 1, delta });
        }
        self.tuples = merged;
    }

    /// Merge adjacent tuples whose combined coverage still satisfies the GK
    /// invariant, sweeping from the tail (standard GK compress), in one
    /// backward pass.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let band = self.band();
        self.maintenance_ops += self.tuples.len() as u64;
        let old = std::mem::take(&mut self.tuples);
        let mut rev: Vec<Tuple> = Vec::with_capacity(old.len());
        // Never merge away the first or last tuple: they pin min/max
        // ranks. `right` is the rightmost not-yet-emitted survivor, so a
        // run of small tuples chains into it exactly as the classic
        // remove()-based sweep does.
        let mut right = old[old.len() - 1];
        for i in (1..old.len() - 1).rev() {
            let merged_g = old[i].g + right.g;
            if merged_g + right.delta <= band {
                right.g = merged_g;
            } else {
                rev.push(right);
                right = old[i];
            }
        }
        rev.push(right);
        rev.push(old[0]);
        rev.reverse();
        self.tuples = rev;
    }

    /// Cumulative tuple-maintenance operations (slots shifted, merged or
    /// sorted) since construction — the machine-independent work counter
    /// `ingest_report` compares batched vs itemized ingest on. Resets
    /// to zero on checkpoint restore and never participates in equality.
    pub fn maintenance_ops(&self) -> u64 {
        self.maintenance_ops
    }

    /// Fold another sketch into this one, as if every observation the
    /// other sketch summarized had been inserted here.
    ///
    /// The exact side statistics (count, sum, min, max) merge exactly.
    /// For the summary tuples the standard additive guarantee holds: the
    /// merged sketch answers rank queries within `ε₁n₁ + ε₂n₂`, so
    /// merging shards built at one common `ε` preserves `ε·n` over the
    /// union — and the bound is transitive over any merge tree. The
    /// merged `epsilon()` is `max(ε₁, ε₂)`, which dominates the additive
    /// bound (`ε₁n₁ + ε₂n₂ ≤ max(ε₁,ε₂)·(n₁+n₂)`).
    ///
    /// Each tuple keeps its coverage `g` and widens its `delta` by the
    /// rank uncertainty the *other* summary contributes at that value: if
    /// the next not-yet-merged tuple of the other summary is `(g', Δ')`,
    /// the true count of other-stream observations below the merged value
    /// can swing by `g' + Δ' − 1`. Summing `r_min`/`r_max` bounds this
    /// way is the classic GK merge.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.epsilon = self.epsilon.max(other.epsilon);
        let a = std::mem::take(&mut self.tuples);
        let b = &other.tuples;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let from_a = j >= b.len() || (i < a.len() && a[i].v <= b[j].v);
            let (t, peer) = if from_a {
                let t = a[i];
                i += 1;
                (t, b.get(j))
            } else {
                let t = b[j];
                j += 1;
                (t, a.get(i))
            };
            // The next unconsumed peer tuple has a value ≥ t.v; the peer
            // stream's rank at t.v is pinned only to within its spread.
            let spread = peer.map_or(0, |p| p.g + p.delta - 1);
            merged.push(Tuple {
                v: t.v,
                g: t.g,
                delta: t.delta + spread,
            });
        }
        self.tuples = merged;
        self.compress();
        self.inserts_since_compress = 0;
    }

    /// The value at quantile `phi ∈ [0, 1]`, within `εn` rank error.
    /// The boundary quantiles `phi = 0` and `phi = 1` return the
    /// **exact** tracked minimum / maximum side statistics, never a
    /// tuple's within-slack estimate (the scan below is allowed to stop
    /// up to `εn` ranks early, which for `phi = 1` could surface an
    /// interior value in place of the high watermark).
    ///
    /// # Errors
    ///
    /// * [`StatsError::InvalidArgument`] for `phi` outside `[0, 1]`;
    /// * [`StatsError::InsufficientData`] on an empty sketch.
    pub fn quantile(&self, phi: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&phi) {
            return Err(StatsError::InvalidArgument {
                what: "quantile level must be in [0, 1]",
            });
        }
        if self.n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if phi <= 0.0 {
            return Ok(self.min);
        }
        if phi >= 1.0 {
            return Ok(self.max);
        }
        let target = (phi * self.n as f64).ceil().max(1.0) as u64;
        let slack = scaled_eps_count_ceil(self.epsilon, self.n);
        let mut r_min = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            let r_max = r_min + t.delta;
            if target <= r_min + slack && r_max <= target + slack {
                return Ok(t.v);
            }
        }
        // proxima-lint: allow(no-lib-panic) -- the n == 0 guard above
        // returned InsufficientData, so the sketch holds at least one tuple.
        Ok(self.tuples.last().expect("non-empty sketch").v)
    }

    /// Approximate rank of `x`: how many observations are ≤ `x`, within
    /// `εn`.
    pub fn rank(&self, x: f64) -> u64 {
        let mut r_min = 0u64;
        let mut last_covered = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            if t.v <= x {
                last_covered = r_min;
            } else {
                break;
            }
        }
        last_covered
    }

    /// Approximate empirical CDF at `x`: `rank(x) / n` (0 on an empty
    /// sketch).
    pub fn ecdf(&self, x: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.rank(x) as f64 / self.n as f64
    }

    /// Approximate empirical survival `1 − F̂(x)` — the observed-tail side
    /// of a pWCET plot.
    pub fn survival(&self, x: f64) -> f64 {
        1.0 - self.ecdf(x)
    }
}

/// The sketch algorithm an analyzer maintains. GK is the only one; the
/// kind survives as the sketch-kind byte of checkpoint format v3, which
/// [`StreamConfig`](crate::analyzer::StreamConfig), the analyzer's
/// sketch record and the CLI's session checkpoint all write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKind {
    /// Greenwald–Khanna ([`QuantileSketch`]).
    Gk,
}

/// The analyzer's quantile sketch: a GK summary. Only its exact side
/// statistics ([`max`](Self::max), [`mean`](Self::mean)) reach a
/// report; no verdict reads a quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch(pub(crate) QuantileSketch);

impl Sketch {
    /// Create an empty sketch of `kind` targeting rank error `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidArgument`] unless `0 < epsilon < 0.5`.
    pub fn new(kind: SketchKind, epsilon: f64) -> Result<Self, StatsError> {
        match kind {
            SketchKind::Gk => QuantileSketch::new(epsilon).map(Sketch),
        }
    }

    /// Number of summary tuples currently held — the memory footprint.
    pub fn tuples(&self) -> usize {
        self.0.tuples()
    }

    /// Exact maximum observed — the campaign's high watermark.
    pub fn max(&self) -> Option<f64> {
        self.0.max()
    }

    /// Exact running mean, if any observation arrived.
    pub fn mean(&self) -> Option<f64> {
        self.0.mean()
    }

    /// Cumulative tuple-maintenance work since construction; see
    /// [`QuantileSketch::maintenance_ops`].
    pub fn maintenance_ops(&self) -> u64 {
        self.0.maintenance_ops()
    }

    /// Ingest one observation (non-finite values are ignored).
    pub fn insert(&mut self, x: f64) {
        self.0.insert(x);
    }

    /// Bulk-ingest a slice; bit-identical to itemized
    /// [`insert`](Self::insert) at every batch split.
    pub fn insert_batch(&mut self, xs: &[f64]) {
        self.0.insert_batch(xs);
    }

    /// Fold another sketch into this one ([`QuantileSketch::merge`]).
    pub fn merge(&mut self, other: &Sketch) {
        self.0.merge(&other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_bad_epsilon() {
        assert!(QuantileSketch::new(0.0).is_err());
        assert!(QuantileSketch::new(0.5).is_err());
        assert!(QuantileSketch::new(-0.1).is_err());
        assert!(QuantileSketch::new(0.01).is_ok());
    }

    #[test]
    fn empty_sketch_behaviour() {
        let s = QuantileSketch::new(0.01).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert!(s.quantile(0.5).is_err());
        assert_eq!(s.ecdf(10.0), 0.0);
    }

    #[test]
    fn exact_extremes_and_mean() {
        let mut s = QuantileSketch::new(0.05).unwrap();
        for x in [5.0, 1.0, 9.0, 3.0] {
            s.insert(x);
        }
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.mean(), Some(4.5));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn quantiles_within_rank_error_on_shuffled_stream() {
        let eps = 0.01;
        let n = 20_000usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut s = QuantileSketch::new(eps).unwrap();
        let mut values: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = 1e5 + 1e4 * rng.gen::<f64>();
            values.push(x);
            s.insert(x);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = s.quantile(phi).unwrap();
            // True rank of the estimate must be within eps*n of phi*n.
            let rank = values.partition_point(|&v| v <= est) as f64;
            let err = (rank - phi * n as f64).abs();
            assert!(
                err <= eps * n as f64 + 1.0,
                "phi={phi} rank err {err} > {}",
                eps * n as f64
            );
        }
    }

    #[test]
    fn memory_stays_sublinear() {
        let mut s = QuantileSketch::new(0.01).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..50_000 {
            s.insert(rng.gen::<f64>());
        }
        // GK bound is O((1/ε)·log(εn)); allow a lazy constant. The point:
        // 50k inserts must not retain anything near 50k tuples.
        assert!(s.tuples() < 2_000, "tuples = {}", s.tuples());
    }

    #[test]
    fn sorted_and_reversed_streams_agree_with_truth() {
        let n = 5_000;
        for reverse in [false, true] {
            let mut s = QuantileSketch::new(0.02).unwrap();
            let iter: Box<dyn Iterator<Item = u64>> = if reverse {
                Box::new((0..n).rev())
            } else {
                Box::new(0..n)
            };
            for i in iter {
                s.insert(i as f64);
            }
            let q = s.quantile(0.9).unwrap();
            assert!((q / (0.9 * n as f64) - 1.0).abs() < 0.05, "q={q}");
        }
    }

    #[test]
    fn ecdf_and_survival_are_complementary() {
        let mut s = QuantileSketch::new(0.01).unwrap();
        for i in 0..1000 {
            s.insert(i as f64);
        }
        let f = s.ecdf(500.0);
        assert!((f - 0.5).abs() < 0.03, "F(500)={f}");
        assert!((s.survival(500.0) + f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_inserts_ignored() {
        let mut s = QuantileSketch::new(0.01).unwrap();
        s.insert(f64::NAN);
        s.insert(f64::INFINITY);
        assert!(s.is_empty());
        s.insert(1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.quantile(0.5).unwrap(), 1.0);
    }

    #[test]
    fn merge_side_stats_are_exact() {
        let mut a = QuantileSketch::new(0.01).unwrap();
        let mut b = QuantileSketch::new(0.01).unwrap();
        for x in [5.0, 1.0, 9.0] {
            a.insert(x);
        }
        for x in [2.0, 12.0] {
            b.insert(x);
        }
        a.merge(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(12.0));
        assert_eq!(a.mean(), Some(29.0 / 5.0));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut filled = QuantileSketch::new(0.01).unwrap();
        for i in 0..500 {
            filled.insert(i as f64);
        }
        let reference = filled.clone();
        filled.merge(&QuantileSketch::new(0.01).unwrap());
        assert_eq!(filled, reference);
        let mut empty = QuantileSketch::new(0.01).unwrap();
        empty.merge(&reference);
        assert_eq!(empty, reference);
    }

    #[test]
    fn merged_quantiles_within_rank_error() {
        let eps = 0.01;
        let n = 20_000usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut values: Vec<f64> = Vec::with_capacity(n);
        // Four shards with disjoint value regimes — the worst case for a
        // naive merge that averaged instead of bounding ranks.
        let mut shards: Vec<QuantileSketch> =
            (0..4).map(|_| QuantileSketch::new(eps).unwrap()).collect();
        for (s, shard) in shards.iter_mut().enumerate() {
            for _ in 0..n / 4 {
                let x = 1e5 * (s + 1) as f64 + 1e4 * rng.gen::<f64>();
                values.push(x);
                shard.insert(x);
            }
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged.len(), n as u64);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = merged.quantile(phi).unwrap();
            let rank = values.partition_point(|&v| v <= est) as f64;
            let err = (rank - phi * n as f64).abs();
            assert!(
                err <= eps * n as f64 + 1.0,
                "phi={phi} rank err {err} > {}",
                eps * n as f64
            );
        }
    }

    #[test]
    fn merge_keeps_memory_sublinear_and_insertable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut merged = QuantileSketch::new(0.01).unwrap();
        for _ in 0..8 {
            let mut shard = QuantileSketch::new(0.01).unwrap();
            for _ in 0..5_000 {
                shard.insert(rng.gen::<f64>());
            }
            merged.merge(&shard);
        }
        assert_eq!(merged.len(), 40_000);
        assert!(merged.tuples() < 4_000, "tuples = {}", merged.tuples());
        // The merged sketch keeps accepting inserts under the grown band.
        for _ in 0..5_000 {
            merged.insert(rng.gen::<f64>());
        }
        let med = merged.quantile(0.5).unwrap();
        assert!((med - 0.5).abs() < 0.02, "median {med}");
    }

    #[test]
    fn merge_takes_the_looser_epsilon() {
        let mut tight = QuantileSketch::new(0.001).unwrap();
        let mut loose = QuantileSketch::new(0.05).unwrap();
        tight.insert(1.0);
        loose.insert(2.0);
        tight.merge(&loose);
        assert_eq!(tight.epsilon(), 0.05);
    }

    #[test]
    fn batch_insert_is_bit_identical_to_itemized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let streams: Vec<Vec<f64>> = vec![
            (0..5_000).map(|_| 1e5 + 1e4 * rng.gen::<f64>()).collect(),
            (0..5_000).map(|i| i as f64).collect(),
            (0..5_000).rev().map(|i| i as f64).collect(),
            (0..5_000)
                .map(|i| if i % 10 == 0 { 2.0 } else { 1.0 })
                .collect(),
            vec![42.0; 3_000],
        ];
        for (k, stream) in streams.iter().enumerate() {
            for eps in [0.001, 0.01, 0.2] {
                let mut itemized = QuantileSketch::new(eps).unwrap();
                for &x in stream {
                    itemized.insert(x);
                }
                // One whole-stream batch, and ragged splits that straddle
                // compression points.
                for chunk in [stream.len(), 1, 7, 499, 500, 501] {
                    let mut batched = QuantileSketch::new(eps).unwrap();
                    for piece in stream.chunks(chunk) {
                        batched.insert_batch(piece);
                    }
                    assert_eq!(
                        batched, itemized,
                        "stream {k} eps {eps} chunk {chunk} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_insert_skips_non_finite_like_itemized() {
        let stream = [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY];
        let mut itemized = QuantileSketch::new(0.01).unwrap();
        for &x in &stream {
            itemized.insert(x);
        }
        let mut batched = QuantileSketch::new(0.01).unwrap();
        batched.insert_batch(&stream);
        assert_eq!(batched, itemized);
        assert_eq!(batched.len(), 3);
        // An all-non-finite batch is a no-op.
        let before = batched.clone();
        batched.insert_batch(&[f64::NAN, f64::INFINITY]);
        assert_eq!(batched, before);
    }

    #[test]
    fn batch_insert_does_less_maintenance_work() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let stream: Vec<f64> = (0..20_000).map(|_| 1e5 + 1e4 * rng.gen::<f64>()).collect();
        let mut itemized = QuantileSketch::new(0.001).unwrap();
        for &x in &stream {
            itemized.insert(x);
        }
        let mut batched = QuantileSketch::new(0.001).unwrap();
        for piece in stream.chunks(1_000) {
            batched.insert_batch(piece);
        }
        assert_eq!(batched, itemized);
        let (b, i) = (batched.maintenance_ops(), itemized.maintenance_ops());
        assert!(
            b * 5 <= i,
            "batched ingest must do ≥5x less tuple maintenance: batched {b} vs itemized {i}"
        );
    }

    #[test]
    fn batched_compaction_keeps_the_rank_error_bound() {
        // The εn bound must survive batched maintenance (acceptance: GK
        // rank-error bound under batched compaction).
        let eps = 0.01;
        let n = 20_000usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut s = QuantileSketch::new(eps).unwrap();
        let values: Vec<f64> = (0..n).map(|_| 1e5 + 1e4 * rng.gen::<f64>()).collect();
        for piece in values.chunks(777) {
            s.insert_batch(piece);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &phi in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = s.quantile(phi).unwrap();
            let rank = sorted.partition_point(|&v| v <= est) as f64;
            let err = (rank - phi * n as f64).abs();
            assert!(
                err <= eps * n as f64 + 1.0,
                "phi={phi} rank err {err} > {}",
                eps * n as f64
            );
        }
    }

    #[test]
    fn duplicate_heavy_stream_is_fine() {
        let mut s = QuantileSketch::new(0.01).unwrap();
        for i in 0..10_000 {
            s.insert(if i % 10 == 0 { 2.0 } else { 1.0 });
        }
        assert_eq!(s.quantile(0.5).unwrap(), 1.0);
        assert_eq!(s.quantile(0.99).unwrap(), 2.0);
        assert_eq!(s.max(), Some(2.0));
    }

    /// Exhaustive u128 reference for the integer ε·n helpers.
    fn reference_floor(epsilon: f64, n: u64, log2_scale: u32) -> u64 {
        let bits = epsilon.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if raw_exp == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), raw_exp - 1075)
        };
        let product = mantissa as u128 * n as u128;
        let shift = (-(exp + i64::from(log2_scale))) as u32;
        u64::try_from(product >> shift).unwrap()
    }

    #[test]
    fn rank_error_bound_is_exact_at_large_n() {
        // ε = 0.25 is exactly representable, so ⌊2εn⌋ = ⌊n/2⌋ exactly.
        // The old f64 spelling rounded n = u64::MAX up to 2⁶⁴ and
        // reported 2⁶³ — one MORE than the true band, silently widening
        // the GK invariant. The integer path must be exact.
        let mut s = QuantileSketch::new(0.25).unwrap();
        s.n = u64::MAX;
        assert_eq!(s.rank_error_bound(), u64::MAX / 2);
        assert_eq!(
            (2.0 * 0.25 * (u64::MAX as f64)).floor() as u64,
            u64::MAX / 2 + 1,
            "the f64 round-trip this test guards against has changed behaviour"
        );
        // Sweep awkward epsilons × huge n against an independent u128
        // reference (floor and the derived ceil).
        for eps in [1e-9, 0.001, 0.1, 0.3, 0.25f64.next_up(), 0.5f64.next_down()] {
            for n in [
                1u64,
                (1 << 53) - 1,
                1 << 53,
                (1 << 53) + 1,
                u64::MAX / 3,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(
                    scaled_eps_count_floor(eps, n, 1),
                    reference_floor(eps, n, 1),
                    "floor(2·{eps}·{n})"
                );
                let floor0 = reference_floor(eps, n, 0);
                let ceil = scaled_eps_count_ceil(eps, n);
                assert!(
                    ceil == floor0 || ceil == floor0 + 1,
                    "ceil({eps}·{n}) = {ceil} vs floor {floor0}"
                );
                assert!(ceil >= 1, "ceil of a positive product is at least 1");
            }
        }
        assert_eq!(scaled_eps_count_floor(0.1, 0, 1), 0);
        assert_eq!(scaled_eps_count_ceil(0.1, 0), 0);
    }

    #[test]
    fn boundary_quantiles_return_exact_extremes() {
        // phi = 1 exercises the bug this pins: the slack-window scan
        // may stop up to εn ranks early and report an interior tuple
        // instead of the tracked maximum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut s = QuantileSketch::new(0.1).unwrap();
        for _ in 0..10_000 {
            s.insert(rng.gen::<f64>());
        }
        // Exact extremes inserted once each, far from the bulk.
        s.insert(-5.0);
        s.insert(7.0);
        assert_eq!(s.quantile(0.0).unwrap(), -5.0);
        assert_eq!(s.quantile(1.0).unwrap(), 7.0);
        assert_eq!(s.quantile(0.0).unwrap(), s.min().unwrap());
        assert_eq!(s.quantile(1.0).unwrap(), s.max().unwrap());
    }

    #[test]
    fn boundary_quantiles_exact_on_merged_and_batch_built_sketches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let shard_data: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..2_500)
                    .map(|_| 1e3 * (s + 1) as f64 + 1e3 * rng.gen::<f64>())
                    .collect()
            })
            .collect();
        // Batch-built.
        let mut batch = QuantileSketch::new(0.05).unwrap();
        for shard in &shard_data {
            batch.insert_batch(shard);
        }
        assert_eq!(batch.quantile(0.0).unwrap(), batch.min().unwrap());
        assert_eq!(batch.quantile(1.0).unwrap(), batch.max().unwrap());
        // Merged from per-shard sketches.
        let mut merged = QuantileSketch::new(0.05).unwrap();
        for shard in &shard_data {
            let mut s = QuantileSketch::new(0.05).unwrap();
            s.insert_batch(shard);
            merged.merge(&s);
        }
        assert_eq!(merged.quantile(0.0).unwrap(), merged.min().unwrap());
        assert_eq!(merged.quantile(1.0).unwrap(), merged.max().unwrap());
        assert_eq!(merged.min(), batch.min());
        assert_eq!(merged.max(), batch.max());
    }
}
