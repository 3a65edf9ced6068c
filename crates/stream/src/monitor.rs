//! Rolling i.i.d. health monitoring for measurement streams.
//!
//! The batch pipeline gates on Ljung-Box + KS over the whole campaign; a
//! stream cannot wait for "the whole campaign". [`IidMonitor`] keeps a
//! bounded window of the most recent observations and continuously re-runs
//! two cheap non-parametric diagnostics over it:
//!
//! * **Ljung-Box** — the batch gate's independence test, windowed
//!   ([`proxima_stats::tests::ljung_box`]: one autocorrelation pass for
//!   every lag, pooled into the statistic);
//! * **runs test** — the Wald–Wolfowitz runs test of the window
//!   ([`proxima_stats::tests::runs_test`]), about a median found by
//!   selection rather than a sort.
//!
//! One [`IidMonitor::health`] call is therefore one sweep for every lag,
//! one selection and one runs count over the window. Its result is the
//! session vocabulary's [`IidEvidence::Rolling`], the form every
//! estimate and stream verdict carries.
//!
//! Each test is held to `α/2` (Bonferroni over the pair), so the
//! family-wise false-alarm rate per window stays at `α`, matching the
//! batch i.i.d. gate's pooled verdict.
//!
//! A flag does not abort the stream (a transient disturbance should not
//! kill a long campaign); it is reported in every estimate the analyzer
//! emits so the consumer can discount estimates produced under suspect
//! conditions.

use std::collections::VecDeque;

use proxima_mbpta::engine::IidEvidence;
use proxima_stats::autocorr::default_lag;
use proxima_stats::tests::{ljung_box, runs_test};

/// Bounded-window i.i.d. monitor.
///
/// # Examples
///
/// ```
/// use proxima_stream::monitor::IidMonitor;
///
/// let mut m = IidMonitor::new(256, 0.05);
/// for i in 0u64..300 {
///     // A deterministic but well-mixed (SplitMix64-style) sequence.
///     let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
///     z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
///     m.push((z >> 11) as f64);
/// }
/// assert_eq!(m.health().label(), "healthy");
/// ```
#[derive(Debug, Clone)]
pub struct IidMonitor {
    pub(crate) window: VecDeque<f64>,
    pub(crate) capacity: usize,
    pub(crate) alpha: f64,
}

/// Observations required before the diagnostics run.
pub(crate) const MIN_WINDOW: usize = 50;

/// Largest window a stream configuration may ask for (the default is
/// 500; this is three orders of magnitude of headroom). The checkpoint
/// decoder holds a monitor to it too, so a crafted capacity cannot drive
/// a giant up-front allocation.
pub(crate) const MAX_MONITOR_CAPACITY: usize = 1 << 20;

impl IidMonitor {
    /// Create a monitor holding the last `capacity` observations, testing
    /// at significance `alpha` (values outside `(0, 0.5]` are clamped to
    /// 0.05).
    pub fn new(capacity: usize, alpha: f64) -> Self {
        let alpha = if alpha > 0.0 && alpha <= 0.5 {
            alpha
        } else {
            0.05
        };
        IidMonitor {
            window: VecDeque::with_capacity(capacity.max(MIN_WINDOW)),
            capacity: capacity.max(MIN_WINDOW),
            alpha,
        }
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered observations.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` before any observation.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Ingest one observation, evicting the oldest beyond capacity.
    pub fn push(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// Bulk-ingest a slice of observations. The window afterwards is
    /// exactly what folding [`push`](Self::push) over the slice leaves:
    /// the most recent `capacity` observations — but computed without
    /// per-item eviction churn (a batch at least as long as the window
    /// replaces it outright; a shorter one evicts the overflow in one
    /// drain).
    pub fn push_batch(&mut self, xs: &[f64]) {
        if xs.len() >= self.capacity {
            self.window.clear();
            self.window.extend(&xs[xs.len() - self.capacity..]);
            return;
        }
        let overflow = (self.window.len() + xs.len()).saturating_sub(self.capacity);
        self.window.drain(..overflow);
        self.window.extend(xs);
    }

    /// Fold a monitor that observed the **continuation** of this stream:
    /// `other`'s window holds the observations that arrived after this
    /// one's, so the merged window is the concatenation trimmed to the
    /// most recent `capacity` observations.
    ///
    /// Because each shard's window is a suffix of its own chunk, folding
    /// the shards of one contiguously split stream in shard order
    /// reproduces **exactly** the window a single monitor over the whole
    /// stream would hold — the monitor's sufficient statistics are its
    /// window, and suffixes of consecutive chunks concatenate into a
    /// suffix of the union.
    pub fn merge(&mut self, other: &IidMonitor) {
        for &x in &other.window {
            self.push(x);
        }
    }

    /// Evaluate the diagnostics over the current window: `healthy` is
    /// `None` while fewer than 50 observations are buffered. A test the
    /// window cannot support (a constant stretch) reports no p-value and
    /// flags nothing.
    pub fn health(&self) -> IidEvidence {
        let w = self.window.len();
        if w < MIN_WINDOW {
            return IidEvidence::Rolling {
                healthy: None,
                ljung_box_p: None,
                runs_p: None,
                window_len: w,
            };
        }
        let xs: Vec<f64> = self.window.iter().copied().collect();
        let lb = ljung_box(&xs, default_lag(w)).ok();
        let runs = runs_test(&xs).ok();
        // Bonferroni over the two gate tests: each at alpha/2.
        let per_test = self.alpha / 2.0;
        IidEvidence::Rolling {
            healthy: Some(
                lb.is_none_or(|r| r.passes(per_test)) && runs.is_none_or(|r| r.passes(per_test)),
            ),
            ljung_box_p: lb.map(|r| r.p_value),
            runs_p: runs.map(|r| r.p_value),
            window_len: w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The fields of a rolling evaluation: `(healthy, ljung_box_p,
    /// runs_p, window_len)`.
    fn rolling(e: IidEvidence) -> (Option<bool>, Option<f64>, Option<f64>, usize) {
        match e {
            IidEvidence::Rolling {
                healthy,
                ljung_box_p,
                runs_p,
                window_len,
            } => (healthy, ljung_box_p, runs_p, window_len),
            IidEvidence::Gate(_) => panic!("the monitor reports rolling evidence"),
        }
    }

    #[test]
    fn warming_until_min_window() {
        let mut m = IidMonitor::new(200, 0.05);
        for i in 0..MIN_WINDOW - 1 {
            m.push(i as f64);
            assert_eq!(m.health().label(), "warming");
        }
        m.push(0.5);
        assert_ne!(m.health().label(), "warming");
    }

    #[test]
    fn iid_stream_reported_healthy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut m = IidMonitor::new(400, 0.05);
        for _ in 0..400 {
            m.push(1e5 + 100.0 * rng.gen::<f64>());
        }
        let h = m.health();
        assert_eq!(h.label(), "healthy", "{h:?}");
        assert!(h.acceptable());
    }

    #[test]
    fn strongly_autocorrelated_stream_flagged() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut m = IidMonitor::new(400, 0.05);
        let mut level = 0.0f64;
        for _ in 0..400 {
            level = 0.95 * level + rng.gen::<f64>();
            m.push(1e5 + 500.0 * level);
        }
        let h = m.health();
        assert_eq!(h.label(), "suspect", "{h:?}");
        assert!(!h.acceptable());
    }

    #[test]
    fn window_evicts_old_regime() {
        // A drifting prefix followed by a long i.i.d. tail: once the drift
        // leaves the window the monitor recovers.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut m = IidMonitor::new(200, 0.05);
        for i in 0..200 {
            m.push(1e5 + i as f64 * 100.0); // strong trend
        }
        assert_eq!(m.health().label(), "suspect");
        for _ in 0..400 {
            m.push(1e5 + 100.0 * rng.gen::<f64>());
        }
        assert_eq!(m.health().label(), "healthy");
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn constant_window_not_a_crash() {
        let mut m = IidMonitor::new(100, 0.05);
        for _ in 0..100 {
            m.push(42.0);
        }
        // Degenerate: Ljung-Box and runs test both unavailable.
        let (_, ljung_box_p, _, window_len) = rolling(m.health());
        assert_eq!(window_len, 100);
        assert!(ljung_box_p.is_none());
    }

    #[test]
    fn merge_reproduces_the_single_monitor_window() {
        // A stream split into contiguous chunks, one monitor per chunk,
        // folded in chunk order, must hold exactly the single monitor's
        // window — including when chunks are shorter than the capacity.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let stream: Vec<f64> = (0..700).map(|_| 1e5 + 100.0 * rng.gen::<f64>()).collect();
        for splits in [vec![700], vec![350, 350], vec![100, 80, 120, 400]] {
            let mut single = IidMonitor::new(200, 0.05);
            for &x in &stream {
                single.push(x);
            }
            let mut merged: Option<IidMonitor> = None;
            let mut start = 0;
            for len in splits {
                let mut shard = IidMonitor::new(200, 0.05);
                for &x in &stream[start..start + len] {
                    shard.push(x);
                }
                start += len;
                match merged.as_mut() {
                    None => merged = Some(shard),
                    Some(m) => m.merge(&shard),
                }
            }
            let merged = merged.unwrap();
            assert_eq!(merged.window, single.window);
            assert_eq!(merged.health(), single.health());
        }
    }

    #[test]
    fn push_batch_matches_itemized_push_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let stream: Vec<f64> = (0..700).map(|_| 1e5 + 100.0 * rng.gen::<f64>()).collect();
        for capacity in [50, 200, 650, 1000] {
            let mut itemized = IidMonitor::new(capacity, 0.05);
            for &x in &stream {
                itemized.push(x);
            }
            // Splits shorter than, equal to and longer than the window.
            for chunk in [1, 49, capacity, capacity + 1, stream.len()] {
                let mut batched = IidMonitor::new(capacity, 0.05);
                for piece in stream.chunks(chunk) {
                    batched.push_batch(piece);
                }
                assert_eq!(
                    batched.window, itemized.window,
                    "capacity {capacity} chunk {chunk} diverged"
                );
            }
            // Empty batch is a no-op.
            let before = itemized.window.clone();
            itemized.push_batch(&[]);
            assert_eq!(itemized.window, before);
        }
    }

    /// The composition `health()` replaced, kept as its oracle:
    /// `ljung_box` over the window and the runs test about a median from
    /// a sorted copy.
    mod oracle {
        use super::super::{IidEvidence, IidMonitor, MIN_WINDOW};
        use proxima_stats::autocorr::default_lag;
        use proxima_stats::descriptive::quantile_sorted;
        use proxima_stats::special::std_normal_sf;
        use proxima_stats::tests::{ljung_box, TestResult};

        /// `runs_test` before selection, with `None` for its errors: its
        /// median from a `total_cmp` sort of a copy.
        fn runs_test(sample: &[f64]) -> Option<TestResult> {
            if sample.len() < 20 || sample.iter().any(|x| !x.is_finite()) {
                return None;
            }
            let mut sorted = sample.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let med = quantile_sorted(&sorted, 0.5);
            let signs: Vec<bool> = sample
                .iter()
                .filter(|&&x| x != med)
                .map(|&x| x > med)
                .collect();
            if signs.len() < 20 {
                return None;
            }
            let n_pos = signs.iter().filter(|&&s| s).count() as f64;
            let n_neg = signs.len() as f64 - n_pos;
            if n_pos == 0.0 || n_neg == 0.0 {
                return None;
            }
            let runs = 1 + signs.windows(2).filter(|w| w[0] != w[1]).count();
            let n = n_pos + n_neg;
            let mean = 2.0 * n_pos * n_neg / n + 1.0;
            let var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0));
            let z = (runs as f64 - mean) / var.sqrt();
            let p = 2.0 * std_normal_sf(z.abs());
            Some(TestResult {
                statistic: z,
                p_value: p.min(1.0),
            })
        }

        pub(super) fn health(m: &IidMonitor) -> IidEvidence {
            let w = m.window.len();
            if w < MIN_WINDOW {
                return IidEvidence::Rolling {
                    healthy: None,
                    ljung_box_p: None,
                    runs_p: None,
                    window_len: w,
                };
            }
            let xs: Vec<f64> = m.window.iter().copied().collect();
            let lb = ljung_box(&xs, default_lag(w)).ok();
            let runs = runs_test(&xs);
            let per_test = m.alpha / 2.0;
            let lb_ok = lb.is_none_or(|r| r.passes(per_test));
            let runs_ok = runs.is_none_or(|r| r.passes(per_test));
            IidEvidence::Rolling {
                healthy: Some(lb_ok && runs_ok),
                ljung_box_p: lb.map(|r| r.p_value),
                runs_p: runs.map(|r| r.p_value),
                window_len: w,
            }
        }
    }

    /// Every field of a health evaluation, floats as bits.
    type HealthBits = (Option<bool>, usize, [Option<u64>; 2]);

    fn health_bits(h: IidEvidence) -> HealthBits {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        let (healthy, ljung_box_p, runs_p, window_len) = rolling(h);
        (healthy, window_len, [bits(ljung_box_p), bits(runs_p)])
    }

    #[test]
    fn health_is_bit_identical_to_the_replaced_composition() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut windows: Vec<(&str, Vec<f64>)> = vec![
            ("empty", vec![]),
            ("warming", (0..MIN_WINDOW - 1).map(|i| i as f64).collect()),
            ("constant", vec![42.0; 120]),
            (
                "signed zeros",
                (0..90).map(|i| [0.0, -0.0, 1.0][i % 3]).collect(),
            ),
        ];
        // Runs-degenerate: the median is the minimum, so one side of it
        // is empty; then fewer than 20 values off the median.
        let mut one_sided = vec![1000.0; 60];
        one_sided.extend((0..40).map(|i| 1001.0 + i as f64));
        windows.push(("one-sided", one_sided));
        let mut few_off = vec![1000.0; 85];
        few_off.extend((0..15).map(|i| 990.0 + 2.0 * i as f64));
        windows.push(("few off the median", few_off));
        for len in [MIN_WINDOW, 137, 500] {
            let tied = (0..len)
                .map(|_| 78_000.0 + 24.0 * (rng.gen::<f64>() * 6.0).floor())
                .collect();
            windows.push(("tied", tied));
            let continuous = (0..len).map(|_| 1e5 + 150.0 * rng.gen::<f64>()).collect();
            windows.push(("continuous", continuous));
            let mut level = 0.0f64;
            let ar = (0..len)
                .map(|_| {
                    level = 0.9 * level + rng.gen::<f64>();
                    1e5 + 500.0 * level
                })
                .collect();
            windows.push(("autocorrelated", ar));
        }
        let mut statuses = Vec::new();
        for (name, values) in &windows {
            for capacity in [MIN_WINDOW, 200, 500] {
                let mut m = IidMonitor::new(capacity, 0.05);
                m.push_batch(values);
                let got = m.health();
                assert_eq!(
                    health_bits(got),
                    health_bits(oracle::health(&m)),
                    "{name}, {} values, capacity {capacity}",
                    values.len()
                );
                statuses.push(got.label());
                let degenerate = ["constant", "one-sided", "few off the median"];
                if degenerate.contains(name) && capacity >= values.len() {
                    assert!(rolling(got).2.is_none(), "{name}: the runs test ran");
                    assert_ne!(got.label(), "warming", "{name}");
                }
            }
        }
        for status in ["warming", "healthy", "suspect"] {
            assert!(statuses.contains(&status), "no {status} window");
        }
    }

    #[test]
    fn bad_alpha_clamped() {
        let m = IidMonitor::new(100, 7.0);
        assert_eq!(m.alpha, 0.05);
        let m = IidMonitor::new(10, 0.05);
        assert_eq!(m.capacity(), MIN_WINDOW);
    }
}
