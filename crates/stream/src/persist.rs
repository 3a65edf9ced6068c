//! Checkpoint codecs for the streaming state: the quantile sketch
//! ([`QuantileSketch`] inside its kind-tagged [`Sketch`] record),
//! [`IidMonitor`], the block-maxima buffer,
//! [`StreamAnalyzer`] and [`FederatedAnalyzer`] (one record per shard).
//!
//! The wire format is `proxima_mbpta::persist` — a hand-rolled,
//! versioned, length-prefixed little-endian codec with sealed-blob
//! framing (magic + format version byte + payload length + FNV-1a
//! checksum). Everything here is an [`Encode`]/[`Decode`] implementation
//! plus the sealed entry points [`save_analyzer`]/[`load_analyzer`] and
//! [`save_federated`]/[`load_federated`].
//!
//! Exactness contract: a decoded analyzer holds bit-for-bit the encoded
//! one's state — sketch tuples, monitor window, partial block, maxima
//! buffer, convergence bookkeeping, cached estimate (through the core
//! [`EngineEstimate`] codec), bootstrap snapshot counter — so an
//! analysis resumed from a checkpoint emits exactly the estimates,
//! intervals and final pWCET of an uninterrupted run. The
//! proptest battery (`tests/persist_props.rs`) pins this down, along
//! with the adversarial guarantee: truncated, bit-flipped, wrong-magic
//! or wrong-version bytes decode to typed
//! [`MbptaError::Checkpoint`] errors — never a panic, never a silently
//! different state.

use proxima_mbpta::engine::{EngineEstimate, IidEvidence};
use proxima_mbpta::persist::{seal, unseal, Decode, Encode, Reader, Writer};
use proxima_mbpta::MbptaError;

use crate::analyzer::{BootstrapSpec, StreamAnalyzer, StreamConfig};
use crate::federated::{FederatedAnalyzer, FederatedConfig};
use crate::monitor::{IidMonitor, MAX_MONITOR_CAPACITY, MIN_WINDOW};
use crate::sketch::{QuantileSketch, Sketch, SketchKind, Tuple};

/// Magic tag of a sealed [`StreamAnalyzer`] blob.
pub const MAGIC_ANALYZER: [u8; 4] = *b"PXSA";

/// Magic tag of a sealed [`FederatedAnalyzer`] blob.
pub const MAGIC_FEDERATED: [u8; 4] = *b"PXFA";

/// Most bootstrap resamples per snapshot the decoder accepts (the
/// default is 200; this is over 300× that). Every refit runs this many
/// Gumbel fits, so a crafted count must not stall the restored analyzer.
const MAX_BOOTSTRAP_RESAMPLES: usize = 1 << 16;

/// Serialize a [`StreamAnalyzer`] into a sealed, versioned checkpoint
/// blob.
pub fn save_analyzer(analyzer: &StreamAnalyzer) -> Vec<u8> {
    let mut w = Writer::new();
    analyzer.encode(&mut w);
    seal(MAGIC_ANALYZER, w.into_bytes())
}

/// Restore a [`StreamAnalyzer`] from a [`save_analyzer`] blob.
///
/// # Errors
///
/// Returns [`MbptaError::Checkpoint`] on truncated, corrupted,
/// wrong-magic or wrong-version bytes.
pub fn load_analyzer(bytes: &[u8]) -> Result<StreamAnalyzer, MbptaError> {
    let payload = unseal(bytes, MAGIC_ANALYZER)?;
    let mut r = Reader::new(payload);
    let analyzer = StreamAnalyzer::decode(&mut r)?;
    r.finish()?;
    Ok(analyzer)
}

/// Serialize a [`FederatedAnalyzer`] (per-shard records) into a sealed,
/// versioned checkpoint blob.
pub fn save_federated(analyzer: &FederatedAnalyzer) -> Vec<u8> {
    let mut w = Writer::new();
    analyzer.encode(&mut w);
    seal(MAGIC_FEDERATED, w.into_bytes())
}

/// Restore a [`FederatedAnalyzer`] from a [`save_federated`] blob.
///
/// # Errors
///
/// Returns [`MbptaError::Checkpoint`] on truncated, corrupted,
/// wrong-magic or wrong-version bytes.
pub fn load_federated(bytes: &[u8]) -> Result<FederatedAnalyzer, MbptaError> {
    let payload = unseal(bytes, MAGIC_FEDERATED)?;
    let mut r = Reader::new(payload);
    let analyzer = FederatedAnalyzer::decode(&mut r)?;
    r.finish()?;
    Ok(analyzer)
}

impl Encode for Tuple {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.v);
        w.u64(self.g);
        w.u64(self.delta);
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(Tuple {
            v: r.f64()?,
            g: r.u64()?,
            delta: r.u64()?,
        })
    }
}

impl Encode for QuantileSketch {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.epsilon);
        self.tuples.encode(w);
        w.u64(self.n);
        w.u64(self.inserts_since_compress);
        w.f64(self.min);
        w.f64(self.max);
        w.f64(self.sum);
    }
}

impl Decode for QuantileSketch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let epsilon = r.f64()?;
        // Re-validate through the public constructor: a corrupt epsilon
        // must not produce a sketch the insert path would misbehave on.
        let mut sketch = QuantileSketch::new(epsilon)
            .map_err(|e| MbptaError::checkpoint(format!("invalid sketch state: {e}")))?;
        sketch.tuples = Vec::decode(r)?;
        sketch.n = r.u64()?;
        sketch.inserts_since_compress = r.u64()?;
        sketch.min = r.f64()?;
        sketch.max = r.f64()?;
        sketch.sum = r.f64()?;
        // The GK invariant ties the tuple coverages to the count: their
        // sum must be exactly `n`. A mismatch means the bytes do not
        // describe a sketch (decoding must never silently misparse).
        let covered: u64 = sketch
            .tuples
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.g));
        if covered != sketch.n {
            return Err(MbptaError::checkpoint(
                "sketch tuple coverage does not sum to its observation count",
            ));
        }
        Ok(sketch)
    }
}

impl Encode for SketchKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SketchKind::Gk => 0,
        });
    }
}

impl Decode for SketchKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match r.u8()? {
            0 => Ok(SketchKind::Gk),
            // Written by builds that still had a second sketch; its
            // record layout is gone, so refuse rather than misparse.
            1 => Err(MbptaError::checkpoint(
                "sketch kind tag 1 (KLL) is no longer supported; GK is the only sketch",
            )),
            other => Err(MbptaError::checkpoint(format!(
                "unknown sketch kind tag {other}"
            ))),
        }
    }
}

impl Encode for Sketch {
    fn encode(&self, w: &mut Writer) {
        SketchKind::Gk.encode(w);
        self.0.encode(w);
    }
}

impl Decode for Sketch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match SketchKind::decode(r)? {
            SketchKind::Gk => QuantileSketch::decode(r).map(Sketch),
        }
    }
}

impl Encode for IidMonitor {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.capacity);
        w.f64(self.alpha);
        w.usize(self.window.len());
        for &x in &self.window {
            w.f64(x);
        }
    }
}

impl Decode for IidMonitor {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let capacity = r.usize()?;
        let alpha = r.f64()?;
        // Validate instead of constructing through `new`: `new` clamps
        // out-of-range values (a state that only exists after clamping
        // was never produced by a real monitor) and pre-allocates the
        // window — which a crafted capacity must not be able to turn
        // into an allocation panic. The FNV checksum is not a MAC, so
        // the decoder cannot trust any field.
        if !(MIN_WINDOW..=MAX_MONITOR_CAPACITY).contains(&capacity) {
            return Err(MbptaError::checkpoint(
                "monitor capacity outside the constructible range",
            ));
        }
        if !(alpha > 0.0 && alpha <= 0.5) {
            return Err(MbptaError::checkpoint(
                "monitor alpha outside the constructible range",
            ));
        }
        let mut monitor = IidMonitor {
            window: std::collections::VecDeque::new(),
            capacity,
            alpha,
        };
        let len = r.usize()?;
        if len > capacity {
            return Err(MbptaError::checkpoint(
                "monitor window longer than its capacity",
            ));
        }
        if len > r.remaining() {
            return Err(MbptaError::checkpoint(
                "monitor window length exceeds the remaining payload",
            ));
        }
        for _ in 0..len {
            monitor.window.push_back(r.f64()?);
        }
        Ok(monitor)
    }
}

impl Encode for BootstrapSpec {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.level);
        w.usize(self.resamples);
        w.u64(self.seed);
    }
}

impl Decode for BootstrapSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(BootstrapSpec {
            level: r.f64()?,
            resamples: r.usize()?,
            seed: r.u64()?,
        })
    }
}

impl Encode for StreamConfig {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.block_size);
        w.usize(self.refit_every_blocks);
        w.f64(self.target_p);
        w.f64(self.rel_tol);
        w.usize(self.stable_snapshots);
        w.usize(self.min_blocks);
        w.f64(self.alpha);
        w.usize(self.monitor_window);
        w.f64(self.sketch_epsilon);
        // Format v3: the sketch-kind byte (v2 configs were GK-only).
        self.sketch.encode(w);
        self.bootstrap.encode(w);
    }
}

impl Decode for StreamConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let config = StreamConfig {
            block_size: r.usize()?,
            refit_every_blocks: r.usize()?,
            target_p: r.f64()?,
            rel_tol: r.f64()?,
            stable_snapshots: r.usize()?,
            min_blocks: r.usize()?,
            alpha: r.f64()?,
            monitor_window: r.usize()?,
            sketch_epsilon: r.f64()?,
            sketch: SketchKind::decode(r)?,
            bootstrap: Option::decode(r)?,
        };
        config
            .validate()
            .map_err(|e| MbptaError::checkpoint(format!("invalid stream configuration: {e}")))?;
        // `validate` accepts any positive resample count, but the decoder
        // must not let one refit run 2⁴⁰ fits.
        if config
            .bootstrap
            .is_some_and(|spec| spec.resamples > MAX_BOOTSTRAP_RESAMPLES)
        {
            return Err(MbptaError::checkpoint(
                "stream configuration bootstrap resamples exceed the decoder bound",
            ));
        }
        Ok(config)
    }
}

impl Encode for StreamAnalyzer {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.sketch.encode(w);
        self.monitor.encode(w);
        w.usize(self.n);
        w.f64(self.current_block_max);
        w.usize(self.current_block_len);
        self.maxima.encode(w);
        w.usize(self.blocks_since_refit);
        w.usize(self.snapshots);
        self.last_estimate.encode(w);
        w.usize(self.stable_run);
        self.converged_at.encode(w);
        self.last_fit_error.encode(w);
        // Encoding reads the estimate: an owed CI is computed here, so
        // the bytes match an analyzer whose every estimate was read.
        self.last_snapshot().encode(w);
    }
}

impl Decode for StreamAnalyzer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let config = StreamConfig::decode(r)?;
        // `new` re-runs the config validation and builds the empty
        // sketch/monitor, which the decoded states then replace.
        let mut analyzer = StreamAnalyzer::new(config)
            .map_err(|e| MbptaError::checkpoint(format!("invalid analyzer state: {e}")))?;
        analyzer.sketch = Sketch::decode(r)?;
        analyzer.monitor = IidMonitor::decode(r)?;
        analyzer.n = r.usize()?;
        analyzer.current_block_max = r.f64()?;
        analyzer.current_block_len = r.usize()?;
        analyzer.maxima = Vec::decode(r)?;
        analyzer.blocks_since_refit = r.usize()?;
        analyzer.snapshots = r.usize()?;
        analyzer.last_estimate = Option::decode(r)?;
        analyzer.stable_run = r.usize()?;
        analyzer.converged_at = Option::decode(r)?;
        analyzer.last_fit_error = Option::decode(r)?;
        if let Some(snap) = Option::<EngineEstimate>::decode(r)? {
            // Every refit sets both; `finish` and the verdict read them.
            if snap.blocks.is_none() || !matches!(snap.iid, Some(IidEvidence::Rolling { .. })) {
                return Err(MbptaError::checkpoint(
                    "analyzer estimate lacks its block count or rolling i.i.d. evidence",
                ));
            }
            analyzer.last_ci = snap.ci.into();
            analyzer.last_snapshot = Some(EngineEstimate { ci: None, ..snap });
        }
        if analyzer.current_block_len >= analyzer.config.block_size {
            return Err(MbptaError::checkpoint(
                "analyzer partial block is not shorter than the block size",
            ));
        }
        // Checked arithmetic: a crafted block size near usize::MAX must
        // neither panic (debug) nor wrap into a passing check (release).
        let accounted = analyzer
            .maxima
            .len()
            .checked_mul(analyzer.config.block_size)
            .and_then(|complete| complete.checked_add(analyzer.current_block_len));
        if accounted != Some(analyzer.n) {
            return Err(MbptaError::checkpoint(
                "analyzer block accounting does not match its measurement count",
            ));
        }
        Ok(analyzer)
    }
}

impl Encode for FederatedConfig {
    fn encode(&self, w: &mut Writer) {
        self.stream.encode(w);
        w.usize(self.shards);
        w.usize(self.shard_len);
    }
}

impl Decode for FederatedConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let config = FederatedConfig {
            stream: StreamConfig::decode(r)?,
            shards: r.usize()?,
            shard_len: r.usize()?,
        };
        config
            .validate()
            .map_err(|e| MbptaError::checkpoint(format!("invalid federated configuration: {e}")))?;
        Ok(config)
    }
}

impl Encode for FederatedAnalyzer {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.shards.encode(w);
        w.usize(self.shard_len);
        w.usize(self.n);
    }
}

impl Decode for FederatedAnalyzer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let config = FederatedConfig::decode(r)?;
        let shards: Vec<StreamAnalyzer> = Vec::decode(r)?;
        if shards.len() != config.shards {
            return Err(MbptaError::checkpoint(
                "federated shard record count does not match its configuration",
            ));
        }
        for shard in &shards {
            if shard.config != config.stream {
                return Err(MbptaError::checkpoint(
                    "federated shard record carries a foreign stream configuration",
                ));
            }
        }
        let shard_len = r.usize()?;
        let n = r.usize()?;
        // Every constructible analyzer derives its routing length from
        // the config; a blob disagreeing with it would route post-resume
        // pushes onto the wrong shards — a silent misparse.
        if shard_len != config.effective_shard_len() {
            return Err(MbptaError::checkpoint(
                "federated shard length does not match its configuration",
            ));
        }
        let total = shards
            .iter()
            .try_fold(0usize, |acc, s| acc.checked_add(s.len()));
        if total != Some(n) {
            return Err(MbptaError::checkpoint(
                "federated shard lengths do not sum to the analyzer's count",
            ));
        }
        Ok(FederatedAnalyzer {
            config,
            shards,
            shard_len,
            n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn times(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    fn stream_config() -> StreamConfig {
        StreamConfig {
            block_size: 25,
            refit_every_blocks: 4,
            ..StreamConfig::default()
        }
    }

    /// Field-wise equality for analyzers (`StreamAnalyzer` does not
    /// derive `PartialEq` because `MbptaError` comparison is structural;
    /// here structural is exactly what we want).
    fn assert_analyzers_identical(a: &StreamAnalyzer, b: &StreamAnalyzer) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.sketch, b.sketch);
        assert_eq!(a.monitor.window, b.monitor.window);
        assert_eq!(a.monitor.capacity, b.monitor.capacity);
        assert_eq!(a.monitor.alpha, b.monitor.alpha);
        assert_eq!(a.n, b.n);
        assert_eq!(a.current_block_max.to_bits(), b.current_block_max.to_bits());
        assert_eq!(a.current_block_len, b.current_block_len);
        assert_eq!(a.maxima, b.maxima);
        assert_eq!(a.blocks_since_refit, b.blocks_since_refit);
        assert_eq!(a.snapshots, b.snapshots);
        assert_eq!(a.last_estimate, b.last_estimate);
        assert_eq!(a.stable_run, b.stable_run);
        assert_eq!(a.converged_at, b.converged_at);
        assert_eq!(a.last_fit_error, b.last_fit_error);
        assert_eq!(a.last_snapshot(), b.last_snapshot());
    }

    #[test]
    fn analyzer_round_trip_is_identity_mid_block() {
        // 1010 samples at block 25 leaves a 10-sample partial block and
        // live convergence bookkeeping — all of it must survive.
        let mut analyzer = StreamAnalyzer::new(stream_config()).unwrap();
        analyzer.extend(times(1010, 1)).unwrap();
        let blob = save_analyzer(&analyzer);
        let restored = load_analyzer(&blob).unwrap();
        assert_analyzers_identical(&analyzer, &restored);
        // Canonical encoding: re-encoding the restored state is
        // byte-identical.
        assert_eq!(save_analyzer(&restored), blob);
    }

    #[test]
    fn resumed_analyzer_continues_bit_identically() {
        let data = times(4000, 2);
        let cut = 1337;
        let mut uninterrupted = StreamAnalyzer::new(stream_config()).unwrap();
        let mut first = StreamAnalyzer::new(stream_config()).unwrap();
        let pre: Vec<_> = uninterrupted.extend(data[..cut].iter().copied()).unwrap();
        assert_eq!(first.extend(data[..cut].iter().copied()).unwrap(), pre);
        let mut resumed = load_analyzer(&save_analyzer(&first)).unwrap();
        drop(first); // the original is gone — only the bytes survive
        let tail_a = uninterrupted.extend(data[cut..].iter().copied()).unwrap();
        let tail_b = resumed.extend(data[cut..].iter().copied()).unwrap();
        assert_eq!(tail_a, tail_b, "post-resume snapshots diverged");
        assert_eq!(
            uninterrupted.finish().unwrap(),
            resumed.finish().unwrap(),
            "final pWCET diverged after resume"
        );
    }

    #[test]
    fn degenerate_fit_error_survives_the_round_trip() {
        let mut analyzer = StreamAnalyzer::new(StreamConfig {
            block_size: 10,
            refit_every_blocks: 1,
            ..StreamConfig::default()
        })
        .unwrap();
        for _ in 0..200 {
            analyzer.push(500.0).unwrap();
        }
        assert!(analyzer.last_fit_error.is_some());
        let restored = load_analyzer(&save_analyzer(&analyzer)).unwrap();
        assert_eq!(restored.last_fit_error, analyzer.last_fit_error);
    }

    #[test]
    fn federated_round_trip_preserves_every_shard() {
        let config = FederatedConfig::new(stream_config(), 4).balanced_for(3000);
        let mut fed = FederatedAnalyzer::new(config).unwrap();
        for x in times(3000, 3) {
            fed.push(x).unwrap();
        }
        let blob = save_federated(&fed);
        let mut restored = load_federated(&blob).unwrap();
        assert_eq!(restored.len(), fed.len());
        assert_eq!(restored.shard_len(), fed.shard_len());
        for (a, b) in fed.shards().iter().zip(restored.shards()) {
            assert_analyzers_identical(a, b);
        }
        assert_eq!(
            restored.finish().unwrap(),
            fed.clone().finish().unwrap(),
            "folded pWCET diverged after restore"
        );
        assert_eq!(save_federated(&load_federated(&blob).unwrap()), blob);
    }

    #[test]
    fn wrong_magic_and_cross_type_blobs_are_rejected() {
        let mut analyzer = StreamAnalyzer::new(stream_config()).unwrap();
        analyzer.extend(times(500, 4)).unwrap();
        let blob = save_analyzer(&analyzer);
        // A stream-analyzer blob is not a federated blob.
        assert!(matches!(
            load_federated(&blob),
            Err(MbptaError::Checkpoint { .. })
        ));
        // Nor is an arbitrary sealed payload an analyzer.
        let alien = proxima_mbpta::persist::seal(MAGIC_ANALYZER, vec![9; 32]);
        assert!(matches!(
            load_analyzer(&alien),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn sketch_coverage_mismatch_is_detected() {
        let mut sketch = QuantileSketch::new(0.01).unwrap();
        for x in times(300, 5) {
            sketch.insert(x);
        }
        let mut w = Writer::new();
        sketch.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = QuantileSketch::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, sketch);
        // Lie about the count: the coverage check must fire.
        sketch.n += 1;
        let mut w = Writer::new();
        sketch.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            QuantileSketch::decode(&mut r),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    /// Save an analyzer whose configuration was altered after
    /// construction, and decode it back.
    fn reload_with_bootstrap(spec: BootstrapSpec) -> Result<StreamAnalyzer, MbptaError> {
        let mut analyzer = StreamAnalyzer::new(stream_config()).unwrap();
        analyzer.extend(times(300, 7)).unwrap();
        analyzer.config.bootstrap = Some(spec);
        load_analyzer(&save_analyzer(&analyzer))
    }

    #[test]
    fn bootstrap_level_outside_unit_interval_is_rejected_on_decode() {
        for level in [0.0, 1.0, 1.5, -0.5, f64::NAN] {
            let spec = BootstrapSpec {
                level,
                ..BootstrapSpec::default()
            };
            assert!(
                matches!(
                    reload_with_bootstrap(spec),
                    Err(MbptaError::Checkpoint { .. })
                ),
                "level {level}"
            );
        }
    }

    #[test]
    fn zero_bootstrap_resamples_are_rejected_on_decode() {
        let spec = BootstrapSpec {
            resamples: 0,
            ..BootstrapSpec::default()
        };
        assert!(matches!(
            reload_with_bootstrap(spec),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn bootstrap_resamples_past_the_decoder_bound_are_rejected() {
        for resamples in [MAX_BOOTSTRAP_RESAMPLES + 1, 1 << 40] {
            let spec = BootstrapSpec {
                resamples,
                ..BootstrapSpec::default()
            };
            assert!(
                matches!(
                    reload_with_bootstrap(spec),
                    Err(MbptaError::Checkpoint { .. })
                ),
                "resamples {resamples}"
            );
        }
        let at_bound = BootstrapSpec {
            resamples: MAX_BOOTSTRAP_RESAMPLES,
            ..BootstrapSpec::default()
        };
        assert!(reload_with_bootstrap(at_bound).is_ok());
    }

    #[test]
    fn sketch_kind_tags_other_than_gk_are_rejected() {
        let mut sketch = Sketch::new(SketchKind::Gk, 0.02).unwrap();
        sketch.insert_batch(&times(300, 5));
        let mut w = Writer::new();
        sketch.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(Sketch::decode(&mut Reader::new(&bytes)).unwrap(), sketch);
        // The kind tag is the record's first byte.
        for tag in [1u8, 2, 3, 0x10, 0x7F, 0xFF] {
            let mut retagged = bytes.clone();
            retagged[0] = tag;
            let err = Sketch::decode(&mut Reader::new(&retagged)).unwrap_err();
            assert!(matches!(err, MbptaError::Checkpoint { .. }), "{err:?}");
            let why = if tag == 1 {
                "no longer supported"
            } else {
                "unknown sketch kind tag"
            };
            assert!(err.to_string().contains(why), "tag {tag}: {err}");
        }
    }
}
