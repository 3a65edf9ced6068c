//! Versioned binary persistence for analyzer and session state.
//!
//! Long campaigns (millions of runs across many shards) must survive
//! process restarts, and a resumed analysis must be **bit-identical** to
//! an uninterrupted one. This module is the wire layer that makes that
//! possible without serde (the build is offline): a hand-rolled,
//! length-prefixed, little-endian binary codec behind two tiny traits,
//! [`Encode`] and [`Decode`], plus a sealed-blob envelope
//! ([`seal`]/[`unseal`]) carrying a magic tag, the format version byte
//! ([`FORMAT_VERSION`]), the payload length, and an FNV-1a checksum.
//!
//! Robustness contract: decoding **never panics**. Truncated bytes, bit
//! flips (caught by the checksum — FNV-1a detects every equal-length
//! single-byte difference), wrong magics and unsupported versions all
//! surface as typed [`MbptaError::Checkpoint`] errors; the adversarial
//! decode proptests fuzz exactly these corruptions.
//!
//! Format stability: the encoding of every type is part of the on-disk
//! checkpoint format, guarded by golden fixtures under `tests/fixtures/`.
//! Any change to an `encode` body requires bumping [`FORMAT_VERSION`]
//! and regenerating the fixtures.
//!
//! The layering:
//!
//! * this module — wire primitives and codecs for the batch vocabulary
//!   ([`Verdict`], [`EngineEstimate`], [`Pwcet`], errors, the
//!   [`BatchEngine`] state);
//! * `proxima_stream::persist` — codecs for the streaming state
//!   (quantile sketch, i.i.d. monitor, block-maxima buffer, stream and
//!   federated analyzers);
//! * [`AnalysisSession::checkpoint`]/[`AnalysisSession::restore`]
//!   (`session.rs`) — the session-level envelope gluing both together
//!   through the [`Engine::save_state`] / [`EngineFactory::restore`]
//!   contract.
//!
//! [`AnalysisSession::checkpoint`]: crate::session::AnalysisSession::checkpoint
//! [`AnalysisSession::restore`]: crate::session::AnalysisSession::restore
//! [`Engine::save_state`]: crate::engine::Engine::save_state
//! [`EngineFactory::restore`]: crate::engine::EngineFactory::restore

use proxima_stats::descriptive::Summary;
use proxima_stats::dist::{Gev, Gpd, Gumbel};
use proxima_stats::evt::GofReport;
use proxima_stats::tests::TestResult;
use proxima_stats::StatsError;

use crate::confidence::BudgetInterval;
use crate::config::{BlockSpec, MbptaConfig};
use crate::engine::{
    BatchEngine, EngineEstimate, EngineKind, IidEvidence, ObservationSummary, Provenance, Verdict,
};
use crate::evt_fit::EvtFit;
use crate::iid::IidReport;
use crate::pwcet::Pwcet;
use crate::session::ChannelId;
use crate::MbptaError;

/// The checkpoint format version this build reads and writes. Bump on any
/// encoding change; old fixtures must keep decoding under the version
/// they were written with or be rejected loudly.
///
/// Version 2: the serve `STATS` payload grew per-shard counters and the
/// server checkpoint became a manifest plus one sealed session blob per
/// worker (sharded serve core).
///
/// Version 3: `StreamConfig` grew the sketch-kind byte and the analyzer
/// sketch record became kind-tagged (`Sketch`). GK (tag 0) is the only
/// sketch left; tag 1, a second sketch since removed, fails to decode.
///
/// Version 4: the analyzer record stores its last estimate through the
/// [`EngineEstimate`] codec (the stream crate's own snapshot and health
/// records are gone), and the session header lost its always-set polling
/// flag. No frame payload changed.
///
/// Version 5: the serve verdict cache is gone, so the server manifest
/// lost its cache capacity and TTL fields and the `STATS` payload lost
/// the cache insertion, eviction, expiration, length and capacity
/// counters (16 global counters, 4 per shard). Session, engine and
/// federated payloads did not change.
///
/// Bumping this without regenerating the golden fixtures breaks the
/// crash-resume battery: rerun with PROXIMA_REGEN_FIXTURES=1 and commit
/// the refreshed `tests/fixtures/` alongside the bump (fixture-regen).
pub const FORMAT_VERSION: u8 = 5;

/// Magic tag of a serialized engine state ([`Engine::save_state`]).
///
/// [`Engine::save_state`]: crate::engine::Engine::save_state
pub const MAGIC_ENGINE: [u8; 4] = *b"PXEG";

/// Magic tag of a serialized session checkpoint
/// ([`AnalysisSession::checkpoint`]).
///
/// [`AnalysisSession::checkpoint`]: crate::session::AnalysisSession::checkpoint
pub const MAGIC_SESSION: [u8; 4] = *b"PXSN";

/// Magic tag of a single exported channel record
/// ([`AnalysisSession::export_channel_record`]) — the unit a sharded
/// coordinator moves between worker sessions when it re-partitions.
///
/// [`AnalysisSession::export_channel_record`]: crate::session::AnalysisSession::export_channel_record
pub const MAGIC_CHANNEL: [u8; 4] = *b"PXCH";

/// Longest string the decoder accepts (channel labels, error messages):
/// corrupt length fields must not drive unbounded allocations.
const MAX_STRING: usize = 4096;

/// Deepest error-nesting the decoder accepts (a channel-scoped error
/// wrapping another): adversarial payloads must not recurse the stack.
const MAX_ERROR_DEPTH: usize = 8;

/// FNV-1a 64-bit hash — the blob checksum. Not cryptographic, but it
/// detects every single-byte (hence single-bit) difference between
/// equal-length inputs, which is exactly the corruption class a damaged
/// checkpoint file exhibits.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Wrap a payload in the sealed-blob envelope:
/// `magic(4) ‖ version(1) ‖ len(8, LE) ‖ payload ‖ fnv1a(payload)(8, LE)`.
pub fn seal(magic: [u8; 4], payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 21);
    out.extend_from_slice(&magic);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = fnv1a(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Open a sealed blob, returning the verified payload.
///
/// # Errors
///
/// Returns [`MbptaError::Checkpoint`] for a wrong magic, an unsupported
/// format version, a truncated or length-inconsistent blob, or a payload
/// whose checksum does not match (bit corruption).
pub fn unseal(bytes: &[u8], magic: [u8; 4]) -> Result<&[u8], MbptaError> {
    if bytes.len() < 13 {
        return Err(MbptaError::checkpoint(
            "checkpoint truncated: shorter than the blob header",
        ));
    }
    if bytes[..4] != magic {
        return Err(MbptaError::checkpoint(format!(
            "checkpoint magic mismatch: expected {:?}, found {:?}",
            std::str::from_utf8(&magic).unwrap_or("?"),
            &bytes[..4]
        )));
    }
    let version = bytes[4];
    if version != FORMAT_VERSION {
        return Err(MbptaError::checkpoint(format!(
            "unsupported checkpoint format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    // proxima-lint: allow(no-lib-panic) -- the length check above proved
    // the blob holds at least 13 bytes, so this 8-byte slice exists.
    let len = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let len: usize = len
        .try_into()
        .map_err(|_| MbptaError::checkpoint("checkpoint payload length overflows usize"))?;
    let Some(expected_total) = len.checked_add(21) else {
        return Err(MbptaError::checkpoint(
            "checkpoint payload length overflows usize",
        ));
    };
    if bytes.len() != expected_total {
        return Err(MbptaError::checkpoint(format!(
            "checkpoint length mismatch: header says {len} payload bytes, blob has {}",
            bytes.len().saturating_sub(21)
        )));
    }
    let payload = &bytes[13..13 + len];
    // proxima-lint: allow(no-lib-panic) -- expected_total == len + 21 was
    // verified above, so exactly 8 checksum bytes remain past the payload.
    let stored = u64::from_le_bytes(bytes[13 + len..].try_into().expect("8 bytes"));
    if fnv1a(payload) != stored {
        return Err(MbptaError::checkpoint(
            "checkpoint checksum mismatch: the payload bytes are corrupted",
        ));
    }
    Ok(payload)
}

/// Append-only byte sink the encoders write into.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, x: bool) {
        self.buf.push(u8::from(x));
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Write an `f64` by its IEEE-754 bit pattern (exact round trip,
    /// including infinities and NaN payloads).
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked cursor the decoders read from. Every accessor returns a
/// typed [`MbptaError::Checkpoint`] on truncation — no panics.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `payload` (typically the output of [`unseal`]).
    pub fn new(payload: &'a [u8]) -> Self {
        Reader {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MbptaError> {
        if n > self.remaining() {
            return Err(MbptaError::checkpoint(format!(
                "checkpoint truncated: needed {n} more bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation.
    pub fn u8(&mut self) -> Result<u8, MbptaError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejecting anything but 0/1 — a flipped flag must not
    /// silently misparse).
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, MbptaError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(MbptaError::checkpoint(format!(
                "checkpoint field is not a boolean (byte {other})"
            ))),
        }
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation.
    pub fn u64(&mut self) -> Result<u64, MbptaError> {
        // proxima-lint: allow(no-lib-panic) -- take(8)? returned exactly
        // 8 bytes or already erred, so the array conversion cannot fail.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation or overflow.
    pub fn usize(&mut self) -> Result<usize, MbptaError> {
        self.u64()?
            .try_into()
            .map_err(|_| MbptaError::checkpoint("checkpoint count overflows usize"))
    }

    /// Read an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation.
    pub fn f64(&mut self) -> Result<f64, MbptaError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation (including a length field
    /// pointing past the end of the payload).
    pub fn bytes(&mut self) -> Result<&'a [u8], MbptaError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string (bounded at 4 KiB: corrupt
    /// lengths must not drive unbounded allocations).
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncation, an oversized length, or
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, MbptaError> {
        let bytes = self.bytes()?;
        if bytes.len() > MAX_STRING {
            return Err(MbptaError::checkpoint(
                "checkpoint string exceeds the 4 KiB decoder bound",
            ));
        }
        std::str::from_utf8(bytes)
            .map_err(|_| MbptaError::checkpoint("checkpoint string is not valid UTF-8"))
    }

    /// Require the payload to be fully consumed — trailing bytes mean the
    /// reader and writer disagree about the format.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] if bytes remain.
    pub fn finish(self) -> Result<(), MbptaError> {
        if self.remaining() != 0 {
            return Err(MbptaError::checkpoint(format!(
                "checkpoint has {} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Serialize a value into the checkpoint wire format. Encoding is
/// infallible: every constructible value of an implementing type has a
/// representation.
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Deserialize a value from the checkpoint wire format.
pub trait Decode: Sized {
    /// Read one value.
    ///
    /// # Errors
    ///
    /// [`MbptaError::Checkpoint`] on truncated, corrupt, or semantically
    /// invalid bytes — never a panic.
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError>;
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        r.u64()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.usize(*self);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        r.usize()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        r.f64()
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        r.bool()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let len = r.usize()?;
        // Each element consumes at least one byte, so a length claiming
        // more elements than remaining bytes is corrupt; capping the
        // preallocation keeps adversarial lengths from OOM-ing before
        // the truncation error surfaces.
        if len > r.remaining() {
            return Err(MbptaError::checkpoint(
                "checkpoint sequence length exceeds the remaining payload",
            ));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for ChannelId {
    fn encode(&self, w: &mut Writer) {
        w.str(self.as_str());
    }
}

impl Decode for ChannelId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(ChannelId::new(r.str()?))
    }
}

impl Encode for EngineKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            EngineKind::Batch => 0,
            EngineKind::Stream => 1,
            EngineKind::Federated => 2,
        });
    }
}

impl Decode for EngineKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match r.u8()? {
            0 => Ok(EngineKind::Batch),
            1 => Ok(EngineKind::Stream),
            2 => Ok(EngineKind::Federated),
            other => Err(MbptaError::checkpoint(format!(
                "unknown engine kind tag {other}"
            ))),
        }
    }
}

impl Encode for Gumbel {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.mu());
        w.f64(self.beta());
    }
}

impl Decode for Gumbel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let (mu, beta) = (r.f64()?, r.f64()?);
        Gumbel::new(mu, beta)
            .map_err(|e| MbptaError::checkpoint(format!("invalid gumbel parameters: {e}")))
    }
}

impl Encode for Gev {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.mu());
        w.f64(self.sigma());
        w.f64(self.xi());
    }
}

impl Decode for Gev {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let (mu, sigma, xi) = (r.f64()?, r.f64()?, r.f64()?);
        Gev::new(mu, sigma, xi)
            .map_err(|e| MbptaError::checkpoint(format!("invalid gev parameters: {e}")))
    }
}

impl Encode for Gpd {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.mu());
        w.f64(self.sigma());
        w.f64(self.xi());
    }
}

impl Decode for Gpd {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let (mu, sigma, xi) = (r.f64()?, r.f64()?, r.f64()?);
        Gpd::new(mu, sigma, xi)
            .map_err(|e| MbptaError::checkpoint(format!("invalid gpd parameters: {e}")))
    }
}

impl Encode for Pwcet {
    fn encode(&self, w: &mut Writer) {
        self.tail().encode(w);
        w.usize(self.block_size());
    }
}

impl Decode for Pwcet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        let tail = Gumbel::decode(r)?;
        let block_size = r.usize()?;
        if block_size == 0 {
            return Err(MbptaError::checkpoint("pwcet block size must be non-zero"));
        }
        Ok(Pwcet::new(tail, block_size))
    }
}

impl Encode for TestResult {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.statistic);
        w.f64(self.p_value);
    }
}

impl Decode for TestResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(TestResult {
            statistic: r.f64()?,
            p_value: r.f64()?,
        })
    }
}

impl Encode for GofReport {
    fn encode(&self, w: &mut Writer) {
        self.ks.encode(w);
        self.ad.encode(w);
    }
}

impl Decode for GofReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(GofReport {
            ks: TestResult::decode(r)?,
            ad: Option::decode(r)?,
        })
    }
}

impl Encode for Summary {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.n);
        w.f64(self.mean);
        w.f64(self.std_dev);
        w.f64(self.min);
        w.f64(self.median);
        w.f64(self.max);
    }
}

impl Decode for Summary {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(Summary {
            n: r.usize()?,
            mean: r.f64()?,
            std_dev: r.f64()?,
            min: r.f64()?,
            median: r.f64()?,
            max: r.f64()?,
        })
    }
}

impl Encode for IidReport {
    fn encode(&self, w: &mut Writer) {
        self.ljung_box.encode(w);
        self.ks.encode(w);
        self.runs.encode(w);
        w.f64(self.alpha);
        w.bool(self.passed);
    }
}

impl Decode for IidReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(IidReport {
            ljung_box: TestResult::decode(r)?,
            ks: TestResult::decode(r)?,
            runs: Option::decode(r)?,
            alpha: r.f64()?,
            passed: r.bool()?,
        })
    }
}

impl Encode for IidEvidence {
    fn encode(&self, w: &mut Writer) {
        match self {
            IidEvidence::Gate(report) => {
                w.u8(0);
                report.encode(w);
            }
            IidEvidence::Rolling {
                healthy,
                ljung_box_p,
                runs_p,
                window_len,
            } => {
                w.u8(1);
                healthy.encode(w);
                ljung_box_p.encode(w);
                runs_p.encode(w);
                w.usize(*window_len);
            }
        }
    }
}

impl Decode for IidEvidence {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match r.u8()? {
            0 => Ok(IidEvidence::Gate(IidReport::decode(r)?)),
            1 => Ok(IidEvidence::Rolling {
                healthy: Option::decode(r)?,
                ljung_box_p: Option::decode(r)?,
                runs_p: Option::decode(r)?,
                window_len: r.usize()?,
            }),
            other => Err(MbptaError::checkpoint(format!(
                "unknown iid evidence tag {other}"
            ))),
        }
    }
}

impl Encode for BudgetInterval {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.estimate);
        w.f64(self.lower);
        w.f64(self.upper);
        w.f64(self.level);
        w.usize(self.resamples);
    }
}

impl Decode for BudgetInterval {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(BudgetInterval {
            estimate: r.f64()?,
            lower: r.f64()?,
            upper: r.f64()?,
            level: r.f64()?,
            resamples: r.usize()?,
        })
    }
}

impl Encode for EvtFit {
    fn encode(&self, w: &mut Writer) {
        self.gumbel.encode(w);
        w.usize(self.block_size);
        w.usize(self.n_maxima);
        self.gof.encode(w);
        self.gev_diagnostic.encode(w);
        self.pot_cross_check.encode(w);
    }
}

impl Decode for EvtFit {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(EvtFit {
            gumbel: Gumbel::decode(r)?,
            block_size: r.usize()?,
            n_maxima: r.usize()?,
            gof: GofReport::decode(r)?,
            gev_diagnostic: Option::decode(r)?,
            pot_cross_check: Option::decode(r)?,
        })
    }
}

impl Encode for ObservationSummary {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.n);
        w.f64(self.high_watermark);
        self.mean.encode(w);
        self.detail.encode(w);
    }
}

impl Decode for ObservationSummary {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(ObservationSummary {
            n: r.usize()?,
            high_watermark: r.f64()?,
            mean: Option::decode(r)?,
            detail: Option::decode(r)?,
        })
    }
}

impl Encode for Provenance {
    fn encode(&self, w: &mut Writer) {
        self.engine.encode(w);
        w.usize(self.n);
        self.converged.encode(w);
        self.channel.encode(w);
    }
}

impl Decode for Provenance {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(Provenance {
            engine: EngineKind::decode(r)?,
            n: r.usize()?,
            converged: Option::decode(r)?,
            channel: Option::decode(r)?,
        })
    }
}

impl Encode for Verdict {
    fn encode(&self, w: &mut Writer) {
        self.summary.encode(w);
        self.iid.encode(w);
        self.fit.encode(w);
        self.pwcet.encode(w);
        self.provenance.encode(w);
    }
}

impl Decode for Verdict {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(Verdict {
            summary: ObservationSummary::decode(r)?,
            iid: IidEvidence::decode(r)?,
            fit: EvtFit::decode(r)?,
            pwcet: Pwcet::decode(r)?,
            provenance: Provenance::decode(r)?,
        })
    }
}

impl Encode for EngineEstimate {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.n);
        self.blocks.encode(w);
        w.f64(self.pwcet);
        self.distribution.encode(w);
        self.ci.encode(w);
        self.convergence_delta.encode(w);
        self.iid.encode(w);
        w.bool(self.converged);
        w.f64(self.high_watermark);
    }
}

impl Decode for EngineEstimate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(EngineEstimate {
            n: r.usize()?,
            blocks: Option::decode(r)?,
            pwcet: r.f64()?,
            distribution: Pwcet::decode(r)?,
            ci: Option::decode(r)?,
            convergence_delta: Option::decode(r)?,
            iid: Option::decode(r)?,
            converged: r.bool()?,
            high_watermark: r.f64()?,
        })
    }
}

impl Encode for BlockSpec {
    fn encode(&self, w: &mut Writer) {
        match self {
            BlockSpec::Fixed(b) => {
                w.u8(0);
                w.usize(*b);
            }
            BlockSpec::Auto(candidates) => {
                w.u8(1);
                candidates.encode(w);
            }
        }
    }
}

impl Decode for BlockSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match r.u8()? {
            0 => Ok(BlockSpec::Fixed(r.usize()?)),
            1 => Ok(BlockSpec::Auto(Vec::decode(r)?)),
            other => Err(MbptaError::checkpoint(format!(
                "unknown block spec tag {other}"
            ))),
        }
    }
}

impl Encode for MbptaConfig {
    fn encode(&self, w: &mut Writer) {
        w.f64(self.alpha);
        self.ljung_box_lags.encode(w);
        self.block.encode(w);
        w.usize(self.min_runs);
        w.bool(self.strict_gof);
    }
}

impl Decode for MbptaConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        Ok(MbptaConfig {
            alpha: r.f64()?,
            ljung_box_lags: Option::decode(r)?,
            block: BlockSpec::decode(r)?,
            min_runs: r.usize()?,
            strict_gof: r.bool()?,
        })
    }
}

/// Distinct error messages the intern pool accepts before refusing to
/// decode further novel ones — far above the workspace's literal count,
/// far below anything a checkpoint-fed leak could abuse.
const MAX_INTERNED: usize = 1024;

/// Intern a decoded message into a `&'static str`. The error types carry
/// `&'static str` payloads (they are built from literals); decoding gets
/// them back by leaking **one** copy per distinct message. Legitimate
/// checkpoints only ever carry the fixed set of literals in this
/// workspace, so the pool stays small; because the strings ultimately
/// come from a file, the pool is hard-capped — past the cap, decoding a
/// *novel* message is an error rather than an unbounded leak.
fn intern(s: &str) -> Result<&'static str, MbptaError> {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        // The pool only ever grows leaked &'static strs; a panic between
        // lock and unlock cannot leave it torn, so poison is recoverable.
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&existing) = pool.get(s) {
        return Ok(existing);
    }
    if pool.len() >= MAX_INTERNED {
        return Err(MbptaError::checkpoint(
            "checkpoint error-message intern pool exhausted",
        ));
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    Ok(leaked)
}

impl Encode for StatsError {
    fn encode(&self, w: &mut Writer) {
        match self {
            StatsError::InsufficientData { needed, got } => {
                w.u8(0);
                w.usize(*needed);
                w.usize(*got);
            }
            StatsError::InvalidArgument { what } => {
                w.u8(1);
                w.str(what);
            }
            StatsError::NonFiniteData => w.u8(2),
            StatsError::DegenerateSample => w.u8(3),
            StatsError::NoConvergence { what } => {
                w.u8(4);
                w.str(what);
            }
            // `StatsError` is non-exhaustive upstream; a variant added
            // later encodes as "unrepresentable" and fails loudly at
            // decode instead of silently misparsing.
            _ => w.u8(255),
        }
    }
}

impl Decode for StatsError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        match r.u8()? {
            0 => Ok(StatsError::InsufficientData {
                needed: r.usize()?,
                got: r.usize()?,
            }),
            1 => Ok(StatsError::InvalidArgument {
                what: intern(r.str()?)?,
            }),
            2 => Ok(StatsError::NonFiniteData),
            3 => Ok(StatsError::DegenerateSample),
            4 => Ok(StatsError::NoConvergence {
                what: intern(r.str()?)?,
            }),
            other => Err(MbptaError::checkpoint(format!(
                "unknown stats error tag {other}"
            ))),
        }
    }
}

impl Encode for MbptaError {
    fn encode(&self, w: &mut Writer) {
        match self {
            MbptaError::IidRejected {
                ljung_box_p,
                ks_p,
                alpha,
            } => {
                w.u8(0);
                w.f64(*ljung_box_p);
                w.f64(*ks_p);
                w.f64(*alpha);
            }
            MbptaError::PoorFit { ks_p } => {
                w.u8(1);
                w.f64(*ks_p);
            }
            MbptaError::Stats(e) => {
                w.u8(2);
                e.encode(w);
            }
            MbptaError::CampaignTooSmall { needed, got } => {
                w.u8(3);
                w.usize(*needed);
                w.usize(*got);
            }
            MbptaError::InvalidConfig { what } => {
                w.u8(4);
                w.str(what);
            }
            MbptaError::Channel { channel, source } => {
                w.u8(5);
                channel.encode(w);
                source.encode(w);
            }
            MbptaError::Checkpoint { what } => {
                w.u8(6);
                w.str(what);
            }
        }
    }
}

impl Decode for MbptaError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, MbptaError> {
        decode_error(r, 0)
    }
}

/// [`MbptaError`] decoding with a nesting bound: channel-scoped errors
/// wrap a source error, and adversarial bytes must not recurse the stack.
fn decode_error(r: &mut Reader<'_>, depth: usize) -> Result<MbptaError, MbptaError> {
    if depth > MAX_ERROR_DEPTH {
        return Err(MbptaError::checkpoint(
            "checkpoint error nesting exceeds the decoder bound",
        ));
    }
    match r.u8()? {
        0 => Ok(MbptaError::IidRejected {
            ljung_box_p: r.f64()?,
            ks_p: r.f64()?,
            alpha: r.f64()?,
        }),
        1 => Ok(MbptaError::PoorFit { ks_p: r.f64()? }),
        2 => Ok(MbptaError::Stats(StatsError::decode(r)?)),
        3 => Ok(MbptaError::CampaignTooSmall {
            needed: r.usize()?,
            got: r.usize()?,
        }),
        4 => Ok(MbptaError::InvalidConfig {
            what: intern(r.str()?)?,
        }),
        5 => Ok(MbptaError::Channel {
            channel: ChannelId::decode(r)?,
            source: Box::new(decode_error(r, depth + 1)?),
        }),
        6 => Ok(MbptaError::Checkpoint {
            what: r.str()?.to_owned(),
        }),
        other => Err(MbptaError::checkpoint(format!(
            "unknown error variant tag {other}"
        ))),
    }
}

/// Serialize a [`BatchEngine`]'s full state (configuration fingerprint +
/// buffered measurements + refit bookkeeping). Used by
/// [`Engine::save_state`]; the inverse lives in
/// [`BatchFactory::restore`].
///
/// [`Engine::save_state`]: crate::engine::Engine::save_state
/// [`BatchFactory::restore`]: crate::engine::BatchFactory
pub(crate) fn encode_batch_engine(engine: &BatchEngine, w: &mut Writer) {
    engine.config.encode(w);
    w.f64(engine.target_p);
    engine.times.encode(w);
    w.f64(engine.high_watermark);
    w.usize(engine.last_fit_n);
    engine.cached.encode(w);
    engine.last_budget.encode(w);
    w.usize(engine.stable_run);
    w.bool(engine.converged);
}

/// Decode a [`BatchEngine`] previously written by
/// [`encode_batch_engine`], verifying its configuration fingerprint
/// against the restoring factory's (`expected` / `expected_p`).
pub(crate) fn decode_batch_engine(
    r: &mut Reader<'_>,
    expected: &MbptaConfig,
    expected_p: f64,
) -> Result<BatchEngine, MbptaError> {
    let config = MbptaConfig::decode(r)?;
    let target_p = r.f64()?;
    if config != *expected || target_p != expected_p {
        return Err(MbptaError::checkpoint(
            "checkpointed batch engine configuration does not match the session's",
        ));
    }
    let mut engine = BatchEngine::new(config, target_p);
    engine.times = Vec::decode(r)?;
    engine.high_watermark = r.f64()?;
    engine.last_fit_n = r.usize()?;
    engine.cached = Option::decode(r)?;
    engine.last_budget = Option::decode(r)?;
    engine.stable_run = r.usize()?;
    engine.converged = r.bool()?;
    if engine.last_fit_n > engine.times.len() {
        return Err(MbptaError::checkpoint(
            "checkpointed batch engine fit cursor exceeds its buffer",
        ));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let payload = b"hello checkpoint".to_vec();
        let blob = seal(MAGIC_SESSION, payload.clone());
        assert_eq!(unseal(&blob, MAGIC_SESSION).unwrap(), &payload[..]);
    }

    #[test]
    fn unseal_rejects_wrong_magic_version_truncation_and_flips() {
        let blob = seal(MAGIC_SESSION, vec![1, 2, 3, 4, 5]);
        // Wrong magic.
        assert!(matches!(
            unseal(&blob, MAGIC_ENGINE),
            Err(MbptaError::Checkpoint { .. })
        ));
        // Unsupported version.
        let mut v = blob.clone();
        v[4] = FORMAT_VERSION + 1;
        let err = unseal(&v, MAGIC_SESSION).unwrap_err();
        assert!(err.to_string().contains("version"));
        // Truncation at every length.
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    unseal(&blob[..cut], MAGIC_SESSION),
                    Err(MbptaError::Checkpoint { .. })
                ),
                "cut at {cut} slipped through"
            );
        }
        // Every single-bit flip is caught (magic, version, length,
        // payload, or checksum — all covered).
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut flipped = blob.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        unseal(&flipped, MAGIC_SESSION),
                        Err(MbptaError::Checkpoint { .. })
                    ),
                    "flip at byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(f64::NEG_INFINITY);
        w.f64(-0.0);
        w.str("kanal/päth");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "kanal/päth");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_bad_bool_and_trailing_bytes() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(MbptaError::Checkpoint { .. })));
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(MbptaError::Checkpoint { .. })));
    }

    #[test]
    fn vec_length_lies_are_rejected_without_allocation() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2); // claims an absurd element count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Vec::<f64>::decode(&mut r),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn error_codec_round_trips_every_variant() {
        let samples = vec![
            MbptaError::IidRejected {
                ljung_box_p: 0.01,
                ks_p: 0.2,
                alpha: 0.05,
            },
            MbptaError::PoorFit { ks_p: 0.001 },
            MbptaError::Stats(StatsError::NonFiniteData),
            MbptaError::Stats(StatsError::DegenerateSample),
            MbptaError::Stats(StatsError::InsufficientData { needed: 40, got: 3 }),
            MbptaError::Stats(StatsError::InvalidArgument {
                what: "sketch epsilon must be in (0, 0.5)",
            }),
            MbptaError::Stats(StatsError::NoConvergence { what: "gumbel mle" }),
            MbptaError::CampaignTooSmall {
                needed: 500,
                got: 7,
            },
            MbptaError::InvalidConfig {
                what: "alpha must be in (0, 0.5]",
            },
            MbptaError::channel_scoped(
                ChannelId::new("tenant-4"),
                MbptaError::Stats(StatsError::NonFiniteData),
            ),
            MbptaError::checkpoint("nested checkpoint failure"),
        ];
        for err in samples {
            let mut w = Writer::new();
            err.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = MbptaError::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn verdict_codec_round_trips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let times: Vec<f64> = (0..1500)
            .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect();
        let mut session = MbptaConfig::default().session().build_batch().unwrap();
        {
            let mut channel = session.channel("campaign").unwrap();
            for &x in &times {
                channel.push(x);
            }
        }
        let verdict = session
            .merge()
            .into_channels()
            .pop()
            .unwrap()
            .outcome
            .unwrap();
        let mut w = Writer::new();
        verdict.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Verdict::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, verdict);
    }

    #[test]
    fn pwcet_zero_block_is_a_typed_error_not_a_panic() {
        let mut w = Writer::new();
        Gumbel::new(100.0, 5.0).unwrap().encode(&mut w);
        w.usize(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Pwcet::decode(&mut r),
            Err(MbptaError::Checkpoint { .. })
        ));
    }

    #[test]
    fn interned_messages_are_deduplicated() {
        let a = intern("same message").unwrap();
        let b = intern("same message").unwrap();
        assert!(std::ptr::eq(a, b));
    }
}
