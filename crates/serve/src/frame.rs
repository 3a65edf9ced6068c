//! The `mbpta serve` wire protocol: framed requests and responses over a
//! byte stream.
//!
//! Every message travels in one **frame** carrying the same envelope
//! discipline as the on-disk checkpoint codec
//! ([`proxima_mbpta::persist`]):
//!
//! ```text
//! magic "PXNF" (4) ‖ version (1) ‖ payload_len u64 LE (8)
//!                  ‖ payload (payload_len) ‖ fnv1a(payload) u64 LE (8)
//! ```
//!
//! The payload is a [`Request`] or [`Response`] encoded with the same
//! [`Writer`]/[`Reader`] primitives as checkpoints, so the service
//! reuses the battle-tested codecs for [`Verdict`], [`EngineEstimate`]
//! and federated state blobs instead of inventing a second
//! serialization.
//!
//! Decoding is defensive end to end: the length is bounds-checked
//! **before** any allocation, the checksum is verified before the
//! payload is interpreted, and every malformed input maps to a typed
//! [`FrameError`] — never a panic. A decode error poisons only the
//! connection it arrived on; see `docs/PROTOCOL.md` for the full
//! contract.

use std::fmt;
use std::io::{self, Read, Write};

use proxima_mbpta::persist::{self, Decode, Encode, Reader, Writer};
use proxima_mbpta::{EngineEstimate, Verdict};

/// Frame magic: `PXNF` ("proxima network frame").
pub const MAGIC_FRAME: [u8; 4] = *b"PXNF";

/// Hard upper bound on a frame payload (64 MiB).
///
/// Checked before the payload buffer is allocated, so a hostile or
/// corrupt length prefix cannot drive an allocation-of-doom.
pub const MAX_FRAME: u64 = 1 << 26;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The frame did not start with [`MAGIC_FRAME`].
    BadMagic([u8; 4]),
    /// The frame carried an unknown protocol version.
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized(u64),
    /// The stream ended inside a frame.
    Truncated,
    /// The payload checksum did not match.
    BadChecksum,
    /// The payload passed the checksum but did not decode as a valid
    /// message.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_FRAME}-byte cap"
                )
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::BadChecksum => write!(f, "frame payload checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Write one frame wrapping `payload`.
///
/// The caller owns buffering and flushing; wrap the stream in a
/// `BufWriter` and flush after each request/response exchange.
///
/// # Errors
///
/// Any [`io::Error`] from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&MAGIC_FRAME)?;
    w.write_all(&[persist::FORMAT_VERSION])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&persist::fnv1a(payload).to_le_bytes())?;
    Ok(())
}

/// Read one frame, returning its verified payload.
///
/// Returns `Ok(None)` on a clean end-of-stream **at a frame boundary**
/// (the peer closed after the last complete frame); end-of-stream
/// anywhere inside a frame is [`FrameError::Truncated`].
///
/// # Errors
///
/// Every way a frame can be bad maps to its own [`FrameError`] variant;
/// after any error the stream position is unreliable and the connection
/// should be closed.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut magic = [0u8; 4];
    // A clean EOF before the first magic byte is the peer hanging up
    // between frames — not an error.
    let mut got = 0;
    while got < 1 {
        match r.read(&mut magic[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut magic[1..])?;
    if magic != MAGIC_FRAME {
        return Err(FrameError::BadMagic(magic));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != persist::FORMAT_VERSION {
        return Err(FrameError::BadVersion(version[0]));
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    if u64::from_le_bytes(checksum) != persist::fnv1a(&payload) {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some(payload))
}

fn malformed(e: impl fmt::Display) -> FrameError {
    FrameError::Malformed(e.to_string())
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append a batch of measurements to `channel`'s feed.
    Ingest {
        /// The timing channel the values belong to.
        channel: String,
        /// The measurements, in feed order.
        values: Vec<f64>,
    },
    /// Ask for the latest scheduler-emitted estimate for `channel`.
    Snapshot {
        /// The timing channel to query.
        channel: String,
    },
    /// Finalize (on a clone — the live session keeps streaming) and
    /// return per-channel verdicts plus the envelope budget at `p`.
    Verdict {
        /// Exceedance probability for the envelope budget.
        p: f64,
        /// Restrict to one channel, or `None` for every channel.
        channel: Option<String>,
    },
    /// Adopt a sealed federated shard blob (`save_federated` bytes) as
    /// a brand-new channel. Shards ship **state**, never raw data.
    Merge {
        /// The channel name the folded shard state lands under.
        channel: String,
        /// The sealed `PXFA` blob.
        blob: Vec<u8>,
    },
    /// Force a checkpoint to the server's configured path now.
    Checkpoint,
    /// Ask for the server's deterministic counters.
    Stats,
    /// Stop accepting connections and shut the server down (writing a
    /// final checkpoint first when one is configured).
    Shutdown,
}

const REQ_INGEST: u8 = 1;
const REQ_SNAPSHOT: u8 = 2;
const REQ_VERDICT: u8 = 3;
const REQ_MERGE: u8 = 4;
const REQ_CHECKPOINT: u8 = 5;
const REQ_STATS: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ingest { channel, values } => {
                w.u8(REQ_INGEST);
                w.str(channel);
                values.encode(&mut w);
            }
            Request::Snapshot { channel } => {
                w.u8(REQ_SNAPSHOT);
                w.str(channel);
            }
            Request::Verdict { p, channel } => {
                w.u8(REQ_VERDICT);
                w.f64(*p);
                match channel {
                    None => w.bool(false),
                    Some(name) => {
                        w.bool(true);
                        w.str(name);
                    }
                }
            }
            Request::Merge { channel, blob } => {
                w.u8(REQ_MERGE);
                w.str(channel);
                w.bytes(blob);
            }
            Request::Checkpoint => w.u8(REQ_CHECKPOINT),
            Request::Stats => w.u8(REQ_STATS),
            Request::Shutdown => w.u8(REQ_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decode from a checksum-verified frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] when the payload is not a valid
    /// request (unknown tag, bad string, trailing bytes, …).
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(malformed)?;
        let req = match tag {
            REQ_INGEST => Request::Ingest {
                channel: r.str().map_err(malformed)?.to_string(),
                values: Vec::<f64>::decode(&mut r).map_err(malformed)?,
            },
            REQ_SNAPSHOT => Request::Snapshot {
                channel: r.str().map_err(malformed)?.to_string(),
            },
            REQ_VERDICT => Request::Verdict {
                p: r.f64().map_err(malformed)?,
                channel: if r.bool().map_err(malformed)? {
                    Some(r.str().map_err(malformed)?.to_string())
                } else {
                    None
                },
            },
            REQ_MERGE => Request::Merge {
                channel: r.str().map_err(malformed)?.to_string(),
                blob: r.bytes().map_err(malformed)?.to_vec(),
            },
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown request tag {other}"
                )))
            }
        };
        r.finish().map_err(malformed)?;
        Ok(req)
    }
}

/// A snapshot as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSnapshot {
    /// The channel the estimate belongs to.
    pub channel: String,
    /// Measurements the channel had accepted when the estimate was
    /// emitted. Channel-local by design (format v2): a channel's
    /// snapshot cadence must not depend on which worker owns it or on
    /// how other channels interleave.
    pub total: u64,
    /// The channel engine's estimate.
    pub estimate: EngineEstimate,
}

impl WireSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.channel);
        w.u64(self.total);
        self.estimate.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(WireSnapshot {
            channel: r.str().map_err(malformed)?.to_string(),
            total: r.u64().map_err(malformed)?,
            estimate: EngineEstimate::decode(r).map_err(malformed)?,
        })
    }
}

/// Deterministic per-worker counters (format v2).
///
/// One entry per shard in worker order. `channels`/`total` describe the
/// worker's slice of the session; the `cache_*` counters describe its
/// private [`VerdictCache`](crate::VerdictCache). Summing a field over
/// all shards yields the matching global field in [`ServerStats`]
/// (except `cache_len`, which the global report also sums — each shard
/// bounds its own cache independently).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Channels owned by this worker.
    pub channels: u64,
    /// Measurements held by this worker's session.
    pub total: u64,
    /// Query-cache hits on this worker's cache.
    pub cache_hits: u64,
    /// Query-cache misses on this worker's cache.
    pub cache_misses: u64,
    /// Query-cache insertions on this worker's cache.
    pub cache_insertions: u64,
    /// Query-cache LRU evictions on this worker's cache.
    pub cache_evictions: u64,
    /// Query-cache TTL expirations on this worker's cache.
    pub cache_expirations: u64,
    /// Entries currently resident in this worker's cache.
    pub cache_len: u64,
}

impl ShardStats {
    fn encode(&self, w: &mut Writer) {
        for v in self.fields() {
            w.u64(v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let mut s = ShardStats::default();
        for f in s.fields_mut() {
            *f = r.u64().map_err(malformed)?;
        }
        Ok(s)
    }

    fn fields(&self) -> [u64; 8] {
        [
            self.channels,
            self.total,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_expirations,
            self.cache_len,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; 8] {
        [
            &mut self.channels,
            &mut self.total,
            &mut self.cache_hits,
            &mut self.cache_misses,
            &mut self.cache_insertions,
            &mut self.cache_evictions,
            &mut self.cache_expirations,
            &mut self.cache_len,
        ]
    }
}

/// Deterministic server counters, for observability and for soak tests
/// that must assert bounded behaviour without wall clocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Measurements in the live session (ingested + adopted).
    pub total: u64,
    /// Channels in the live session.
    pub channels: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// `Ingest` frames handled.
    pub frames_ingest: u64,
    /// `Snapshot` frames handled.
    pub frames_snapshot: u64,
    /// `Verdict` frames handled.
    pub frames_verdict: u64,
    /// `Merge` frames handled.
    pub frames_merge: u64,
    /// `Checkpoint`/`Stats`/`Shutdown` frames handled.
    pub frames_admin: u64,
    /// Frames (or payloads) rejected as malformed; each one closed only
    /// its own connection.
    pub protocol_errors: u64,
    /// Query-cache hits (response served without recompute).
    pub cache_hits: u64,
    /// Query-cache misses.
    pub cache_misses: u64,
    /// Query-cache insertions.
    pub cache_insertions: u64,
    /// Query-cache FIFO evictions.
    pub cache_evictions: u64,
    /// Entries currently cached (≤ `cache_capacity`, always).
    pub cache_len: u64,
    /// Configured cache capacity.
    pub cache_capacity: u64,
    /// Checkpoints written (auto + forced + shutdown).
    pub checkpoints_written: u64,
    /// Size of the last checkpoint (manifest + shard blobs), bytes.
    pub last_checkpoint_bytes: u64,
    /// Measurements ingested since the last checkpoint mark.
    pub since_checkpoint: u64,
    /// Query-cache TTL expirations (summed over workers).
    pub cache_expirations: u64,
    /// Connections refused by admission control with a `Busy` frame.
    pub busy_rejections: u64,
    /// Analysis workers the session's channels are partitioned across.
    pub workers: u64,
    /// Per-worker counters, in worker order (format v2).
    pub shards: Vec<ShardStats>,
}

impl ServerStats {
    fn encode(&self, w: &mut Writer) {
        for v in self.fields() {
            w.u64(v);
        }
        w.usize(self.shards.len());
        for shard in &self.shards {
            shard.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>, payload_len: usize) -> Result<Self, FrameError> {
        let mut s = ServerStats::default();
        for f in s.fields_mut() {
            *f = r.u64().map_err(malformed)?;
        }
        let n = r.usize().map_err(malformed)?;
        if n > payload_len {
            return Err(FrameError::Malformed(format!(
                "shard count {n} exceeds the payload size"
            )));
        }
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(ShardStats::decode(r)?);
        }
        s.shards = shards;
        Ok(s)
    }

    fn fields(&self) -> [u64; 21] {
        [
            self.total,
            self.channels,
            self.connections,
            self.frames_ingest,
            self.frames_snapshot,
            self.frames_verdict,
            self.frames_merge,
            self.frames_admin,
            self.protocol_errors,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_len,
            self.cache_capacity,
            self.checkpoints_written,
            self.last_checkpoint_bytes,
            self.since_checkpoint,
            self.cache_expirations,
            self.busy_rejections,
            self.workers,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; 21] {
        [
            &mut self.total,
            &mut self.channels,
            &mut self.connections,
            &mut self.frames_ingest,
            &mut self.frames_snapshot,
            &mut self.frames_verdict,
            &mut self.frames_merge,
            &mut self.frames_admin,
            &mut self.protocol_errors,
            &mut self.cache_hits,
            &mut self.cache_misses,
            &mut self.cache_insertions,
            &mut self.cache_evictions,
            &mut self.cache_len,
            &mut self.cache_capacity,
            &mut self.checkpoints_written,
            &mut self.last_checkpoint_bytes,
            &mut self.since_checkpoint,
            &mut self.cache_expirations,
            &mut self.busy_rejections,
            &mut self.workers,
        ]
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an [`Request::Ingest`].
    Ingested {
        /// Measurements routed to the channel so far.
        channel_len: u64,
        /// Session-wide measurement count.
        total: u64,
        /// Estimates the session scheduler emitted while absorbing the
        /// batch (may belong to other channels — round-robin cadence).
        snapshots: Vec<WireSnapshot>,
    },
    /// Outcome of a [`Request::Snapshot`].
    Snapshot {
        /// The latest scheduler-emitted estimate for the channel, if
        /// any has been produced yet.
        latest: Option<WireSnapshot>,
    },
    /// Outcome of a [`Request::Verdict`].
    Verdicts {
        /// The queried exceedance probability, echoed back.
        p: f64,
        /// Per-channel outcomes (verdict or scoped error rendering).
        channels: Vec<(String, Result<Verdict, String>)>,
        /// Envelope budget at `p` with the winning channel, when at
        /// least one channel analysed; `Err` carries the reason
        /// otherwise.
        envelope: Result<(String, f64), String>,
    },
    /// Outcome of a [`Request::Merge`].
    Merged {
        /// Measurements the adopted channel folded in.
        channel_len: u64,
        /// Session-wide measurement count after adoption.
        total: u64,
    },
    /// Outcome of a [`Request::Checkpoint`].
    Checkpointed {
        /// Size of the written blob, bytes.
        bytes: u64,
    },
    /// Outcome of a [`Request::Stats`].
    Stats(ServerStats),
    /// Acknowledges a [`Request::Shutdown`]; the server stops accepting
    /// connections after sending this.
    ShuttingDown,
    /// Admission control refused the connection: the server is at its
    /// connection limit. Sent as a farewell immediately after accept;
    /// the server closes the connection right after. Retry later —
    /// nothing was processed.
    Busy {
        /// Connections being served when this one was refused.
        active: u64,
        /// The configured `--max-conns` limit.
        limit: u64,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

const RESP_INGESTED: u8 = 1;
const RESP_SNAPSHOT: u8 = 2;
const RESP_VERDICTS: u8 = 3;
const RESP_MERGED: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_SHUTTING_DOWN: u8 = 7;
const RESP_BUSY: u8 = 8;
const RESP_ERROR: u8 = 255;

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Ingested {
                channel_len,
                total,
                snapshots,
            } => {
                w.u8(RESP_INGESTED);
                w.u64(*channel_len);
                w.u64(*total);
                w.usize(snapshots.len());
                for s in snapshots {
                    s.encode(&mut w);
                }
            }
            Response::Snapshot { latest } => {
                w.u8(RESP_SNAPSHOT);
                match latest {
                    None => w.bool(false),
                    Some(s) => {
                        w.bool(true);
                        s.encode(&mut w);
                    }
                }
            }
            Response::Verdicts {
                p,
                channels,
                envelope,
            } => {
                w.u8(RESP_VERDICTS);
                w.f64(*p);
                w.usize(channels.len());
                for (channel, outcome) in channels {
                    w.str(channel);
                    match outcome {
                        Ok(v) => {
                            w.bool(true);
                            v.encode(&mut w);
                        }
                        Err(e) => {
                            w.bool(false);
                            w.str(e);
                        }
                    }
                }
                match envelope {
                    Ok((winner, budget)) => {
                        w.bool(true);
                        w.str(winner);
                        w.f64(*budget);
                    }
                    Err(e) => {
                        w.bool(false);
                        w.str(e);
                    }
                }
            }
            Response::Merged { channel_len, total } => {
                w.u8(RESP_MERGED);
                w.u64(*channel_len);
                w.u64(*total);
            }
            Response::Checkpointed { bytes } => {
                w.u8(RESP_CHECKPOINTED);
                w.u64(*bytes);
            }
            Response::Stats(stats) => {
                w.u8(RESP_STATS);
                stats.encode(&mut w);
            }
            Response::ShuttingDown => w.u8(RESP_SHUTTING_DOWN),
            Response::Busy { active, limit } => {
                w.u8(RESP_BUSY);
                w.u64(*active);
                w.u64(*limit);
            }
            Response::Error { message } => {
                w.u8(RESP_ERROR);
                w.str(message);
            }
        }
        w.into_bytes()
    }

    /// Decode from a checksum-verified frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] when the payload is not a valid
    /// response.
    pub fn decode(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(malformed)?;
        let resp = match tag {
            RESP_INGESTED => {
                let channel_len = r.u64().map_err(malformed)?;
                let total = r.u64().map_err(malformed)?;
                let n = r.usize().map_err(malformed)?;
                if n > payload.len() {
                    return Err(FrameError::Malformed(format!(
                        "snapshot count {n} exceeds the payload size"
                    )));
                }
                let mut snapshots = Vec::with_capacity(n);
                for _ in 0..n {
                    snapshots.push(WireSnapshot::decode(&mut r)?);
                }
                Response::Ingested {
                    channel_len,
                    total,
                    snapshots,
                }
            }
            RESP_SNAPSHOT => Response::Snapshot {
                latest: if r.bool().map_err(malformed)? {
                    Some(WireSnapshot::decode(&mut r)?)
                } else {
                    None
                },
            },
            RESP_VERDICTS => {
                let p = r.f64().map_err(malformed)?;
                let n = r.usize().map_err(malformed)?;
                if n > payload.len() {
                    return Err(FrameError::Malformed(format!(
                        "channel count {n} exceeds the payload size"
                    )));
                }
                let mut channels = Vec::with_capacity(n);
                for _ in 0..n {
                    let channel = r.str().map_err(malformed)?.to_string();
                    let outcome = if r.bool().map_err(malformed)? {
                        Ok(Verdict::decode(&mut r).map_err(malformed)?)
                    } else {
                        Err(r.str().map_err(malformed)?.to_string())
                    };
                    channels.push((channel, outcome));
                }
                let envelope = if r.bool().map_err(malformed)? {
                    let winner = r.str().map_err(malformed)?.to_string();
                    Ok((winner, r.f64().map_err(malformed)?))
                } else {
                    Err(r.str().map_err(malformed)?.to_string())
                };
                Response::Verdicts {
                    p,
                    channels,
                    envelope,
                }
            }
            RESP_MERGED => Response::Merged {
                channel_len: r.u64().map_err(malformed)?,
                total: r.u64().map_err(malformed)?,
            },
            RESP_CHECKPOINTED => Response::Checkpointed {
                bytes: r.u64().map_err(malformed)?,
            },
            RESP_STATS => Response::Stats(ServerStats::decode(&mut r, payload.len())?),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_BUSY => Response::Busy {
                active: r.u64().map_err(malformed)?,
                limit: r.u64().map_err(malformed)?,
            },
            RESP_ERROR => Response::Error {
                message: r.str().map_err(malformed)?.to_string(),
            },
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown response tag {other}"
                )))
            }
        };
        r.finish().map_err(malformed)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello mbpta".to_vec();
        let buf = framed(&payload);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        // Clean EOF at the frame boundary.
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn back_to_back_frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"three").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"three");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = framed(b"payload");
        buf[0] = b'Q';
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = framed(b"payload");
        buf[4] = 99;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::BadVersion(99)), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = framed(b"payload");
        buf[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(u64::MAX)), "{err}");
    }

    #[test]
    fn truncation_at_every_boundary_is_detected() {
        let buf = framed(b"some payload bytes");
        // Cutting anywhere after the first byte and before the end must
        // yield Truncated — never a panic, never a bogus frame.
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
        // Cutting to zero bytes is a clean EOF.
        assert_eq!(read_frame(&mut &buf[..0]).unwrap(), None);
    }

    #[test]
    fn payload_bitflip_fails_checksum() {
        let mut buf = framed(b"some payload bytes");
        buf[13] ^= 0x40; // first payload byte
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum), "{err}");
    }

    #[test]
    fn checksum_bitflip_fails_checksum() {
        let mut buf = framed(b"some payload bytes");
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum), "{err}");
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ingest {
                channel: "nominal".into(),
                values: vec![1.5, 2.5, f64::MAX, 0.0],
            },
            Request::Snapshot {
                channel: "ch-0".into(),
            },
            Request::Verdict {
                p: 1e-12,
                channel: None,
            },
            Request::Verdict {
                p: 1e-9,
                channel: Some("ulp".into()),
            },
            Request::Merge {
                channel: "shard-3".into(),
                blob: vec![0xAB; 257],
            },
            Request::Checkpoint,
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let decoded = Request::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let snapshot = WireSnapshot {
            channel: "nominal".into(),
            total: 4100,
            estimate: sample_estimate(),
        };
        let responses = [
            Response::Ingested {
                channel_len: 7,
                total: 4100,
                snapshots: vec![snapshot.clone()],
            },
            Response::Snapshot {
                latest: Some(snapshot.clone()),
            },
            Response::Snapshot { latest: None },
            Response::Merged {
                channel_len: 900,
                total: 5000,
            },
            Response::Checkpointed { bytes: 12345 },
            Response::Stats(ServerStats {
                total: 42,
                cache_hits: 7,
                cache_expirations: 3,
                busy_rejections: 2,
                workers: 2,
                shards: vec![
                    ShardStats {
                        channels: 1,
                        total: 30,
                        cache_hits: 7,
                        cache_expirations: 3,
                        ..Default::default()
                    },
                    ShardStats {
                        channels: 2,
                        total: 12,
                        ..Default::default()
                    },
                ],
                ..Default::default()
            }),
            Response::Stats(ServerStats::default()),
            Response::ShuttingDown,
            Response::Busy {
                active: 64,
                limit: 64,
            },
            Response::Error {
                message: "nope".into(),
            },
            Response::Verdicts {
                p: 1e-12,
                channels: vec![("bad".into(), Err("i.i.d. gate rejected".into()))],
                envelope: Err("session analysed no channel".into()),
            },
        ];
        for resp in responses {
            let decoded = Response::decode(&resp.encode()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn unknown_tags_are_malformed() {
        let mut w = Writer::new();
        w.u8(200);
        let payload = w.into_bytes();
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.u8(0);
        let payload = w.into_bytes();
        assert!(matches!(
            Response::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Request::Stats.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
    }

    fn sample_estimate() -> EngineEstimate {
        use proxima_mbpta::Pwcet;
        use proxima_stats::dist::Gumbel;
        EngineEstimate {
            n: 4100,
            blocks: Some(41),
            pwcet: 1234.5,
            distribution: Pwcet::new(Gumbel::new(1000.0, 25.0).unwrap(), 100),
            ci: None,
            convergence_delta: Some(0.004),
            iid: None,
            converged: false,
            high_watermark: 1100.0,
        }
    }

    proptest! {
        /// Any byte soup either reads as a frame whose payload round
        /// trips, or fails with a typed error — never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = read_frame(&mut &bytes[..]);
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }

        /// Payload round trip through the frame envelope.
        #[test]
        fn frame_payload_round_trips(payload in proptest::collection::vec(0u8..=255, 0..512)) {
            let buf = framed(&payload);
            prop_assert_eq!(read_frame(&mut &buf[..]).unwrap(), Some(payload));
        }

        /// A single corrupted byte anywhere in the frame is rejected
        /// (or, if it lands in the payload-length prefix, at worst reads
        /// as truncated) — it never yields a different payload.
        #[test]
        fn single_bitflip_never_yields_wrong_payload(
            payload in proptest::collection::vec(0u8..=255, 1..64),
            pos in 0usize..64,
            bit in 0u8..8,
        ) {
            let mut buf = framed(&payload);
            let pos = pos % buf.len();
            buf[pos] ^= 1 << bit;
            if let Ok(Some(read)) = read_frame(&mut &buf[..]) {
                prop_assert_eq!(read, payload);
            }
        }
    }
}
