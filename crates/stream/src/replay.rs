//! Measurement sources that feed a [`StreamAnalyzer`].
//!
//! Two sources cover the deployment shapes:
//!
//! * [`TraceReplay`] — run an instruction trace (built with
//!   [`proxima_workload::trace::TraceBuilder`] or taken from the TVCA) on
//!   a simulated MBPTA-compliant platform, one measurement per `next()`.
//!   Per-run seeds come from the master seed's SplitMix64 stream — the
//!   same seeds [`CampaignRunner`](proxima_mbpta::CampaignRunner) uses —
//!   so streaming a trace observes **exactly** the measurement vector a
//!   batch campaign with the same master seed produces.
//! * [`LineSource`] — parse the one-time-per-line interchange format
//!   (blank lines and `#` comments skipped) incrementally from any
//!   reader, without materializing the campaign first. Built on
//!   [`ByteLines`], the zero-copy line walker: lines are parsed as byte
//!   slices straight out of the reader's buffer, never copied into an
//!   intermediate `String`.
//!
//! [`StreamAnalyzer`]: crate::analyzer::StreamAnalyzer

use std::io::BufRead;
use std::sync::Arc;

use proxima_prng::SplitMix64;
use proxima_sim::{Inst, Platform, PlatformConfig};
use proxima_workload::tvca::{ControlMode, Tvca, TvcaConfig};

/// Replays a measurement campaign lazily: each `next()` is one fresh run
/// of the trace on the platform (flushed caches, new seed — the paper's
/// protocol), yielding its execution time in cycles.
///
/// # Examples
///
/// ```
/// use proxima_sim::{Inst, PlatformConfig};
/// use proxima_stream::replay::TraceReplay;
///
/// let trace: Vec<Inst> = (0..100)
///     .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * (i % 40)))
///     .collect();
/// let times: Vec<f64> =
///     TraceReplay::new(PlatformConfig::mbpta_compliant(), trace, 50, 7).collect();
/// assert_eq!(times.len(), 50);
/// assert!(times.iter().all(|&t| t > 0.0));
/// ```
#[derive(Debug)]
pub struct TraceReplay {
    platform: Platform,
    /// Shared, not owned: shard replays of one campaign all read the
    /// same trace ([`Self::new_shared`]).
    trace: Arc<[Inst]>,
    master_seed: u64,
    next_run: u64,
    runs: u64,
}

impl TraceReplay {
    /// Replay `runs` executions of `trace` on a fresh platform built from
    /// `config`, seeding run `i` with the `i`-th element of
    /// `master_seed`'s SplitMix64 stream.
    pub fn new(config: PlatformConfig, trace: Vec<Inst>, runs: usize, master_seed: u64) -> Self {
        TraceReplay::new_shared(config, trace.into(), runs, master_seed)
    }

    /// [`Self::new`] over an already-shared trace — per-shard replays of
    /// one campaign clone the `Arc`, not the instructions.
    pub fn new_shared(
        config: PlatformConfig,
        trace: Arc<[Inst]>,
        runs: usize,
        master_seed: u64,
    ) -> Self {
        TraceReplay {
            platform: Platform::new(config),
            trace,
            master_seed,
            next_run: 0,
            runs: runs as u64,
        }
    }

    /// Convenience: replay a TVCA path on the MBPTA-compliant platform,
    /// run by run, with the seeds `mbpta measure --jobs <j>` uses.
    pub fn tvca(mode: ControlMode, tvca_config: TvcaConfig, runs: usize, master_seed: u64) -> Self {
        let tvca = Tvca::new(tvca_config);
        TraceReplay::new(
            PlatformConfig::mbpta_compliant(),
            tvca.trace(mode),
            runs,
            master_seed,
        )
    }

    /// Start the replay at run `start` (0-based) instead of run 0,
    /// yielding runs `start..runs`. Seeds still come from the same
    /// master stream — `SplitMix64::stream_seed` is an O(1) random
    /// access — so shard replays over disjoint ranges reproduce exactly
    /// the runs a single full replay yields, without fast-forwarding.
    #[must_use]
    pub fn starting_at(mut self, start: u64) -> Self {
        self.next_run = start.min(self.runs);
        self
    }

    /// Runs already replayed.
    pub fn replayed(&self) -> u64 {
        self.next_run
    }

    /// Total runs this source will produce.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

impl Iterator for TraceReplay {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next_run >= self.runs {
            return None;
        }
        let seed = SplitMix64::stream_seed(self.master_seed, self.next_run);
        self.next_run += 1;
        Some(self.platform.run(&self.trace, seed).cycles as f64)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.runs - self.next_run) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceReplay {}

/// Why a [`LineSource`] could not yield a measurement: transport failure
/// versus malformed data. Conflating the two would send an operator
/// debugging their rig's values when the pipe broke.
#[derive(Debug)]
pub enum LineSourceError {
    /// The underlying reader failed (disk fault, closed pipe, bad UTF-8).
    Io(std::io::Error),
    /// A non-blank, non-comment line did not parse as a number.
    Parse {
        /// 1-based line number in the feed (comments and blank lines
        /// counted), so a bad line in a million-line feed is locatable.
        line_no: u64,
        /// The offending line, whitespace-trimmed.
        line: String,
    },
}

impl std::fmt::Display for LineSourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineSourceError::Io(e) => write!(f, "measurement stream read failed: {e}"),
            LineSourceError::Parse { line_no, line } => {
                write!(f, "unparsable measurement line {line_no}: `{line}`")
            }
        }
    }
}

impl std::error::Error for LineSourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LineSourceError::Io(e) => Some(e),
            LineSourceError::Parse { .. } => None,
        }
    }
}

/// Zero-copy line walker over any [`BufRead`]: hands each complete line
/// to a closure as a byte slice borrowed straight from the reader's
/// internal buffer — no intermediate `String` (or `Vec`) per line. A
/// small carry buffer is touched only when a line straddles a buffer
/// refill or the input ends without a trailing newline.
///
/// This is the ingestion path under [`LineSource`] and the CLI's tagged
/// feed; it is public so other line-oriented formats can reuse it.
///
/// # Examples
///
/// ```
/// use proxima_stream::replay::ByteLines;
///
/// let mut lines = ByteLines::new("a\nbb\nccc".as_bytes());
/// let mut lens = Vec::new();
/// while let Some(len) = lines.next_line(|_, bytes| bytes.len()).unwrap() {
///     lens.push(len);
/// }
/// assert_eq!(lens, vec![1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct ByteLines<R> {
    reader: R,
    /// Spill-over for lines that straddle a `fill_buf` boundary; empty on
    /// the fast path.
    carry: Vec<u8>,
    line_no: u64,
}

impl<R: BufRead> ByteLines<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        ByteLines {
            reader,
            carry: Vec::new(),
            line_no: 0,
        }
    }

    /// Apply `f` to the next complete line — `(1-based line number, line
    /// bytes without the trailing newline)` — and return its result.
    /// `Ok(None)` means end of input. The slice is only valid inside the
    /// closure; copy out what must outlive the call.
    pub fn next_line<T>(&mut self, f: impl FnOnce(u64, &[u8]) -> T) -> std::io::Result<Option<T>> {
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                // EOF. A final line without a trailing newline sits in
                // the carry buffer.
                if self.carry.is_empty() {
                    return Ok(None);
                }
                self.line_no += 1;
                let out = f(self.line_no, &self.carry);
                self.carry.clear();
                return Ok(Some(out));
            }
            match buf.iter().position(|&b| b == b'\n') {
                None => {
                    let n = buf.len();
                    self.carry.extend_from_slice(buf);
                    self.reader.consume(n);
                }
                Some(pos) => {
                    self.line_no += 1;
                    let out = if self.carry.is_empty() {
                        f(self.line_no, &buf[..pos])
                    } else {
                        self.carry.extend_from_slice(&buf[..pos]);
                        let out = f(self.line_no, &self.carry);
                        self.carry.clear();
                        out
                    };
                    self.reader.consume(pos + 1);
                    return Ok(Some(out));
                }
            }
        }
    }
}

/// What one measurement line held, classified while its bytes are still
/// borrowed from the reader's buffer.
enum LineOutcome {
    /// Blank line or `#` comment.
    Skip,
    Value(f64),
    Bad(LineSourceError),
}

fn classify(line_no: u64, bytes: &[u8]) -> LineOutcome {
    let trimmed = bytes.trim_ascii();
    if trimmed.is_empty() || trimmed[0] == b'#' {
        return LineOutcome::Skip;
    }
    let Ok(text) = std::str::from_utf8(trimmed) else {
        // The previous String-based reader surfaced invalid UTF-8 as an
        // I/O error; keep the transport-vs-data split unchanged.
        return LineOutcome::Bad(LineSourceError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stream did not contain valid UTF-8 (line {line_no})"),
        )));
    };
    match text.parse::<f64>() {
        Ok(v) => LineOutcome::Value(v),
        Err(_) => LineOutcome::Bad(LineSourceError::Parse {
            line_no,
            line: text.to_string(),
        }),
    }
}

/// Incremental reader of the one-time-per-line measurement format: yields
/// each parsed value as it is read, skipping blank lines and `#` comments.
/// Parsing is zero-copy — each line is read as bytes in place via
/// [`ByteLines`], with no intermediate `String` per line — so feeding a
/// million-line file allocates nothing on the per-measurement path.
///
/// # Examples
///
/// ```
/// use proxima_stream::replay::LineSource;
///
/// let data = "# cycles\n100\n105.5\n\n103\n";
/// let times: Result<Vec<f64>, _> = LineSource::new(data.as_bytes()).collect();
/// assert_eq!(times.unwrap(), vec![100.0, 105.5, 103.0]);
/// ```
///
/// A malformed line reports its position in the feed:
///
/// ```
/// use proxima_stream::replay::LineSource;
///
/// let err = LineSource::new("# header\n100\noops\n".as_bytes())
///     .collect::<Result<Vec<f64>, _>>()
///     .unwrap_err();
/// assert_eq!(err.to_string(), "unparsable measurement line 3: `oops`");
/// ```
#[derive(Debug)]
pub struct LineSource<R> {
    lines: ByteLines<R>,
}

impl<R: BufRead> LineSource<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        LineSource {
            lines: ByteLines::new(reader),
        }
    }
}

impl<R: BufRead> Iterator for LineSource<R> {
    type Item = Result<f64, LineSourceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.lines.next_line(classify) {
                Err(e) => return Some(Err(LineSourceError::Io(e))),
                Ok(None) => return None,
                Ok(Some(LineOutcome::Skip)) => continue,
                Ok(Some(LineOutcome::Value(v))) => return Some(Ok(v)),
                Ok(Some(LineOutcome::Bad(e))) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxima_mbpta::CampaignRunner;

    fn striding_loads(n: usize) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                Inst::load(
                    0x100 + 4 * (i as u64 % 16),
                    0x10_0000 + 4096 * (i as u64 % 40),
                )
            })
            .collect()
    }

    #[test]
    fn replay_matches_campaign_runner_bit_for_bit() {
        // The replay source must observe the same measurement vector as a
        // batch campaign: same per-run SplitMix64 seeds, same platform
        // protocol.
        let trace = striding_loads(200);
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(1);
        let batch = runner.run(&trace, 60, 99).unwrap();
        let streamed: Vec<f64> =
            TraceReplay::new(PlatformConfig::mbpta_compliant(), trace, 60, 99).collect();
        assert_eq!(batch.times(), &streamed[..]);
    }

    #[test]
    fn replay_is_exact_size() {
        let replay = TraceReplay::new(PlatformConfig::mbpta_compliant(), striding_loads(50), 30, 1);
        assert_eq!(replay.len(), 30);
        assert_eq!(replay.runs(), 30);
        let times: Vec<f64> = replay.collect();
        assert_eq!(times.len(), 30);
    }

    #[test]
    fn offset_replay_reproduces_the_suffix_of_a_full_replay() {
        let trace = striding_loads(150);
        let full: Vec<f64> =
            TraceReplay::new(PlatformConfig::mbpta_compliant(), trace.clone(), 60, 42).collect();
        let suffix: Vec<f64> = TraceReplay::new(PlatformConfig::mbpta_compliant(), trace, 60, 42)
            .starting_at(40)
            .collect();
        assert_eq!(&full[40..], &suffix[..]);
        // Clamped past the end: empty.
        let empty: Vec<f64> =
            TraceReplay::new(PlatformConfig::mbpta_compliant(), striding_loads(10), 5, 1)
                .starting_at(99)
                .collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn tvca_replay_produces_positive_times() {
        let times: Vec<f64> =
            TraceReplay::tvca(ControlMode::Nominal, TvcaConfig::default(), 20, 5).collect();
        assert_eq!(times.len(), 20);
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn line_source_parses_and_skips() {
        let data = "# header\n\n1\n  2.5 \n# mid\n3\n";
        let vals: Result<Vec<f64>, _> = LineSource::new(data.as_bytes()).collect();
        assert_eq!(vals.unwrap(), vec![1.0, 2.5, 3.0]);
    }

    #[test]
    fn line_source_reports_garbage_with_the_offending_line() {
        let mut src = LineSource::new("1\nabc\n2\n".as_bytes());
        assert_eq!(src.next().unwrap().unwrap(), 1.0);
        let err = src.next().unwrap().unwrap_err();
        assert!(
            matches!(&err, LineSourceError::Parse { line_no: 2, line } if line == "abc"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "unparsable measurement line 2: `abc`");
        assert_eq!(src.next().unwrap().unwrap(), 2.0);
        assert!(src.next().is_none());
    }

    #[test]
    fn line_source_survives_lines_straddling_buffer_refills() {
        // A 4-byte BufRead buffer forces every multi-digit line through
        // the carry path; the parsed stream must be unchanged, and the
        // final unterminated line must still be yielded.
        let data = "# a long comment line\n123456\n\n7.25\n99999999";
        let tiny = std::io::BufReader::with_capacity(4, data.as_bytes());
        let vals: Result<Vec<f64>, _> = LineSource::new(tiny).collect();
        assert_eq!(vals.unwrap(), vec![123456.0, 7.25, 99999999.0]);
    }

    #[test]
    fn unterminated_final_line_parses_with_correct_line_number() {
        // The last line of a feed often arrives without a trailing
        // newline (truncated file, `printf` without `\n`, a pipe cut at
        // the writer). It must parse like any other line, and ByteLines
        // must hand the closure its true 1-based position.
        let data = "1\n2\n3.5";
        let vals: Result<Vec<f64>, _> = LineSource::new(data.as_bytes()).collect();
        assert_eq!(vals.unwrap(), vec![1.0, 2.0, 3.5]);

        let mut lines = ByteLines::new(data.as_bytes());
        let mut seen = Vec::new();
        while let Some(item) = lines
            .next_line(|no, bytes| (no, String::from_utf8_lossy(bytes).into_owned()))
            .unwrap()
        {
            seen.push(item);
        }
        assert_eq!(
            seen,
            vec![(1, "1".into()), (2, "2".into()), (3, "3.5".into())],
            "the unterminated final line is line 3, not 0 or 2"
        );
    }

    #[test]
    fn bad_unterminated_final_line_reports_its_line_number() {
        // A garbage final line without a trailing newline must surface
        // as a Parse error carrying the same 1-based line number the
        // terminated spelling would report.
        let err = LineSource::new("1\n2\nbogus".as_bytes())
            .collect::<Result<Vec<f64>, _>>()
            .unwrap_err();
        assert!(
            matches!(&err, LineSourceError::Parse { line_no: 3, line } if line == "bogus"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "unparsable measurement line 3: `bogus`");
    }

    #[test]
    fn bad_unterminated_final_line_straddling_refills_keeps_its_number() {
        // Same property when the final line crosses fill_buf boundaries:
        // a 4-byte buffer forces `bogus-value` through the carry path in
        // chunks, and EOF (not a newline) terminates it. The error must
        // still name line 4 and carry the reassembled text.
        let data = "# head\n10\n20\nbogus-value";
        let tiny = std::io::BufReader::with_capacity(4, data.as_bytes());
        let err = LineSource::new(tiny)
            .collect::<Result<Vec<f64>, _>>()
            .unwrap_err();
        assert!(
            matches!(&err, LineSourceError::Parse { line_no: 4, line } if line == "bogus-value"),
            "{err:?}"
        );
    }

    #[test]
    fn line_numbers_count_comments_and_blanks() {
        // Line 5 is the bad one: comment, value, blank, value, garbage.
        let data = "# h\n1\n\n2\nnope\n";
        let err = LineSource::new(data.as_bytes())
            .collect::<Result<Vec<f64>, _>>()
            .unwrap_err();
        assert!(
            matches!(&err, LineSourceError::Parse { line_no: 5, line } if line == "nope"),
            "{err:?}"
        );
    }

    #[test]
    fn byte_lines_walks_raw_lines_with_numbers() {
        let mut lines = ByteLines::new("a\n\nbb".as_bytes());
        let mut seen = Vec::new();
        while let Some(item) = lines
            .next_line(|no, bytes| (no, String::from_utf8_lossy(bytes).into_owned()))
            .unwrap()
        {
            seen.push(item);
        }
        assert_eq!(
            seen,
            vec![(1, "a".into()), (2, String::new()), (3, "bb".into())]
        );
    }

    #[test]
    fn line_source_distinguishes_io_failure() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let mut src = LineSource::new(std::io::BufReader::new(FailingReader));
        let err = src.next().unwrap().unwrap_err();
        assert!(matches!(err, LineSourceError::Io(_)));
        assert!(err.to_string().contains("disk on fire"));
    }
}
