//! End-to-end harness: runs one seeded workload against the built `mbpta`
//! binary from outside — through the CLI and the serve wire client — for
//! a fixed time, checks every output against an independent path of the
//! program, and prints the end-to-end metrics.
//!
//! ```text
//! perfbench-e2e --workload <long_channel|serve_fleet|sim_paths> --seed <n>
//!               --seconds <s> --mbpta <path> --work <dir>
//! ```
//!
//! Workloads are closed loops driven from this one process: the next
//! request or run starts only when the previous one has completed.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::proc::{self, Server, Watchdog};
use perfbench::{
    digest_fleet, fleet, fleet_frames, host_probe_ms, long_channel_values, millis, quantile, secs,
    tagged_file, Args, Digest, Metric, Ops, Rig, WorkDir, FLEET_CHECKPOINT_EVERY,
    FLEET_ENVELOPE_EVERY, FLEET_PER_RIG, FLEET_RIGS, FLEET_WORKERS, LONG_CHANNEL, LONG_LEN,
    LONG_SETUP_LEN, POOL, SIM_JOBS, SIM_RUNS, TARGET_P,
};
use proxima_serve::{Response, ServeClient};

/// The end-to-end metrics `BENCHMARK.json` gates, in its order. Every
/// workload reports each of them on the result line, so only metrics
/// that mean the same on the CLI and on the wire are gated; the
/// serve-only latencies are printed on the report lines above it.
const GATED: [&str; 3] = ["setup_s", "throughput_mps", "peak_rss_mb"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Longest a single CLI run, server round or set-up may take.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest a set-up repetition may take.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Report {
    ops: Ops,
    metrics: BTreeMap<String, Metric>,
    diagnostics: Vec<(String, String)>,
}

impl Report {
    fn median(&mut self, name: &str, xs: &[f64], unit: &'static str, what: &str) {
        if let Some(mut m) = Metric::median(xs, unit) {
            m.note = format!("{what}; {}", m.note);
            self.metrics.insert(name.to_string(), m);
        }
    }

    fn percentile(&mut self, name: &str, xs: &[f64], q: f64, what: &str) {
        if let Some(mut m) = Metric::percentile(xs, q, "ms") {
            m.note = format!("{what}; {}", m.note);
            self.metrics.insert(name.to_string(), m);
        }
    }

    fn diag(&mut self, name: &str, value: impl Into<String>) {
        self.diagnostics.push((name.to_string(), value.into()));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let work = WorkDir::create(&args.work, &args.workload)
        .map_err(|e| format!("cannot create the work directory: {e}"))?;
    let mut report = Report::default();
    let probe_before = host_probe_ms();
    match args.workload.as_str() {
        "long_channel" => long_channel(&args, work.path(), &mut report)?,
        "serve_fleet" => serve_fleet(&args, work.path(), &mut report)?,
        _ => sim_paths(&args, work.path(), &mut report)?,
    }
    let probe_after = host_probe_ms();
    report.diag(
        "harness_peak_rss_mb",
        format!(
            "{:.3} since the timed phase began (a CLI child's ru_maxrss is at least this)",
            perfbench::own_peak_rss_kb().unwrap_or(0) as f64 / 1024.0
        ),
    );
    report.diag(
        "host_probe_ms",
        format!("{probe_before:.3} before, {probe_after:.3} after (fixed CPU loop)"),
    );
    if report.ops.attempted > 0 {
        report.metrics.insert(
            "failed_frac".into(),
            Metric::new(
                report.ops.failed as f64 / report.ops.attempted as f64,
                "frac",
                report.ops.attempted as usize,
                "failed operations / attempted operations",
            ),
        );
    }
    let header = format!(
        "perfbench workload={} seed={} seconds={} (closed loop, one harness process, {} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    perfbench::emit(
        &header,
        &report.ops,
        &report.metrics,
        &GATED,
        &report.diagnostics,
    )
}

/// An `mbpta` invocation with stdin closed and stderr appended to the
/// work directory's log.
fn mbpta(args: &Args, dir: &Path) -> Result<Command, String> {
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("stderr.log"))
        .map_err(|e| format!("cannot open the stderr log: {e}"))?;
    let mut cmd = Command::new(&args.mbpta);
    cmd.stdin(Stdio::null()).stderr(Stdio::from(log));
    Ok(cmd)
}

/// The last `error:` line (else the last line) `mbpta` wrote to the
/// stderr log, for failure reports.
fn stderr_tail(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("stderr.log"))
        .ok()
        .and_then(|log| {
            log.lines()
                .rev()
                .find(|l| l.starts_with("error:"))
                .or_else(|| log.lines().next_back())
                .map(str::to_string)
        })
        .unwrap_or_default()
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One supervised CLI run: how it ended and its stdout lines.
struct CliRun {
    finished: proc::Finished,
    lines: Vec<String>,
}

impl CliRun {
    fn exec(cmd: &mut Command, timeout: Duration) -> Result<CliRun, String> {
        let mut lines = Vec::new();
        let finished =
            proc::run_lines(cmd, timeout, |line| lines.push(line.trim_end().to_string()))
                .map_err(|e| format!("cannot run mbpta: {e}"))?;
        Ok(CliRun { finished, lines })
    }

    fn text(&self) -> Vec<&str> {
        self.lines.iter().map(String::as_str).collect()
    }
}

/// Check a `session` report: `channels` channel lines, none FAILED, and
/// an envelope line.
fn check_session_report(lines: &[&str], channels: usize) -> Result<(), String> {
    let verdicts = lines.iter().filter(|l| l.starts_with("channel ")).count();
    if verdicts != channels {
        return Err(format!(
            "expected {channels} channel verdicts, got {verdicts}"
        ));
    }
    if let Some(bad) = lines.iter().find(|l| l.contains(" FAILED")) {
        return Err(format!("channel failed: {bad}"));
    }
    if !lines.iter().any(|l| l.starts_with("envelope pwcet@")) {
        return Err("no envelope verdict".into());
    }
    Ok(())
}

/// One channel's verdict as the batch pipeline prints it: measurement
/// count, high watermark and budget at [`TARGET_P`], all as text.
#[derive(Debug, PartialEq)]
struct Printed {
    n: String,
    hwm: String,
    budget: String,
}

/// The independent reference for a channel: `mbpta analyze` (the batch
/// pipeline, not the session engines) on the channel's values at the same
/// fixed block. Its i.i.d. gate runs at alpha = 1e-9 because at the
/// default 0.05 it refuses about one i.i.d. source in twenty, and the
/// streaming engines under test do not gate their verdicts on it; the
/// reference is for the fitted tail.
fn analyze_reference(
    args: &Args,
    dir: &Path,
    name: &str,
    values: impl Iterator<Item = f64>,
) -> Result<Printed, String> {
    let mut text = String::new();
    for v in values {
        text.push_str(&format!("{v}\n"));
    }
    let input = dir.join(format!("{name}.raw"));
    write(&input, text.as_bytes())?;
    let run = CliRun::exec(
        mbpta(args, dir)?
            .arg("analyze")
            .arg(&input)
            .arg("--block")
            .arg(perfbench::BLOCK.to_string())
            .arg("--cutoff")
            .arg(format!("{TARGET_P:e}"))
            .arg("--alpha")
            .arg("1e-9"),
        SETUP_TIMEOUT,
    )?;
    run.finished
        .check("analyze")
        .map_err(|e| format!("{e}: {}", stderr_tail(dir)))?;
    let lines = run.text();
    let field = |prefix: &str, key: &str| -> Option<String> {
        let line = lines.iter().find(|l| l.starts_with(prefix))?;
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .map(str::to_string)
    };
    Ok(Printed {
        n: field("campaign:", "n=").ok_or("analyze printed no count")?,
        hwm: field("campaign:", "max=").ok_or("analyze printed no high watermark")?,
        budget: lines
            .iter()
            .find_map(|l| l.strip_prefix(&format!("headline budget @ {TARGET_P:e}: ")))
            .ok_or("analyze printed no budget")?
            .to_string(),
    })
}

/// A streaming `session` report's verdict for `channel`, and its envelope
/// budget, as printed.
fn session_verdict(lines: &[&str], channel: &str) -> Result<(Printed, String), String> {
    let key = format!("pwcet@{TARGET_P:e}=");
    let line = lines
        .iter()
        .find(|l| l.starts_with(&format!("channel {channel} ")))
        .ok_or_else(|| format!("no verdict for {channel}"))?;
    let field = |line: &str, prefix: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(prefix))
            .map(str::to_string)
            .ok_or_else(|| format!("no {prefix} in `{line}`"))
    };
    let envelope = lines
        .iter()
        .find(|l| l.starts_with("envelope "))
        .ok_or("no envelope")?;
    Ok((
        Printed {
            n: field(line, "n=")?,
            hwm: field(line, "hwm=")?,
            budget: field(line, &key)?,
        },
        field(envelope, &key)?,
    ))
}

// ---------------------------------------------------------------------------
// long_channel: one long channel through `mbpta session <file>`.
// ---------------------------------------------------------------------------

fn long_channel(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    // Inputs go straight to files: the harness keeps its own memory
    // small, because a CLI child's ru_maxrss never reads below the
    // harness's.
    let setup_input = dir.join("setup.txt");
    let mut digest = Digest::default();
    let mut inputs = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let values = long_channel_values(args.seed, i);
        let text = tagged_file(LONG_CHANNEL, &values);
        digest.update(text.as_bytes());
        let input = dir.join(format!("long{i}.txt"));
        write(&input, text.as_bytes())?;
        inputs.push(input);
        if i == 0 {
            let setup_text = tagged_file(LONG_CHANNEL, &values[..LONG_SETUP_LEN]);
            write(&setup_input, setup_text.as_bytes())?;
        }
    }
    report.diag(
        "input_digest",
        format!(
            "fnv1a64:{} ({POOL} inputs of {LONG_LEN} measurements)",
            digest.hex()
        ),
    );
    let setup = || -> Result<f64, String> {
        let run = CliRun::exec(
            mbpta(args, dir)?.arg("session").arg(&setup_input),
            SETUP_TIMEOUT,
        )?;
        run.finished.check("session on the set-up input")?;
        check_session_report(&run.text(), 1)?;
        Ok(secs(run.finished.wall))
    };
    let measured = timed_cli_runs(
        args,
        dir,
        report,
        CliWork {
            channels: 1,
            measurements: LONG_LEN,
            inputs: POOL,
            setups_per_run: 1,
        },
        |cmd, i| {
            cmd.arg("session").arg(&inputs[i]);
        },
        setup,
    )?;
    report.median(
        "setup_s",
        &measured.setup,
        "s",
        "spawn to exit of `session` on the 500-measurement file, between the timed runs",
    );
    measured.throughput(
        report,
        "measurements analysed per second of whole `session` runs",
    );

    for (i, lines) in &measured.reports {
        let values = long_channel_values(args.seed, *i);
        let reference = analyze_reference(args, dir, "long", values.iter().map(|&v| v as f64));
        report.ops.record(reference.and_then(|batch| {
            let stream: Vec<&str> = lines.iter().map(String::as_str).collect();
            let (verdict, envelope) = session_verdict(&stream, LONG_CHANNEL)?;
            if verdict != batch || envelope != batch.budget {
                return Err(format!(
                    "input {i}: streaming verdict {verdict:?} (envelope {envelope}) \
                     differs from analyze {batch:?}"
                ));
            }
            Ok(())
        }));
    }
    Ok(())
}

/// The shape of a CLI workload's timed phase.
struct CliWork {
    /// Channels every report must show.
    channels: usize,
    /// Measurements one run analyses.
    measurements: usize,
    /// Inputs the runs cycle through.
    inputs: usize,
    /// Set-up measurements taken after each timed run.
    setups_per_run: usize,
}

/// What the timed phase of a CLI workload measured.
struct TimedCli {
    /// Set-up times, seconds, taken between the timed runs.
    setup: Vec<f64>,
    /// Measurements analysed by the clean runs.
    measurements: f64,
    /// Their summed spawn-to-exit wall time, seconds.
    wall: f64,
    runs: usize,
    /// The report of the first clean run on each input.
    reports: BTreeMap<usize, Vec<String>>,
}

impl TimedCli {
    fn throughput(&self, report: &mut Report, what: &str) {
        if self.wall > 0.0 {
            report.metrics.insert(
                "throughput_mps".into(),
                Metric::new(self.measurements / self.wall, "1/s", self.runs, what),
            );
        }
    }
}

/// Run `mbpta` over and over until `--seconds` have passed, cycling
/// through the inputs (`configure` sets up the command for input `i`).
/// Every run must exit cleanly, print a complete report, and print the
/// same bytes as the first run on the same input. After each run,
/// `setup` takes set-up measurements, so their median spans the whole
/// phase as the runs do (at least [`SETUP_REPS`] in all). Records
/// `peak_rss_mb`.
fn timed_cli_runs(
    args: &Args,
    dir: &Path,
    report: &mut Report,
    work: CliWork,
    configure: impl Fn(&mut Command, usize),
    setup: impl Fn() -> Result<f64, String>,
) -> Result<TimedCli, String> {
    perfbench::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut timed = TimedCli {
        setup: Vec::new(),
        measurements: 0.0,
        wall: 0.0,
        runs: 0,
        reports: BTreeMap::new(),
    };
    let take_setup = |timed: &mut TimedCli, ops: &mut Ops| {
        let outcome = setup();
        if let Ok(seconds) = outcome {
            timed.setup.push(seconds);
        }
        ops.record(outcome.map(drop));
    };
    let mut rss = Vec::new();
    let mut attempts = 0usize;
    while attempts == 0 || Instant::now() < deadline {
        let input = attempts % work.inputs;
        attempts += 1;
        let mut cmd = mbpta(args, dir)?;
        configure(&mut cmd, input);
        let run = CliRun::exec(&mut cmd, PHASE_TIMEOUT)?;
        let outcome = run
            .finished
            .check("session")
            .map_err(|e| format!("{e}: {}", stderr_tail(dir)))
            .and_then(|()| check_session_report(&run.text(), work.channels))
            .and_then(|()| match timed.reports.get(&input) {
                Some(first) if *first != run.lines => {
                    Err(format!("input {input}: report differs from its first run"))
                }
                _ => Ok(()),
            });
        let ok = outcome.is_ok();
        report.ops.record(outcome);
        for _ in 0..work.setups_per_run {
            take_setup(&mut timed, &mut report.ops);
        }
        if !ok {
            continue;
        }
        timed.measurements += work.measurements as f64;
        timed.wall += secs(run.finished.wall);
        timed.runs += 1;
        rss.push(run.finished.max_rss_kb as f64 / 1024.0);
        timed.reports.entry(input).or_insert(run.lines);
    }
    for _ in (attempts * work.setups_per_run)..SETUP_REPS {
        take_setup(&mut timed, &mut report.ops);
    }
    report.median(
        "peak_rss_mb",
        &rss,
        "MB",
        "peak resident memory of the mbpta process (wait4 ru_maxrss)",
    );
    report.diag("runs", format!("{} timed runs", timed.runs));
    Ok(timed)
}

// ---------------------------------------------------------------------------
// serve_fleet: a rig fleet against `mbpta serve` over the wire.
// ---------------------------------------------------------------------------

/// Latency samples of one run, ms.
#[derive(Default)]
struct FleetSamples {
    ingest: Vec<f64>,
    verdict: Vec<f64>,
    envelope: Vec<f64>,
}

/// The end state of one round: the final per-channel and envelope
/// VERDICT bytes, the STATS total, and the server's peak memory.
struct RoundEnd {
    finals: Vec<Vec<u8>>,
    total: u64,
    rss_kb: Option<u64>,
    feed_wall: f64,
}

fn serve_cmd(args: &Args, dir: &Path) -> Result<Command, String> {
    let mut cmd = mbpta(args, dir)?;
    cmd.arg("serve").arg("--addr").arg("127.0.0.1:0");
    Ok(cmd)
}

fn serve_fleet(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut digest = Digest::default();
    for i in 0..POOL {
        digest_fleet(&mut digest, &fleet(args.seed, i));
    }
    report.diag(
        "input_digest",
        format!(
            "fnv1a64:{} ({POOL} fleets of {FLEET_RIGS} rigs x {FLEET_PER_RIG} measurements, \
             frames of {})",
            digest.hex(),
            perfbench::FLEET_FRAME
        ),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = FleetSamples::default();
    let (mut measurements, mut feed_wall) = (0.0, 0.0);
    let mut per_round = Vec::new();
    let mut rss = Vec::new();
    let mut finals_by_fleet: BTreeMap<usize, Vec<Vec<u8>>> = BTreeMap::new();
    let mut last: Option<(PathBuf, u64, usize)> = None;
    let mut setup = Vec::new();
    let mut resume = |checkpoint: &Path, total: u64, ops: &mut Ops| {
        let outcome = resume_once(args, dir, checkpoint, total);
        if let Ok(elapsed) = &outcome {
            setup.push(*elapsed);
        }
        ops.record(outcome.map(drop));
    };
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        let index = round % POOL;
        let checkpoint = dir.join(format!("round{round}.ck"));
        round += 1;
        let mut cmd = serve_cmd(args, dir)?;
        cmd.arg("--workers")
            .arg(FLEET_WORKERS.to_string())
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("--checkpoint-every")
            .arg(FLEET_CHECKPOINT_EVERY.to_string());
        let server = match Server::spawn(&mut cmd, SETUP_TIMEOUT) {
            Ok((server, _)) => server,
            Err(e) => {
                report.ops.record(Err(format!("serve did not start: {e}")));
                continue;
            }
        };
        let watchdog = Watchdog::arm(server.pid(), PHASE_TIMEOUT);
        let end = fleet_round(
            &server,
            &fleet(args.seed, index),
            &mut samples,
            &mut report.ops,
        );
        let fired = watchdog.disarm();
        let end = match end {
            Ok(end) => end,
            Err(e) => {
                report.ops.record(Err(if fired {
                    format!("round timed out: {e}")
                } else {
                    e
                }));
                continue;
            }
        };
        report.ops.record(server.finish(SETUP_TIMEOUT));
        measurements += (FLEET_RIGS * FLEET_PER_RIG) as f64;
        feed_wall += end.feed_wall;
        per_round.push((FLEET_RIGS * FLEET_PER_RIG) as f64 / end.feed_wall);
        rss.extend(end.rss_kb.map(|kb| kb as f64 / 1024.0));
        report.ops.record(match finals_by_fleet.get(&index) {
            Some(first) if *first != end.finals => Err(format!(
                "fleet {index}: final verdicts differ from its first round"
            )),
            _ => Ok(()),
        });
        finals_by_fleet.entry(index).or_insert(end.finals);
        // Restart downtime, measured between the rounds so its median
        // spans the whole phase as the rounds do.
        resume(&checkpoint, end.total, &mut report.ops);
        last = Some((checkpoint, end.total, index));
    }
    report.diag("rounds", format!("{round} server rounds"));
    if feed_wall > 0.0 {
        report.metrics.insert(
            "throughput_mps".into(),
            Metric::new(
                measurements / feed_wall,
                "1/s",
                round,
                format!(
                    "measurements ingested per second of the rounds' feed loops, queries \
                     included; per round p25={:.0} p50={:.0} p75={:.0}",
                    quantile(&per_round, 0.25).unwrap_or(0.0),
                    quantile(&per_round, 0.5).unwrap_or(0.0),
                    quantile(&per_round, 0.75).unwrap_or(0.0),
                ),
            ),
        );
    }
    report.median("peak_rss_mb", &rss, "MB", "server VmHWM before SHUTDOWN");
    report.percentile(
        "ingest_p50_ms",
        &samples.ingest,
        0.5,
        "INGEST round trip, 512 values",
    );
    report.percentile(
        "ingest_p90_ms",
        &samples.ingest,
        0.9,
        "INGEST round trip, 512 values",
    );
    let what = "channel-scoped VERDICT round trip, cache miss";
    report.percentile("verdict_p50_ms", &samples.verdict, 0.5, what);
    report.percentile("verdict_p90_ms", &samples.verdict, 0.9, what);
    report.percentile(
        "envelope_p50_ms",
        &samples.envelope,
        0.5,
        "all-channel VERDICT round trip, cache miss",
    );

    let Some((checkpoint, total, index)) = last else {
        return Ok(());
    };
    // The independent references, on the last round's fleet.
    let rigs = &fleet(args.seed, index);
    let finals = &finals_by_fleet[&index];
    report
        .ops
        .record(offline_replay(args, dir, rigs).and_then(|bits| {
            if bits == *finals {
                Ok(())
            } else {
                Err("final VERDICT bits differ from the offline replay".into())
            }
        }));
    for outcome in analyze_fleet(args, dir, rigs, finals) {
        report.ops.record(outcome);
    }

    for _ in round..SETUP_REPS {
        resume(&checkpoint, total, &mut report.ops);
    }
    report.median(
        "setup_s",
        &setup,
        "s",
        "`serve --resume` from a round's final checkpoint, spawn to the first STATS reply",
    );
    Ok(())
}

fn timed<T>(samples: &mut Vec<f64>, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = call();
    samples.push(millis(start.elapsed()));
    out
}

/// Expect a `Verdicts` response whose every channel and envelope are Ok.
fn verdict_ok(response: &Result<Response, proxima_serve::ClientError>) -> Result<Vec<u8>, String> {
    match response {
        Ok(
            resp @ Response::Verdicts {
                channels, envelope, ..
            },
        ) => {
            if let Some((name, Err(e))) = channels.iter().find(|(_, v)| v.is_err()) {
                return Err(format!("VERDICT for {name} failed: {e}"));
            }
            if let Err(e) = envelope {
                return Err(format!("VERDICT envelope failed: {e}"));
            }
            Ok(resp.encode())
        }
        Ok(other) => Err(format!("unexpected VERDICT reply {other:?}")),
        Err(e) => Err(format!("VERDICT: {e}")),
    }
}

/// One fleet round against a fresh server: the producer sends every
/// frame; after each, the observer asks for that rig's VERDICT (a miss),
/// repeats it (a hit) and asks for its SNAPSHOT, and every
/// [`FLEET_ENVELOPE_EVERY`] frames it asks for the all-channel VERDICT.
/// The producer's connection is closed before the observer sends
/// SHUTDOWN: the server does not return from SHUTDOWN while an idle
/// connection stays open.
fn fleet_round(
    server: &Server,
    rigs: &[Rig],
    samples: &mut FleetSamples,
    ops: &mut Ops,
) -> Result<RoundEnd, String> {
    let connect = || ServeClient::connect(server.addr).map_err(|e| format!("connect: {e}"));
    let mut producer = connect()?;
    let mut observer = connect()?;
    let start = Instant::now();
    for (i, (r, range)) in fleet_frames().into_iter().enumerate() {
        let rig = &rigs[r];
        let end = range.end as u64;
        let ingested = timed(&mut samples.ingest, || {
            producer.ingest(&rig.name, &rig.values[range])
        });
        ops.record(match ingested {
            Ok((len, _, _)) if len == end => Ok(()),
            Ok((len, _, _)) => Err(format!(
                "INGEST {}: channel_len {len}, expected {end}",
                rig.name
            )),
            Err(e) => Err(format!("INGEST {}: {e}", rig.name)),
        });
        let miss = timed(&mut samples.verdict, || {
            observer.verdict(TARGET_P, Some(&rig.name))
        });
        let miss = verdict_ok(&miss);
        ops.record(miss.as_ref().map(drop).map_err(Clone::clone));
        let hit = observer.verdict(TARGET_P, Some(&rig.name));
        ops.record(verdict_ok(&hit).and_then(|bits| match &miss {
            Ok(first) if *first != bits => Err("cached VERDICT differs from the miss".into()),
            _ => Ok(()),
        }));
        let snapshot = observer.snapshot(&rig.name);
        ops.record(snapshot.map(drop).map_err(|e| format!("SNAPSHOT: {e}")));
        if (i + 1) % FLEET_ENVELOPE_EVERY == 0 {
            let all = timed(&mut samples.envelope, || observer.verdict(TARGET_P, None));
            ops.record(verdict_ok(&all).map(drop));
        }
    }
    let feed_wall = secs(start.elapsed());

    let mut finals = Vec::with_capacity(rigs.len() + 1);
    for rig in rigs {
        finals.push(verdict_ok(&observer.verdict(TARGET_P, Some(&rig.name)))?);
    }
    finals.push(verdict_ok(&observer.verdict(TARGET_P, None))?);
    let stats = observer.stats().map_err(|e| format!("STATS: {e}"))?;
    let expected = (rigs.len() * FLEET_PER_RIG) as u64;
    if stats.total != expected {
        return Err(format!("STATS total {}, expected {expected}", stats.total));
    }
    if stats.protocol_errors + stats.busy_rejections > 0 {
        return Err(format!(
            "server counted {} protocol errors and {} BUSY rejections",
            stats.protocol_errors, stats.busy_rejections
        ));
    }
    let rss_kb = server.peak_rss_kb();
    drop(producer);
    observer.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
    drop(observer);
    Ok(RoundEnd {
        finals,
        total: stats.total,
        rss_kb,
        feed_wall,
    })
}

/// The same feed replayed offline on a fresh single-worker server, each
/// rig in one INGEST frame with no queries in between: the final
/// per-channel and envelope VERDICT bytes.
fn offline_replay(args: &Args, dir: &Path, rigs: &[Rig]) -> Result<Vec<Vec<u8>>, String> {
    let mut cmd = serve_cmd(args, dir)?;
    cmd.arg("--workers").arg("1");
    let (server, _) =
        Server::spawn(&mut cmd, SETUP_TIMEOUT).map_err(|e| format!("replay server: {e}"))?;
    let watchdog = Watchdog::arm(server.pid(), PHASE_TIMEOUT);
    let replay = (|| -> Result<Vec<Vec<u8>>, String> {
        let mut client =
            ServeClient::connect(server.addr).map_err(|e| format!("replay connect: {e}"))?;
        for rig in rigs {
            client
                .ingest(&rig.name, &rig.values)
                .map_err(|e| format!("replay INGEST: {e}"))?;
        }
        let mut finals = Vec::with_capacity(rigs.len() + 1);
        for rig in rigs {
            finals.push(verdict_ok(&client.verdict(TARGET_P, Some(&rig.name)))?);
        }
        finals.push(verdict_ok(&client.verdict(TARGET_P, None))?);
        client
            .shutdown()
            .map_err(|e| format!("replay SHUTDOWN: {e}"))?;
        Ok(finals)
    })();
    drop(watchdog);
    let finals = replay?;
    server.finish(SETUP_TIMEOUT)?;
    Ok(finals)
}

/// Each rig's final served verdict against `mbpta analyze` on the rig's
/// measurements: same count, high watermark and budget as printed.
fn analyze_fleet(
    args: &Args,
    dir: &Path,
    rigs: &[Rig],
    finals: &[Vec<u8>],
) -> Vec<Result<(), String>> {
    rigs.iter()
        .zip(finals)
        .map(|(rig, bits)| {
            let reference = analyze_reference(args, dir, &rig.name, rig.values.iter().copied())?;
            let response =
                Response::decode(bits).map_err(|e| format!("undecodable VERDICT: {e}"))?;
            let Response::Verdicts { channels, .. } = response else {
                return Err("final VERDICT is not a Verdicts reply".into());
            };
            let verdict = match channels.as_slice() {
                [(_, Ok(v))] => v,
                _ => return Err(format!("final VERDICT for {} holds no verdict", rig.name)),
            };
            let served = Printed {
                n: verdict.provenance.n.to_string(),
                hwm: format!("{:.0}", verdict.high_watermark()),
                budget: format!(
                    "{:.0}",
                    verdict.budget_for(TARGET_P).map_err(|e| e.to_string())?
                ),
            };
            if served == reference {
                Ok(())
            } else {
                Err(format!(
                    "served verdict for {} {served:?} differs from analyze {reference:?}",
                    rig.name
                ))
            }
        })
        .collect()
}

/// Restart downtime: `serve --resume` from `checkpoint`, through the
/// readiness line, to the first STATS reply, which must report the
/// pre-shutdown `total`. Returns the elapsed seconds.
fn resume_once(args: &Args, dir: &Path, checkpoint: &Path, total: u64) -> Result<f64, String> {
    let start = Instant::now();
    let mut cmd = serve_cmd(args, dir)?;
    cmd.arg("--resume")
        .arg(checkpoint)
        .arg("--workers")
        .arg(FLEET_WORKERS.to_string());
    let (server, _) = Server::spawn(&mut cmd, SETUP_TIMEOUT).map_err(|e| format!("resume: {e}"))?;
    let watchdog = Watchdog::arm(server.pid(), SETUP_TIMEOUT);
    let mut client = ServeClient::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let stats = client
        .stats()
        .map_err(|e| format!("STATS after resume: {e}"));
    let elapsed = secs(start.elapsed());
    let shutdown = client.shutdown().map_err(|e| format!("SHUTDOWN: {e}"));
    drop(client);
    drop(watchdog);
    let stats = stats?;
    shutdown?;
    server.finish(SETUP_TIMEOUT)?;
    if stats.total != total {
        return Err(format!(
            "resumed STATS total {}, pre-shutdown total {total}",
            stats.total
        ));
    }
    Ok(elapsed)
}

// ---------------------------------------------------------------------------
// sim_paths: the four TVCA paths measured on the simulator.
// ---------------------------------------------------------------------------

fn sim_paths(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let configure = |cmd: &mut Command| {
        cmd.arg("session")
            .arg("--simulate")
            .arg("--runs")
            .arg(SIM_RUNS.to_string())
            .arg("--jobs")
            .arg(SIM_JOBS.to_string())
            .arg("--seed")
            .arg(args.seed.to_string());
    };
    report.diag(
        "input",
        format!(
            "session --simulate --runs {SIM_RUNS} --jobs {SIM_JOBS} --seed {} (4 TVCA paths)",
            args.seed
        ),
    );
    let setup = || -> Result<f64, String> {
        let mut cmd = mbpta(args, dir)?;
        configure(&mut cmd);
        match proc::time_to_stderr_line(&mut cmd, "in one pool", SETUP_TIMEOUT) {
            Ok(Some(elapsed)) => Ok(secs(elapsed)),
            Ok(None) => Err("session --simulate never reported its pool".into()),
            Err(e) => Err(format!("cannot run mbpta: {e}")),
        }
    };
    let measured = timed_cli_runs(
        args,
        dir,
        report,
        CliWork {
            channels: 4,
            measurements: 4 * SIM_RUNS,
            inputs: 1,
            setups_per_run: 3,
        },
        |cmd, _| configure(cmd),
        setup,
    )?;
    report.median(
        "setup_s",
        &measured.setup,
        "s",
        "spawn to the `measuring … in one pool` line on stderr, between the timed runs",
    );
    measured.throughput(
        report,
        "simulated and analysed measurements per second of whole runs",
    );
    Ok(())
}
