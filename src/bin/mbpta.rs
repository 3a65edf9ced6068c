//! `mbpta` — command-line probabilistic timing analysis.
//!
//! Reads execution-time measurements (one per line, `#` comments allowed)
//! and runs the MBPTA pipeline on them — the open equivalent of feeding a
//! commercial timing-analysis tool a measurement file.
//!
//! ```text
//! USAGE:
//!   mbpta analyze <file> [--cutoff 1e-12] [--alpha 0.05] [--block N] [--cv] [--csv]
//!   mbpta measure [--runs 3000] [--seed 10000000] [--jobs N] [--path nominal|...]
//!   mbpta session [<file>] [--target-p 1e-12] [--batch] [--every 250] [--jobs N]
//!                 [--simulate] [...]
//!   mbpta serve [--addr 127.0.0.1:0] [--checkpoint ck.bin --checkpoint-every 1000] [...]
//!   mbpta call <addr> <ingest|snapshot|verdict|merge|checkpoint|stats|shutdown> [...]
//!   mbpta shard [<file>] --out <blob> [--shards N] [--simulate] [...]
//!   mbpta --help
//! ```
//!
//! `analyze` consumes a measurement file; `measure` generates one from the
//! built-in simulated TVCA campaign; `session` analyses a feed
//! incrementally on the multi-channel `AnalysisSession` core. A feed line
//! is either a bare measurement (channel `campaign`, the format `measure`
//! prints) or a tagged `<channel> <time>` pair; `session` runs one
//! analysis engine per channel — per path, per core, per tenant — and
//! merges the per-channel verdicts into a program-level envelope. `serve`
//! exposes that same core as a long-running framed-TCP service
//! (`proxima-serve`); `call` is its command-line client; `shard` folds a
//! measurement campaign into a sealed federated state blob that `call
//! merge` ships to a server — state travels, raw measurements do not.

use std::process::ExitCode;

use proxima::mbpta::cv::analyze_cv;
use proxima::mbpta::engine::{BatchFactory, Engine, EngineFactory, EngineKind};
use proxima::mbpta::persist;
use proxima::prelude::*;
use proxima::serve::{Response, ServeClient, ServeConfig, Server, WireSnapshot};
use proxima::stream::replay::{ByteLines, LineSource};
use proxima::stream::{FederatedFactory, SketchKind, StreamConfig, StreamFactory};

const USAGE: &str = "\
mbpta - measurement-based probabilistic timing analysis

USAGE:
  mbpta analyze <file> [--cutoff <p>] [--alpha <a>] [--block <n>] [--cv] [--csv]
  mbpta measure [--runs <n>] [--seed <s>] [--jobs <j>] [--path <name>]
  mbpta session [<file>] [--target-p <p>] [--block <n>] [--every <k>]
                [--batch] [--shards <n>] [--jobs <j>] [--stop-on-converged]
                [--simulate] [--runs <n>] [--seed <s>]
                [--checkpoint <path> --checkpoint-every <k>]
  mbpta session --resume <path> [<file>] [--jobs <j>]
                [--checkpoint <path> --checkpoint-every <k>]
  mbpta serve [--addr <host:port>] [--target-p <p>] [--block <n>] [--every <k>]
              [--workers <w>] [--max-conns <n>] [--jobs <j>]
              [--checkpoint <path> --checkpoint-every <k>]
  mbpta serve --resume <path> [--addr <host:port>] [--workers <w>]
              [--max-conns <n>] [--jobs <j>]
  mbpta call <addr> ingest <channel> [<file>] [--skip <n>] [--chunk <n>]
  mbpta call <addr> snapshot <channel>
  mbpta call <addr> verdict [--p <p>] [--channel <name>]
  mbpta call <addr> merge <channel> <blob-file>
  mbpta call <addr> checkpoint | stats | shutdown
  mbpta shard [<file>] --out <blob> [--shards <n>] [--target-p <p>] [--block <n>]
              [--simulate] [--runs <n>] [--seed <s>] [--path <name>]
  mbpta --help

COMMANDS:
  analyze   run the MBPTA pipeline on a measurement file
            (one execution time per line; '#' starts a comment)
  measure   print a synthetic TVCA campaign in that format (simulated
            MBPTA-compliant platform; paths: nominal, saturated-x,
            saturated-y, fault-recovery)
  session   incremental MBPTA over a feed from <file>, stdin (no file
            argument), or the simulator (--simulate: the four TVCA paths
            measured in one thread pool). A line is a bare measurement
            (channel `campaign`) or a tagged `<channel> <time>` /
            `<channel>,<time>` pair; one engine per channel, merged
            envelope at the end. One live path:
              mbpta measure --jobs 1 --path <name> | mbpta session
                  --every 1 --stop-on-converged
  serve     long-running framed-TCP analysis service over the same
            session core: concurrent clients ingest tagged batches,
            query snapshots and verdicts, merge sealed federated
            shard blobs, and trigger checkpoints; prints
            `listening on <addr>` once ready
  call      client for a running server: ingest a measurement file (one
            value per line) into a channel, query a snapshot or verdict,
            merge a shard blob, force a checkpoint, dump stats, or shut
            the server down
  shard     fold a measurement campaign into a sealed federated state
            blob (`save_federated` format) for `call merge`; the
            stream/block configuration must match the server's

OPTIONS (analyze):
  --cutoff <p>   exceedance probability for the headline budget [1e-12]
  --alpha <a>    significance level of the i.i.d. gate          [0.05]
  --block <n>    fixed block size (default: automatic selection)
  --cv           use MBPTA-CV (exponential tail) instead of block maxima
  --csv          also print the pWCET curve as CSV

OPTIONS (measure):
  --runs <n>     number of measured executions                  [3000]
  --seed <s>     base seed of the campaign                      [10000000]
  --jobs <j>     measure on <j> threads (0 = all cores); the
                 sharded campaign is bit-identical for every
                 <j>, but uses the SplitMix64 seed stream
                 instead of the sequential per-run seeds
  --path <name>  TVCA execution path                            [nominal]

OPTIONS (session):
  --target-p <p>       exceedance cutoff tracked by snapshots   [1e-12]
  --block <n>          block size for block maxima              [50]
  --every <k>          emit a snapshot every <k> measurements,
                       round-robin across channels (0 = off)    [250]
  --batch              buffer per channel and analyse at the end
                       (default: bounded-memory streaming engines)
  --shards <n>         back each channel with <n> federated stream
                       shards folded at the end; the report is
                       bit-identical at every shard count (0 = off;
                       not valid with --stop-on-converged)          [0]
  --jobs <j>           merge/measure worker threads (0 = all)   [0]
  --simulate           feed the four TVCA paths as channels,
                       measured in one thread pool
  --runs <n>           simulated runs per path (--simulate)     [1500]
  --seed <s>           simulation master seed                   [10000000]
  --stop-on-converged  stop once every channel's estimate is stable;
                       converged channels finish early and free
                       their engine state immediately

OPTIONS (serve):
  --addr <host:port>     bind address (port 0 = OS-assigned)  [127.0.0.1:0]
  --target-p <p>         exceedance cutoff                    [1e-12]
  --block <n>            block size for block maxima          [50]
  --every <k>            per-channel snapshot cadence         [250]
  --workers <w>          analysis workers; channels are
                         partitioned across workers by name hash,
                         each worker serves one request at a
                         time, and every response is bit-identical
                         at every worker count                [1]
  --max-conns <n>        concurrent-connection bound; excess
                         connections get a typed BUSY frame
                         (0 = unbounded)                      [0]
  --jobs <j>             merge worker threads per session shard
                         (0 = all cores)                      [0]
  --checkpoint <path>    auto-checkpoint target: one sealed blob
                         per worker plus a manifest, atomically
                         committed by the manifest rename
  --checkpoint-every <k> checkpoint cadence, in measurements
  --resume <path>        restart from a server checkpoint; the analysis
                         configuration comes from the manifest, and
                         checkpointing continues to the same path.
                         --workers re-partitions the restored channels
                         to a new worker count (0 = keep the count
                         recorded in the manifest) — bit-identically
  --crash-after <n>      abort once the session holds <n> measurements
                         (crash injection for the restart CI job)

OPTIONS (call):
  --skip <n>     ingest: skip the first <n> measurements of the file
                 (resend-after-restart: skip what the server already
                 holds, per `call stats`)                        [0]
  --chunk <n>    ingest: measurements per INGEST frame           [512]
  --p <p>        verdict: exceedance cutoff                      [1e-12]
  --channel <c>  verdict: restrict to one channel (default: all)

OPTIONS (shard):
  --out <blob>   output file for the sealed federated blob (required)
  --shards <n>   shard count; the folded state is bit-identical
                 for every value                                 [1]
  --target-p, --block, --simulate, --runs, --seed, --path: as above;
                 the stream configuration must match the server's

CHECKPOINT / RESUME (session):
  --checkpoint <path>      write a checkpoint of the full session state
                           to <path> (atomic write-rename: a crash
                           mid-write never corrupts the file)
  --checkpoint-every <k>   checkpoint cadence, in measurements; required
                           with --checkpoint
  --resume <path>          resume a checkpointed session; the engine and
                           analysis flags are read from the file, so
                           they must not be repeated (re-supply the
                           measurement file for file feeds; a simulated
                           feed is regenerated from the recorded
                           runs/seed). The resumed report is
                           bit-identical to an uninterrupted run.
  --crash-after <n>        abort the process after <n> measurements —
                           a deterministic crash injector for the
                           restart-determinism CI job
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `mbpta --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("measure") => measure_cmd(&args[1..]),
        Some("session") => session_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("call") => call_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// Parse `--flag value` pairs after the positional arguments.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for {flag}: `{raw}`")),
    }
}

/// One verb's flags, each with whether it takes a value. Any other
/// `--flag` is an error: a misspelt flag must neither pass silently nor
/// swallow the next argument as its value.
type Flags = &'static [(&'static str, bool)];

const ANALYZE_FLAGS: Flags = &[
    ("--cutoff", true),
    ("--alpha", true),
    ("--block", true),
    ("--cv", false),
    ("--csv", false),
];

const MEASURE_FLAGS: Flags = &[
    ("--runs", true),
    ("--seed", true),
    ("--jobs", true),
    ("--path", true),
];

/// `--path` is listed only so `session --path` gets its pointed error.
const SESSION_FLAGS: Flags = &[
    ("--target-p", true),
    ("--block", true),
    ("--every", true),
    ("--batch", false),
    ("--shards", true),
    ("--jobs", true),
    ("--stop-on-converged", false),
    ("--simulate", false),
    ("--runs", true),
    ("--seed", true),
    ("--path", true),
    ("--checkpoint", true),
    ("--checkpoint-every", true),
    ("--resume", true),
    ("--crash-after", true),
];

const SERVE_FLAGS: Flags = &[
    ("--addr", true),
    ("--target-p", true),
    ("--block", true),
    ("--every", true),
    ("--workers", true),
    ("--max-conns", true),
    ("--jobs", true),
    ("--checkpoint", true),
    ("--checkpoint-every", true),
    ("--resume", true),
    ("--crash-after", true),
];

const CALL_FLAGS: Flags = &[
    ("--skip", true),
    ("--chunk", true),
    ("--p", true),
    ("--channel", true),
];

const SHARD_FLAGS: Flags = &[
    ("--out", true),
    ("--shards", true),
    ("--target-p", true),
    ("--block", true),
    ("--simulate", false),
    ("--runs", true),
    ("--seed", true),
    ("--path", true),
];

/// Check `args` against `verb`'s flag table and return the positional
/// (non-flag) arguments, in order; a value-taking flag consumes the
/// argument after it. A positional beyond the verb's `max` is an error:
/// an argument the verb never reads must not pass silently either.
fn positionals<'a>(
    verb: &str,
    flags: Flags,
    max: usize,
    args: &'a [String],
) -> Result<Vec<&'a str>, String> {
    let mut found = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if found.len() == max {
                return Err(format!("unexpected argument `{arg}` for {verb}"));
            }
            found.push(arg.as_str());
            continue;
        }
        match flags.iter().find(|(name, _)| name == arg) {
            None => return Err(format!("unknown flag `{arg}` for {verb}")),
            Some((_, true)) => {
                rest.next().ok_or_else(|| format!("{arg} needs a value"))?;
            }
            Some((_, false)) => {}
        }
    }
    Ok(found)
}

fn parse_tvca_mode(path: &str) -> Result<ControlMode, String> {
    match path {
        "nominal" => Ok(ControlMode::Nominal),
        "saturated-x" => Ok(ControlMode::SaturatedX),
        "saturated-y" => Ok(ControlMode::SaturatedY),
        "fault-recovery" => Ok(ControlMode::FaultRecovery),
        other => Err(format!("unknown path `{other}`")),
    }
}

/// The simulated trace source shared by `measure` and `shard --simulate`:
/// runs/seed/path flags plus the TVCA trace of the chosen path on the
/// MBPTA-compliant platform.
struct SimSource {
    runs: usize,
    seed: u64,
    mode: ControlMode,
    trace: Vec<Inst>,
}

/// Shared `--runs`/`--seed` parsing for every simulate-capable
/// subcommand (`measure`, `session --simulate`, `shard --simulate`).
fn sim_params(args: &[String], default_runs: usize) -> Result<(usize, u64), String> {
    let runs: usize = parse_flag(args, "--runs", default_runs)?;
    let seed: u64 = parse_flag(args, "--seed", 10_000_000u64)?;
    Ok((runs, seed))
}

impl SimSource {
    fn from_args(args: &[String], default_runs: usize) -> Result<Self, String> {
        let (runs, seed) = sim_params(args, default_runs)?;
        let mode = parse_tvca_mode(flag_value(args, "--path")?.unwrap_or("nominal"))?;
        Ok(SimSource {
            runs,
            seed,
            mode,
            trace: Tvca::new(TvcaConfig::default()).trace(mode),
        })
    }
}

/// A simulated feed reads no measurement file, so one given beside it is
/// refused by name rather than ignored.
fn no_file_beside_simulation(file: Option<&str>) -> Result<(), String> {
    match file {
        Some(file) => Err(format!(
            "unexpected argument `{file}`: a simulated feed reads no measurement file"
        )),
        None => Ok(()),
    }
}

/// A buffered reader over `file`, or over stdin without one.
fn open_feed(file: Option<&str>) -> Result<Box<dyn std::io::BufRead>, String> {
    Ok(match file {
        Some(file) => Box::new(std::io::BufReader::new(
            std::fs::File::open(file).map_err(|e| format!("cannot open {file}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    })
}

/// The measurements of a one-time-per-line feed ([`open_feed`]); a bad
/// line's error names its line number.
fn measurement_lines(
    file: Option<&str>,
) -> Result<impl Iterator<Item = Result<f64, String>>, String> {
    Ok(LineSource::new(open_feed(file)?).map(|r| r.map_err(|e| e.to_string())))
}

fn analyze_cmd(args: &[String]) -> Result<(), String> {
    let pos = positionals("analyze", ANALYZE_FLAGS, 1, args)?;
    let file = *pos.first().ok_or("analyze needs a measurement file")?;
    let cutoff: f64 = parse_flag(args, "--cutoff", 1e-12)?;
    let alpha: f64 = parse_flag(args, "--alpha", 0.05)?;
    let use_cv = args.iter().any(|a| a == "--cv");
    let want_csv = args.iter().any(|a| a == "--csv");

    let times = measurement_lines(Some(file))?.collect::<Result<Vec<f64>, String>>()?;
    let campaign = Campaign::from_times(times).map_err(|e| e.to_string())?;

    let mut config = MbptaConfig {
        alpha,
        ..MbptaConfig::default()
    };
    if let Some(block) = flag_value(args, "--block")? {
        let n: usize = block
            .parse()
            .map_err(|_| format!("invalid block size `{block}`"))?;
        config.block = BlockSpec::Fixed(n);
    }

    if use_cv {
        let report = analyze_cv(campaign.times(), &config).map_err(|e| e.to_string())?;
        println!(
            "MBPTA-CV: threshold {:.0}, {} exceedances, residual CV {:.3}",
            report.fit.threshold, report.fit.tail_size, report.fit.cv
        );
        println!(
            "i.i.d. gate: Ljung-Box p={:.3}, KS p={:.3}",
            report.iid.ljung_box.p_value, report.iid.ks.p_value
        );
        let budget = report.budget_for(cutoff).map_err(|e| e.to_string())?;
        println!("pWCET @ {cutoff:e}: {budget:.0}");
    } else {
        let report = config
            .analyze(campaign.times())
            .map_err(|e| e.to_string())?;
        print!("{}", render_report(&report));
        let budget = report.budget_for(cutoff).map_err(|e| e.to_string())?;
        println!("headline budget @ {cutoff:e}: {budget:.0}");
        if want_csv {
            let probs: Vec<f64> = (3..=15).map(|e| 10f64.powi(-e)).collect();
            let csv =
                proxima::mbpta::render_pwcet_csv(&report, &probs).map_err(|e| e.to_string())?;
            print!("{csv}");
        }
    }
    Ok(())
}

fn measure_cmd(args: &[String]) -> Result<(), String> {
    positionals("measure", MEASURE_FLAGS, 0, args)?;
    let sim = SimSource::from_args(args, 3000)?;
    let jobs = flag_value(args, "--jobs")?
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("invalid value for --jobs: `{raw}`"))
        })
        .transpose()?;
    // Measure first, print after: a failed campaign must not leave a
    // partial (headers-only) measurement file on stdout.
    let (campaign, seed_line) = if let Some(jobs) = jobs {
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(jobs);
        let campaign = runner
            .run(sim.trace, sim.runs, sim.seed)
            .map_err(|e| e.to_string())?;
        let line = format!(
            "# runs={} master_seed={} jobs={}",
            sim.runs,
            sim.seed,
            runner.jobs()
        );
        (campaign, line)
    } else {
        let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
        let campaign = Campaign::measure(&mut platform, sim.trace, sim.runs, sim.seed)
            .map_err(|e| e.to_string())?;
        (
            campaign,
            format!("# runs={} base_seed={}", sim.runs, sim.seed),
        )
    };
    let print = || -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        writeln!(
            out,
            "# TVCA path `{}` on the simulated MBPTA-compliant platform",
            sim.mode
        )?;
        writeln!(out, "{seed_line}")?;
        campaign.write_to(out)
    };
    print().or_else(|e| {
        // A downstream consumer closing early (`measure | session
        // --stop-on-converged`, `measure | head`) is a normal way for
        // this pipeline to end, not a measurement failure.
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            Ok(())
        } else {
            Err(e.to_string())
        }
    })
}

/// One printed line per estimate, compact enough to tail live. Unlike
/// `println!`, a closed stdout surfaces as an error the caller can treat
/// as end-of-interest, not a panic.
fn print_estimate(channel: &ChannelId, target_p: f64, est: &EngineEstimate) -> std::io::Result<()> {
    use std::io::Write;
    let delta = est
        .convergence_delta
        .map_or("-".to_string(), |d| format!("{:.3}%", d * 100.0));
    let ci = est.ci.map_or("-".to_string(), |ci| {
        format!("[{:.0}, {:.0}]", ci.lower, ci.upper)
    });
    writeln!(
        std::io::stdout().lock(),
        "snapshot channel={channel} n={} blocks={} pwcet@{target_p:e}={:.0} ci={ci} delta={delta} hwm={:.0} iid={} {}",
        est.n,
        est.blocks.unwrap_or(0),
        est.pwcet,
        est.high_watermark,
        est.iid.map_or("-", |evidence| evidence.label()),
        if est.converged { "CONVERGED" } else { "settling" },
    )
}

/// `Ok(false)` when stdout closed (downstream `| head`): a normal way for
/// a live tail to end.
fn emit_estimate(channel: &ChannelId, target_p: f64, est: &EngineEstimate) -> Result<bool, String> {
    match print_estimate(channel, target_p, est) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(e.to_string()),
    }
}

/// The four TVCA paths, as session channels.
const TVCA_PATHS: &[(&str, ControlMode)] = &[
    ("nominal", ControlMode::Nominal),
    ("saturated-x", ControlMode::SaturatedX),
    ("saturated-y", ControlMode::SaturatedY),
    ("fault-recovery", ControlMode::FaultRecovery),
];

/// Everything `--resume` needs to rebuild a session besides the session
/// blob itself: the engine selection, the analysis knobs, and (for
/// simulated feeds) the campaign parameters.
#[derive(Debug, Clone, PartialEq)]
struct SessionParams {
    kind: EngineKind,
    block: usize,
    target_p: f64,
    every: usize,
    shards: usize,
    stop_on_converged: bool,
    /// `Some((runs, seed))` when the feed is the built-in simulator.
    sim: Option<(usize, u64)>,
}

/// Magic tag of a `mbpta session` checkpoint file (which wraps the
/// library's session blob together with the CLI parameters).
const MAGIC_CLI_CHECKPOINT: [u8; 4] = *b"PXCP";

impl SessionParams {
    fn encode(&self, w: &mut persist::Writer) {
        persist::Encode::encode(&self.kind, w);
        w.usize(self.block);
        w.f64(self.target_p);
        w.usize(self.every);
        w.usize(self.shards);
        // The layout keeps a sketch-kind byte here; GK is the only sketch.
        persist::Encode::encode(&SketchKind::Gk, w);
        w.bool(self.stop_on_converged);
        match self.sim {
            None => w.bool(false),
            Some((runs, seed)) => {
                w.bool(true);
                w.usize(runs);
                w.u64(seed);
            }
        }
    }

    fn decode(r: &mut persist::Reader<'_>) -> Result<Self, String> {
        let mut take = || -> Result<SessionParams, proxima::mbpta::MbptaError> {
            Ok(SessionParams {
                kind: persist::Decode::decode(r)?,
                block: r.usize()?,
                target_p: r.f64()?,
                every: r.usize()?,
                shards: r.usize()?,
                stop_on_converged: {
                    // Refuses a checkpoint recording a removed sketch.
                    let SketchKind::Gk = persist::Decode::decode(r)?;
                    r.bool()?
                },
                sim: if r.bool()? {
                    Some((r.usize()?, r.u64()?))
                } else {
                    None
                },
            })
        };
        take().map_err(|e| e.to_string())
    }
}

/// Write a session checkpoint file atomically and durably: serialize to
/// `<path>.tmp` in the same directory, fsync it, rename over `<path>`,
/// then fsync the directory — a crash (or power cut) mid-write leaves
/// either the previous checkpoint or the new one, never a torn file.
fn write_checkpoint<F: EngineFactory>(
    path: &str,
    params: &SessionParams,
    session: &mut AnalysisSession<F>,
) -> Result<(), String> {
    use std::io::Write;
    let blob = session
        .checkpoint()
        .map_err(|e| format!("cannot checkpoint session: {e}"))?;
    let mut w = persist::Writer::new();
    params.encode(&mut w);
    w.usize(session.len());
    w.bytes(&blob);
    let bytes = persist::seal(MAGIC_CLI_CHECKPOINT, w.into_bytes());
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| format!("cannot create {tmp}: {e}"))?;
    file.write_all(&bytes)
        .map_err(|e| format!("cannot write {tmp}: {e}"))?;
    // The rename only renames metadata; without flushing the data first,
    // a power cut shortly after the rename could leave the *new* name
    // pointing at an empty/partial file with the old checkpoint gone.
    file.sync_all()
        .map_err(|e| format!("cannot sync {tmp}: {e}"))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} over {path}: {e}"))?;
    // Persist the rename itself (best effort — directory fsync is not
    // supported everywhere).
    if let Some(parent) = std::path::Path::new(path).parent() {
        let dir = if parent.as_os_str().is_empty() {
            std::path::Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    // Reset the session's cadence counter ([`AnalysisSession::
    // checkpoint_due`]) so the next checkpoint falls due a full period
    // from here.
    session.mark_checkpointed();
    Ok(())
}

/// Read a session checkpoint file: `(params, measurements consumed,
/// session blob)`.
fn read_checkpoint(path: &str) -> Result<(SessionParams, usize, Vec<u8>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let payload = persist::unseal(&bytes, MAGIC_CLI_CHECKPOINT).map_err(|e| e.to_string())?;
    let mut r = persist::Reader::new(payload);
    let params = SessionParams::decode(&mut r)?;
    let consumed = r.usize().map_err(|e| e.to_string())?;
    let blob = r.bytes().map_err(|e| e.to_string())?.to_vec();
    r.finish().map_err(|e| e.to_string())?;
    Ok((params, consumed, blob))
}

/// Parse and validate the `--checkpoint`/`--checkpoint-every` pair.
fn checkpoint_spec(args: &[String]) -> Result<Option<(String, usize)>, String> {
    let path = flag_value(args, "--checkpoint")?;
    let every: Option<usize> = flag_value(args, "--checkpoint-every")?
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value for --checkpoint-every: `{raw}`"))
        })
        .transpose()?;
    match (path, every) {
        (None, None) => Ok(None),
        (Some(_), None) => Err("--checkpoint requires --checkpoint-every".into()),
        (None, Some(_)) => Err("--checkpoint-every requires --checkpoint".into()),
        (Some(_), Some(0)) => Err("--checkpoint-every must be positive".into()),
        (Some(path), Some(every)) => Ok(Some((path.to_string(), every))),
    }
}

fn session_cmd(args: &[String]) -> Result<(), String> {
    let file = positionals("session", SESSION_FLAGS, 1, args)?
        .first()
        .copied();
    let jobs: usize = parse_flag(args, "--jobs", 0)?;
    let ckpt = checkpoint_spec(args)?;
    let crash_after: Option<usize> = flag_value(args, "--crash-after")?
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value for --crash-after: `{raw}`"))
        })
        .transpose()?;

    if let Some(resume_path) = flag_value(args, "--resume")? {
        // The checkpoint records the full session configuration;
        // re-specifying engine or analysis flags would either be
        // redundant or silently conflict with the recorded state.
        for flag in [
            "--batch",
            "--shards",
            "--block",
            "--every",
            "--target-p",
            "--stop-on-converged",
            "--simulate",
            "--runs",
            "--seed",
            "--path",
        ] {
            if args.iter().any(|a| a == flag) {
                return Err(format!(
                    "{flag} conflicts with --resume (the checkpoint already records \
                     the session configuration)"
                ));
            }
        }
        let (params, consumed, blob) = read_checkpoint(resume_path)?;
        eprintln!("resuming from {resume_path}: {consumed} measurements already analysed",);
        return run_session(
            file,
            &params,
            jobs,
            consumed,
            Some(&blob),
            ckpt.as_ref(),
            crash_after,
        );
    }

    let target_p: f64 = parse_flag(args, "--target-p", 1e-12)?;
    let block: usize = parse_flag(args, "--block", 50)?;
    let every: usize = parse_flag(args, "--every", 250)?;
    let shards: usize = parse_flag(args, "--shards", 0)?;
    let batch = args.iter().any(|a| a == "--batch");
    let simulate = args.iter().any(|a| a == "--simulate");
    let stop_on_converged = args.iter().any(|a| a == "--stop-on-converged");
    if shards > 0 && batch {
        return Err("--shards applies to the streaming engines; drop --batch".into());
    }
    // Shards fold at the end and only track per-shard stability, which
    // depends on the shard geometry: convergence-gated stopping would
    // make the report depend on the shard count, breaking the federated
    // determinism guarantee. Reject the combination loudly.
    if shards > 0 && stop_on_converged {
        return Err(
            "--stop-on-converged is not valid with --shards (federated shards fold at the \
             end; convergence-gated stopping needs the single-stream engines)"
                .into(),
        );
    }
    // An explicitly requested snapshot cadence would be silently inert:
    // federated engines emit no intermediate estimates (the global
    // estimate exists only at fold time). Say so instead of going quiet.
    if shards > 0 && args.iter().any(|a| a == "--every") {
        eprintln!(
            "note: --every has no effect with --shards \
             (federated channels emit no intermediate snapshots)"
        );
    }
    if !simulate {
        for flag in ["--runs", "--seed"] {
            if args.iter().any(|a| a == flag) {
                return Err(format!("{flag} requires --simulate"));
            }
        }
    }
    // A session has no single path: silently dropping the flag would run
    // all four TVCA paths while the user expects one.
    if args.iter().any(|a| a == "--path") {
        return Err(
            "--path is not valid for session (all TVCA paths are measured as channels; \
             use `mbpta measure --path <name> | mbpta session` for a single path)"
                .into(),
        );
    }

    let params = SessionParams {
        kind: if batch {
            EngineKind::Batch
        } else if shards > 0 {
            EngineKind::Federated
        } else {
            EngineKind::Stream
        },
        block,
        target_p,
        every,
        shards,
        stop_on_converged,
        sim: if simulate {
            Some(sim_params(args, 1500)?)
        } else {
            None
        },
    };
    run_session(file, &params, jobs, 0, None, ckpt.as_ref(), crash_after)
}

/// Build the tagged feed a session analyses — the simulated four-path
/// TVCA campaign when `params.sim` is set, `file` (or stdin) otherwise —
/// skipping the first `consumed` measurements (already analysed by a
/// checkpointed run being resumed).
fn session_feed(
    file: Option<&str>,
    params: &SessionParams,
    jobs: usize,
    consumed: usize,
) -> Result<Box<dyn Iterator<Item = Result<Tagged, String>>>, String> {
    if let Some((runs, seed)) = params.sim {
        no_file_beside_simulation(file)?;
        // All four TVCA paths measured in ONE thread pool (`run_many`
        // shards the 4 × runs indices over the workers), then replayed
        // into the session as a round-robin interleaved tagged feed —
        // the demux workload end to end. The campaign is a pure function
        // of (runs, seed), so a resumed run regenerates the identical
        // feed and skips what the checkpoint already covered. The pool
        // takes the traces by value and frees each once it is decoded.
        let tvca = Tvca::new(TvcaConfig::default());
        let traces: Vec<Vec<Inst>> = TVCA_PATHS.iter().map(|(_, m)| tvca.trace(*m)).collect();
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(jobs);
        eprintln!(
            "measuring {runs} runs of {} TVCA paths in one pool (seed {seed}, jobs {})",
            TVCA_PATHS.len(),
            runner.jobs()
        );
        let campaigns = runner
            .run_many(traces, runs, seed)
            .map_err(|e| e.to_string())?;
        let channels: Vec<ChannelId> = TVCA_PATHS
            .iter()
            .map(|(name, _)| ChannelId::new(name))
            .collect();
        let mut tagged: Vec<Tagged> = Vec::with_capacity(TVCA_PATHS.len() * runs);
        for i in 0..runs {
            for (channel, campaign) in channels.iter().zip(&campaigns) {
                tagged.push(Tagged::new(channel.clone(), campaign.times()[i]));
            }
        }
        Ok(Box::new(tagged.into_iter().map(Ok).skip(consumed)))
    } else {
        Ok(Box::new(tagged_lines(open_feed(file)?).skip(consumed)))
    }
}

/// Restore a checkpointed session and re-arm its checkpoint cadence:
/// the cadence is runtime policy (`--checkpoint-every` on this
/// invocation), not part of the persisted state, so a restore always
/// re-applies it. Restores land exactly on a cadence boundary (chunks
/// never cross one), so the next checkpoint falls a full period later —
/// the file sequence is identical to an uninterrupted run.
fn restore_session<F: EngineFactory>(
    factory: F,
    blob: &[u8],
    jobs: usize,
    cadence: usize,
) -> Result<AnalysisSession<F>, String> {
    let mut session = AnalysisSession::restore(factory, blob, jobs).map_err(|e| e.to_string())?;
    session.set_checkpoint_every(cadence);
    Ok(session)
}

/// Build (or restore, when `resume_blob` is set) the session described
/// by `params` and drive the feed through it.
#[allow(clippy::too_many_arguments)]
fn run_session(
    file: Option<&str>,
    params: &SessionParams,
    jobs: usize,
    consumed: usize,
    resume_blob: Option<&[u8]>,
    ckpt: Option<&(String, usize)>,
    crash_after: Option<usize>,
) -> Result<(), String> {
    let feed = session_feed(file, params, jobs, consumed)?;
    // The checkpoint cadence lives on the session itself (satellite of
    // PR 7): `until_checkpoint`/`checkpoint_due` drive both this CLI and
    // the `serve` subsystem from the same counter.
    let cadence = ckpt.map_or(0, |(_, every)| *every);
    let builder = MbptaConfig {
        block: BlockSpec::Fixed(params.block),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(params.every)
    .checkpoint_every(cadence)
    .target_p(params.target_p)
    .jobs(jobs)
    // Converged channels free their engine state immediately; the feed
    // keeps going until every channel converged (or runs out).
    .early_finish(params.stop_on_converged);

    let stream_config = StreamConfig {
        block_size: params.block,
        target_p: params.target_p,
        ..StreamConfig::default()
    };
    match params.kind {
        EngineKind::Batch => {
            let config = MbptaConfig {
                block: BlockSpec::Fixed(params.block),
                ..MbptaConfig::default()
            };
            let factory = BatchFactory::new(config, params.target_p).map_err(|e| e.to_string())?;
            let session = match resume_blob {
                Some(blob) => restore_session(factory, blob, jobs, cadence)?,
                None => builder.build_with(factory).map_err(|e| e.to_string())?,
            };
            drive_session(session, feed, params, ckpt, crash_after)
        }
        EngineKind::Federated => {
            // Federated: each channel routed to per-shard analyzers
            // folded at merge. With a known per-channel volume
            // (--simulate) the shards are balanced; for files/stdin the
            // default block-aligned shard length applies. Reports are
            // bit-identical at every shard count.
            let mut config = FederatedConfig::new(stream_config, params.shards);
            if let Some((runs, _)) = params.sim {
                config = config.balanced_for(runs);
            }
            let factory = FederatedFactory::new(config).map_err(|e| e.to_string())?;
            let session = match resume_blob {
                Some(blob) => restore_session(factory, blob, jobs, cadence)?,
                None => builder.build_with(factory).map_err(|e| e.to_string())?,
            };
            drive_session(session, feed, params, ckpt, crash_after)
        }
        EngineKind::Stream => {
            let factory = StreamFactory::new(stream_config).map_err(|e| e.to_string())?;
            let session = match resume_blob {
                Some(blob) => restore_session(factory, blob, jobs, cadence)?,
                None => builder.build_with(factory).map_err(|e| e.to_string())?,
            };
            drive_session(session, feed, params, ckpt, crash_after)
        }
    }
}

/// How many measurements the CLI buffers per `push_batch` call. Large
/// enough to amortize sketch compaction and scheduler scans, small enough
/// to keep live tails responsive on slow feeds.
const FEED_CHUNK: usize = 4096;

/// The channel of a feed line that carries no tag.
const UNTAGGED_CHANNEL: &str = "campaign";

/// Parse a feed reader into tagged measurements. A line is a bare
/// measurement (the format `measure` prints), which goes to channel
/// `campaign`, or a tagged `<channel> <time>` / `<channel>,<time>` pair;
/// blank lines and `#` comments are skipped. Zero-copy: each line is
/// parsed as a byte slice straight out of the reader's buffer
/// ([`ByteLines`]), with no intermediate `String` per line.
fn tagged_lines(reader: impl std::io::BufRead) -> impl Iterator<Item = Result<Tagged, String>> {
    let untagged = ChannelId::new(UNTAGGED_CHANNEL);
    let mut lines = ByteLines::new(reader);
    std::iter::from_fn(move || loop {
        match lines.next_line(|line_no, bytes| {
            let trimmed = bytes.trim_ascii();
            if trimmed.is_empty() || trimmed.first() == Some(&b'#') {
                return None;
            }
            Some(match std::str::from_utf8(trimmed) {
                Err(_) => Err(format!("bad tagged line {line_no}: not valid UTF-8")),
                Ok(text) if !text.contains(|c: char| c == ',' || c.is_whitespace()) => text
                    .parse::<f64>()
                    .map(|time| Tagged::new(untagged.clone(), time))
                    .map_err(|_| {
                        format!(
                            "bad tagged line {line_no} `{text}`: \
                             neither a measurement nor `<channel> <time>`"
                        )
                    }),
                Ok(text) => text
                    .parse::<Tagged>()
                    .map_err(|e| format!("bad tagged line {line_no} `{text}`: {e}")),
            })
        }) {
            Err(e) => return Some(Err(format!("tagged stream read failed: {e}"))),
            Ok(None) => return None,
            Ok(Some(None)) => continue,
            Ok(Some(Some(parsed))) => return Some(parsed),
        }
    })
}

/// Bulk-ingest one same-channel run of measurements, emitting scheduled
/// snapshots and honouring the checkpoint / crash-injection cadence
/// exactly as the per-item loop does: no chunk ever crosses a checkpoint
/// boundary or the crash point, so the checkpoint file sequence, the
/// crash position and the printed snapshots are all byte-identical to an
/// itemized feed. `Ok(false)` means stdout closed (downstream `| head`).
fn feed_run<F: EngineFactory>(
    session: &mut AnalysisSession<F>,
    channel: &ChannelId,
    xs: &[f64],
    params: &SessionParams,
    ckpt: Option<&(String, usize)>,
    crash_after: Option<usize>,
) -> Result<bool, String> {
    let mut rest = xs;
    while !rest.is_empty() {
        let mut take = rest.len();
        // The session tracks its own cadence (`checkpoint_every` is set
        // from --checkpoint-every at build/restore time): cut the chunk
        // so checkpoint positions are independent of the chunking.
        if let Some(until) = session.until_checkpoint() {
            take = take.min(until.max(1));
        }
        if let Some(n) = crash_after {
            take = take.min(n.saturating_sub(session.len()).max(1));
        }
        let (chunk, tail) = rest.split_at(take);
        rest = tail;
        let snaps = session
            .push_batch(channel.clone(), chunk)
            .map_err(|e| e.to_string())?;
        for snap in snaps {
            if !emit_estimate(&snap.channel, params.target_p, &snap.estimate)? {
                return Ok(false);
            }
        }
        if let Some((path, _)) = ckpt {
            if session.checkpoint_due() {
                write_checkpoint(path, params, session)?;
            }
        }
        if crash_after.is_some_and(|n| session.len() >= n) {
            // Deterministic crash injection for the restart-determinism
            // CI job: die hard, no unwinding, no cleanup — exactly like
            // a kill -9 mid-campaign. The last atomic checkpoint (if
            // any) is what a resume sees.
            eprintln!(
                "crashing after {} measurements (--crash-after)",
                session.len()
            );
            std::process::abort();
        }
    }
    Ok(true)
}

/// Ingest a tagged feed, print scheduled snapshots, write checkpoints at
/// the configured cadence, merge, and print the per-channel verdicts
/// plus the program-level envelope.
///
/// Consecutive same-channel measurements are buffered and bulk-ingested
/// through [`AnalysisSession::push_batch`] (interleaved feeds degrade
/// gracefully to per-item pushes, which keeps the ingest order — and so
/// the report — exactly as fed). `--stop-on-converged` keeps the
/// per-item path: it must stop at exactly the converging measurement.
fn drive_session<F: EngineFactory>(
    mut session: AnalysisSession<F>,
    feed: impl Iterator<Item = Result<Tagged, String>>,
    params: &SessionParams,
    ckpt: Option<&(String, usize)>,
    crash_after: Option<usize>,
) -> Result<(), String> {
    let target_p = params.target_p;
    let stop_on_converged = params.stop_on_converged;
    if stop_on_converged {
        for tagged in feed {
            let snap = session.push(tagged?).map_err(|e| e.to_string())?;
            if let Some(snap) = snap {
                if !emit_estimate(&snap.channel, target_p, &snap.estimate)? {
                    return Ok(());
                }
                if snap.estimate.converged && session.all_converged() {
                    // NOTE: "every channel" means every channel *seen so
                    // far* — a sequentially ordered file (all of channel A,
                    // then B) would stop after A. Make the early stop loud
                    // so an incomplete envelope is diagnosable.
                    eprintln!(
                        "stopping early: all {} channel(s) seen so far converged \
                         (total={} measurements; channels appearing later in the \
                         feed are not analysed)",
                        session.channel_count(),
                        session.len(),
                    );
                    break;
                }
            }
            if let Some((path, _)) = ckpt {
                if session.checkpoint_due() {
                    write_checkpoint(path, params, &mut session)?;
                }
            }
            if crash_after.is_some_and(|n| session.len() >= n) {
                eprintln!(
                    "crashing after {} measurements (--crash-after)",
                    session.len()
                );
                std::process::abort();
            }
        }
    } else {
        let mut run_channel: Option<ChannelId> = None;
        let mut run: Vec<f64> = Vec::with_capacity(FEED_CHUNK);
        for tagged in feed {
            match tagged {
                Ok(Tagged { channel, time }) => {
                    let switching = run_channel.as_ref().is_some_and(|c| *c != channel);
                    if switching || run.len() >= FEED_CHUNK {
                        if let Some(ch) = run_channel.take() {
                            if !feed_run(&mut session, &ch, &run, params, ckpt, crash_after)? {
                                return Ok(());
                            }
                            run.clear();
                        }
                    }
                    run_channel = Some(channel);
                    run.push(time);
                }
                Err(e) => {
                    // Flush what came before the bad line first: those
                    // measurements are already analysed in the per-item
                    // loop too, snapshots and checkpoints included.
                    if let Some(ch) = run_channel.take() {
                        if !feed_run(&mut session, &ch, &run, params, ckpt, crash_after)? {
                            return Ok(());
                        }
                    }
                    return Err(e);
                }
            }
        }
        if let Some(ch) = run_channel.take() {
            if !feed_run(&mut session, &ch, &run, params, ckpt, crash_after)? {
                return Ok(());
            }
        }
    }
    if session.is_empty() {
        return Err("session feed contained no measurements".into());
    }
    let total = session.len();
    let merged = session.merge();
    match print_summary(total, &merged, target_p) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
        Err(e) => return Err(e.to_string()),
    }
    if !merged.all_ok() {
        return Err(format!(
            "{} of {} channels failed",
            merged.failures().count(),
            merged.channels().len()
        ));
    }
    Ok(())
}

/// Print the merged session: a total line, one line per channel and the
/// program-level envelope (the first channel with the strictly largest
/// budget).
fn print_summary(total: usize, merged: &SessionVerdict, target_p: f64) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "session total={total} channels={}",
        merged.channels().len()
    )?;
    for cv in merged.channels() {
        match &cv.outcome {
            Ok(v) => writeln!(
                out,
                "channel {} n={} engine={} pwcet@{target_p:e}={:.0} hwm={:.0} iid={}{}",
                cv.channel,
                v.provenance.n,
                v.provenance.engine,
                v.budget_for(target_p).unwrap_or(f64::NAN),
                v.high_watermark(),
                v.iid.label(),
                match v.provenance.converged {
                    Some(true) => " CONVERGED",
                    Some(false) => " settling",
                    None => "",
                },
            )?,
            Err(e) => writeln!(
                out,
                "channel {} FAILED: {e}{}",
                cv.channel,
                if cv.dropped > 0 {
                    format!(" ({} measurements dropped)", cv.dropped)
                } else {
                    String::new()
                },
            )?,
        }
    }
    match merged.envelope_budget(target_p) {
        Ok((worst, budget)) => writeln!(
            out,
            "envelope pwcet@{target_p:e}={budget:.0} (worst channel: {worst}) hwm={:.0}",
            merged.high_watermark(),
        ),
        Err(e) => writeln!(out, "envelope UNAVAILABLE: {e}"),
    }
}

/// `mbpta serve`: bind (or resume) the framed-TCP analysis service and
/// run its accept loop until a SHUTDOWN frame arrives.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    positionals("serve", SERVE_FLAGS, 0, args)?;
    let addr = flag_value(args, "--addr")?.unwrap_or("127.0.0.1:0");
    let jobs: usize = parse_flag(args, "--jobs", 0)?;
    let max_conns: usize = parse_flag(args, "--max-conns", 0)?;
    let crash_after: Option<usize> = flag_value(args, "--crash-after")?
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value for --crash-after: `{raw}`"))
        })
        .transpose()?;

    let server = if let Some(resume_path) = flag_value(args, "--resume")? {
        // The checkpoint records the serve configuration; re-specifying
        // analysis flags would silently conflict with it.
        // `--workers` is deliberately allowed: the manifest records the
        // old worker count, and resume re-partitions to the new one.
        for flag in [
            "--target-p",
            "--block",
            "--every",
            "--checkpoint",
            "--checkpoint-every",
        ] {
            if args.iter().any(|a| a == flag) {
                return Err(format!(
                    "{flag} conflicts with --resume (the checkpoint already records \
                     the serve configuration)"
                ));
            }
        }
        let opts = proxima::serve::ResumeOptions {
            jobs,
            crash_after,
            workers: parse_flag(args, "--workers", 0)?,
            max_conns,
        };
        eprintln!("resuming from {resume_path}");
        Server::resume(addr, resume_path, opts).map_err(|e| e.to_string())?
    } else {
        let target_p: f64 = parse_flag(args, "--target-p", 1e-12)?;
        let block: usize = parse_flag(args, "--block", 50)?;
        let every: usize = parse_flag(args, "--every", 250)?;
        let workers: usize = parse_flag(args, "--workers", 1)?;
        let (checkpoint_path, checkpoint_every) = match checkpoint_spec(args)? {
            Some((path, every)) => (Some(std::path::PathBuf::from(path)), every),
            None => (None, 0),
        };
        let config = ServeConfig {
            stream: StreamConfig {
                block_size: block,
                target_p,
                ..StreamConfig::default()
            },
            snapshot_every: every,
            checkpoint_path,
            checkpoint_every,
            workers,
            max_conns,
            jobs,
            crash_after,
        };
        Server::bind(addr, config).map_err(|e| e.to_string())?
    };
    {
        // Parseable readiness line on stdout (the CI smoke job and the
        // subprocess tests read the OS-assigned port back from it).
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        writeln!(out, "listening on {}", server.local_addr()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| e.to_string())
}

/// One printed line per server-emitted estimate (`call ingest` /
/// `call snapshot`). The client does not know the server's target
/// cutoff, so the line carries the estimate's own pWCET rather than a
/// `pwcet@p` label.
fn print_wire_snapshot(snap: &WireSnapshot) {
    let est = &snap.estimate;
    println!(
        "snapshot channel={} n={} blocks={} pwcet={:.0} hwm={:.0} iid={} {}",
        snap.channel,
        est.n,
        est.blocks.unwrap_or(0),
        est.pwcet,
        est.high_watermark,
        est.iid.map_or("-", |evidence| evidence.label()),
        if est.converged {
            "CONVERGED"
        } else {
            "settling"
        },
    );
}

/// `mbpta call`: one request/response exchange with a running server
/// (`ingest` streams many frames over the one connection).
fn call_cmd(args: &[String]) -> Result<(), String> {
    // `<addr> ingest <channel> <file>` is the longest call.
    let pos = positionals("call", CALL_FLAGS, 4, args)?;
    let (addr, verb, rest) = match pos.as_slice() {
        [addr, verb, rest @ ..] => (*addr, *verb, rest),
        _ => {
            return Err("call needs <addr> and a verb \
                 (ingest|snapshot|verdict|merge|checkpoint|stats|shutdown)"
                .into())
        }
    };
    if let ("checkpoint" | "stats" | "shutdown", [extra, ..]) = (verb, rest) {
        return Err(format!("unexpected argument `{extra}` for call {verb}"));
    }
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match verb {
        "ingest" => {
            let (channel, file) = match rest {
                [channel] => (*channel, None),
                [channel, file] => (*channel, Some(*file)),
                _ => return Err("call ingest needs <channel> [<file>]".into()),
            };
            let skip: usize = parse_flag(args, "--skip", 0)?;
            let chunk: usize = parse_flag(args, "--chunk", 512)?;
            if chunk == 0 {
                return Err("--chunk must be positive".into());
            }
            let source = measurement_lines(file)?;
            // The --skip prefix is what a restarted server already
            // holds (`call stats` → total): resending from there makes
            // the resumed feed order identical to an uninterrupted one.
            let mut sent = 0u64;
            let mut last: Option<(u64, u64)> = None;
            let mut values: Vec<f64> = Vec::with_capacity(chunk);
            let mut send = |values: &mut Vec<f64>, sent: &mut u64| -> Result<(u64, u64), String> {
                let (channel_len, total, snapshots) =
                    client.ingest(channel, values).map_err(|e| e.to_string())?;
                *sent += values.len() as u64;
                values.clear();
                for snap in &snapshots {
                    print_wire_snapshot(snap);
                }
                Ok((channel_len, total))
            };
            for x in source.skip(skip) {
                values.push(x?);
                if values.len() == chunk {
                    last = Some(send(&mut values, &mut sent)?);
                }
            }
            if !values.is_empty() {
                last = Some(send(&mut values, &mut sent)?);
            }
            match last {
                Some((channel_len, total)) => println!(
                    "ingested {sent} measurements into channel {channel} \
                     (channel n={channel_len}, session total={total})"
                ),
                None => println!("ingested 0 measurements into channel {channel}"),
            }
            Ok(())
        }
        "snapshot" => {
            let [channel] = rest else {
                return Err("call snapshot needs <channel>".into());
            };
            match client.snapshot(channel).map_err(|e| e.to_string())? {
                Some(snap) => print_wire_snapshot(&snap),
                None => println!("no snapshot yet for channel {channel}"),
            }
            Ok(())
        }
        "verdict" => {
            if !rest.is_empty() {
                return Err("call verdict takes flags only (--p, --channel)".into());
            }
            let p: f64 = parse_flag(args, "--p", 1e-12)?;
            let channel = flag_value(args, "--channel")?;
            let response = client.verdict(p, channel).map_err(|e| e.to_string())?;
            let Response::Verdicts {
                p,
                channels,
                envelope,
            } = response
            else {
                return Err("unexpected response shape".into());
            };
            for (name, outcome) in &channels {
                match outcome {
                    Ok(v) => {
                        // The raw budget bits ride along so the CI
                        // drills can diff for *bit* identity, not just
                        // identical rounding.
                        let budget = v.budget_for(p).unwrap_or(f64::NAN);
                        println!(
                            "channel {name} n={} pwcet@{p:e}={budget:.0} \
                             bits=0x{:016x} hwm={:.0} iid={}",
                            v.provenance.n,
                            budget.to_bits(),
                            v.high_watermark(),
                            v.iid.label(),
                        );
                    }
                    Err(e) => println!("channel {name} FAILED: {e}"),
                }
            }
            match envelope {
                Ok((worst, budget)) => println!(
                    "envelope pwcet@{p:e}={budget:.0} bits=0x{:016x} (worst channel: {worst})",
                    budget.to_bits(),
                ),
                Err(e) => println!("envelope UNAVAILABLE: {e}"),
            }
            Ok(())
        }
        "merge" => {
            let [channel, blob_file] = rest else {
                return Err("call merge needs <channel> <blob-file>".into());
            };
            let blob =
                std::fs::read(blob_file).map_err(|e| format!("cannot open {blob_file}: {e}"))?;
            let (channel_len, total) = client.merge(channel, &blob).map_err(|e| e.to_string())?;
            println!(
                "merged {blob_file} into channel {channel} \
                 (channel n={channel_len}, session total={total})"
            );
            Ok(())
        }
        "checkpoint" => {
            let bytes = client.checkpoint().map_err(|e| e.to_string())?;
            println!("checkpoint written ({bytes} bytes)");
            Ok(())
        }
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            // One `name=value` per line: the CI smoke job greps these
            // (`grep '^total=' | cut -d= -f2`).
            println!("total={}", s.total);
            println!("channels={}", s.channels);
            println!("connections={}", s.connections);
            println!("frames_ingest={}", s.frames_ingest);
            println!("frames_snapshot={}", s.frames_snapshot);
            println!("frames_verdict={}", s.frames_verdict);
            println!("frames_merge={}", s.frames_merge);
            println!("frames_admin={}", s.frames_admin);
            println!("protocol_errors={}", s.protocol_errors);
            println!("cache_hits={}", s.cache_hits);
            println!("cache_misses={}", s.cache_misses);
            println!("checkpoints_written={}", s.checkpoints_written);
            println!("last_checkpoint_bytes={}", s.last_checkpoint_bytes);
            println!("since_checkpoint={}", s.since_checkpoint);
            println!("busy_rejections={}", s.busy_rejections);
            println!("workers={}", s.workers);
            for (i, shard) in s.shards.iter().enumerate() {
                println!(
                    "shard{i}: channels={} total={} cache_hits={} cache_misses={}",
                    shard.channels, shard.total, shard.cache_hits, shard.cache_misses
                );
            }
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server shutting down");
            Ok(())
        }
        other => Err(format!("unknown call verb `{other}`")),
    }
}

/// `mbpta shard`: fold a measurement campaign into a sealed federated
/// state blob for `call merge` — the shard ships folded analyzer state,
/// never raw measurements.
fn shard_cmd(args: &[String]) -> Result<(), String> {
    let file = positionals("shard", SHARD_FLAGS, 1, args)?.first().copied();
    let out = flag_value(args, "--out")?.ok_or("shard needs --out <blob>")?;
    let shards: usize = parse_flag(args, "--shards", 1)?;
    let target_p: f64 = parse_flag(args, "--target-p", 1e-12)?;
    let block: usize = parse_flag(args, "--block", 50)?;
    let simulate = args.iter().any(|a| a == "--simulate");
    if !simulate {
        for flag in ["--runs", "--seed", "--path"] {
            if args.iter().any(|a| a == flag) {
                return Err(format!("{flag} requires --simulate"));
            }
        }
    }
    let stream = StreamConfig {
        block_size: block,
        target_p,
        ..StreamConfig::default()
    };
    let mut config = FederatedConfig::new(stream, shards);
    let sim = if simulate {
        no_file_beside_simulation(file)?;
        let sim = SimSource::from_args(args, 3000)?;
        // A known campaign volume balances the shards; the folded state
        // is bit-identical at every shard count regardless.
        config = config.balanced_for(sim.runs);
        Some(sim)
    } else {
        None
    };
    // The engine ingests without reading shard snapshots, so a shard
    // refit's bootstrap CI is computed only if the blob stores it.
    let mut engine = FederatedEngine::new(config).map_err(|e| e.to_string())?;
    match sim {
        Some(sim) => {
            eprintln!(
                "sharding {} simulated runs of TVCA path `{}` over {shards} shard(s) (seed {})",
                sim.runs, sim.mode, sim.seed
            );
            // `CampaignRunner::run` refuses an empty campaign; an empty
            // simulated feed gets the same error as an empty file below.
            if sim.runs > 0 {
                let campaign = CampaignRunner::new(PlatformConfig::mbpta_compliant())
                    .run(sim.trace, sim.runs, sim.seed)
                    .map_err(|e| e.to_string())?;
                engine
                    .push_batch(campaign.times())
                    .map_err(|e| e.to_string())?;
            }
        }
        None => {
            let mut chunk: Vec<f64> = Vec::with_capacity(FEED_CHUNK);
            for x in measurement_lines(file)? {
                chunk.push(x?);
                if chunk.len() == FEED_CHUNK {
                    engine.push_batch(&chunk).map_err(|e| e.to_string())?;
                    chunk.clear();
                }
            }
            if !chunk.is_empty() {
                engine.push_batch(&chunk).map_err(|e| e.to_string())?;
            }
        }
    }
    let fed = engine.analyzer();
    if fed.is_empty() {
        return Err("shard feed contained no measurements".into());
    }
    let blob = save_federated(fed);
    std::fs::write(out, &blob).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote sealed federated blob: {} measurements over {shards} shard(s), {} bytes -> {out}",
        fed.len(),
        blob.len(),
    );
    Ok(())
}
