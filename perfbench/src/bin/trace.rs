//! Traced run: replays each workload's seeded input in process and times
//! every call into a layer's public functions, then reports per-layer
//! metrics. Separate from the end-to-end harness, which runs untraced.
//!
//! ```text
//! perfbench-trace --workload <long_channel|serve_fleet|sim_paths> --seed <n>
//!                 --seconds <s> --mbpta <path> --work <dir>
//! ```
//!
//! Real program boundaries are timed directly: tagged-line parsing
//! (`ByteLines`), `AnalysisSession::{push_batch, merge, checkpoint,
//! restore}`, `CampaignRunner::run_many`, `ServeClient` calls against a
//! live `mbpta serve`, the `Request`/`Response` codec, and the STATS
//! counters. The analyzer's inner steps (`Sketch::insert_batch`,
//! `IidMonitor::{push_batch, health}`, and at each refit `fit_gumbel` and
//! `interval_from_maxima`) are replayed as a model next to the real
//! `session.push` spans; `analyzer.model_residual_s` is the real push
//! time minus the modelled steps. A residual that turns clearly negative
//! means the analyzer stopped doing what the model replays.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::proc::{Server, Watchdog};
use perfbench::{
    digest_fleet, fleet, fleet_frames, host_probe_ms, long_channel_values, quantile, tagged_file,
    Args, Digest, Metric, Ops, Rig, WorkDir, BLOCK, EVERY, FLEET_CHECKPOINT_EVERY,
    FLEET_ENVELOPE_EVERY, FLEET_WORKERS, LONG_CHANNEL, POOL, SIM_JOBS, SIM_RUNS, TARGET_P,
};
use proxima_mbpta::confidence::interval_from_maxima;
use proxima_mbpta::persist::fnv1a;
use proxima_mbpta::session::{AnalysisSession, SessionSnapshot, Tagged};
use proxima_mbpta::{BlockSpec, CampaignRunner, MbptaConfig, Pwcet};
use proxima_prng::SplitMix64;
use proxima_serve::{Request, Response, ServeClient};
use proxima_sim::{Inst, PlatformConfig};
use proxima_stats::evt::fit_gumbel;
use proxima_stream::replay::ByteLines;
use proxima_stream::{IidMonitor, SessionStreamExt, Sketch, StreamConfig, StreamFactory};
use proxima_workload::tvca::{ControlMode, Tvca, TvcaConfig};

/// The `per_layer` metrics of `BENCHMARK.json`, with units. Every
/// workload reports all of them; a layer a workload does not reach
/// reads 0.
const LAYER_METRICS: [(&str, &str); 43] = [
    ("replay.parse_s", "s"),
    ("replay.bytes", "bytes"),
    ("sketch.insert_s", "s"),
    ("sketch.maintenance_ops", "count"),
    ("monitor.push_s", "s"),
    ("monitor.health_s", "s"),
    ("monitor.health_calls", "count"),
    ("evt.fit_s", "s"),
    ("evt.fit_calls", "count"),
    ("evt.fit_maxima", "count"),
    ("confidence.bootstrap_s", "s"),
    ("confidence.bootstrap_calls", "count"),
    ("confidence.resampled_maxima", "count"),
    ("confidence.consumed_frac", "frac"),
    ("session.push_s", "s"),
    ("session.finalize_s", "s"),
    ("analyzer.model_residual_s", "s"),
    ("persist.encode_s", "s"),
    ("persist.restore_s", "s"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.checkpoints", "count"),
    ("frame.encode_s", "s"),
    ("frame.decode_s", "s"),
    ("frame.bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.hit_p50_ms", "ms"),
    ("client.ingest_p50_ms", "ms"),
    ("client.ingest_p90_ms", "ms"),
    ("client.verdict_p50_ms", "ms"),
    ("client.verdict_p90_ms", "ms"),
    ("client.envelope_p50_ms", "ms"),
    ("serve.wire_s", "s"),
    ("shard.skew", "ratio"),
    ("serve.protocol_errors", "count"),
    ("serve.busy_rejections", "count"),
    ("campaign.run_many_s", "s"),
    ("campaign.runs", "count"),
    ("campaign.insts", "count"),
    ("sim.trace_build_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.passes", "count"),
];

/// How many measurements the CLI hands `push_batch` at once from a file.
const FEED_CHUNK: usize = 4096;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Span recorder.
// ---------------------------------------------------------------------------

/// One timed call: name, start and end (ns since the tracer's origin),
/// the enclosing span, and the request it served.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Records spans and counts in memory; written out once at exit. When
/// disabled it only runs the calls, for the untraced comparison pass.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` for `request`.
    fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn add(&mut self, counter: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(counter).or_insert(0.0) += by;
        }
    }

    fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Summed duration of every span named `name`, seconds.
    fn total(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Self time per span name: duration minus the time direct children
    /// cover (children of one span never overlap: the tracer is
    /// single-threaded).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64 / 1e9;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Write every span as one JSON line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

// ---------------------------------------------------------------------------
// The analyzer model: the steps one channel's StreamAnalyzer takes, replayed
// through the same public layer functions with the analyzer's own defaults.
// ---------------------------------------------------------------------------

struct ChannelModel {
    config: StreamConfig,
    sketch: Sketch,
    monitor: IidMonitor,
    maxima: Vec<f64>,
    block_max: f64,
    block_len: usize,
    blocks_since_refit: usize,
    refits: u64,
    last_refit_blocks: Option<usize>,
    last_budget: Option<f64>,
}

impl ChannelModel {
    fn new(config: &StreamConfig) -> Result<ChannelModel, String> {
        Ok(ChannelModel {
            config: config.clone(),
            sketch: Sketch::new(config.sketch, config.sketch_epsilon).map_err(|e| e.to_string())?,
            monitor: IidMonitor::new(config.monitor_window, config.alpha),
            maxima: Vec::new(),
            block_max: f64::NEG_INFINITY,
            block_len: 0,
            blocks_since_refit: 0,
            refits: 0,
            last_refit_blocks: None,
            last_budget: None,
        })
    }

    fn until_refit(&self) -> usize {
        let c = &self.config;
        let k = c
            .min_blocks
            .saturating_sub(self.maxima.len())
            .max(c.refit_every_blocks.saturating_sub(self.blocks_since_refit))
            .max(1);
        (k - 1) * c.block_size + (c.block_size - self.block_len)
    }

    fn push(&mut self, xs: &[f64], t: &mut Tracer, request: u64) {
        let mut i = 0;
        while i < xs.len() {
            let to_refit = self.until_refit();
            let chunk = &xs[i..(i + to_refit).min(xs.len())];
            i += chunk.len();
            t.span("sketch.insert", request, |_| {
                self.sketch.insert_batch(chunk)
            });
            t.span("monitor.push", request, |_| self.monitor.push_batch(chunk));
            for &x in chunk {
                self.block_max = self.block_max.max(x);
                self.block_len += 1;
                if self.block_len == self.config.block_size {
                    self.maxima.push(self.block_max);
                    self.block_max = f64::NEG_INFINITY;
                    self.block_len = 0;
                    self.blocks_since_refit += 1;
                }
            }
            if chunk.len() == to_refit {
                self.blocks_since_refit = 0;
                self.refit(t, request);
            }
        }
    }

    fn refit(&mut self, t: &mut Tracer, request: u64) {
        let first = self.maxima[0];
        if self.maxima.iter().all(|m| m.to_bits() == first.to_bits()) {
            return;
        }
        let maxima = &self.maxima;
        let fit = t.span("evt.fit", request, |_| fit_gumbel(maxima));
        t.add("evt.fit_calls", 1.0);
        t.add("evt.fit_maxima", maxima.len() as f64);
        let Ok(gumbel) = fit else { return };
        let Ok(budget) =
            Pwcet::new(gumbel, self.config.block_size).budget_for(self.config.target_p)
        else {
            return;
        };
        if let Some(spec) = self.config.bootstrap {
            let seed = SplitMix64::stream_seed(spec.seed, self.refits);
            let block = self.config.block_size;
            let p = self.config.target_p;
            t.span("confidence.bootstrap", request, |_| {
                interval_from_maxima(
                    maxima,
                    block,
                    budget,
                    p,
                    spec.level,
                    spec.resamples,
                    seed,
                    1,
                )
            })
            .ok();
            t.add("confidence.bootstrap_calls", 1.0);
            t.add(
                "confidence.resampled_maxima",
                (spec.resamples * maxima.len()) as f64,
            );
        }
        self.refits += 1;
        let monitor = &self.monitor;
        t.span("monitor.health", request, |_| monitor.health());
        t.add("monitor.health_calls", 1.0);
        self.last_refit_blocks = Some(self.maxima.len());
        self.last_budget = Some(budget);
    }

    /// Whether finalizing now refits (and so bootstraps) once more.
    fn finish_refits(&self) -> bool {
        self.maxima.len() >= self.config.min_blocks
            && self.last_refit_blocks != Some(self.maxima.len())
    }

    /// The budget the final verdict reports: the last refit's when the
    /// channel ended on one, else a fresh fit (counted, not timed).
    fn final_budget(&self) -> Option<f64> {
        if !self.finish_refits() {
            return self.last_budget;
        }
        let gumbel = fit_gumbel(&self.maxima).ok()?;
        Pwcet::new(gumbel, self.config.block_size)
            .budget_for(self.config.target_p)
            .ok()
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: BLOCK,
        target_p: TARGET_P,
        ..StreamConfig::default()
    }
}

/// A session as `mbpta session` (snapshot cadence on) or a serve worker
/// (`snapshot_every(0)`) builds it.
fn new_session(every: usize, jobs: usize) -> Result<AnalysisSession<StreamFactory>, String> {
    MbptaConfig {
        block: BlockSpec::Fixed(BLOCK),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(every)
    .checkpoint_every(0)
    .target_p(TARGET_P)
    .jobs(jobs)
    .build_stream_with(stream_config())
    .map_err(|e| e.to_string())
}

/// Distinct `(channel, blocks)` estimates with a CI that reached a caller.
#[derive(Default)]
struct Delivered(std::collections::BTreeSet<(String, usize)>);

impl Delivered {
    fn note(&mut self, snaps: &[SessionSnapshot]) {
        for s in snaps {
            if s.estimate.ci.is_some() {
                self.0.insert((
                    s.channel.as_str().to_string(),
                    s.estimate.blocks.unwrap_or(0),
                ));
            }
        }
    }
}

/// What one pass of a workload leaves behind for the report.
struct Pass {
    wall: f64,
    notes: Vec<(String, String)>,
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let work = WorkDir::create(&args.work, &format!("trace-{}", args.workload))
        .map_err(|e| format!("cannot create the work directory: {e}"))?;
    let probe_before = host_probe_ms();
    let mut ops = Ops::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut traced = Tracer::new(true);
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut notes = Vec::new();
    let mut passes = 0u32;
    while passes == 0 || Instant::now() < deadline {
        passes += 1;
        let mut off = Tracer::new(false);
        let input = (passes as usize - 1) % POOL;
        let pass = |t: &mut Tracer, ops: &mut Ops| match args.workload.as_str() {
            "long_channel" => long_channel(&args, input, t, ops),
            "serve_fleet" => serve_fleet(&args, input, work.path(), t, ops),
            _ => sim_paths(&args, t, ops),
        };
        // Alternate which runs first, so warm-up favours neither side.
        let untraced_first = passes % 2 == 1;
        if untraced_first {
            untraced_walls.push(pass(&mut off, &mut ops)?.wall);
        }
        let p = pass(&mut traced, &mut ops)?;
        traced_walls.push(p.wall);
        notes = p.notes;
        if !untraced_first {
            untraced_walls.push(pass(&mut off, &mut ops)?.wall);
        }
    }
    let probe_after = host_probe_ms();

    let per_pass = f64::from(passes);
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    for (name, unit) in LAYER_METRICS {
        let value = layer_value(&traced, name, per_pass);
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        metrics.insert(
            name.to_string(),
            Metric::new(
                value + 0.0,
                unit,
                passes as usize,
                format!("mean over {passes} traced passes"),
            ),
        );
    }
    let overhead = traced_walls.iter().sum::<f64>() / untraced_walls.iter().sum::<f64>() - 1.0;
    metrics.insert(
        "trace.overhead_frac".into(),
        Metric::new(
            overhead,
            "frac",
            passes as usize,
            "traced wall / untraced wall - 1",
        ),
    );
    metrics.insert(
        "trace.passes".into(),
        Metric::new(per_pass, "count", 1, "traced passes in this run"),
    );

    let spans_path = args
        .work
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    traced
        .write(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let mut diagnostics = notes;
    let mut selfs: Vec<(&str, f64)> = traced.self_times().into_iter().collect();
    // A session push span's self time is the residual the model leaves.
    if let Some(push) = selfs.iter_mut().find(|(n, _)| *n == "session.push") {
        push.1 = traced.count("analyzer.model_residual");
    }
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let table: Vec<String> = selfs
        .iter()
        .take(8)
        .map(|(n, s)| format!("{n}={:.4}", s / per_pass))
        .collect();
    diagnostics.push((
        "self_time_s_per_pass".into(),
        format!(
            "{} (largest first; session.push is its model residual)",
            table.join(" ")
        ),
    ));
    diagnostics.push((
        "spans".into(),
        format!("{} in {}", traced.spans.len(), spans_path.display()),
    ));
    diagnostics.push((
        "host_probe_ms".into(),
        format!("{probe_before:.3} before, {probe_after:.3} after (fixed CPU loop)"),
    ));
    let header = format!(
        "perfbench-trace workload={} seed={} seconds={} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let keep: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    perfbench::emit(&header, &ops, &metrics, &keep, &diagnostics)
}

/// A per-layer metric from the traced passes, per pass.
fn layer_value(t: &Tracer, name: &str, passes: f64) -> f64 {
    let ms = |span: &str, q: f64| quantile(&t.durations_ms(span), q).unwrap_or(0.0);
    match name {
        "cache.hit_p50_ms" => ms("client.verdict_hit", 0.5),
        "client.ingest_p50_ms" => ms("client.ingest", 0.5),
        "client.ingest_p90_ms" => ms("client.ingest", 0.9),
        "client.verdict_p50_ms" => ms("client.verdict", 0.5),
        "client.verdict_p90_ms" => ms("client.verdict", 0.9),
        "client.envelope_p50_ms" => ms("client.envelope", 0.5),
        "cache.hit_ratio" => {
            let (h, m) = (t.count("cache.hits"), t.count("cache.misses"));
            if h + m > 0.0 {
                h / (h + m)
            } else {
                0.0
            }
        }
        "confidence.consumed_frac" => {
            let refits = t.count("confidence.bootstrap_calls") + t.count("finalize.refits");
            if refits > 0.0 {
                t.count("confidence.delivered") / refits
            } else {
                0.0
            }
        }
        "shard.skew" => t.count("shard.skew") / passes,
        "analyzer.model_residual_s" => t.count("analyzer.model_residual") / passes,
        "serve.wire_s" => t.count("serve.wire") / passes,
        _ => match name.strip_suffix("_s") {
            Some(span) => t.total(span) / passes,
            None => t.count(name) / passes,
        },
    }
}

/// The analyzer steps the model replays, as span names.
const MODEL_STEPS: [&str; 5] = [
    "sketch.insert",
    "monitor.push",
    "monitor.health",
    "evt.fit",
    "confidence.bootstrap",
];

/// Real `session.push` time and modelled step time recorded so far.
fn model_snapshot(t: &Tracer) -> (f64, f64) {
    (
        t.total("session.push"),
        MODEL_STEPS.iter().map(|s| t.total(s)).sum(),
    )
}

/// Record the model residual of a pass: the real `session.push` time
/// since `before` minus the modelled analyzer steps since `before`.
fn note_residual(t: &mut Tracer, before: (f64, f64)) {
    let (push, model) = model_snapshot(t);
    t.add(
        "analyzer.model_residual",
        (push - before.0) - (model - before.1),
    );
}

fn check_budget(ops: &mut Ops, channel: &str, model: Option<f64>, real: Result<f64, String>) {
    ops.record(match (model, real) {
        (Some(m), Ok(r)) if m.to_bits() == r.to_bits() => Ok(()),
        (m, r) => Err(format!(
            "model budget {m:?} differs from the verdict's {r:?} for {channel}"
        )),
    });
}

// ---------------------------------------------------------------------------
// long_channel
// ---------------------------------------------------------------------------

fn long_channel(args: &Args, input: usize, t: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
    let values = long_channel_values(args.seed, input);
    let text = tagged_file(LONG_CHANNEL, &values);
    let before = model_snapshot(t);
    let start = Instant::now();
    let parsed: Vec<f64> = t.span("replay.parse", 0, |_| {
        let mut lines = ByteLines::new(text.as_bytes());
        let mut out = Vec::with_capacity(values.len());
        while let Ok(Some(line)) = lines.next_line(|_, bytes| {
            std::str::from_utf8(bytes)
                .ok()
                .and_then(|s| s.trim().parse::<Tagged>().ok())
                .map(|tagged| tagged.time)
        }) {
            out.extend(line);
        }
        out
    });
    t.add("replay.bytes", text.len() as f64);
    let mut session = new_session(EVERY, 0)?;
    let mut delivered = Delivered::default();
    for (i, chunk) in parsed.chunks(FEED_CHUNK).enumerate() {
        let snaps = t.span("session.push", i as u64, |_| {
            session.push_batch(LONG_CHANNEL, chunk)
        });
        delivered.note(&snaps.map_err(|e| e.to_string())?);
    }
    let verdict = t.span("session.finalize", 0, |_| session.merge());
    let wall = start.elapsed().as_secs_f64();
    ops.record(if parsed.len() == values.len() {
        Ok(())
    } else {
        Err(format!("parsed {} of {} lines", parsed.len(), values.len()))
    });
    if t.enabled {
        let mut model = ChannelModel::new(&stream_config())?;
        t.span("analyzer.model", 0, |t| {
            for (i, chunk) in parsed.chunks(FEED_CHUNK).enumerate() {
                model.push(chunk, t, i as u64);
            }
        });
        note_residual(t, before);
        t.add(
            "finalize.refits",
            f64::from(u8::from(model.finish_refits())),
        );
        t.add("confidence.delivered", delivered.0.len() as f64);
        t.add(
            "sketch.maintenance_ops",
            model.sketch.maintenance_ops() as f64,
        );
        let real = match verdict.verdict(LONG_CHANNEL) {
            Some(Ok(v)) => v.budget_for(TARGET_P).map_err(|e| e.to_string()),
            other => Err(format!("no verdict: {other:?}")),
        };
        check_budget(ops, LONG_CHANNEL, model.final_budget(), real);
    }
    let mut digest = Digest::default();
    digest.update(text.as_bytes());
    Ok(Pass {
        wall,
        notes: vec![(
            "input_digest".into(),
            format!("fnv1a64:{} (input {input} of the pool)", digest.hex()),
        )],
    })
}

// ---------------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------------

/// Everything the round sent and received, for the codec replay.
struct Exchange {
    request: Request,
    response: Response,
}

fn serve_fleet(
    args: &Args,
    input: usize,
    dir: &Path,
    t: &mut Tracer,
    ops: &mut Ops,
) -> Result<Pass, String> {
    let rigs = fleet(args.seed, input);
    let checkpoint = dir.join("fleet.ck");
    let mut cmd = Command::new(&args.mbpta);
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(FLEET_WORKERS.to_string())
        .arg("--checkpoint")
        .arg(&checkpoint)
        .arg("--checkpoint-every")
        .arg(FLEET_CHECKPOINT_EVERY.to_string());
    let (server, _) = Server::spawn(&mut cmd, Duration::from_secs(30))
        .map_err(|e| format!("serve did not start: {e}"))?;
    let watchdog = Watchdog::arm(server.pid(), Duration::from_secs(120));

    let client0 = client_time(t);
    let start = Instant::now();
    let round = fleet_round(&server, &rigs, t, ops);
    drop(watchdog);
    let (exchanges, stats) = round?;
    server
        .finish(Duration::from_secs(30))
        .map_err(|e| format!("serve: {e}"))?;
    let client_wall = start.elapsed().as_secs_f64();
    let client_calls = client_time(t) - client0;

    // The analysis the server did, replayed in process on the same
    // worker partition (FNV-1a of the channel mod the worker count).
    let replay_start = Instant::now();
    let before = model_snapshot(t);
    let analysis0 = analysis_time(t);
    let replay = replay_fleet(&rigs, t)?;
    let analysis = analysis_time(t) - analysis0;
    let wall = client_wall + replay_start.elapsed().as_secs_f64();

    if t.enabled {
        t.add("serve.wire", client_calls - analysis);
        // Codec: re-encode every request and decode every response of
        // the round, the work the client and server did per frame.
        for (i, ex) in exchanges.iter().enumerate() {
            let bytes = t.span("frame.encode", i as u64, |_| ex.request.encode());
            t.add("frame.bytes", bytes.len() as f64);
            let payload = ex.response.encode();
            t.add("frame.bytes", payload.len() as f64);
            let decoded = t.span("frame.decode", i as u64, |_| Response::decode(&payload));
            ops.record(match decoded {
                Ok(r) if r.encode() == payload => Ok(()),
                Ok(_) => Err("a decoded response re-encodes to other bytes".into()),
                Err(e) => Err(format!("codec: {e}")),
            });
        }
        let model = t.span("analyzer.model", 0, |t| model_fleet(&rigs, t));
        note_residual(t, before);
        t.add("cache.hits", stats.cache_hits as f64);
        t.add("cache.misses", stats.cache_misses as f64);
        t.add("serve.protocol_errors", stats.protocol_errors as f64);
        t.add("serve.busy_rejections", stats.busy_rejections as f64);
        t.add("persist.checkpoints", stats.checkpoints_written as f64);
        let totals: Vec<f64> = stats.shards.iter().map(|s| s.total as f64).collect();
        let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
        let max = totals.iter().copied().fold(0.0, f64::max);
        t.add("shard.skew", if mean > 0.0 { max / mean } else { 0.0 });
        // CIs that reached the observer: distinct estimates in the
        // SNAPSHOT and INGEST replies that carry one.
        let mut delivered = std::collections::BTreeSet::new();
        for ex in &exchanges {
            let snaps = match &ex.response {
                Response::Snapshot { latest } => latest.iter().collect::<Vec<_>>(),
                Response::Ingested { snapshots, .. } => snapshots.iter().collect(),
                _ => Vec::new(),
            };
            for snap in snaps.into_iter().filter(|s| s.estimate.ci.is_some()) {
                delivered.insert((snap.channel.clone(), snap.estimate.blocks));
            }
        }
        t.add("confidence.delivered", delivered.len() as f64);
        let model = model?;
        t.add("finalize.refits", model.finalize_refits as f64);
        t.add("sketch.maintenance_ops", model.maintenance_ops as f64);
        for (rig, budget) in rigs.iter().zip(&model.budgets) {
            let real = replay
                .budgets
                .get(&rig.name)
                .cloned()
                .unwrap_or_else(|| Err("no replayed verdict".into()));
            check_budget(ops, &rig.name, *budget, real);
        }
    }
    ops.record(if stats.total == replay.total {
        Ok(())
    } else {
        Err(format!(
            "server total {} differs from the replay's {}",
            stats.total, replay.total
        ))
    });
    Ok(Pass {
        wall,
        notes: vec![
            ("input_digest".into(), {
                let mut d = Digest::default();
                digest_fleet(&mut d, &rigs);
                format!("fnv1a64:{} (input {input} of the pool)", d.hex())
            }),
            (
                "replayed_analysis_s".into(),
                format!("{analysis:.4} s of {client_calls:.4} s in client calls (last pass)"),
            ),
        ],
    })
}

/// Time spent in `ServeClient` calls so far.
fn client_time(t: &Tracer) -> f64 {
    [
        "client.ingest",
        "client.verdict",
        "client.verdict_hit",
        "client.snapshot",
        "client.envelope",
        "client.stats",
    ]
    .iter()
    .map(|s| t.total(s))
    .sum()
}

/// Replayed analysis time so far: what the server's workers did.
fn analysis_time(t: &Tracer) -> f64 {
    ["session.push", "session.finalize", "persist.encode"]
        .iter()
        .map(|s| t.total(s))
        .sum()
}

/// The producer/observer round of the end-to-end workload, each client
/// call in a span; returns every exchange and the final STATS.
fn fleet_round(
    server: &Server,
    rigs: &[Rig],
    t: &mut Tracer,
    ops: &mut Ops,
) -> Result<(Vec<Exchange>, proxima_serve::ServerStats), String> {
    let connect = || ServeClient::connect(server.addr).map_err(|e| format!("connect: {e}"));
    let mut producer = connect()?;
    let mut observer = connect()?;
    let mut exchanges = Vec::new();
    let mut call = |t: &mut Tracer,
                    client: &mut ServeClient,
                    name: &'static str,
                    i: usize,
                    request: Request,
                    ops: &mut Ops| {
        let response = t.span(name, i as u64, |_| client.call(&request));
        ops.record(match &response {
            Ok(Response::Error { message }) => Err(format!("{name}: {message}")),
            Ok(Response::Busy { .. }) => Err(format!("{name}: BUSY")),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("{name}: {e}")),
        });
        if let Ok(response) = response {
            exchanges.push(Exchange { request, response });
        }
    };
    for (i, (r, range)) in fleet_frames().into_iter().enumerate() {
        let rig = &rigs[r];
        let ingest = Request::Ingest {
            channel: rig.name.clone(),
            values: rig.values[range].to_vec(),
        };
        call(t, &mut producer, "client.ingest", i, ingest, ops);
        let verdict = Request::Verdict {
            p: TARGET_P,
            channel: Some(rig.name.clone()),
        };
        call(t, &mut observer, "client.verdict", i, verdict.clone(), ops);
        call(t, &mut observer, "client.verdict_hit", i, verdict, ops);
        let snapshot = Request::Snapshot {
            channel: rig.name.clone(),
        };
        call(t, &mut observer, "client.snapshot", i, snapshot, ops);
        if (i + 1) % FLEET_ENVELOPE_EVERY == 0 {
            let all = Request::Verdict {
                p: TARGET_P,
                channel: None,
            };
            call(t, &mut observer, "client.envelope", i, all, ops);
        }
    }
    let stats = t
        .span("client.stats", 0, |_| observer.stats())
        .map_err(|e| format!("STATS: {e}"))?;
    drop(producer);
    observer.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
    Ok((exchanges, stats))
}

struct FleetReplay {
    total: u64,
    budgets: BTreeMap<String, Result<f64, String>>,
}

/// Replay the server's analysis: per-worker sessions with the scheduler
/// off, one `push_batch` per INGEST frame, a clone-and-merge per
/// channel VERDICT miss and per changed worker on an all-channel
/// VERDICT, checkpoints at the server's cadence and at SHUTDOWN, and a
/// restore of the final checkpoint.
fn replay_fleet(rigs: &[Rig], t: &mut Tracer) -> Result<FleetReplay, String> {
    let mut workers: Vec<AnalysisSession<StreamFactory>> = (0..FLEET_WORKERS)
        .map(|_| new_session(0, 0))
        .collect::<Result<_, _>>()?;
    let owner = |name: &str| (fnv1a(name.as_bytes()) % FLEET_WORKERS as u64) as usize;
    let mut since_checkpoint = 0usize;
    let mut partial_at = [usize::MAX; FLEET_WORKERS];
    let checkpoint = |t: &mut Tracer, workers: &[AnalysisSession<StreamFactory>]| {
        workers
            .iter()
            .enumerate()
            .map(|(w, session)| {
                t.span("persist.encode", w as u64, |_| session.checkpoint())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<Vec<u8>>, String>>()
    };
    for (i, (r, range)) in fleet_frames().into_iter().enumerate() {
        let rig = &rigs[r];
        let w = owner(&rig.name);
        let values = &rig.values[range];
        t.span("session.push", i as u64, |_| {
            workers[w].push_batch(rig.name.as_str(), values)
        })
        .map_err(|e| e.to_string())?;
        since_checkpoint += values.len();
        if since_checkpoint >= FLEET_CHECKPOINT_EVERY {
            checkpoint(t, &workers)?;
            since_checkpoint = 0;
        }
        let session = &workers[w];
        t.span("session.finalize", i as u64, |_| session.clone().merge());
        if (i + 1) % FLEET_ENVELOPE_EVERY == 0 {
            for (w, session) in workers.iter().enumerate() {
                if partial_at[w] != session.len() {
                    partial_at[w] = session.len();
                    t.span("session.finalize", i as u64, |_| session.clone().merge());
                }
            }
        }
    }
    // SHUTDOWN writes a final checkpoint; a restart restores it.
    let blobs = checkpoint(t, &workers)?;
    t.add(
        "persist.checkpoint_bytes",
        blobs.iter().map(Vec::len).sum::<usize>() as f64,
    );
    for (w, blob) in blobs.iter().enumerate() {
        let factory = StreamFactory::new(stream_config()).map_err(|e| e.to_string())?;
        t.span("persist.restore", w as u64, |_| {
            AnalysisSession::restore(factory, blob, 0)
        })
        .map_err(|e| e.to_string())?;
    }
    let total = workers.iter().map(|s| s.len() as u64).sum();
    let mut budgets = BTreeMap::new();
    for session in workers {
        for cv in session.merge().channels() {
            budgets.insert(
                cv.channel.as_str().to_string(),
                cv.outcome
                    .as_ref()
                    .map_err(|e| e.to_string())
                    .and_then(|v| v.budget_for(TARGET_P).map_err(|e| e.to_string())),
            );
        }
    }
    Ok(FleetReplay { total, budgets })
}

struct FleetModel {
    budgets: Vec<Option<f64>>,
    finalize_refits: u64,
    maintenance_ops: u64,
}

/// The analyzer model over the fleet feed, per channel, with the refits
/// each finalize on a VERDICT miss would add counted.
fn model_fleet(rigs: &[Rig], t: &mut Tracer) -> Result<FleetModel, String> {
    let config = stream_config();
    let mut models: Vec<ChannelModel> = rigs
        .iter()
        .map(|_| ChannelModel::new(&config))
        .collect::<Result<_, _>>()?;
    let owner = |name: &str| (fnv1a(name.as_bytes()) % FLEET_WORKERS as u64) as usize;
    let mut finalize_refits = 0u64;
    for (i, (r, range)) in fleet_frames().into_iter().enumerate() {
        models[r].push(&rigs[r].values[range], t, i as u64);
        let w = owner(&rigs[r].name);
        finalize_refits += rigs
            .iter()
            .zip(&models)
            .filter(|(rig, m)| owner(&rig.name) == w && m.finish_refits())
            .count() as u64;
    }
    Ok(FleetModel {
        budgets: models.iter().map(ChannelModel::final_budget).collect(),
        finalize_refits,
        maintenance_ops: models.iter().map(|m| m.sketch.maintenance_ops()).sum(),
    })
}

// ---------------------------------------------------------------------------
// sim_paths
// ---------------------------------------------------------------------------

const TVCA_PATHS: [(&str, ControlMode); 4] = [
    ("nominal", ControlMode::Nominal),
    ("saturated-x", ControlMode::SaturatedX),
    ("saturated-y", ControlMode::SaturatedY),
    ("fault-recovery", ControlMode::FaultRecovery),
];

fn sim_paths(args: &Args, t: &mut Tracer, ops: &mut Ops) -> Result<Pass, String> {
    let before = model_snapshot(t);
    let start = Instant::now();
    let traces: Vec<Vec<Inst>> = t.span("sim.trace_build", 0, |_| {
        let tvca = Tvca::new(TvcaConfig::default());
        TVCA_PATHS.iter().map(|(_, m)| tvca.trace(*m)).collect()
    });
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(SIM_JOBS);
    let campaigns = t
        .span("campaign.run_many", 0, |_| {
            runner.run_many(&traces, SIM_RUNS, args.seed)
        })
        .map_err(|e| e.to_string())?;
    t.add("campaign.runs", (TVCA_PATHS.len() * SIM_RUNS) as f64);
    t.add(
        "campaign.insts",
        (traces.iter().map(Vec::len).sum::<usize>() * SIM_RUNS) as f64,
    );
    let mut session = new_session(EVERY, SIM_JOBS)?;
    let mut delivered = Delivered::default();
    let mut request = 0u64;
    for i in 0..SIM_RUNS {
        for ((name, _), campaign) in TVCA_PATHS.iter().zip(&campaigns) {
            let x = [campaign.times()[i]];
            let snaps = t.span("session.push", request, |_| session.push_batch(*name, &x));
            delivered.note(&snaps.map_err(|e| e.to_string())?);
            request += 1;
        }
    }
    let verdict = t.span("session.finalize", 0, |_| session.merge());
    let wall = start.elapsed().as_secs_f64();
    ops.record(if verdict.all_ok() {
        Ok(())
    } else {
        Err("a TVCA path has no verdict".into())
    });
    if t.enabled {
        let config = stream_config();
        let mut models: Vec<ChannelModel> = TVCA_PATHS
            .iter()
            .map(|_| ChannelModel::new(&config))
            .collect::<Result<_, _>>()?;
        t.span("analyzer.model", 0, |t| {
            let mut request = 0u64;
            for i in 0..SIM_RUNS {
                for (model, campaign) in models.iter_mut().zip(&campaigns) {
                    model.push(&[campaign.times()[i]], t, request);
                    request += 1;
                }
            }
        });
        note_residual(t, before);
        t.add("confidence.delivered", delivered.0.len() as f64);
        for ((name, _), model) in TVCA_PATHS.iter().zip(&models) {
            t.add(
                "finalize.refits",
                f64::from(u8::from(model.finish_refits())),
            );
            t.add(
                "sketch.maintenance_ops",
                model.sketch.maintenance_ops() as f64,
            );
            let real = match verdict.verdict(name) {
                Some(Ok(v)) => v.budget_for(TARGET_P).map_err(|e| e.to_string()),
                other => Err(format!("no verdict: {other:?}")),
            };
            check_budget(ops, name, model.final_budget(), real);
        }
    }
    Ok(Pass {
        wall,
        notes: vec![(
            "input".into(),
            format!(
                "run_many of 4 TVCA paths x {SIM_RUNS} runs, seed {}, jobs {SIM_JOBS}",
                args.seed
            ),
        )],
    })
}
