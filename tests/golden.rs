//! Golden verdict corpus: the exact output of every analysis surface on
//! four fixed inputs, diffed byte for byte against `tests/golden/*.txt`.
//!
//! Each input is generated here from a fixed seed: a tied integer
//! cycle-count channel, a tie-free non-integer channel, a simulated
//! `nominal` TVCA path (`mbpta measure`) and a three-channel non-integer
//! tagged feed. Per input the corpus records the stdout (and exit code)
//! of `mbpta analyze --block 50` (once per channel), `mbpta session`,
//! `session --batch` and `session --shards 3`, then one line per library
//! verdict (batch, stream, federated) with the `to_bits` of μ, β, the
//! budget at 1e-12 and the bootstrap CI bounds.
//!
//! A change that moves any of these bytes must say which and why.
//! Regenerate with `PROXIMA_REGEN_GOLDEN=1 cargo test --test golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use proxima::prelude::*;
use rand::{Rng, SeedableRng};

const BLOCK: usize = 50;
const TARGET_P: f64 = 1e-12;

/// One corpus input: its channels, each with its measurements, and how
/// the measurement file is written.
struct Input {
    name: &'static str,
    channels: Vec<(&'static str, Vec<f64>)>,
    /// A verbatim file body (the simulated path), else `None` to write
    /// the channels as (tagged or untagged) lines.
    body: Option<Vec<u8>>,
}

fn mbpta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpta"))
}

/// Integer cycle counts `78000 + 24·K`, `K` geometric: heavily tied.
fn tied_channel(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut k = 0u32;
            while rng.gen::<f64>() >= 0.2 {
                k += 1;
            }
            78_000.0 + 24.0 * f64::from(k)
        })
        .collect()
}

/// Sums of uniforms at a non-integer scale: tie-free.
fn continuous_channel(n: usize, base: f64, scale: f64, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| base + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * scale)
        .collect()
}

/// Geometric steps of 37.5 cycles plus a uniform fraction: non-integer
/// with a long tail.
fn stepped_channel(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut k = 0u32;
            while rng.gen::<f64>() >= 0.3 {
                k += 1;
            }
            50_000.0 + 37.5 * f64::from(k) + rng.gen::<f64>()
        })
        .collect()
}

fn inputs() -> Vec<Input> {
    let measured = mbpta()
        .args([
            "measure", "--runs", "3000", "--path", "nominal", "--seed", "5",
        ])
        .output()
        .expect("spawn mbpta measure");
    assert!(measured.status.success(), "mbpta measure failed");
    let nominal: Vec<f64> = String::from_utf8(measured.stdout.clone())
        .expect("utf8")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.trim().parse().expect("a cycle count"))
        .collect();
    vec![
        Input {
            name: "tied",
            channels: vec![("campaign", tied_channel(5_000, 101))],
            body: None,
        },
        Input {
            name: "continuous",
            channels: vec![("campaign", continuous_channel(5_000, 1e5, 100.0, 102))],
            body: None,
        },
        Input {
            name: "nominal",
            channels: vec![("campaign", nominal)],
            body: Some(measured.stdout),
        },
        Input {
            name: "tagged3",
            channels: vec![
                ("alpha", continuous_channel(2_500, 2e5, 150.25, 103)),
                ("beta", stepped_channel(2_000, 104)),
                ("gamma", continuous_channel(3_000, 1.2e5, 0.75, 105)),
            ],
            body: None,
        },
    ]
}

/// The input's measurement file: the simulated body as measured, one
/// value per line for a single channel, else `<channel> <value>` lines
/// dealt round-robin (the `i`-th value of every channel that has one, in
/// channel order, then the `i + 1`-th).
fn write_feed(dir: &Path, input: &Input) -> PathBuf {
    let path = dir.join(format!("{}.txt", input.name));
    let tagged = input.channels.len() > 1;
    let body = input.body.clone().unwrap_or_else(|| {
        let mut text = String::new();
        let longest = input.channels.iter().map(|(_, v)| v.len()).max().unwrap();
        for i in 0..longest {
            for (name, values) in &input.channels {
                if let Some(x) = values.get(i) {
                    if tagged {
                        write!(text, "{name} ").unwrap();
                    }
                    writeln!(text, "{x}").unwrap();
                }
            }
        }
        text.into_bytes()
    });
    std::fs::write(&path, body).expect("write feed");
    path
}

/// Append `mbpta <args>`'s exit code and stdout to `out`.
fn record_cli(out: &mut String, args: &[&str], shown: &str) {
    let run = mbpta().args(args).output().expect("spawn mbpta");
    writeln!(
        out,
        "== mbpta {shown} (exit {}) ==",
        run.status.code().unwrap_or(-1)
    )
    .unwrap();
    out.push_str(&String::from_utf8(run.stdout).expect("utf8 stdout"));
}

fn bits(x: f64) -> String {
    format!("{:016x} ({x})", x.to_bits())
}

fn interval_bits(ci: Option<(f64, f64)>) -> String {
    match ci {
        Some((lower, upper)) => format!("ci=[{}, {}]", bits(lower), bits(upper)),
        None => "ci=-".into(),
    }
}

fn verdict_line(label: &str, pwcet: &Pwcet, budget: f64, ci: Option<(f64, f64)>) -> String {
    format!(
        "{label} mu={} beta={} budget@1e-12={} {}\n",
        bits(pwcet.tail().mu()),
        bits(pwcet.tail().beta()),
        bits(budget),
        interval_bits(ci),
    )
}

/// One line per library verdict on `times`: batch (`MbptaConfig::analyze`
/// plus `budget_interval`), stream and three-shard federated finishes.
fn record_library(out: &mut String, channel: &str, times: &[f64]) {
    let config = MbptaConfig {
        block: BlockSpec::Fixed(BLOCK),
        ..MbptaConfig::default()
    };
    let label = format!("{channel} batch");
    match config.analyze(times) {
        Ok(report) => {
            let budget = report.budget_for(TARGET_P).expect("budget");
            let ci = budget_interval(times, &report, TARGET_P, 0.95, 200, 7)
                .ok()
                .map(|ci| (ci.lower, ci.upper));
            out.push_str(&verdict_line(&label, &report.pwcet, budget, ci));
        }
        Err(e) => writeln!(out, "{label} error: {e}").unwrap(),
    }
    let stream = StreamConfig {
        block_size: BLOCK,
        target_p: TARGET_P,
        ..StreamConfig::default()
    };
    let mut analyzer = StreamAnalyzer::new(stream.clone()).expect("stream config");
    analyzer.push_batch(times).expect("clean ingest");
    let label = format!("{channel} stream");
    match analyzer.finish() {
        Ok(snap) => out.push_str(&verdict_line(
            &label,
            &snap.distribution,
            snap.pwcet,
            snap.ci.map(|ci| (ci.lower, ci.upper)),
        )),
        Err(e) => writeln!(out, "{label} error: {e}").unwrap(),
    }
    let mut federated =
        FederatedAnalyzer::new(FederatedConfig::new(stream, 3).balanced_for(times.len()))
            .expect("federated config");
    federated.push_batch(times).expect("clean ingest");
    let label = format!("{channel} federated");
    match federated.finish() {
        Ok(snap) => out.push_str(&verdict_line(
            &label,
            &snap.distribution,
            snap.pwcet,
            snap.ci.map(|ci| (ci.lower, ci.upper)),
        )),
        Err(e) => writeln!(out, "{label} error: {e}").unwrap(),
    }
}

/// The corpus text of one input.
fn corpus(dir: &Path, input: &Input) -> String {
    let feed = write_feed(dir, input);
    let feed = feed.to_str().expect("utf8 path");
    let mut out = String::new();
    for (channel, values) in &input.channels {
        // `analyze` reads one untagged channel.
        let file = if input.channels.len() == 1 {
            feed.to_string()
        } else {
            let single = Input {
                name: "channel",
                channels: vec![(channel, values.clone())],
                body: None,
            };
            let path = write_feed(dir, &single);
            path.to_str().expect("utf8 path").to_string()
        };
        record_cli(
            &mut out,
            &["analyze", &file, "--block", "50"],
            &format!("analyze <{channel}> --block 50"),
        );
    }
    record_cli(&mut out, &["session", feed], "session <feed>");
    record_cli(
        &mut out,
        &["session", feed, "--batch"],
        "session <feed> --batch",
    );
    record_cli(
        &mut out,
        &["session", feed, "--shards", "3"],
        "session <feed> --shards 3",
    );
    out.push_str("== library verdicts ==\n");
    for (channel, values) in &input.channels {
        record_library(&mut out, channel, values);
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// The first line where `got` and `want` differ, for a readable failure.
fn first_difference(got: &str, want: &str) -> String {
    let mut got_lines = got.lines();
    let mut want_lines = want.lines();
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => return "no line differs (line endings?)".into(),
            (g, w) => return format!("line {line}:\n  got:  {g:?}\n  want: {w:?}"),
        }
    }
    unreachable!()
}

#[test]
fn golden_verdict_corpus_is_unchanged() {
    let dir = std::env::temp_dir().join(format!("proxima_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let regen = std::env::var_os("PROXIMA_REGEN_GOLDEN").is_some();
    let mut drifted = Vec::new();
    for input in inputs() {
        let got = corpus(&dir, &input);
        let path = golden_path(input.name);
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "golden file {} unreadable ({e}); regenerate with \
                 PROXIMA_REGEN_GOLDEN=1 cargo test --test golden",
                path.display()
            )
        });
        if got != want {
            drifted.push(format!("{}: {}", input.name, first_difference(&got, &want)));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        drifted.is_empty(),
        "golden verdict corpus drifted (a deliberate change regenerates it \
         with PROXIMA_REGEN_GOLDEN=1 and names every moved line):\n{}",
        drifted.join("\n")
    );
}
