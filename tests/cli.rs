//! Integration tests of the `mbpta` CLI binary.
//!
//! Uses `CARGO_BIN_EXE_mbpta`, which Cargo points at the freshly built
//! binary when running integration tests of the defining package.

use std::process::{Command, Stdio};

fn mbpta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mbpta"))
}

#[test]
fn help_prints_usage() {
    let out = mbpta().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("analyze"));
    assert!(text.contains("measure"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = mbpta().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn measure_then_analyze_pipeline() {
    // measure → file → analyze: the round trip a real user would run.
    let out = mbpta()
        .args(["measure", "--runs", "600", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("campaign.txt");
    std::fs::write(&file, &out.stdout).expect("write campaign");

    let out = mbpta()
        .args([
            "analyze",
            file.to_str().expect("utf8 path"),
            "--cutoff",
            "1e-9",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PASSED"), "{text}");
    assert!(text.contains("headline budget @ 1e-9"));

    // The CV mode runs on the same file.
    let out = mbpta()
        .args(["analyze", file.to_str().expect("utf8 path"), "--cv"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MBPTA-CV"));
}

/// Write `measure --runs <runs>` output (an untagged measurement file) to
/// the shared test directory.
fn measured_file(name: &str, runs: &str) -> std::path::PathBuf {
    let out = mbpta()
        .args(["measure", "--runs", runs, "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join(name);
    std::fs::write(&file, &out.stdout).expect("write campaign");
    file
}

#[test]
fn stream_from_file_emits_snapshots_and_final() {
    // measure → file → session: incremental analysis of a recorded,
    // untagged campaign on the `campaign` channel.
    let file = measured_file("stream_campaign.txt", "600");
    let out = mbpta()
        .args([
            "session",
            file.to_str().expect("utf8 path"),
            "--block",
            "25",
            "--every",
            "1",
            "--target-p",
            "1e-9",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot channel=campaign n="), "{text}");
    assert!(text.contains("pwcet@1e-9"), "{text}");
    assert!(text.contains("channel campaign n=600"), "{text}");
}

#[test]
fn stream_simulate_runs_live() {
    // One simulated path analysed live: `measure | session`.
    let mut measure = mbpta()
        .args(["measure", "--jobs", "1", "--runs", "400"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn measure");
    let feed = measure.stdout.take().expect("measure stdout");
    let out = mbpta()
        .args(["session", "--block", "25", "--every", "1"])
        .stdin(Stdio::from(feed))
        .output()
        .expect("spawn session");
    assert!(measure.wait().expect("wait measure").success());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot channel=campaign n="), "{text}");
    assert!(text.contains("channel campaign n=400"), "{text}");
}

#[test]
fn stream_too_short_input_fails_cleanly() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("short.txt");
    std::fs::write(&file, "100\n101\n102\n").expect("write");
    let out = mbpta()
        .args(["session", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("channel campaign FAILED"), "{text}");
    assert!(text.contains("too small"), "{text}");
}

#[test]
fn untagged_file_equals_its_campaign_tagged_copy() {
    // A bare measurement line is shorthand for `campaign <time>`.
    let file = measured_file("untagged_campaign.txt", "1200");
    let tagged: String = std::fs::read_to_string(&file)
        .expect("read campaign")
        .lines()
        .map(|l| {
            if l.starts_with('#') {
                format!("{l}\n")
            } else {
                format!("campaign {l}\n")
            }
        })
        .collect();
    let tagged_file = file.with_file_name("tagged_campaign.txt");
    std::fs::write(&tagged_file, tagged).expect("write tagged copy");
    let run = |path: &std::path::Path| {
        let out = mbpta()
            .args(["session", path.to_str().expect("utf8 path"), "--every", "1"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let untagged = run(&file);
    assert!(String::from_utf8_lossy(&untagged).contains("snapshot channel=campaign"));
    assert_eq!(untagged, run(&tagged_file));
}

#[test]
fn measure_exits_cleanly_when_the_reader_goes_away() {
    // `measure | session --stop-on-converged` (or `| head`) closes the
    // pipe early: the producer must exit 0, not panic on EPIPE.
    let mut measure = mbpta()
        .args(["measure", "--runs", "3000"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(measure.stdout.take());
    let status = measure.wait().expect("wait");
    assert!(status.success(), "{status}");
}

/// Build a 3-channel tagged file by relabelling a measured campaign
/// round-robin, returning the path and the per-channel vectors.
fn tagged_fixture(name: &str) -> (std::path::PathBuf, Vec<(String, Vec<f64>)>) {
    let out = mbpta()
        .args(["measure", "--runs", "1800", "--seed", "10000000"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let values: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| l.trim().parse().expect("measurement"))
        .collect();
    let channels = ["alpha", "beta", "gamma"];
    let mut per_channel: Vec<(String, Vec<f64>)> = channels
        .iter()
        .map(|c| (c.to_string(), Vec::new()))
        .collect();
    let mut tagged = String::new();
    tagged.push_str("# tagged 3-channel feed\n");
    for (i, v) in values.iter().enumerate() {
        let c = i % channels.len();
        tagged.push_str(&format!("{} {v}\n", channels[c]));
        per_channel[c].1.push(*v);
    }
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join(name);
    std::fs::write(&file, tagged).expect("write tagged feed");
    (file, per_channel)
}

#[test]
fn session_from_tagged_file_reports_all_channels_and_envelope() {
    let (file, channels) = tagged_fixture("session_feed.txt");
    let out = mbpta()
        .args([
            "session",
            file.to_str().expect("utf8 path"),
            "--block",
            "25",
            "--every",
            "300",
            "--target-p",
            "1e-9",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("snapshot channel="), "{text}");
    assert!(text.contains("session total=1800 channels=3"), "{text}");
    for (name, times) in &channels {
        assert!(
            text.contains(&format!("channel {name} n={}", times.len())),
            "{text}"
        );
    }
    assert!(text.contains("envelope pwcet@1e-9"), "{text}");
}

#[test]
fn session_batch_engines_run_on_the_same_feed() {
    let (file, _) = tagged_fixture("session_feed_batch.txt");
    let out = mbpta()
        .args([
            "session",
            file.to_str().expect("utf8 path"),
            "--batch",
            "--block",
            "25",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("engine=batch"), "{text}");
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_simulate_measures_all_paths_in_one_pool() {
    let out = mbpta()
        .args([
            "session",
            "--simulate",
            "--runs",
            "400",
            "--block",
            "25",
            "--every",
            "200",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("session total=1600 channels=4"), "{text}");
    for path in ["nominal", "saturated-x", "saturated-y", "fault-recovery"] {
        assert!(text.contains(&format!("channel {path} ")), "{text}");
    }
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_quarantines_bad_channel_but_reports_the_rest() {
    let (file, _) = tagged_fixture("session_feed_mixed.txt");
    // Append a degenerate channel: constant values cannot be analysed.
    let mut feed = std::fs::read_to_string(&file).expect("read fixture");
    for _ in 0..600 {
        feed.push_str("stuck 500\n");
    }
    let dir = std::env::temp_dir().join("proxima_cli_test");
    let mixed = dir.join("session_feed_with_bad.txt");
    std::fs::write(&mixed, feed).expect("write mixed feed");

    let out = mbpta()
        .args([
            "session",
            mixed.to_str().expect("utf8 path"),
            "--block",
            "25",
        ])
        .output()
        .expect("spawn");
    // Exit code signals the failed channel, but the healthy channels and
    // the envelope are still reported.
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("channel stuck FAILED"), "{text}");
    assert!(text.contains("channel alpha n="), "{text}");
    assert!(text.contains("envelope pwcet@1e-12"), "{text}");
}

#[test]
fn session_sharded_report_is_identical_at_every_shard_count() {
    // The end-to-end determinism invariant the CI job enforces on the
    // built binary: federated channels fold block-aligned shard states,
    // so the report must not depend on the shard count (or on --jobs).
    let run = |shards: &str, jobs: &str| {
        let out = mbpta()
            .args([
                "session",
                "--simulate",
                "--runs",
                "800",
                "--block",
                "25",
                "--shards",
                shards,
                "--jobs",
                jobs,
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let reference = run("1", "1");
    assert!(reference.contains("engine=federated"), "{reference}");
    assert!(reference.contains("envelope pwcet@1e-12"), "{reference}");
    for (shards, jobs) in [("4", "1"), ("1", "8"), ("4", "8")] {
        assert_eq!(
            reference,
            run(shards, jobs),
            "report diverged at --shards {shards} --jobs {jobs}"
        );
    }
}

#[test]
fn session_rejects_conflicting_flag_combos() {
    // Table-driven negative paths: every conflicting combination must be
    // rejected fast (before any measuring/IO) with a pointed message.
    // Covers the pre-existing --shards conflicts plus the checkpoint /
    // resume flag surface.
    let table: &[(&[&str], &str)] = &[
        // Engine-selection conflicts (PR 4 invariants).
        (
            &["session", "--simulate", "--batch", "--shards", "2"],
            "--shards",
        ),
        (
            &[
                "session",
                "--simulate",
                "--shards",
                "2",
                "--stop-on-converged",
            ],
            "--stop-on-converged",
        ),
        // Checkpoint flags come in pairs.
        (
            &["session", "--simulate", "--checkpoint", "ck.bin"],
            "--checkpoint requires",
        ),
        (
            &["session", "--simulate", "--checkpoint-every", "100"],
            "--checkpoint-every requires",
        ),
        (
            &[
                "session",
                "--simulate",
                "--checkpoint",
                "ck.bin",
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every must be positive",
        ),
        // --resume records the configuration; re-specifying it conflicts.
        (
            &["session", "--resume", "ck.bin", "--batch"],
            "--batch conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--shards", "4"],
            "--shards conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--block", "25"],
            "--block conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--every", "100"],
            "--every conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--target-p", "1e-9"],
            "--target-p conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--stop-on-converged"],
            "--stop-on-converged conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--simulate"],
            "--simulate conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--runs", "100"],
            "--runs conflicts with --resume",
        ),
        (
            &["session", "--resume", "ck.bin", "--seed", "7"],
            "--seed conflicts with --resume",
        ),
        // Simulation-only flags still need --simulate.
        (&["session", "--runs", "100"], "--runs requires --simulate"),
        (&["session", "--seed", "5"], "--seed requires --simulate"),
        // --path never applied to sessions.
        (
            &["session", "--simulate", "--path", "nominal"],
            "--path is not valid for session (all TVCA paths are measured as channels; \
             use `mbpta measure --path <name> | mbpta session`",
        ),
    ];
    for (args, expected) in table {
        let out = mbpta().args(*args).output().expect("spawn");
        assert!(
            !out.status.success(),
            "`{}` unexpectedly succeeded",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected),
            "`{}` stderr missing `{expected}`:\n{stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn unknown_flags_and_commands_are_rejected() {
    // Every verb checks its arguments against its own flag table: a
    // misspelt or removed flag fails and is named, instead of being
    // ignored or swallowing the next argument as its value.
    let file = measured_file("unknown_flag_feed.txt", "600");
    let f = file.to_str().expect("utf8 path");
    let dir = std::env::temp_dir().join("proxima_cli_test");
    let blob = dir.join("unknown_flag_shard.bin");
    let blob = blob.to_str().expect("utf8 path");
    let missing = dir.join("unknown_flag_missing_ck.bin");
    let missing = missing.to_str().expect("utf8 path");
    let table: &[(&[&str], &str)] = &[
        (
            &["session", "--cache-stats"],
            "unknown flag `--cache-stats`",
        ),
        (&["analyze", f, "--cutof", "1e-9"], "unknown flag `--cutof`"),
        (&["session", f, "--shard", "4"], "unknown flag `--shard`"),
        (
            &["session", "--stop-on-convergence", f],
            "unknown flag `--stop-on-convergence`",
        ),
        (&["session", f, "--every"], "--every needs a value"),
        (&["stream", f], "unknown command"),
        // GK is the only sketch: the option that chose one is gone, so
        // even its old default value is refused by the flag's name.
        (&["session", f, "--sketch", "gk"], "unknown flag `--sketch`"),
        (
            &[
                "shard",
                "--simulate",
                "--runs",
                "10",
                "--out",
                blob,
                "--sketch",
                "gk",
            ],
            "unknown flag `--sketch`",
        ),
        (
            &["serve", "--resume", missing, "--sketch", "gk"],
            "unknown flag `--sketch`",
        ),
        // The verdict cache is gone, and with it the flags that sized
        // and aged it: kept outcomes are the only memo.
        (
            &["serve", "--cache-capacity", "256"],
            "unknown flag `--cache-capacity`",
        ),
        (&["serve", "--cache-ttl", "0"], "unknown flag `--cache-ttl`"),
        (
            &["serve", "--resume", missing, "--cache-capacity", "8"],
            "unknown flag `--cache-capacity`",
        ),
    ];
    for (args, expected) in table {
        let out = mbpta()
            .args(*args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn");
        assert!(
            !out.status.success(),
            "`{}` unexpectedly succeeded",
            args.join(" ")
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected),
            "`{}` stderr missing `{expected}`:\n{stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn surplus_positional_arguments_are_rejected_by_name() {
    // An argument a verb would never read fails and is named, instead of
    // the run going ahead without it.
    let file = measured_file("surplus_positional_feed.txt", "600");
    let f = file.to_str().expect("utf8 path");
    let dir = std::env::temp_dir().join("proxima_cli_test");
    let blob = dir.join("surplus_positional_shard.bin");
    let blob = blob.to_str().expect("utf8 path");
    let ck = dir.join("surplus_positional_simulated_ck.bin");
    let _ = std::fs::remove_file(&ck);
    let ck = ck.to_str().expect("utf8 path");
    let missing = dir.join("surplus_positional_missing_ck.bin");
    let missing = missing.to_str().expect("utf8 path");
    let written = mbpta()
        .args(["session", "--simulate", "--runs", "300", "--block", "25"])
        .args(["--checkpoint", ck, "--checkpoint-every", "100"])
        .output()
        .expect("spawn");
    assert!(written.status.success(), "simulated checkpoint written");
    let simulated = "a simulated feed reads no measurement file";
    let table: &[(&[&str], String)] = &[
        (
            &["analyze", f, "second.txt"],
            "unexpected argument `second.txt` for analyze".into(),
        ),
        (
            &["session", f, "second.txt"],
            "unexpected argument `second.txt` for session".into(),
        ),
        (
            &["measure", "extra"],
            "unexpected argument `extra` for measure".into(),
        ),
        // A missing checkpoint keeps a regression from serving forever.
        (
            &["serve", "extra", "--resume", missing],
            "unexpected argument `extra` for serve".into(),
        ),
        (
            &["session", f, "--simulate"],
            format!("unexpected argument `{f}`: {simulated}"),
        ),
        (
            &["shard", f, "--simulate", "--out", blob],
            format!("unexpected argument `{f}`: {simulated}"),
        ),
        (
            &["session", "--resume", ck, f],
            format!("unexpected argument `{f}`: {simulated}"),
        ),
        (
            &["call", "127.0.0.1:9", "stats", "extra"],
            "unexpected argument `extra` for call stats".into(),
        ),
    ];
    for (args, expected) in table {
        let out = mbpta()
            .args(*args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "`{}`", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(expected.as_str()),
            "`{}` stderr missing `{expected}`:\n{stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn shard_blob_from_a_file_equals_the_public_push_batch_fold() {
    // `shard <file>` feeds the file through the federated engine, which
    // leaves shard CIs owed until the blob encodes them; the sealed bytes
    // must be those of an analyzer fed through the public `push_batch`,
    // which reads (and so computes) every shard refit's CI. 9,000
    // non-integer values span several CLI chunks and all three shards.
    use proxima::prelude::*;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let values: Vec<f64> = (0..9_000)
        .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
        .collect();
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let feed = dir.join("shard_feed.txt");
    let text: String = values.iter().map(|x| format!("{x}\n")).collect();
    std::fs::write(&feed, text).expect("write feed");
    let blob = dir.join("shard_feed.bin");
    let out = mbpta()
        .args([
            "shard",
            feed.to_str().expect("utf8 path"),
            "--shards",
            "3",
            "--out",
            blob.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = StreamConfig {
        block_size: 50,
        target_p: 1e-12,
        ..StreamConfig::default()
    };
    let mut fed = FederatedAnalyzer::new(FederatedConfig::new(stream, 3)).expect("config");
    let snapshots = fed.push_batch(&values).expect("clean ingest");
    assert!(snapshots.iter().any(|s| s.ci.is_some()), "CIs were read");
    assert_eq!(std::fs::read(&blob).expect("blob"), save_federated(&fed));
}

#[test]
fn shard_blob_from_a_simulation_equals_the_campaign_runner_push_batch_fold() {
    // `shard --simulate` measures the campaign the way every other
    // campaign is measured, so its sealed bytes must be those of an
    // analyzer balanced for the run count and fed, through the public
    // `push_batch`, the times `CampaignRunner::run` measures.
    use proxima::prelude::*;
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let blob = dir.join("shard_simulated.bin");
    let out = mbpta()
        .args(["shard", "--simulate", "--runs", "900", "--seed", "77"])
        .args(["--path", "saturated-x", "--shards", "3", "--block", "50"])
        .args(["--out", blob.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tvca = Tvca::new(TvcaConfig::default());
    let campaign = CampaignRunner::new(PlatformConfig::mbpta_compliant())
        .run(tvca.trace(ControlMode::SaturatedX), 900, 77)
        .expect("campaign");
    let stream = StreamConfig {
        block_size: 50,
        target_p: 1e-12,
        ..StreamConfig::default()
    };
    let config = FederatedConfig::new(stream, 3).balanced_for(900);
    let mut fed = FederatedAnalyzer::new(config).expect("config");
    fed.push_batch(campaign.times()).expect("clean ingest");
    assert_eq!(std::fs::read(&blob).expect("blob"), save_federated(&fed));

    // An empty campaign is a clean error, not a panic.
    let out = mbpta()
        .args(["shard", "--simulate", "--runs", "0"])
        .args(["--out", blob.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shard feed contained no measurements"),
        "{stderr}"
    );
}

#[test]
fn session_resume_rejects_missing_and_corrupt_checkpoints() {
    let out = mbpta()
        .args(["session", "--resume", "/nonexistent/ck.bin"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot open"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let bogus = dir.join("bogus_checkpoint.bin");
    std::fs::write(&bogus, b"definitely not a checkpoint").expect("write");
    let out = mbpta()
        .args(["session", "--resume", bogus.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A checkpoint from the previous format is refused at its version
    // byte, with an error naming both versions, never a panic.
    let old = dir.join("previous_format_checkpoint.bin");
    let _ = std::fs::remove_file(&old);
    let written = mbpta()
        .args(["session", "--simulate", "--runs", "300", "--block", "25"])
        .args(["--checkpoint", old.to_str().expect("utf8 path")])
        .args(["--checkpoint-every", "100"])
        .output()
        .expect("spawn");
    assert!(written.status.success());
    let mut bytes = std::fs::read(&old).expect("checkpoint written");
    bytes[4] = 4;
    std::fs::write(&old, &bytes).expect("write");
    let out = mbpta()
        .args(["session", "--resume", old.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert_ne!(out.status.code(), Some(101), "resume panicked");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let why = format!(
        "unsupported checkpoint format version 4 (this build reads {})",
        proxima::mbpta::persist::FORMAT_VERSION
    );
    assert!(stderr.contains(&why), "{stderr}");
}

#[test]
fn session_checkpoint_crash_resume_is_bit_identical() {
    // The restart-determinism contract, end to end on the built binary:
    // crash a checkpointing session mid-campaign (deterministically, via
    // --crash-after), resume from the last atomic checkpoint, and the
    // resumed stdout must be an exact suffix of the uninterrupted run's
    // — snapshots and final report alike — for stream and federated
    // engines.
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    for (label, extra) in [("stream", &[][..]), ("federated", &["--shards", "4"][..])] {
        let ck = dir.join(format!("crash_resume_{label}.bin"));
        let _ = std::fs::remove_file(&ck);
        let base = ["session", "--simulate", "--runs", "500", "--block", "25"];

        let full = mbpta().args(base).args(extra).output().expect("spawn");
        assert!(full.status.success());
        let full_log = String::from_utf8_lossy(&full.stdout).to_string();

        let crashed = mbpta()
            .args(base)
            .args(extra)
            .args([
                "--checkpoint",
                ck.to_str().expect("utf8 path"),
                "--checkpoint-every",
                "600",
                "--crash-after",
                "1500",
            ])
            .output()
            .expect("spawn");
        assert!(!crashed.status.success(), "--crash-after must kill the run");
        assert!(ck.exists(), "a checkpoint must survive the crash");

        let resumed = mbpta()
            .args(["session", "--resume", ck.to_str().expect("utf8 path")])
            .output()
            .expect("spawn");
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let resumed_log = String::from_utf8_lossy(&resumed.stdout).to_string();
        assert!(
            full_log.ends_with(&resumed_log),
            "[{label}] resumed output is not a suffix of the uninterrupted run\n\
             --- uninterrupted ---\n{full_log}\n--- resumed ---\n{resumed_log}"
        );
        assert!(resumed_log.contains("session total=2000 channels=4"));
    }
}

#[test]
fn session_rejects_malformed_tagged_line() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("session_bad_line.txt");
    std::fs::write(&file, "alpha 100\nnot-a-tagged-line\n").expect("write");
    let out = mbpta()
        .args(["session", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad tagged line"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_missing_file_fails() {
    let out = mbpta()
        .args(["analyze", "/nonexistent/measurements.txt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn analyze_names_unparsable_lines_and_negative_times() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let lines = |bad: &str| -> String {
        let mut text = String::new();
        for i in 0..2_001 {
            if i == 700 {
                text.push_str(bad);
            } else {
                text.push_str(&(100_000 + (i * 37) % 1_009).to_string());
            }
            text.push('\n');
        }
        text
    };
    for (name, bad, expected) in [
        ("analyze_unparsable.txt", "12x34", "line 701: `12x34`"),
        ("analyze_negative.txt", "-3", "execution time is negative"),
    ] {
        let file = dir.join(name);
        std::fs::write(&file, lines(bad)).expect("write");
        let out = mbpta()
            .args(["analyze", file.to_str().expect("utf8 path")])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{name} unexpectedly analysed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{name}: {stderr}");
        assert!(!stderr.contains("non-finite"), "{name}: {stderr}");
    }
}

#[test]
fn analyze_rejects_degenerate_input() {
    let dir = std::env::temp_dir().join("proxima_cli_test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let file = dir.join("constant.txt");
    std::fs::write(&file, "100\n".repeat(500)).expect("write");
    let out = mbpta()
        .args(["analyze", file.to_str().expect("utf8 path")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}
