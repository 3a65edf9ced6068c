//! End-to-end battery for the framed-TCP analysis service (`mbpta
//! serve` / `proxima-serve`).
//!
//! What must hold, per the service's contract:
//!
//! * **Soak**: ≥200 concurrent client connections interleaving
//!   INGEST / SNAPSHOT / STATS / MERGE frames — while a few more loop
//!   the requests that lock every worker (envelope VERDICT, STATS,
//!   CHECKPOINT) — leave the server with exactly the expected
//!   deterministic counters (no wall-clock assertions), bounded cache
//!   occupancy, no error frame, and per-channel verdicts
//!   **bit-identical** to an offline [`AnalysisSession`] replay of the
//!   same per-channel feeds.
//! * **Isolation**: hostile bytes on one connection close only that
//!   connection; a concurrently connected well-behaved client is
//!   unaffected, and the damage is visible in `protocol_errors`.
//! * **Sealed merges**: MERGE accepts only sealed federated blobs, and
//!   the adopted channel's verdict matches the `--shards N` in-process
//!   path bit-for-bit on every analysis field (only the engine
//!   provenance label may differ).
//! * **Durability**: shutdown → resume is bit-identical in process,
//!   and the real binary survives an injected crash mid-campaign, with
//!   the resumed + resent feed verdict equal to an uninterrupted run.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use proxima::mbpta::engine::Engine;
use proxima::prelude::*;
use proxima::serve::frame::{read_frame, write_frame, Request};
use proxima::serve::{Response, ResumeOptions, ServeClient, ServeConfig, Server};

/// The per-channel streaming configuration every session in this file
/// uses (server-side and offline replays alike — `from_federated_blob`
/// rejects a mismatch). Bootstrap off keeps the battery fast on the
/// single-core CI runner.
fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 25,
        target_p: 1e-12,
        bootstrap: None,
        ..StreamConfig::default()
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stream: stream_config(),
        snapshot_every: 500,
        cache_capacity: 32,
        ..ServeConfig::default()
    }
}

/// An offline session built exactly the way [`Server::bind`] builds the
/// served one: the replay reference for bit-identity assertions.
fn offline_session(config: &ServeConfig) -> AnalysisSession<proxima::stream::StreamFactory> {
    MbptaConfig {
        block: BlockSpec::Fixed(config.stream.block_size),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(config.snapshot_every)
    .target_p(config.stream.target_p)
    .build_stream_with(config.stream.clone())
    .expect("offline session")
}

/// Deterministic per-channel feed (no clock, no OS randomness).
fn feed(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            // SplitMix64 step.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            1000.0 + 200.0 * ((z >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// A sealed federated blob over `values`, folded from `shards` shards.
fn sealed_blob(values: &[f64], shards: usize) -> Vec<u8> {
    let mut fed = FederatedAnalyzer::new(FederatedConfig::new(stream_config(), shards))
        .expect("federated analyzer");
    fed.push_batch(values).expect("shard ingest");
    save_federated(&fed)
}

/// Connect with a few retries: under the soak the listener's accept
/// backlog can briefly fill while 200+ peers arrive at once.
fn connect(addr: SocketAddr) -> ServeClient {
    for _ in 0..50 {
        if let Ok(client) = ServeClient::connect(addr) {
            return client;
        }
        thread::yield_now();
    }
    ServeClient::connect(addr).expect("connect after retries")
}

/// The wire verdicts as a name → verdict map (order across channels is
/// registration order, which is racy under concurrent ingest — compare
/// by name, never by position).
type WireVerdicts = (
    Vec<(String, Result<Verdict, String>)>,
    Result<(String, f64), String>,
);

fn verdict_map(response: Response) -> WireVerdicts {
    match response {
        Response::Verdicts {
            channels, envelope, ..
        } => (channels, envelope),
        other => panic!("unexpected response {other:?}"),
    }
}

/// Assert two verdicts agree on every analysis field that is a pure
/// function of the channel's feed: sample size, high watermark, i.i.d.
/// evidence and the fitted tail probed at several cutoffs — all
/// compared as exact bits. (The provenance label is allowed to differ:
/// a server-adopted shard fold reports the stream engine while the
/// `--shards N` in-process path reports the federated one.)
fn assert_same_analysis(name: &str, got: &Verdict, want: &Verdict) {
    assert_eq!(got.provenance.n, want.provenance.n, "channel {name}: n");
    assert_eq!(
        got.high_watermark().to_bits(),
        want.high_watermark().to_bits(),
        "channel {name}: high watermark bits"
    );
    assert_eq!(got.iid.label(), want.iid.label(), "channel {name}: iid");
    for p in [1e-9, 1e-12, 1e-15] {
        let got_budget = got.budget_for(p).expect("budget").to_bits();
        let want_budget = want.budget_for(p).expect("budget").to_bits();
        assert_eq!(
            got_budget, want_budget,
            "channel {name}: budget bits at {p:e}"
        );
    }
}

const INGEST_CLIENTS: usize = 200;
const MERGE_CLIENTS: usize = 8;
const PER_CHANNEL: usize = 550;
const PER_SHARD_CHANNEL: usize = 600;
/// Clients that loop the all-worker requests during the feed, each for
/// at least [`MIN_SPAN_ROUNDS`] rounds and until every feeder is done.
const SPAN_CLIENTS: usize = 3;
const MIN_SPAN_ROUNDS: usize = 2;

/// Counts a feeder out when its thread ends, panics included, so the
/// spanning clients never wait on a feeder that died.
struct Feeding<'a>(&'a AtomicUsize);

impl Drop for Feeding<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One soak round at `workers` analysis workers: ≥200 concurrent
/// connections interleaving INGEST, SNAPSHOT, STATS, VERDICT and MERGE,
/// plus [`SPAN_CLIENTS`] looping envelope VERDICT, STATS and CHECKPOINT
/// while auto-checkpoints fire, with the deterministic counters
/// balanced exactly afterwards. Returns the final envelope verdict for
/// cross-run diffing.
fn run_soak(workers: usize, blobs: &[Vec<u8>]) -> WireVerdicts {
    let dir = std::env::temp_dir().join("proxima_serve_e2e");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let stem = format!("soak_{}_w{workers}.ck", std::process::id());
    let config = ServeConfig {
        workers,
        checkpoint_path: Some(dir.join(&stem)),
        checkpoint_every: 5000,
        ..serve_config()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let feeding = AtomicUsize::new(INGEST_CLIENTS + MERGE_CLIENTS);
    let span_rounds: usize = thread::scope(|s| {
        let feeding = &feeding;
        let spanners: Vec<_> = (0..SPAN_CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut rounds = 0;
                    while rounds < MIN_SPAN_ROUNDS || feeding.load(Ordering::SeqCst) > 0 {
                        let (wire, _) =
                            verdict_map(client.verdict(1e-12, None).expect("envelope verdict"));
                        assert!(wire.len() <= INGEST_CLIENTS + MERGE_CLIENTS);
                        let stats = client.stats().expect("stats");
                        assert!(stats.cache_len <= stats.cache_capacity);
                        assert_eq!(stats.shards.len(), workers);
                        assert!(client.checkpoint().expect("checkpoint") > 0);
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();
        for i in 0..INGEST_CLIENTS {
            s.spawn(move || {
                let _feeding = Feeding(feeding);
                let mut client = connect(addr);
                let name = format!("ch-{i:03}");
                let values = feed(i as u64, PER_CHANNEL);
                let (first, second) = values.split_at(PER_CHANNEL / 2);
                let (len1, _, _) = client.ingest(&name, first).expect("ingest");
                assert_eq!(len1 as usize, first.len());
                // Interleave queries on the same connection mid-feed.
                let _ = client.snapshot(&name).expect("snapshot");
                if i % 25 == 0 {
                    let (wire, _) =
                        verdict_map(client.verdict(1e-12, Some(&name)).expect("verdict"));
                    assert_eq!(wire[0].0, name);
                }
                let stats = client.stats().expect("stats");
                assert!(stats.cache_len <= stats.cache_capacity);
                let (len2, total, _) = client.ingest(&name, second).expect("ingest");
                assert_eq!(len2 as usize, values.len());
                assert!(total >= len2);
            });
        }
        for (i, blob) in blobs.iter().enumerate() {
            s.spawn(move || {
                let _feeding = Feeding(feeding);
                let mut client = connect(addr);
                let name = format!("fed-{i}");
                let (channel_len, _) = client.merge(&name, blob).expect("merge");
                assert_eq!(channel_len as usize, PER_SHARD_CHANNEL);
            });
        }
        spanners
            .into_iter()
            .map(|h| h.join().expect("spanning client"))
            .sum()
    });

    // Deterministic counter balance: every measurement accounted for,
    // every frame counted, the cache within its bound — no wall clock.
    let mut client = connect(addr);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.total as usize,
        INGEST_CLIENTS * PER_CHANNEL + MERGE_CLIENTS * PER_SHARD_CHANNEL
    );
    assert_eq!(stats.channels as usize, INGEST_CLIENTS + MERGE_CLIENTS);
    assert_eq!(stats.frames_ingest as usize, 2 * INGEST_CLIENTS);
    assert_eq!(stats.frames_snapshot as usize, INGEST_CLIENTS);
    assert_eq!(
        stats.frames_verdict as usize,
        INGEST_CLIENTS.div_ceil(25) + span_rounds
    );
    assert_eq!(stats.frames_merge as usize, MERGE_CLIENTS);
    // One STATS per feeder, a STATS and a CHECKPOINT per spanning
    // round, and this STATS.
    assert_eq!(
        stats.frames_admin as usize,
        INGEST_CLIENTS + 2 * span_rounds + 1
    );
    assert!(stats.checkpoints_written as usize >= span_rounds);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.workers as usize, workers);
    assert_eq!(stats.shards.len(), workers);
    assert_eq!(
        stats.shards.iter().map(|s| s.total).sum::<u64>(),
        stats.total,
        "every measurement lands on exactly one worker"
    );
    assert!(stats.cache_len <= stats.cache_capacity);

    let (wire, wire_envelope) = verdict_map(client.verdict(1e-12, None).expect("verdict"));
    assert_eq!(wire.len(), INGEST_CLIENTS + MERGE_CLIENTS);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();

    // The checkpoint is a family of sibling files (manifest + one
    // sealed blob per worker) — sweep them all.
    for entry in std::fs::read_dir(&dir).expect("read_dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with(&stem) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    (wire, wire_envelope)
}

/// The soak at `--workers 1` and `--workers 4`: both runs' per-channel
/// verdicts must be bit-identical to an offline [`AnalysisSession`]
/// replay of the same per-channel feeds — and thereby to each other.
#[test]
fn soak_200_concurrent_clients_bit_identical_to_offline_replay_at_any_worker_count() {
    // Shard blobs are folded before the soak starts — shipping state,
    // not measurements, is the point of MERGE.
    let blobs: Vec<Vec<u8>> = (0..MERGE_CLIENTS)
        .map(|i| sealed_blob(&feed(10_000 + i as u64, PER_SHARD_CHANNEL), 1 + i % 3))
        .collect();

    // Offline replay of the same per-channel feeds (channels are
    // independent engines, so cross-channel arrival order is
    // irrelevant — per-channel order is what must match, and each
    // channel had exactly one writer).
    let mut offline = offline_session(&serve_config());
    for i in 0..INGEST_CLIENTS {
        offline
            .push_batch(format!("ch-{i:03}").as_str(), &feed(i as u64, PER_CHANNEL))
            .expect("offline ingest");
    }
    for (i, blob) in blobs.iter().enumerate() {
        let engine = proxima::stream::StreamEngine::from_federated_blob(blob, &stream_config())
            .expect("unseal blob");
        offline
            .adopt_channel(
                format!("fed-{i}").as_str(),
                &engine.save_state().expect("save state"),
            )
            .expect("adopt");
    }
    let merged = offline.merge();
    let (_, want_budget) = merged.envelope_budget(1e-12).expect("offline envelope");

    for workers in [1usize, 4] {
        let (wire, wire_envelope) = run_soak(workers, &blobs);
        for (name, outcome) in &wire {
            let want = merged
                .verdict(name)
                .unwrap_or_else(|| panic!("offline replay missing channel {name}"));
            match (outcome, want) {
                (Ok(got), Ok(want)) => assert_same_analysis(name, got, want),
                (Err(got), Err(want)) => assert_eq!(got, &want.to_string(), "channel {name}"),
                (got, want) => panic!("channel {name}: wire {got:?} vs offline {want:?}"),
            }
        }
        let (_, got_budget) = wire_envelope.expect("wire envelope");
        assert_eq!(
            got_budget.to_bits(),
            want_budget.to_bits(),
            "envelope bits at {workers} workers"
        );
    }
}

/// Hostile bytes on one connection must not poison the others: the bad
/// connection is closed (after a best-effort ERROR frame), the damage
/// is counted, and a concurrent well-behaved client keeps working.
#[test]
fn hostile_connections_poison_only_themselves() {
    let server = Server::bind("127.0.0.1:0", serve_config()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut good = ServeClient::connect(addr).expect("connect");
    good.ingest("good", &feed(1, 600)).expect("ingest");

    // 1. Garbage that is not even a frame header.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
        raw.flush().expect("flush");
        let mut sink = Vec::new();
        // The server answers with at most one best-effort ERROR frame,
        // then closes; reading to EOF proves the close.
        let _ = raw.read_to_end(&mut sink);
    }

    // 2. A syntactically valid frame whose checksum lies.
    {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Request::Stats.encode()).expect("encode");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&bytes).expect("write");
        raw.flush().expect("flush");
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
    }

    // 3. A well-framed, checksum-valid payload that decodes to nothing:
    //    the server answers ERROR and KEEPS the connection (the frame
    //    layer proved the peer is speaking the protocol).
    {
        let stream = TcpStream::connect(addr).expect("connect raw");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, &[0xEE, 0xEE]).expect("write");
        writer.flush().expect("flush");
        let payload = read_frame(&mut reader).expect("read").expect("open");
        assert!(matches!(
            Response::decode(&payload).expect("decode"),
            Response::Error { .. }
        ));
        // Same connection, now a valid request: still served.
        write_frame(&mut writer, &Request::Stats.encode()).expect("write");
        writer.flush().expect("flush");
        let payload = read_frame(&mut reader).expect("read").expect("open");
        assert!(matches!(
            Response::decode(&payload).expect("decode"),
            Response::Stats(_)
        ));
    }

    // The good client never noticed any of it.
    good.ingest("good", &feed(2, 600)).expect("ingest");
    let (wire, _) = verdict_map(good.verdict(1e-12, Some("good")).expect("verdict"));
    assert!(wire[0].1.is_ok(), "{:?}", wire[0].1);
    let stats = good.stats().expect("stats");
    assert_eq!(stats.total, 1200);
    assert!(
        stats.protocol_errors >= 3,
        "three hostile exchanges must be counted, got {}",
        stats.protocol_errors
    );

    good.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// MERGE is sealed-blob-only: raw bytes, a truncated blob, a wrong
/// stream configuration and a duplicate channel are all rejected
/// without disturbing the session.
#[test]
fn merge_rejects_everything_but_matching_sealed_blobs() {
    let server = Server::bind("127.0.0.1:0", serve_config()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = ServeClient::connect(addr).expect("connect");

    let values = feed(3, 600);
    let blob = sealed_blob(&values, 2);

    // Raw measurements are not state: refused.
    assert!(client
        .merge("fed", b"raw bytes are not a sealed blob")
        .is_err());
    // A torn blob fails its checksum: refused.
    assert!(client.merge("fed", &blob[..blob.len() - 3]).is_err());
    // A blob folded under a different stream configuration: refused.
    let mismatched = {
        let mut fed = FederatedAnalyzer::new(FederatedConfig::new(
            StreamConfig {
                block_size: 50,
                ..stream_config()
            },
            2,
        ))
        .expect("federated analyzer");
        fed.push_batch(&values).expect("ingest");
        save_federated(&fed)
    };
    assert!(client.merge("fed", &mismatched).is_err());

    // The real blob lands…
    let (channel_len, total) = client.merge("fed", &blob).expect("merge");
    assert_eq!(channel_len, 600);
    assert_eq!(total, 600);
    // …and cannot be adopted twice.
    assert!(client.merge("fed", &blob).is_err());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.total, 600);
    assert_eq!(stats.channels, 1);

    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// A server-side MERGE of a sealed shard fold must match the in-process
/// `--shards N` federated session on every analysis field, bit for bit,
/// at every shard count.
#[test]
fn merged_blob_matches_in_process_sharded_session_bitwise() {
    let values = feed(42, 900);
    for shards in [1usize, 3, 4] {
        let server = Server::bind("127.0.0.1:0", serve_config()).expect("bind");
        let addr = server.local_addr();
        let handle = server.spawn();
        let mut client = ServeClient::connect(addr).expect("connect");

        client
            .merge("fold", &sealed_blob(&values, shards))
            .expect("merge");
        let (wire, _) = verdict_map(client.verdict(1e-12, Some("fold")).expect("verdict"));
        let got = wire[0].1.as_ref().expect("server verdict");

        // The same feed through the in-process federated session.
        let factory =
            proxima::stream::FederatedFactory::new(FederatedConfig::new(stream_config(), shards))
                .expect("factory");
        let mut session = MbptaConfig {
            block: BlockSpec::Fixed(stream_config().block_size),
            ..MbptaConfig::default()
        }
        .session()
        .target_p(1e-12)
        .build_with(factory)
        .expect("session");
        session.push_batch("fold", &values).expect("ingest");
        let merged = session.merge();
        let want = merged
            .verdict("fold")
            .expect("channel")
            .as_ref()
            .expect("verdict");

        assert_same_analysis(&format!("fold@{shards}"), got, want);
        client.shutdown().expect("shutdown");
        handle.join().unwrap().unwrap();
    }
}

/// Shutdown writes a final checkpoint; `Server::resume` restarts from
/// it and the continued campaign's verdict is bit-identical to an
/// uninterrupted offline run over the same feed order.
#[test]
fn shutdown_then_resume_is_bit_identical() {
    let dir = std::env::temp_dir().join("proxima_serve_e2e");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join(format!("resume_{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let config = ServeConfig {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 400,
        ..serve_config()
    };
    let a = feed(7, 1300);
    let b = feed(8, 1300);

    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = ServeClient::connect(addr).expect("connect");
    client.ingest("alpha", &a[..1000]).expect("ingest");
    client.ingest("beta", &b[..1000]).expect("ingest");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();

    let server = Server::resume("127.0.0.1:0", &path, ResumeOptions::default()).expect("resume");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total, 2000, "resume restores the full session");
    client.ingest("alpha", &a[1000..]).expect("ingest");
    client.ingest("beta", &b[1000..]).expect("ingest");
    let (wire, wire_envelope) = verdict_map(client.verdict(1e-12, None).expect("verdict"));
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();

    // Uninterrupted offline replay.
    let mut offline = offline_session(&config);
    offline.push_batch("alpha", &a).expect("ingest");
    offline.push_batch("beta", &b).expect("ingest");
    let merged = offline.merge();
    for (name, outcome) in &wire {
        let want = merged
            .verdict(name)
            .expect("channel")
            .as_ref()
            .expect("verdict");
        assert_same_analysis(name, outcome.as_ref().expect("verdict"), want);
    }
    let (_, want_budget) = merged.envelope_budget(1e-12).expect("envelope");
    assert_eq!(
        wire_envelope.expect("envelope").1.to_bits(),
        want_budget.to_bits()
    );
    let _ = std::fs::remove_file(&path);
}

/// The real binary: a 4-worker `mbpta serve` killed mid-campaign with
/// `--crash-after`, restarted with `--resume --workers 2` (the restored
/// channels are re-partitioned to the new worker count), resent the
/// not-yet-absorbed per-channel suffixes — and every verdict must be
/// bit-identical to an uninterrupted 1-worker server's.
#[test]
fn binary_crash_resume_over_network_is_bit_identical_across_worker_counts() {
    use std::process::{Child, Command, Stdio};

    const CHANNELS: [&str; 3] = ["alpha", "beta", "gamma"];
    const PER: usize = 1500;
    const CHUNK: usize = 512;

    let dir = std::env::temp_dir().join("proxima_serve_e2e");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let stem = format!("crash_{}.ck", std::process::id());
    let path = dir.join(&stem);

    fn spawn_serve(args: &[&str]) -> (Child, SocketAddr) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mbpta"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mbpta serve");
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("ready line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected ready line {line:?}"))
            .parse()
            .expect("addr");
        (child, addr)
    }

    let feeds: Vec<Vec<f64>> = (0..CHANNELS.len())
        .map(|i| feed(1234 + i as u64, PER))
        .collect();

    // Round-robin chunks across the channels, each channel starting at
    // its own offset. Per-channel order is what bit-identity depends
    // on (channels are independent engines), and it is identical in
    // every run this test makes.
    let ingest_from = |addr: SocketAddr, from: [usize; 3]| {
        let mut client = ServeClient::connect(addr).expect("connect");
        let mut next = from;
        loop {
            let mut sent = false;
            for (c, name) in CHANNELS.iter().enumerate() {
                if next[c] >= PER {
                    continue;
                }
                let end = (next[c] + CHUNK).min(PER);
                if client.ingest(name, &feeds[c][next[c]..end]).is_err() {
                    // The crashing server dies mid-feed — expected there.
                    return;
                }
                next[c] = end;
                sent = true;
            }
            if !sent {
                return;
            }
        }
    };

    // Mirror the server's deterministic cadence in the test: a
    // checkpoint latches the per-channel prefixes at every crossing of
    // --checkpoint-every, and --crash-after aborts once the total
    // passes it — so what survives the crash is exactly the last
    // latched prefix of each channel.
    let mut absorbed = [0usize; 3];
    let mut survived = [0usize; 3];
    let (mut total, mut last_ck) = (0usize, 0usize);
    'plan: loop {
        let mut sent = false;
        for c in 0..CHANNELS.len() {
            if absorbed[c] >= PER {
                continue;
            }
            let end = (absorbed[c] + CHUNK).min(PER);
            total += end - absorbed[c];
            absorbed[c] = end;
            sent = true;
            if total - last_ck >= 1000 {
                last_ck = total;
                survived = absorbed;
            }
            if total >= 2500 {
                break 'plan;
            }
        }
        assert!(sent, "the feed must outlast --crash-after");
    }
    assert!(
        survived.iter().all(|&s| s > 0),
        "the drill must leave every channel with surviving state"
    );

    // Reference: an uninterrupted 1-worker server over the same feeds.
    let (mut ref_child, ref_addr) = spawn_serve(&["serve", "--addr", "127.0.0.1:0"]);
    ingest_from(ref_addr, [0; 3]);
    let mut client = ServeClient::connect(ref_addr).expect("connect");
    let (reference, ref_envelope) = verdict_map(client.verdict(1e-12, None).expect("verdict"));
    client.shutdown().expect("shutdown");
    assert!(ref_child.wait().expect("wait").success());

    // Crash drill at 4 workers.
    let ck = path.to_str().expect("utf-8 path");
    let (mut child, addr) = spawn_serve(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "4",
        "--checkpoint",
        ck,
        "--checkpoint-every",
        "1000",
        "--crash-after",
        "2500",
    ]);
    ingest_from(addr, [0; 3]);
    assert!(
        !child.wait().expect("wait").success(),
        "--crash-after must abort the server"
    );

    // Restart at HALF the worker count, confirm what survived, resend
    // each channel's suffix.
    let (mut child, addr) = spawn_serve(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--resume",
        ck,
        "--workers",
        "2",
    ]);
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total as usize, last_ck, "resume = last checkpoint");
    assert_eq!(stats.channels as usize, CHANNELS.len());
    assert_eq!(stats.workers, 2, "resume re-partitions to --workers 2");
    assert_eq!(stats.shards.len(), 2);
    drop(client);
    ingest_from(addr, survived);
    let mut client = ServeClient::connect(addr).expect("connect");
    let (resumed, resumed_envelope) = verdict_map(client.verdict(1e-12, None).expect("verdict"));
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("wait").success());

    assert_eq!(reference.len(), CHANNELS.len());
    assert_eq!(resumed.len(), CHANNELS.len());
    for (name, outcome) in &resumed {
        let want = reference
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("reference missing channel {name}"));
        let want = want.1.as_ref().expect("reference verdict");
        let got = outcome.as_ref().expect("resumed verdict");
        assert_same_analysis(name, got, want);
        assert_eq!(
            got.provenance.engine, want.provenance.engine,
            "same engine either way"
        );
    }
    let (_, want_budget) = ref_envelope.expect("reference envelope");
    let (_, got_budget) = resumed_envelope.expect("resumed envelope");
    assert_eq!(got_budget.to_bits(), want_budget.to_bits(), "envelope bits");

    // The sharded checkpoint is a family of sibling files
    // (manifest + one sealed blob per worker) — sweep them all.
    for entry in std::fs::read_dir(&dir).expect("read_dir").flatten() {
        if entry.file_name().to_string_lossy().starts_with(&stem) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}
