//! Analysis-service demo, fully offline on loopback: start `mbpta
//! serve`'s engine in-process, measure two TVCA paths, stream them in
//! from two concurrent clients, fold a third path into a sealed
//! federated blob and MERGE it (state travels, measurements do not),
//! then query the per-channel verdicts and the program-level envelope
//! over the wire.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_loopback
//! ```

use std::thread;

use proxima::prelude::*;
use proxima::serve::{Response, ServeClient, ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runs = 900;
    let stream = StreamConfig {
        block_size: 25,
        target_p: 1e-12,
        ..StreamConfig::default()
    };

    // 1. The service: one multi-channel streaming session behind a
    //    framed-TCP accept loop. Port 0 lets the OS pick.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            stream: stream.clone(),
            snapshot_every: 500,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.local_addr();
    let handle = server.spawn();
    println!("serving on {addr}");

    // 2. Two producers measure their own TVCA path and stream it in
    //    concurrently — the server demultiplexes by channel name.
    let tvca = Tvca::new(TvcaConfig::default());
    let mut producers = Vec::new();
    for (channel, mode) in [
        ("nominal", ControlMode::Nominal),
        ("saturated-x", ControlMode::SaturatedX),
    ] {
        let trace = tvca.trace(mode);
        producers.push(thread::spawn(move || -> Result<(), String> {
            let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
            let campaign =
                Campaign::measure(&mut platform, &trace, runs, 42).map_err(|e| e.to_string())?;
            let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
            // Chunked like a live feed; every chunk is one INGEST frame.
            for chunk in campaign.times().chunks(256) {
                client.ingest(channel, chunk).map_err(|e| e.to_string())?;
            }
            println!("  ingested {runs} runs into {channel}");
            Ok(())
        }));
    }
    for p in producers {
        p.join().expect("producer thread")?;
    }

    // 3. A remote shard: measure the fault-recovery path elsewhere,
    //    fold it into a sealed federated blob, ship ONLY the blob.
    let mut fed = FederatedAnalyzer::new(FederatedConfig::new(stream, 4).balanced_for(runs))?;
    fed.ingest_trace(
        PlatformConfig::mbpta_compliant(),
        tvca.trace(ControlMode::FaultRecovery),
        runs,
        7,
    )?;
    let blob = save_federated(&fed);
    let mut client = ServeClient::connect(addr)?;
    let (n, total) = client.merge("fault-recovery", &blob)?;
    println!(
        "  merged fault-recovery shard blob: {} bytes for {n} runs (session total {total})",
        blob.len()
    );

    // 4. Query the finalized verdicts over the wire.
    let Response::Verdicts {
        p,
        channels,
        envelope,
    } = client.verdict(1e-12, None)?
    else {
        unreachable!("verdict() only returns Verdicts");
    };
    for (name, outcome) in &channels {
        match outcome {
            Ok(v) => println!(
                "  {name}: n={} pwcet@{p:e}={:.0} hwm={:.0} iid={}",
                v.provenance.n,
                v.budget_for(p)?,
                v.high_watermark(),
                v.iid.label(),
            ),
            Err(e) => println!("  {name}: FAILED ({e})"),
        }
    }
    let (worst, budget) = envelope.map_err(|e| format!("envelope unavailable: {e}"))?;
    println!("envelope pwcet@{p:e} = {budget:.0} (worst channel: {worst})");

    // 5. A repeated query finishes no channel: it folds the outcomes
    //    kept at each channel's routed count (a hit in the stats).
    let _ = client.verdict(1e-12, None)?;
    let stats = client.stats()?;
    println!(
        "stats: total={} channels={} cache hits={} misses={}",
        stats.total, stats.channels, stats.cache_hits, stats.cache_misses
    );

    client.shutdown()?;
    handle.join().expect("server thread")?;
    Ok(())
}
