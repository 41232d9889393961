//! `apcm` — command-line front end: generate workload traces, replay them
//! through any engine, and inspect engine statistics.
//!
//! ```sh
//! apcm gen --subs 100000 --events 20000 --out trace.txt
//! apcm match --trace trace.txt --engine apcm
//! apcm match --trace trace.txt --engine scan --limit 100
//! apcm stats --trace trace.txt
//! apcm serve --addr 127.0.0.1:7401 --shards 4
//! apcm route --addr 127.0.0.1:7400 --backends 127.0.0.1:7401,127.0.0.1:7402
//! apcm client --addr 127.0.0.1:7401
//! ```

use apcm::baselines::{CountingMatcher, KIndex, ParallelScan, SequentialScan};
use apcm::betree::{BeTree, HybridPcmTree};
use apcm::cluster::{BackendSpec, Router, RouterConfig};
use apcm::core::{ApcmConfig, ApcmMatcher, PcmMatcher};
use apcm::prelude::*;
use apcm::server::client::{connect_stream, is_timeout_error, ConnectOptions};
use apcm::server::{FsyncPolicy, PersistConfig, Server, ServerConfig, SlowConsumerPolicy};
use apcm::workload::{Trace, ValueDist, WorkloadSpec};
use std::collections::HashMap;
use std::io::BufRead;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, rest) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "gen" => cmd_gen(&flags),
        "match" => cmd_match(&flags),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "route" => cmd_route(&flags),
        "client" => cmd_client(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  apcm gen   --subs N [--events N] [--dims N] [--cardinality N] [--preds MIN:MAX]
             [--event-size N] [--planted F] [--zipf S] [--seed N] [--out FILE]
  apcm match --trace FILE [--engine apcm|pcm|hybrid|betree|scan|pscan|counting|kindex]
             [--batch N] [--limit N]
  apcm stats --trace FILE
  apcm serve [--addr HOST:PORT] [--dims N] [--cardinality N] [--shards N]
             [--window N] [--queue N] (every shard runs A-PCM)
             [--flush-ms N] [--maintenance-ms N] [--slow-consumer drop|disconnect]
             [--persist-dir DIR] [--fsync always|interval|never] [--snapshot-secs N]
             [--max-delta-chain N] [--rotate-bytes N] [--idle-timeout-ms N]
             [--max-line-bytes N] [--loop-workers N] [--max-conns N]
             (snapshots are colstore v2; a text v1 snapshot in DIR is refused)
             [--replica-of HOST:PORT]  (start as a read-only follower; needs --persist-dir)
  apcm route --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT] [--dims N]
             [--cardinality N] [--health-ms N] [--probe-timeout-ms N]
             [--connect-timeout-ms N] [--read-timeout-ms N] [--queue N]
             [--max-line-bytes N]
             [--replicas CHAIN,...]  (one chain per backend, same order; a
              chain is HOST:PORT or a `+`-joined hop list f1+f2+f3)
             (live resharding: send `RESHARD ADD PRIMARY [F1 F2 ...]`,
              `RESHARD REMOVE N`, or `RESHARD STATUS` via `apcm client`)
  apcm client [--addr HOST:PORT] [--connect-timeout-ms N] [--read-timeout-ms N]
             [--retries N]
             (reads protocol lines from stdin)";

/// The flags each subcommand reads, space-separated; `None` for
/// commands that take none (or are unknown, which dispatch reports).
fn known_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "gen" => "subs events dims cardinality preds event-size planted zipf seed out",
        "match" => "trace engine batch limit",
        "stats" => "trace",
        "serve" => {
            "addr dims cardinality shards window queue flush-ms maintenance-ms \
             slow-consumer persist-dir fsync snapshot-secs max-delta-chain \
             rotate-bytes idle-timeout-ms max-line-bytes loop-workers max-conns replica-of"
        }
        "route" => {
            "backends replicas addr dims cardinality health-ms probe-timeout-ms \
             connect-timeout-ms read-timeout-ms queue max-line-bytes"
        }
        "client" => "addr connect-timeout-ms read-timeout-ms retries",
        _ => return None,
    })
}

/// Parses `--name value` pairs, rejecting any flag `command` does not
/// read: a misspelt flag (`--shard 4`) must fail loudly, not run with
/// the default.
fn parse_flags(command: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let known = known_flags(command);
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found `{flag}`"));
        };
        if known.is_some_and(|known| !known.split_whitespace().any(|k| k == name)) {
            return Err(format!("unknown flag --{name} for {command}"));
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse `{text}`")),
    }
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let n_subs: usize = get(flags, "subs", 10_000)?;
    let n_events: usize = get(flags, "events", 10_000)?;
    let mut spec = WorkloadSpec::new(n_subs)
        .dims(get(flags, "dims", 20)?)
        .cardinality(get(flags, "cardinality", 1000)?)
        .event_size(get(flags, "event-size", 15)?)
        .planted_fraction(get(flags, "planted", 0.01)?)
        .seed(get(flags, "seed", 42)?);
    if let Some(preds) = flags.get("preds") {
        let (lo, hi) = preds
            .split_once(':')
            .ok_or("flag --preds: expected MIN:MAX")?;
        spec = spec.sub_preds(
            lo.parse().map_err(|_| "flag --preds: bad MIN")?,
            hi.parse().map_err(|_| "flag --preds: bad MAX")?,
        );
    }
    let zipf: f64 = get(flags, "zipf", 0.0)?;
    if zipf > 0.0 {
        spec = spec.values(ValueDist::Zipf(zipf));
    }
    spec.validate()?;

    let wl = spec.build();
    let trace = Trace::from_workload(&wl, n_events);
    let out = flags.get("out").cloned().unwrap_or("trace.txt".to_string());
    trace
        .save_to_path(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} attributes, {} subscriptions, {} events",
        trace.schema.dims(),
        trace.subs.len(),
        trace.events.len()
    );
    Ok(())
}

fn load_trace(flags: &HashMap<String, String>) -> Result<Trace, String> {
    let path = flags.get("trace").ok_or("--trace FILE is required")?;
    Trace::load_from_path(path).map_err(|e| e.to_string())
}

fn cmd_match(flags: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(flags)?;
    let engine_name = flags.get("engine").map(String::as_str).unwrap_or("apcm");
    let limit: usize = get(flags, "limit", usize::MAX)?;
    let batch: usize = get(flags, "batch", 256)?;

    let build_start = Instant::now();
    let engine: Box<dyn Matcher> = match engine_name {
        "apcm" => Box::new(
            ApcmMatcher::build(
                &trace.schema,
                &trace.subs,
                &ApcmConfig::default().with_batch_size(batch.max(1)),
            )
            .map_err(|e| e.to_string())?,
        ),
        "pcm" => Box::new(
            PcmMatcher::build(&trace.schema, &trace.subs, &ApcmConfig::pcm())
                .map_err(|e| e.to_string())?,
        ),
        "betree" => Box::new(BeTree::build(&trace.schema, &trace.subs).map_err(|e| e.to_string())?),
        "hybrid" => {
            Box::new(HybridPcmTree::build(&trace.schema, &trace.subs).map_err(|e| e.to_string())?)
        }
        "scan" => Box::new(SequentialScan::new(&trace.subs)),
        "pscan" => Box::new(ParallelScan::new(&trace.subs)),
        "counting" => {
            Box::new(CountingMatcher::build(&trace.schema, &trace.subs).map_err(|e| e.to_string())?)
        }
        "kindex" => Box::new(KIndex::build(&trace.schema, &trace.subs)),
        other => return Err(format!("unknown engine `{other}`")),
    };
    let build_time = build_start.elapsed();

    let events = &trace.events[..trace.events.len().min(limit)];
    if events.is_empty() {
        return Err("trace has no events (generate with --events)".into());
    }
    let start = Instant::now();
    let mut matches = 0usize;
    for chunk in events.chunks(batch.max(1)) {
        for row in engine.match_batch(chunk) {
            matches += row.len();
        }
    }
    let elapsed = start.elapsed();
    println!(
        "{}: {} subscriptions built in {:.2?}",
        engine.name(),
        engine.len(),
        build_time
    );
    println!(
        "matched {} events in {:.2?} ({:.0} events/s), {} total matches \
         ({:.2} per event)",
        events.len(),
        elapsed,
        events.len() as f64 / elapsed.as_secs_f64(),
        matches,
        matches as f64 / events.len() as f64
    );
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7401".to_string());
    let schema = Schema::uniform(get(flags, "dims", 20)?, get(flags, "cardinality", 1000)?);
    let mut config = ServerConfig {
        shards: get(flags, "shards", 4)?,
        window: get(flags, "window", 128)?,
        ingest_queue: get(flags, "queue", 4096)?,
        flush_interval: Duration::from_millis(get(flags, "flush-ms", 5)?),
        maintenance_interval: Duration::from_millis(get(flags, "maintenance-ms", 250)?),
        ..ServerConfig::default()
    };
    if let Some(policy) = flags.get("slow-consumer") {
        config.slow_consumer = SlowConsumerPolicy::parse(policy)?;
    }
    config.max_line_bytes = get(flags, "max-line-bytes", config.max_line_bytes)?;
    let idle_ms: u64 = get(flags, "idle-timeout-ms", 0)?;
    if idle_ms > 0 {
        config.idle_timeout = Some(Duration::from_millis(idle_ms));
    }
    let max_conns: usize = get(flags, "max-conns", 0)?;
    if max_conns > 0 {
        config.max_conns = Some(max_conns);
    }
    let loop_workers: usize = get(flags, "loop-workers", 0)?;
    if loop_workers > 0 {
        config.loop_workers = Some(loop_workers);
    }
    if let Some(dir) = flags.get("persist-dir") {
        let mut persist = PersistConfig::new(dir);
        if let Some(policy) = flags.get("fsync") {
            persist.fsync = FsyncPolicy::parse(policy)?;
        }
        let snapshot_secs: u64 = get(flags, "snapshot-secs", 60)?;
        persist.snapshot_interval = (snapshot_secs > 0).then(|| Duration::from_secs(snapshot_secs));
        persist.rotate_log_bytes = get(flags, "rotate-bytes", persist.rotate_log_bytes)?;
        persist.max_delta_chain = get(flags, "max-delta-chain", persist.max_delta_chain)?;
        config.persist = Some(persist);
    }
    if let Some(primary) = flags.get("replica-of") {
        config.replica_of = Some(primary.clone());
    }
    config.validate()?;

    let following = config.replica_of.clone();
    let server = Server::start(schema, config, &addr).map_err(|e| e.to_string())?;
    if let Some(report) = server.recovery_report() {
        print!("{report}");
    }
    println!(
        "listening on {} ({} shards, event-loop io); \
         close stdin or type `stop` to shut down",
        server.local_addr(),
        server.engine().shard_count()
    );
    if let Some(primary) = following {
        println!("  replica mode: following {primary} (client churn is refused until PROMOTE)");
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "stop" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    println!("shutting down...");
    print!("{}", server.shutdown());
    Ok(())
}

/// The cluster front: routes churn by id hash, fans publishes to every
/// live backend, and merges rows. Backends are `apcm serve` instances
/// sharing this router's `--dims`/`--cardinality` schema. With
/// `--replicas`, each backend is paired positionally with a comma-
/// separated slot naming its replication chain: a single address is one
/// follower, `f1+f2+f3` is a three-deep chain (each hop started via
/// `apcm serve --replica-of` pointing at the previous one). The router
/// promotes the most caught-up live chain member when the primary is
/// marked down, and serves reads from followers past the churn-ack floor.
fn cmd_route(flags: &HashMap<String, String>) -> Result<(), String> {
    fn split_addrs(text: &str) -> Vec<String> {
        text.split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect()
    }
    let backends: Vec<String> = split_addrs(
        flags
            .get("backends")
            .ok_or("--backends HOST:PORT,... is required")?,
    );
    if backends.is_empty() {
        return Err("--backends must name at least one backend".into());
    }
    // Each comma slot is one partition's chain; `+` separates hops.
    let replicas: Vec<Vec<String>> = flags
        .get("replicas")
        .map(|t| {
            split_addrs(t)
                .into_iter()
                .map(|slot| {
                    slot.split('+')
                        .map(|a| a.trim().to_string())
                        .filter(|a| !a.is_empty())
                        .collect()
                })
                .collect()
        })
        .unwrap_or_default();
    if !replicas.is_empty() && replicas.len() != backends.len() {
        return Err(format!(
            "--replicas names {} follower chains for {} backends (pair them positionally)",
            replicas.len(),
            backends.len()
        ));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7400".to_string());
    let schema = Schema::uniform(get(flags, "dims", 20)?, get(flags, "cardinality", 1000)?);
    let mut config = RouterConfig {
        health_interval: Duration::from_millis(get(flags, "health-ms", 100)?),
        ..RouterConfig::default()
    };
    let probe_ms: u64 = get(flags, "probe-timeout-ms", 500)?;
    config.probe_timeout = Duration::from_millis(probe_ms);
    config.conn_queue = get(flags, "queue", config.conn_queue)?;
    config.max_line_bytes = get(flags, "max-line-bytes", config.max_line_bytes)?;
    let connect_ms: u64 = get(flags, "connect-timeout-ms", 1000)?;
    config.connect.connect_timeout = (connect_ms > 0).then(|| Duration::from_millis(connect_ms));
    let read_ms: u64 = get(flags, "read-timeout-ms", 10_000)?;
    config.connect.read_timeout = (read_ms > 0).then(|| Duration::from_millis(read_ms));
    config.validate()?;

    let router = if replicas.is_empty() {
        Router::start(schema, &backends, config, &addr)
    } else {
        let specs: Vec<BackendSpec> = backends
            .iter()
            .zip(&replicas)
            .map(|(primary, chain)| BackendSpec::chain(primary.clone(), chain.clone()))
            .collect();
        Router::start_replicated(schema, &specs, config, &addr)
    }
    .map_err(|e| e.to_string())?;
    println!(
        "routing on {} over {} backends ({} up); close stdin or type `stop` to shut down",
        router.local_addr(),
        router.membership().len(),
        router.membership().up_count()
    );
    for line in router.membership().topology_lines() {
        println!("  {line}");
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(text) if text.trim() == "stop" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    println!("shutting down...");
    print!("{}", router.shutdown());
    Ok(())
}

/// Dials the broker with a bounded connect timeout and `retries` extra
/// jittered-backoff attempts (seeded per-process so simultaneous clients
/// spread out).
fn dial_with_retries(
    addr: &str,
    connect_ms: u64,
    read_timeout_ms: u64,
    retries: u32,
) -> Result<std::net::TcpStream, String> {
    let options = ConnectOptions {
        connect_timeout: (connect_ms > 0).then(|| Duration::from_millis(connect_ms)),
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        attempts: retries.saturating_add(1),
        jitter_seed: std::process::id() as u64,
        ..ConnectOptions::default()
    };
    connect_stream(addr, &options).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7401".to_string());
    let connect_ms: u64 = get(flags, "connect-timeout-ms", 5000)?;
    let read_timeout_ms: u64 = get(flags, "read-timeout-ms", 0)?;
    let retries: u32 = get(flags, "retries", 0)?;
    let stream = dial_with_retries(&addr, connect_ms, read_timeout_ms, retries)?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;

    // A background thread prints everything the broker sends, while this
    // thread pumps stdin lines to the socket (netcat-style). With
    // --read-timeout-ms, an expired wait keeps any partial line in the
    // buffer and retries; only EOF or a hard error ends the printer.
    let printer = std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(read_half);
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    while line.ends_with('\n') || line.ends_with('\r') {
                        line.pop();
                    }
                    println!("{line}");
                    line.clear();
                }
                Err(e) if is_timeout_error(&e) => continue,
                Err(_) => break,
            }
        }
    });
    {
        use std::io::Write;
        let mut write_half = std::io::BufWriter::new(&stream);
        for line in std::io::stdin().lock().lines() {
            let Ok(text) = line else { break };
            if write_half.write_all(text.as_bytes()).is_err()
                || write_half.write_all(b"\n").is_err()
                || write_half.flush().is_err()
            {
                break;
            }
            if text.trim().eq_ignore_ascii_case("QUIT") {
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = printer.join();
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let trace = load_trace(flags)?;
    println!("schema: {} attributes", trace.schema.dims());
    for (_, info) in trace.schema.iter() {
        println!(
            "  {} in [{}, {}] ({} values)",
            info.name(),
            info.domain().min(),
            info.domain().max(),
            info.domain().cardinality()
        );
    }
    println!("subscriptions: {}", trace.subs.len());
    let mut by_size: HashMap<usize, usize> = HashMap::new();
    for sub in &trace.subs {
        *by_size.entry(sub.len()).or_insert(0) += 1;
    }
    let mut sizes: Vec<_> = by_size.into_iter().collect();
    sizes.sort_unstable();
    for (k, n) in sizes {
        println!("  {n} with {k} predicate(s)");
    }
    println!("events: {}", trace.events.len());

    let matcher = ApcmMatcher::build(&trace.schema, &trace.subs, &ApcmConfig::default())
        .map_err(|e| e.to_string())?;
    let stats = matcher.stats();
    println!(
        "A-PCM index: {} clusters ({} compressed, {} direct), predicate space {} bits, \
         bitmap heap {} bytes",
        stats.clusters,
        stats.compressed_clusters,
        stats.direct_clusters,
        stats.width,
        stats.heap_bytes
    );
    Ok(())
}
