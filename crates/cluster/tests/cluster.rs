//! Cluster integration tests: router + real backend servers on loopback.
//!
//! * the consistent-hash ring places subscriptions on exactly the
//!   backend `Ring::route` names (the wire contract);
//! * under randomized SUB/UNSUB/PUB churn, routed-and-merged rows are
//!   byte-identical to a single-process oracle over the same live set;
//! * killing a backend mid-stream degrades matching to the surviving
//!   partitions (rows flagged `partial`, `cluster_degraded` counted),
//!   churn routed at the dead backend is refused, and after a restart the
//!   backend recovers its durable subscriptions and rejoins.

use apcm_bexpr::{Event, SubId, Subscription};
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_server::client::ConnectOptions;
use apcm_server::protocol::render_result;
use apcm_server::{BrokerClient, PersistConfig, Ring, ServerConfig};
use apcm_workload::WorkloadSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N_BACKENDS: usize = 3;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn backend_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 32,
        flush_interval: Duration::from_millis(2),
        maintenance_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    }
}

/// Fast health cadence so failure detection and rejoin fit in test time.
fn router_config() -> RouterConfig {
    RouterConfig {
        health_interval: Duration::from_millis(25),
        connect: ConnectOptions {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_secs(10)),
            attempts: 1,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..ConnectOptions::default()
        },
        ..RouterConfig::default()
    }
}

fn connect(addr: &str) -> BrokerClient {
    let client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// Brute-force oracle rows over the live set, sorted ascending — the same
/// contract the router's merge promises.
fn oracle_rows(subs: &[&Subscription], events: &[Event]) -> Vec<Vec<SubId>> {
    events
        .iter()
        .map(|ev| {
            let mut row: Vec<SubId> = subs
                .iter()
                .filter(|s| s.matches(ev))
                .map(|s| s.id())
                .collect();
            row.sort_unstable();
            row
        })
        .collect()
}

/// Waits until the router's TOPOLOGY report shows `want` backends up.
fn wait_backends_up(client: &mut BrokerClient, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let lines = client.topology().unwrap();
        let up = lines.iter().filter(|l| l.contains(" up ")).count();
        if up == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backends never came up: {lines:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The cluster-level pin of the routing contract: ids subscribed through
/// the router land on exactly the backend the consistent-hash ring
/// names. (The ring placement itself is pinned by golden tests in both
/// crates; this is the end-to-end half of that contract.)
#[test]
fn router_places_ids_on_the_contract_partition() {
    let wl = WorkloadSpec::new(120).seed(0xC1).build();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        (0..N_BACKENDS).map(|_| backend_config()).collect(),
        router_config(),
    )
    .unwrap();
    let mut client = connect(&cluster.router_addr());
    wait_backends_up(&mut client, N_BACKENDS);

    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    let ring = Ring::new(&[0, 1, 2]);
    let mut expect = [0usize; N_BACKENDS];
    for sub in &wl.subs {
        expect[ring.route(sub.id()) as usize] += 1;
    }
    for (i, &want) in expect.iter().enumerate() {
        let got = cluster.backend(i).unwrap().engine().len();
        assert_eq!(got, want, "backend {i} subscription count");
    }

    client.quit().unwrap();
    cluster.shutdown();
}

/// Randomized SUB/UNSUB/PUB churn through the router versus a
/// brute-force oracle over the live set. Rendered rows
/// must be byte-identical to the oracle's.
#[test]
fn scatter_gather_agrees_with_single_process_oracle() {
    let wl = WorkloadSpec::new(150).seed(0xC2).build();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        vec![backend_config(); N_BACKENDS],
        router_config(),
    )
    .unwrap();
    let mut client = connect(&cluster.router_addr());
    wait_backends_up(&mut client, N_BACKENDS);

    let mut rng = StdRng::seed_from_u64(0xC2C2);
    let mut live = vec![false; wl.subs.len()];
    for round in 0..6 {
        // Churn: every subscription flips live with p=0.5 each round.
        for (i, sub) in wl.subs.iter().enumerate() {
            if !live[i] && rng.gen_bool(0.5) {
                client.subscribe(sub, &wl.schema).unwrap();
                live[i] = true;
            } else if live[i] && rng.gen_bool(0.3) {
                client.unsubscribe(sub.id()).unwrap();
                live[i] = false;
            }
        }
        let events = wl.events(24 + round);
        let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
        assert_eq!(results.len(), events.len(), "round {round}");

        let live_subs: Vec<&Subscription> = wl
            .subs
            .iter()
            .enumerate()
            .filter(|(i, _)| live[*i])
            .map(|(_, s)| s)
            .collect();
        let expect = oracle_rows(&live_subs, &events);
        let base = *results.keys().next().unwrap();
        for (seq, (row, partial)) in &results {
            let i = (seq - base) as usize;
            assert!(!partial, "round {round} event {i} flagged partial");
            // Byte-identical rendered rows, not merely equal id sets.
            assert_eq!(
                render_result(*seq, row),
                render_result(*seq, &expect[i]),
                "round {round} event {i}"
            );
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats["cluster_degraded"], 0);
    assert_eq!(stats["backends_up"], N_BACKENDS as u64);
    assert!(stats["windows"] >= 6);
    assert!(stats["subs_routed"] >= 1);
    assert!(stats["unsubs_routed"] >= 1);

    client.quit().unwrap();
    let rendered = cluster.shutdown();
    assert!(rendered.contains("cluster_degraded 0"));
}

/// Kill one backend mid-stream: surviving partitions keep matching with
/// rows flagged partial, churn at the dead backend is refused, ownership
/// reclaim works through the router, and after a restart the backend
/// recovers its durable subscriptions and rejoins cleanly.
#[test]
fn backend_failure_degrades_then_rejoins() {
    let wl = WorkloadSpec::new(90).seed(0xC3).build();
    let dir = tmpdir("rejoin");
    let configs: Vec<ServerConfig> = (0..N_BACKENDS)
        .map(|i| ServerConfig {
            persist: Some(PersistConfig::new(dir.join(format!("backend{i}")))),
            ..backend_config()
        })
        .collect();
    let mut cluster = ClusterHandle::start(wl.schema.clone(), configs, router_config()).unwrap();
    let mut client = connect(&cluster.router_addr());
    wait_backends_up(&mut client, N_BACKENDS);

    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    let all: Vec<&Subscription> = wl.subs.iter().collect();

    // Healthy window: full rows, nothing partial.
    let events = wl.events(20);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    let expect = oracle_rows(&all, &events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        assert!(!partial);
        assert_eq!(row, &expect[(seq - base) as usize]);
    }

    // Crash backend 1 (no flush — durability comes from the churn log).
    const VICTIM: usize = 1;
    cluster.kill_backend(VICTIM);
    wait_backends_up(&mut client, N_BACKENDS - 1);

    // Mid-stream window: surviving partitions only, every row partial.
    let events = wl.events(20);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    let ring = Ring::new(&[0, 1, 2]);
    let survivors: Vec<&Subscription> = wl
        .subs
        .iter()
        .filter(|s| ring.route(s.id()) != VICTIM as u32)
        .collect();
    let expect = oracle_rows(&survivors, &events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        assert!(partial, "event {} not flagged partial", seq - base);
        assert_eq!(row, &expect[(seq - base) as usize], "event {}", seq - base);
    }

    // Churn routed at the dead backend is refused with a structured error.
    let victim_sub = wl
        .subs
        .iter()
        .find(|s| ring.route(s.id()) == VICTIM as u32)
        .unwrap();
    let err = client.unsubscribe(victim_sub.id()).unwrap_err();
    assert!(
        err.to_string().contains("unavailable"),
        "unexpected error: {err}"
    );

    // Restart: recovery replays the churn log, the health sweep redials,
    // and full (non-partial) rows come back with no duplicates.
    cluster.restart_backend(VICTIM).unwrap();
    wait_backends_up(&mut client, N_BACKENDS);
    assert!(!cluster.backend(VICTIM).unwrap().engine().is_empty());

    let events = wl.events(20);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    let expect = oracle_rows(&all, &events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        assert!(!partial, "event {} still partial after rejoin", seq - base);
        let i = (seq - base) as usize;
        assert_eq!(row, &expect[i], "event {i} after rejoin");
        let mut deduped = row.clone();
        deduped.dedup();
        assert_eq!(&deduped, row, "event {i} has duplicate ids");
    }

    // The recovered subscriptions have no owner on the restarted backend;
    // re-subscribing the identical expression through the router is an
    // ownership takeover, counted as a reclaim by the backend.
    assert!(client.subscribe_or_claim(victim_sub, &wl.schema).unwrap());
    let backend_stats = cluster.backend(VICTIM).unwrap().stats();
    assert!(apcm_server::ServerStats::get(&backend_stats.subs_reclaimed) >= 1);

    let stats = client.stats().unwrap();
    assert!(stats["cluster_degraded"] >= 1);
    assert!(stats["backend_errors"] >= 1);
    assert!(stats["backend_reconnects"] >= 1);
    assert!(stats["claims_routed"] >= 1);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TOPOLOGY through the bundled client, and the explicit CLAIM verb
/// routed to a backend.
#[test]
fn topology_and_claim_round_trip() {
    let wl = WorkloadSpec::new(40).seed(0xC4).build();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        (0..N_BACKENDS).map(|_| backend_config()).collect(),
        router_config(),
    )
    .unwrap();
    let mut subscriber = connect(&cluster.router_addr());
    wait_backends_up(&mut subscriber, N_BACKENDS);

    let lines = subscriber.topology().unwrap();
    // One node line plus one summary line per partition.
    assert_eq!(lines.len(), 2 * N_BACKENDS);
    let node_lines: Vec<&String> = lines.iter().filter(|l| l.starts_with("backend ")).collect();
    assert_eq!(node_lines.len(), N_BACKENDS);
    for (i, line) in node_lines.iter().enumerate() {
        assert!(line.starts_with(&format!("backend {i} ")), "{line}");
        assert!(line.contains(" up "), "{line}");
        assert!(line.contains("ping_us"), "{line}");
    }
    for i in 0..N_BACKENDS {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("summary {i} "))),
            "missing summary line for partition {i}: {lines:?}"
        );
    }

    for sub in &wl.subs {
        subscriber.subscribe(sub, &wl.schema).unwrap();
    }
    // A second connection claims one id; the EVENT notification for a
    // matching publish must follow the new owner.
    let mut claimer = connect(&cluster.router_addr());
    claimer.claim(wl.subs[0].id()).unwrap();

    let stats = claimer.stats().unwrap();
    assert!(stats["claims_routed"] >= 1);
    assert_eq!(stats["backends"], N_BACKENDS as u64);

    subscriber.quit().unwrap();
    claimer.quit().unwrap();
    cluster.shutdown();
}

/// How many OS threads this process is running (router and backends
/// included — the cluster runs in-process in these tests).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The router serves its clients on a fixed netio worker pool: a thousand
/// idle client connections add no per-connection threads.
#[test]
fn thousand_idle_clients_on_the_router_pool() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const CONNS: usize = 1000;
    let wl = WorkloadSpec::new(10).seed(0xC5).build();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        (0..2).map(|_| backend_config()).collect(),
        router_config(),
    )
    .unwrap();
    let addr = cluster.router_addr();
    let threads_before = process_threads();

    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"PING\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "+PONG");
        conns.push((stream, reader));
    }

    // Other tests in this binary start and stop clusters concurrently, so
    // sample until their threads are gone; the router's own connections
    // stay open throughout.
    let deadline = Instant::now() + Duration::from_secs(30);
    let grown = loop {
        let grown = process_threads().saturating_sub(threads_before);
        if grown < 10 || Instant::now() > deadline {
            break grown;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        grown < 10,
        "expected a fixed worker pool, thread count grew by {grown} for {CONNS} router clients"
    );

    let (stream, reader) = &mut conns[617];
    stream.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+PONG");

    drop(conns);
    cluster.shutdown();
}
