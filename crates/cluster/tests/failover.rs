//! Failover drills: replicated partitions behind the router.
//!
//! * killing a primary with a caught-up replica promotes the replica —
//!   match rows stay byte-identical to a single-process oracle, nothing
//!   is flagged `partial`, and no acknowledged churn is lost across
//!   kill → promote → rejoin → re-promote, including under injected
//!   replication-stream faults;
//! * a seeded randomized chaos drill interleaves churn with node kills,
//!   promotions, and restarts, then checks every acked churn op against
//!   the oracle.
//!
//! Failpoints are a process-global registry, so the tests serialize on
//! [`lock`].

use apcm_bexpr::{Event, SubId, Subscription};
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_server::client::ConnectOptions;
use apcm_server::persist::failpoint::{self, FailAction};
use apcm_server::protocol::render_result;
use apcm_server::{BrokerClient, PersistConfig, Role, ServerConfig};
use apcm_workload::WorkloadSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const PARTITIONS: usize = 2;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn node_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 32,
        flush_interval: Duration::from_millis(2),
        maintenance_interval: Duration::from_millis(50),
        repl_ack_every: 2,
        persist: Some(PersistConfig {
            snapshot_interval: None,
            retry_backoff: Duration::from_millis(20),
            ..PersistConfig::new(dir)
        }),
        ..ServerConfig::default()
    }
}

/// Fast health cadence so failure detection, promotion, and rejoin fit in
/// test time.
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

/// A replicated cluster: `PARTITIONS` partitions, each a primary + replica
/// pair with separate persist directories under `dir`.
fn replicated_cluster(schema: &apcm_bexpr::Schema, dir: &Path) -> ClusterHandle {
    let pairs = (0..PARTITIONS)
        .map(|i| {
            (
                node_config(&dir.join(format!("p{i}-primary"))),
                Some(node_config(&dir.join(format!("p{i}-replica")))),
            )
        })
        .collect();
    ClusterHandle::start_replicated(schema.clone(), pairs, router_config()).unwrap()
}

fn connect(addr: &str) -> BrokerClient {
    let mut client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Generous retry budget: churn issued mid-role-flip must ride out the
    // promotion window, not error.
    client.set_churn_retry(60, Duration::from_millis(25));
    client
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    panic!("timed out waiting for {what}");
}

fn nodes_up(client: &mut BrokerClient) -> usize {
    client
        .topology()
        .unwrap()
        .iter()
        .filter(|l| l.contains(" up "))
        .count()
}

/// Whether every partition whose nodes are all running has its replica
/// caught up to the primary (applied sequences equal).
fn synced(cluster: &ClusterHandle) -> bool {
    (0..cluster.backend_count()).all(|p| match (cluster.node(p, 0), cluster.node(p, 1)) {
        (Some(a), Some(b)) => a.current_seq() == b.current_seq(),
        _ => true,
    })
}

/// The node index TOPOLOGY reports as the up primary of `partition`, if
/// exactly one node does.
fn reported_primary(
    client: &mut BrokerClient,
    cluster: &ClusterHandle,
    partition: usize,
) -> Option<usize> {
    let prefix = format!("backend {partition} ");
    let primaries: Vec<String> = client
        .topology()
        .unwrap()
        .iter()
        .filter(|l| l.starts_with(&prefix) && l.contains(" up ") && l.contains("role=primary"))
        .filter_map(|l| l.split_whitespace().nth(2).map(str::to_string))
        .collect();
    if primaries.len() != 1 {
        return None;
    }
    (0..cluster.node_count(partition)).find(|&n| cluster.node_addr(partition, n) == primaries[0])
}

/// Waits until `partition` has both nodes up, exactly one primary, and a
/// caught-up replica; returns the primary's node index.
fn wait_settled(client: &mut BrokerClient, cluster: &ClusterHandle, partition: usize) -> usize {
    let mut primary = 0;
    wait_until(&format!("partition {partition} to settle"), || {
        let both_up = cluster.node(partition, 0).is_some()
            && cluster.node(partition, 1).is_some()
            && nodes_up(client) == PARTITIONS * 2;
        if !both_up || !synced(cluster) {
            return false;
        }
        match reported_primary(client, cluster, partition) {
            Some(n) => {
                primary = n;
                true
            }
            None => false,
        }
    });
    primary
}

/// Brute-force oracle rows over the live set, sorted ascending.
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

/// Publishes a window through the router and asserts every merged row is
/// byte-identical to the oracle over `live` and never flagged partial.
fn assert_window_matches(
    client: &mut BrokerClient,
    wl: &apcm_workload::Workload,
    live: &[&Subscription],
    n_events: usize,
    context: &str,
) {
    let events = wl.events(n_events);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    assert_eq!(results.len(), events.len(), "{context}");
    let expect = oracle_rows(live, &events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        let i = (seq - base) as usize;
        if *partial {
            let topology = client.topology().unwrap();
            let stats = client.stats().unwrap();
            panic!(
                "{context}: event {i} flagged partial\ntopology: {topology:#?}\nstats: {stats:#?}"
            );
        }
        assert_eq!(
            render_result(*seq, row),
            render_result(*seq, &expect[i]),
            "{context}: event {i}"
        );
    }
}

/// The acceptance drill: kill the primary of a partition mid-stream with a
/// caught-up replica — the router promotes, rows stay byte-identical to
/// the oracle with nothing partial, and no acked churn is lost across
/// kill → promote → rejoin (demote) → re-promote. Replication-stream
/// faults are injected along the way.
#[test]
fn failover_promotes_replica_and_loses_no_churn() {
    let _guard = lock();
    failpoint::reset();
    let wl = WorkloadSpec::new(120).seed(0xFA11).build();
    let dir = tmpdir("acceptance");
    let mut cluster = replicated_cluster(&wl.schema, &dir);
    let mut client = connect(&cluster.router_addr());
    wait_until("all nodes up", || nodes_up(&mut client) == PARTITIONS * 2);

    // TOPOLOGY carries the replication columns for every node, plus one
    // summary line per partition.
    let lines = client.topology().unwrap();
    assert_eq!(lines.len(), PARTITIONS * 3);
    for line in lines.iter().filter(|l| l.starts_with("backend ")) {
        assert!(line.contains("role="), "{line}");
        assert!(line.contains(" lag "), "{line}");
        assert!(line.contains(" seq "), "{line}");
    }
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("summary ")).count(),
        PARTITIONS
    );

    // Baseline churn, then churn under injected replication-stream faults:
    // a dropped stream, then a torn frame. Replicas must heal by
    // reconnect + log-tail catch-up.
    for sub in &wl.subs[..60] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    failpoint::arm("repl.stream.send", FailAction::Error, Some(2));
    for sub in &wl.subs[60..80] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    failpoint::arm("repl.stream.send", FailAction::TornWrite(7), Some(2));
    for sub in &wl.subs[80..100] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    failpoint::reset();
    wait_until("replicas caught up after faults", || synced(&cluster));

    let live: Vec<&Subscription> = wl.subs[..100].iter().collect();
    assert_window_matches(&mut client, &wl, &live, 20, "healthy window");

    // Kill the primary of partition 0. The replica is caught up, so the
    // first churn or publish that trips over the dead socket promotes it.
    let victim = wait_settled(&mut client, &cluster, 0);
    let standby = 1 - victim;
    cluster.kill_node(0, victim);

    for sub in &wl.subs[..20] {
        client.unsubscribe(sub.id()).unwrap();
    }
    for sub in &wl.subs[100..] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    let live: Vec<&Subscription> = wl.subs[20..].iter().collect();
    assert_window_matches(&mut client, &wl, &live, 20, "window after failover");
    wait_until("standby promoted", || {
        reported_primary(&mut client, &cluster, 0) == Some(standby)
    });

    // The ex-primary rejoins with its original (primary) config; the
    // sweep demotes it into a follower of the promoted node and it pulls
    // the churn it missed.
    cluster.restart_node(0, victim).unwrap();
    wait_until("ex-primary demoted and caught up", || {
        cluster
            .node(0, victim)
            .is_some_and(|s| matches!(s.role(), Role::Replica { .. }))
            && synced(&cluster)
    });
    assert_eq!(wait_settled(&mut client, &cluster, 0), standby);

    // Re-promote the original node by killing the replacement.
    cluster.kill_node(0, standby);
    for sub in &wl.subs[20..40] {
        client.unsubscribe(sub.id()).unwrap();
    }
    let live: Vec<&Subscription> = wl.subs[40..].iter().collect();
    assert_window_matches(&mut client, &wl, &live, 20, "window after re-promotion");
    wait_until("original node re-promoted", || {
        reported_primary(&mut client, &cluster, 0) == Some(victim)
    });

    cluster.restart_node(0, standby).unwrap();
    wait_until("replacement rejoined as follower", || {
        cluster
            .node(0, standby)
            .is_some_and(|s| matches!(s.role(), Role::Replica { .. }))
            && synced(&cluster)
    });
    assert_eq!(wait_settled(&mut client, &cluster, 0), victim);
    assert_window_matches(&mut client, &wl, &live, 24, "final window");

    // Gauges are eventually consistent against the background sweep; the
    // monotonic counters below are not.
    wait_until("every node back in the router's table", || {
        let stats = client.stats().unwrap();
        stats["nodes_up"] == (PARTITIONS * 2) as u64 && stats["backends_up"] == PARTITIONS as u64
    });
    let stats = client.stats().unwrap();
    assert_eq!(stats["nodes"], (PARTITIONS * 2) as u64);
    assert!(stats["failovers"] >= 2, "failovers {}", stats["failovers"]);
    assert!(stats["promotions"] >= 2);
    assert!(stats["demotions"] >= 1);
    assert_eq!(stats["cluster_degraded"], 0);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chained cluster: `partitions` partitions, each a replication chain
/// of `chain_len` nodes (node 0 the primary, each later node following
/// the previous) with separate persist directories under `dir`.
fn chained_cluster(
    schema: &apcm_bexpr::Schema,
    dir: &Path,
    partitions: usize,
    chain_len: usize,
) -> ClusterHandle {
    let chains = (0..partitions)
        .map(|p| {
            (0..chain_len)
                .map(|n| node_config(&dir.join(format!("p{p}-n{n}"))))
                .collect()
        })
        .collect();
    ClusterHandle::start_chained(schema.clone(), chains, router_config()).unwrap()
}

/// Whether every *running* node of `partition` has the same applied
/// sequence (dead nodes are skipped).
fn chain_synced(cluster: &ClusterHandle, partition: usize) -> bool {
    let seqs: Vec<u64> = (0..cluster.node_count(partition))
        .filter_map(|n| cluster.node(partition, n))
        .map(|s| s.current_seq())
        .collect();
    seqs.windows(2).all(|w| w[0] == w[1])
}

/// Waits until every node of `partition` is running and up in TOPOLOGY,
/// the chain is synced, and exactly one node answers as primary; returns
/// the primary's node index.
fn wait_chain_settled(
    client: &mut BrokerClient,
    cluster: &ClusterHandle,
    partition: usize,
) -> usize {
    let mut primary = 0;
    wait_until(&format!("partition {partition} chain to settle"), || {
        let nodes = cluster.node_count(partition);
        let all_running = (0..nodes).all(|n| cluster.node(partition, n).is_some());
        if !all_running || !chain_synced(cluster, partition) {
            return false;
        }
        let prefix = format!("backend {partition} ");
        let up = client
            .topology()
            .unwrap()
            .iter()
            .filter(|l| l.starts_with(&prefix) && l.contains(" up "))
            .count();
        if up != nodes {
            return false;
        }
        match reported_primary(client, cluster, partition) {
            Some(n) => {
                primary = n;
                true
            }
            None => false,
        }
    });
    primary
}

/// The follower-served-read staleness drill: a three-node chain serves
/// publish windows from its followers once they clear the churn-ack
/// floor, falls back to the primary the instant churn outruns them
/// (never returning stale rows), and rides out a follower killed
/// mid-window — every routed row stays byte-identical to the
/// single-process oracle throughout.
#[test]
fn follower_reads_stay_fresh_under_lag_and_kills() {
    let _guard = lock();
    failpoint::reset();
    let wl = WorkloadSpec::new(80).seed(0xF07A).build();
    let dir = tmpdir("follower-reads");
    let mut cluster = chained_cluster(&wl.schema, &dir, 1, 3);
    let mut client = connect(&cluster.router_addr());
    wait_until("all nodes up", || nodes_up(&mut client) == 3);

    // TOPOLOGY names every chain position and the per-follower lag/acked
    // columns.
    wait_until("chain roles reported", || {
        let lines = client.topology().unwrap();
        lines.iter().any(|l| l.contains("role=chain[1/2]"))
            && lines.iter().any(|l| l.contains("role=chain[2/2]"))
    });
    for line in client.topology().unwrap() {
        if line.starts_with("backend ") {
            assert!(line.contains(" acked "), "{line}");
            assert!(line.contains(" lag "), "{line}");
        }
    }

    for sub in &wl.subs[..60] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("chain caught up", || chain_synced(&cluster, 0));
    let live: Vec<&Subscription> = wl.subs[..60].iter().collect();

    // Once the sweep certifies the followers (connected, past the
    // floor), windows route to them — and stay byte-identical.
    wait_until("a follower serves a window", || {
        assert_window_matches(&mut client, &wl, &live, 12, "follower-read window");
        client.stats().unwrap()["reads_follower_served"] > 0
    });

    // Lag the chain mid-window: stalled replication sends leave the
    // followers provably behind the churn-ack floor, so the seq-floor
    // guard must route those windows to the primary (fallback counter
    // moves) — rows still exact, stale followers never answer.
    let mut live: Vec<&Subscription> = wl.subs[..60].iter().collect();
    failpoint::arm("repl.stream.send", FailAction::Stall(60), Some(6));
    for (i, sub) in wl.subs[60..66].iter().enumerate() {
        client.subscribe(sub, &wl.schema).unwrap();
        live.push(sub);
        assert_window_matches(&mut client, &wl, &live, 8, &format!("lagged window {i}"));
    }
    failpoint::reset();
    assert!(
        client.stats().unwrap()["reads_floor_fallbacks"] > 0,
        "the floor guard never fired"
    );
    wait_until("chain heals after stalls", || chain_synced(&cluster, 0));

    // Kill the tail follower mid-stream: a window scattered to it rides
    // the error over to the primary (marked down, no failover), and the
    // surviving follower keeps serving reads.
    cluster.kill_node(0, 2);
    for i in 0..4 {
        assert_window_matches(
            &mut client,
            &wl,
            &live,
            10,
            &format!("window after kill {i}"),
        );
    }
    wait_until("dead follower marked down", || nodes_up(&mut client) == 2);
    let served = client.stats().unwrap()["reads_follower_served"];
    wait_until("surviving follower serves", || {
        assert_window_matches(&mut client, &wl, &live, 10, "window on surviving follower");
        client.stats().unwrap()["reads_follower_served"] > served
    });

    cluster.restart_node(0, 2).unwrap();
    wait_chain_settled(&mut client, &cluster, 0);
    assert_window_matches(&mut client, &wl, &live, 16, "final window");
    let stats = client.stats().unwrap();
    assert_eq!(stats["cluster_degraded"], 0);
    assert_eq!(stats["failovers"], 0);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chain acceptance drill: two partitions, each a 3-deep replication
/// chain, under seeded churn. Kill a primary (quorum promotes the most
/// caught-up survivor), kill a mid-chain follower (the orphaned tail is
/// re-aimed at the active node), then fail partition 0 over a second
/// time — zero acked churn lost, every routed window byte-identical to
/// the oracle, nothing partial.
#[test]
fn chain_quorum_failover_drill_preserves_every_acked_churn_op() {
    let _guard = lock();
    failpoint::reset();
    let wl = WorkloadSpec::new(120).seed(0xC4A1).build();
    let dir = tmpdir("chain-quorum");
    let mut cluster = chained_cluster(&wl.schema, &dir, 2, 3);
    let mut client = connect(&cluster.router_addr());
    wait_until("all nodes up", || nodes_up(&mut client) == 6);

    let mut rng = StdRng::seed_from_u64(0xC4A1_C4A1);
    let mut live = vec![false; wl.subs.len()];
    macro_rules! churn_round {
        ($p_sub:expr, $p_unsub:expr) => {
            for (i, sub) in wl.subs.iter().enumerate() {
                if !live[i] && rng.gen_bool($p_sub) {
                    client.subscribe(sub, &wl.schema).unwrap();
                    live[i] = true;
                } else if live[i] && rng.gen_bool($p_unsub) {
                    client.unsubscribe(sub.id()).unwrap();
                    live[i] = false;
                }
            }
        };
    }
    macro_rules! check_window {
        ($n:expr, $context:expr) => {
            let live_subs: Vec<&Subscription> = wl
                .subs
                .iter()
                .enumerate()
                .filter(|(i, _)| live[*i])
                .map(|(_, s)| s)
                .collect();
            assert_window_matches(&mut client, &wl, &live_subs, $n, $context);
        };
    }

    for p in 0..2 {
        wait_chain_settled(&mut client, &cluster, p);
    }
    churn_round!(0.5, 0.0);
    check_window!(16, "baseline");

    // Kill partition 0's primary: quorum failover probes both standbys
    // and promotes the most caught-up one, re-aiming the other.
    let victim = wait_chain_settled(&mut client, &cluster, 0);
    cluster.kill_node(0, victim);
    churn_round!(0.1, 0.1);
    check_window!(16, "through partition 0 failover");
    let mut promoted = victim;
    wait_until("quorum promoted a survivor", || {
        match reported_primary(&mut client, &cluster, 0) {
            Some(n) if n != victim => {
                promoted = n;
                true
            }
            _ => false,
        }
    });

    // Kill partition 1's mid-chain follower: the tail that followed it
    // is orphaned until the sweep re-aims it at the active node; churn
    // keeps flowing the whole time.
    let p1_primary = wait_chain_settled(&mut client, &cluster, 1);
    let mid_chain = if p1_primary == 1 { 2 } else { 1 };
    cluster.kill_node(1, mid_chain);
    churn_round!(0.1, 0.1);
    check_window!(16, "through mid-chain kill");
    wait_until("orphaned tail re-aimed and caught up", || {
        chain_synced(&cluster, 1)
    });

    // Heal both, then settle: the ex-primary rejoins under the promoted
    // node (rewinding any unacked suffix in place), the mid-chain node
    // rejoins its chain.
    cluster.restart_node(0, victim).unwrap();
    cluster.restart_node(1, mid_chain).unwrap();
    for p in 0..2 {
        wait_chain_settled(&mut client, &cluster, p);
    }
    check_window!(20, "after heal");

    // Double failover: partition 0's replacement primary dies too. The
    // quorum picks again from the survivors (the returned ex-primary is
    // eligible — its history was reconciled when it rejoined).
    cluster.kill_node(0, promoted);
    churn_round!(0.1, 0.1);
    check_window!(16, "through double failover");
    wait_until(
        "second quorum promotion",
        || matches!(reported_primary(&mut client, &cluster, 0), Some(n) if n != promoted),
    );
    cluster.restart_node(0, promoted).unwrap();
    for p in 0..2 {
        wait_chain_settled(&mut client, &cluster, p);
    }

    // Zero acked churn lost: the final windows over the full model are
    // byte-identical to the oracle.
    check_window!(40, "final window");
    wait_until("every node back in the router's table", || {
        client.stats().unwrap()["nodes_up"] == 6
    });
    let stats = client.stats().unwrap();
    assert_eq!(stats["cluster_degraded"], 0);
    assert!(stats["failovers"] >= 2, "failovers {}", stats["failovers"]);
    assert!(stats["promotions"] >= 2);
    assert!(stats["demotions"] >= 1);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded randomized chaos drill: rounds of churn interleaved with node
/// kills (primaries and standbys), restarts, and the promotions they
/// force. Every acknowledged churn op must survive to the end; every
/// window's rows must be byte-identical to the single-process oracle and
/// never flagged partial.
#[test]
fn chaos_drill_preserves_every_acked_churn_op() {
    let _guard = lock();
    failpoint::reset();
    const ROUNDS: usize = 8;
    let wl = WorkloadSpec::new(140).seed(0xC405).build();
    let dir = tmpdir("chaos");
    let mut cluster = replicated_cluster(&wl.schema, &dir);
    let mut client = connect(&cluster.router_addr());
    wait_until("all nodes up", || nodes_up(&mut client) == PARTITIONS * 2);

    let mut rng = StdRng::seed_from_u64(0xC405_C405);
    let mut live = vec![false; wl.subs.len()];
    // Partition → node index killed this round, to restart next round.
    let mut dead: [Option<usize>; PARTITIONS] = [None; PARTITIONS];

    for round in 0..ROUNDS {
        // Heal last round's casualty, then let every partition settle
        // (rejoins demoted, replicas caught up, exactly one primary).
        for (p, slot) in dead.iter_mut().enumerate() {
            if let Some(node) = slot.take() {
                cluster.restart_node(p, node).unwrap();
            }
        }
        for p in 0..PARTITIONS {
            wait_settled(&mut client, &cluster, p);
        }

        // Random churn through the router; only acked ops flip the model.
        for (i, sub) in wl.subs.iter().enumerate() {
            if !live[i] && rng.gen_bool(0.4) {
                client.subscribe(sub, &wl.schema).unwrap();
                live[i] = true;
            } else if live[i] && rng.gen_bool(0.3) {
                client.unsubscribe(sub.id()).unwrap();
                live[i] = false;
            }
        }

        // Kill with a caught-up standby: alternate target partition, and
        // alternate between the current primary (forces a promotion) and
        // the standby (forces nothing but a lost follower).
        let target = round % PARTITIONS;
        let primary = wait_settled(&mut client, &cluster, target);
        let victim = if (round / 2) % 2 == 0 {
            primary
        } else {
            1 - primary
        };
        cluster.kill_node(target, victim);
        dead[target] = Some(victim);

        // Churn and match straight through the flip window.
        for (i, sub) in wl.subs.iter().enumerate() {
            if !live[i] && rng.gen_bool(0.1) {
                client.subscribe(sub, &wl.schema).unwrap();
                live[i] = true;
            } else if live[i] && rng.gen_bool(0.1) {
                client.unsubscribe(sub.id()).unwrap();
                live[i] = false;
            }
        }
        let live_subs: Vec<&Subscription> = wl
            .subs
            .iter()
            .enumerate()
            .filter(|(i, _)| live[*i])
            .map(|(_, s)| s)
            .collect();
        assert_window_matches(
            &mut client,
            &wl,
            &live_subs,
            16 + round,
            &format!("round {round}"),
        );
    }

    // Final heal: everything back up, settled, and one last full check of
    // every acked churn op against the oracle.
    for (p, slot) in dead.iter_mut().enumerate() {
        if let Some(node) = slot.take() {
            cluster.restart_node(p, node).unwrap();
        }
    }
    for p in 0..PARTITIONS {
        wait_settled(&mut client, &cluster, p);
    }
    let live_subs: Vec<&Subscription> = wl
        .subs
        .iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .map(|(_, s)| s)
        .collect();
    assert!(!live_subs.is_empty());
    assert_window_matches(&mut client, &wl, &live_subs, 40, "final window");

    wait_until("every node back in the router's table", || {
        client.stats().unwrap()["nodes_up"] == (PARTITIONS * 2) as u64
    });
    let stats = client.stats().unwrap();
    assert_eq!(stats["cluster_degraded"], 0);
    assert!(stats["failovers"] >= 3, "failovers {}", stats["failovers"]);
    assert!(stats["promotions"] >= 3);
    assert!(stats["demotions"] >= 1);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
