//! One failover through the router, end to end: a persistent primary and
//! replica behind a router, the primary killed mid-churn and the replica
//! promoted, then the dead node restarted after the promoted node's log
//! has rotated past it, so it rejoins as a follower over a colstore
//! bootstrap.

use apcm::prelude::*;
use apcm::server::client::ConnectOptions;
use apcm::server::{PersistConfig, Role, ServerStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-umbrella-{tag}-{}", std::process::id()));
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

/// Fast health cadence so failure detection, promotion and rejoin fit in
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

#[test]
fn primary_failover_then_victim_rejoins_by_bootstrap() {
    let wl = WorkloadSpec::new(81).seed(0xFA11_0E42).build();
    let dir = tmpdir("failover");
    let (victim, standby) = (0, 1);
    let mut cluster = ClusterHandle::start_replicated(
        wl.schema.clone(),
        vec![(
            node_config(&dir.join("primary")),
            Some(node_config(&dir.join("replica"))),
        )],
        router_config(),
    )
    .unwrap();
    let mut client = BrokerClient::connect(&cluster.router_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Churn issued mid-promotion must ride out the role flip, not error.
    client.set_churn_retry(60, Duration::from_millis(25));

    for sub in &wl.subs[..60] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    // The promotion floor admits only a standby holding every acked
    // record, and the router must see it up.
    wait_until("replica caught up and seen by the router", || {
        let seq = |n| cluster.node(0, n).map(Server::current_seq);
        seq(victim) == seq(standby) && nodes_up(&mut client) == 2
    });
    cluster.kill_node(0, victim);
    for sub in &wl.subs[60..80] {
        client.subscribe(sub, &wl.schema).unwrap();
    }

    let events = wl.events(32);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    assert_eq!(results.len(), events.len());
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        let i = (seq - base) as usize;
        assert!(!partial, "event {i} flagged partial after failover");
        let mut expect: Vec<SubId> = wl.subs[..80]
            .iter()
            .filter(|s| s.matches(&events[i]))
            .map(|s| s.id())
            .collect();
        expect.sort_unstable();
        assert_eq!(row, &expect, "event {i} disagrees with the oracle");
    }

    // Rotate the promoted node's log past every record the victim holds,
    // then churn once more: the victim's rejoin cannot be served from the
    // log tail and must bootstrap.
    let mut direct = BrokerClient::connect(cluster.node_addr(0, standby)).unwrap();
    direct
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    direct.snapshot().unwrap();
    direct.quit().unwrap();
    client.subscribe(&wl.subs[80], &wl.schema).unwrap();

    // The victim restarts with its original primary config; the router's
    // sweep demotes it into a follower of the promoted node. The bootstrap
    // counter is part of the wait because the swap publishes `current_seq`
    // before the puller counts the bootstrap.
    cluster.restart_node(0, victim).unwrap();
    wait_until("victim rejoined by colstore bootstrap", || {
        match (cluster.node(0, victim), cluster.node(0, standby)) {
            (Some(v), Some(p)) => {
                matches!(v.role(), Role::Replica { .. })
                    && v.current_seq() == p.current_seq()
                    && ServerStats::get(&v.stats().repl_bootstraps) >= 1
            }
            _ => false,
        }
    });
    assert_eq!(cluster.node(0, victim).unwrap().engine().len(), 81);
    let stats = client.stats().unwrap();
    assert!(
        stats["promotions"] >= 1,
        "promotions {}",
        stats["promotions"]
    );

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
