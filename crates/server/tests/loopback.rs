//! End-to-end broker test over a loopback socket: two client connections,
//! 120 live subscriptions, a BATCH publish, agreement with a sequential
//! scan oracle, STATS accounting, and graceful shutdown.

use apcm_bexpr::{SubId, Subscription};
use apcm_server::{BrokerClient, Server, ServerConfig};
use apcm_workload::WorkloadSpec;
use std::time::Duration;

const N_SUBS: usize = 120;
const N_EVENTS: usize = 96;

fn workload() -> apcm_workload::Workload {
    WorkloadSpec::new(N_SUBS).seed(0x100b).build()
}

/// Single-threaded brute-force oracle over the subscriptions live at
/// publish time.
fn oracle_rows(subs: &[Subscription], events: &[apcm_bexpr::Event]) -> Vec<Vec<SubId>> {
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

#[test]
fn loopback_batch_agrees_with_oracle() {
    let wl = workload();
    let config = ServerConfig {
        shards: 3,
        window: 32,
        flush_interval: Duration::from_millis(5),
        maintenance_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = Server::start(wl.schema.clone(), config, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Two connections: subscriptions are split between them, so EVENT
    // notifications cross connections while RESULT rows go to the publisher.
    let mut sub_conn = BrokerClient::connect(&addr).unwrap();
    let mut pub_conn = BrokerClient::connect(&addr).unwrap();
    sub_conn
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    pub_conn
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let (half_a, half_b) = wl.subs.split_at(N_SUBS / 2);
    for sub in half_a {
        sub_conn.subscribe(sub, &wl.schema).unwrap();
    }
    for sub in half_b {
        pub_conn.subscribe(sub, &wl.schema).unwrap();
    }

    let events = wl.events(N_EVENTS);
    let results = pub_conn.publish_batch(&events, &wl.schema).unwrap();
    assert_eq!(results.len(), N_EVENTS);

    let expect = oracle_rows(&wl.subs, &events);
    for (seq, row) in &results {
        assert_eq!(
            row, &expect[*seq as usize],
            "event {seq} disagreed with the scan oracle"
        );
    }

    // STATS reflects the traffic.
    let stats = pub_conn.stats().unwrap();
    assert_eq!(stats["events_in"], N_EVENTS as u64);
    assert_eq!(stats["events_matched"], N_EVENTS as u64);
    assert_eq!(stats["subs_added"], N_SUBS as u64);
    assert_eq!(stats["conns_active"], 2);
    assert_eq!(stats["conns_total"], 2);
    let total_matches: u64 = expect.iter().map(|r| r.len() as u64).sum();
    assert_eq!(stats["matches"], total_matches);
    let sharded: u64 = (0..3).map(|i| stats[&format!("shard_{i}_subs")]).sum();
    assert_eq!(sharded, N_SUBS as u64);

    sub_conn.quit().unwrap();
    pub_conn.quit().unwrap();

    // Graceful shutdown returns the final stats render.
    let final_stats = server.shutdown();
    assert!(final_stats.contains("events_in 96"));
    assert!(final_stats.contains("shards 3"));
}

#[test]
fn live_churn_and_error_replies() {
    let wl = workload();
    let config = ServerConfig {
        shards: 2,
        window: 16,
        flush_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server = Server::start(wl.schema.clone(), config, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut client = BrokerClient::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    client.ping().unwrap();
    for sub in &wl.subs[..40] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    // Re-subscribing the byte-identical expression is an ownership
    // takeover (+OK claimed), not an error; a *different* expression for a
    // live id gets the structured duplicate error, and unknown
    // unsubscribes stay structured errors too.
    client
        .send_line(&format!(
            "SUB {} {}",
            wl.subs[0].id().0,
            wl.subs[0].display(&wl.schema)
        ))
        .unwrap();
    let line = client.read_line().unwrap().unwrap();
    assert_eq!(line, format!("+OK claimed {}", wl.subs[0].id().0), "{line}");
    client
        .send_line(&format!("SUB {} a0 >= 0", wl.subs[0].id().0))
        .unwrap();
    let line = client.read_line().unwrap().unwrap();
    assert_eq!(line, format!("-ERR duplicate {}", wl.subs[0].id().0));
    // CLAIM works for live ids and errors for unknown ones.
    client.claim(wl.subs[1].id()).unwrap();
    client.send_line("CLAIM 9999").unwrap();
    let line = client.read_line().unwrap().unwrap();
    assert!(line.starts_with("-ERR unknown subscription"), "{line}");
    client.send_line("UNSUB 9999").unwrap();
    let line = client.read_line().unwrap().unwrap();
    assert!(line.starts_with("-ERR unknown subscription"), "{line}");
    client.send_line("NOSUCH verb").unwrap();
    let line = client.read_line().unwrap().unwrap();
    assert!(line.starts_with("-ERR unknown verb"), "{line}");

    // Unsubscribe half, then matching honours the live set only.
    for sub in &wl.subs[..20] {
        client.unsubscribe(sub.id()).unwrap();
    }
    let events = wl.events(32);
    let results = client.publish_batch(&events, &wl.schema).unwrap();
    let expect = oracle_rows(&wl.subs[20..40], &events);
    for (seq, row) in &results {
        assert_eq!(row, &expect[*seq as usize], "event {seq}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats["subs_added"], 40);
    assert_eq!(stats["subs_removed"], 20);
    assert!(stats["protocol_errors"] >= 3);

    drop(client); // disconnect without QUIT; server must still shut down
    let final_stats = server.shutdown();
    assert!(final_stats.contains("subs_removed 20"));
}

#[test]
fn shutdown_with_idle_connections_is_bounded() {
    let wl = workload();
    let server = Server::start(
        wl.schema.clone(),
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // Idle connections blocked in read; shutdown must unblock them.
    let _c1 = BrokerClient::connect(&addr).unwrap();
    let _c2 = BrokerClient::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the accepts land

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.shutdown());
    });
    let rendered = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete with idle readers");
    assert!(rendered.contains("conns_total 2"));
}
