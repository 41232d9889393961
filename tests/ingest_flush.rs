//! A publisher never waits on the ingest flush timer.
//!
//! The servers here run a 128-event window with a 30 s flush interval, so
//! a frame that had to wait for the timer would outlast the clients' 5 s
//! read timeout. Half-window `BATCH`es and lone `PUB`s must still get
//! their `RESULT` rows at once — the end of a frame flushes the window
//! when the queue behind it is idle — both from a direct server and
//! through a router over two backends. Every backend then reports
//! `windows_timed_out 0`: closed-loop traffic never reaches the timer.

use apcm::prelude::*;
use apcm::server::{protocol, ServerStats};
use std::time::Duration;

const N_SUBS: usize = 80;
const ROUNDS: usize = 6;

fn workload() -> apcm::workload::Workload {
    WorkloadSpec::new(N_SUBS)
        .dims(4)
        .cardinality(10)
        .event_size(4)
        .sub_preds(1, 2)
        .seed(0xf105)
        .build()
}

fn config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 128,
        flush_interval: Duration::from_secs(30),
        ..ServerConfig::default()
    }
}

fn oracle_row(subs: &[Subscription], event: &Event) -> Vec<SubId> {
    let mut row: Vec<SubId> = subs
        .iter()
        .filter(|s| s.matches(event))
        .map(|s| s.id())
        .collect();
    row.sort_unstable();
    row
}

/// `PUB` one event and return its `RESULT` row, skipping the ack and any
/// `EVENT` notifications for this connection's own subscriptions.
fn publish_one(client: &mut BrokerClient, event: &Event, schema: &Schema) -> Vec<SubId> {
    client
        .send_line(&format!("PUB {}", event.display(schema)))
        .unwrap();
    loop {
        let line = client
            .read_line()
            .expect("no RESULT for a lone PUB within the read timeout")
            .expect("connection closed");
        if line.starts_with("RESULT ") {
            return protocol::parse_result(&line).unwrap().1;
        }
        assert!(!line.starts_with("-ERR"), "PUB failed: {line}");
    }
}

/// Subscribes the corpus through `addr`, then runs closed-loop rounds of a
/// `BATCH 3` and a lone `PUB`, checking every row against the oracle.
fn exercise(addr: &str) {
    let wl = workload();
    let events = wl.events(ROUNDS * 4);
    let mut client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    let mut matched = 0;
    for round in events.chunks(4) {
        let (batch, lone) = round.split_at(3);
        let rows = client
            .publish_batch(batch, &wl.schema)
            .expect("BATCH 3 rows within the read timeout");
        let rows: Vec<Vec<SubId>> = rows.into_values().collect();
        let expect: Vec<Vec<SubId>> = batch.iter().map(|e| oracle_row(&wl.subs, e)).collect();
        assert_eq!(rows, expect);
        matched += expect.iter().map(Vec::len).sum::<usize>();
        assert_eq!(
            publish_one(&mut client, &lone[0], &wl.schema),
            oracle_row(&wl.subs, &lone[0])
        );
    }
    assert!(
        matched > 0,
        "the corpus matched nothing; the rows prove little"
    );
    client.quit().unwrap();
}

fn assert_no_timed_out_windows(server: &Server) {
    let stats = server.stats();
    assert!(ServerStats::get(&stats.windows) > 0);
    assert_eq!(ServerStats::get(&stats.windows_timed_out), 0);
}

#[test]
fn server_flushes_frames_without_the_timer() {
    let wl = workload();
    let server = Server::start(wl.schema.clone(), config(), "127.0.0.1:0").unwrap();
    exercise(&server.local_addr().to_string());
    assert_no_timed_out_windows(&server);
    server.shutdown();
}

#[test]
fn router_flushes_frames_without_the_timer() {
    let wl = workload();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        vec![config(), config()],
        RouterConfig::default(),
    )
    .unwrap();
    exercise(&cluster.router_addr());
    for i in 0..cluster.backend_count() {
        assert_no_timed_out_windows(cluster.backend(i).expect("backend is up"));
    }
    cluster.shutdown();
}
