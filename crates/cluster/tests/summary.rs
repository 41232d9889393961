//! Predicate-summary routing drills: the router's first-stage A-PCM
//! prune over whole backends.
//!
//! * with per-backend subscription ranges made disjoint on purpose, a
//!   targeted window is served by a strict subset of backends
//!   (`backends_pruned` counts the skips) and the merged rows stay
//!   byte-identical to a single-process oracle — a pruned backend never
//!   held a matching subscription;
//! * under seeded SUB/UNSUB/PUB churn with summaries refreshed between
//!   rounds, every routed row is byte-identical to the oracle — stale
//!   summaries may only ever widen the fan-out, never narrow a row;
//! * a `RESHARD ADD` mid-publish disables pruning for the whole window
//!   stream (no dropped rows, nothing partial), and completed migrations
//!   invalidate every cached summary so pruning re-establishes itself on
//!   the new topology.

use apcm_bexpr::{AttrId, Event, Op, Predicate, Schema, SubId, Subscription};
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_server::client::ConnectOptions;
use apcm_server::protocol::render_result;
use apcm_server::{BrokerClient, PersistConfig, Ring, ServerConfig};
use apcm_workload::WorkloadSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const N_BACKENDS: usize = 3;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-summary-{tag}-{}", std::process::id()));
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

fn node_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        repl_ack_every: 2,
        persist: Some(PersistConfig {
            snapshot_interval: None,
            retry_backoff: Duration::from_millis(20),
            ..PersistConfig::new(dir)
        }),
        ..backend_config()
    }
}

/// Fast health cadence so summary refreshes fit in test time.
fn router_config() -> RouterConfig {
    RouterConfig {
        health_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(500),
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
    let mut client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client.set_churn_retry(120, Duration::from_millis(25));
    client
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    panic!("timed out waiting for {what}");
}

fn wait_backends_up(client: &mut BrokerClient, want: usize) {
    wait_until("backends up", || {
        client
            .topology()
            .unwrap()
            .iter()
            .filter(|l| l.contains(" up "))
            .count()
            == want
    });
}

/// Waits until every listed partition's `TOPOLOGY` summary line reports a
/// cached epoch (i.e. the sweep refreshed it after the last churn-driven
/// invalidation) — the point from which scatter may prune against it.
fn wait_summaries_fresh(client: &mut BrokerClient, members: &[usize]) {
    wait_until("summaries fresh", || {
        let lines = client.topology().unwrap();
        members.iter().all(|m| {
            lines
                .iter()
                .any(|l| l.starts_with(&format!("summary {m} epoch")))
        })
    });
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

/// Publishes `events` and asserts the merged rows are byte-identical to
/// the oracle over `live`, nothing partial.
fn assert_window_matches(
    client: &mut BrokerClient,
    schema: &Schema,
    live: &[&Subscription],
    events: &[Event],
    context: &str,
) {
    let results = client.publish_batch_flagged(events, schema).unwrap();
    assert_eq!(results.len(), events.len(), "{context}");
    let expect = oracle_rows(live, events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        let i = (seq - base) as usize;
        assert!(!partial, "{context}: event {i} flagged partial");
        assert_eq!(
            render_result(*seq, row),
            render_result(*seq, &expect[i]),
            "{context}: event {i}"
        );
    }
}

/// A subscription pinning attribute 0 into `[lo, hi]`.
fn range_sub(id: u32, lo: i64, hi: i64) -> Subscription {
    Subscription::new(
        SubId(id),
        vec![Predicate::new(AttrId(0), Op::Between(lo, hi))],
    )
    .unwrap()
}

/// One event `(a0, a1)`.
fn event(a0: i64, a1: i64) -> Event {
    Event::new(vec![(AttrId(0), a0), (AttrId(1), a1)]).unwrap()
}

/// Disjoint per-backend value ranges on attribute 0, keyed by the ring
/// placement of each id — so a window confined to one range can provably
/// skip the other backends.
const RANGES: [(i64, i64); N_BACKENDS] = [(0, 99), (450, 549), (900, 999)];

/// Targeted windows against range-disjoint backends: scatter skips the
/// backends whose summaries cannot cover the window, the merged rows stay
/// byte-identical to the oracle, and a window aimed at a previously
/// pruned backend still reaches it (pruning is per-window, not sticky).
#[test]
fn pruned_scatter_is_sound_and_skips_disjoint_backends() {
    let schema = Schema::uniform(2, 1000);
    let cluster = ClusterHandle::start(
        schema.clone(),
        (0..N_BACKENDS).map(|_| backend_config()).collect(),
        router_config(),
    )
    .unwrap();
    let mut client = connect(&cluster.router_addr());
    wait_backends_up(&mut client, N_BACKENDS);

    let ring = Ring::new(&[0, 1, 2]);
    let subs: Vec<Subscription> = (0..60)
        .map(|id| {
            let (lo, hi) = RANGES[ring.route(SubId(id)) as usize];
            range_sub(id, lo, hi)
        })
        .collect();
    for sub in &subs {
        client.subscribe(sub, &schema).unwrap();
    }
    // Every backend must actually hold part of the catalog, or the prune
    // assertions below would be vacuous.
    for member in 0..N_BACKENDS {
        assert!(
            subs.iter().any(|s| ring.route(s.id()) == member as u32),
            "no subscriptions landed on backend {member}"
        );
    }
    wait_summaries_fresh(&mut client, &[0, 1, 2]);

    let before = client.stats().unwrap();
    let all: Vec<&Subscription> = subs.iter().collect();
    // Three windows confined to backend 1's range: backends 0 and 2 are
    // provably unmatchable and must be skipped.
    for round in 0..3 {
        let events: Vec<Event> = (0..16)
            .map(|i| event(450 + (i * 7 + round * 3) % 100, i))
            .collect();
        let expect = oracle_rows(&all, &events);
        assert!(
            expect.iter().any(|row| !row.is_empty()),
            "targeted window matched nothing: the drill is vacuous"
        );
        assert_window_matches(
            &mut client,
            &schema,
            &all,
            &events,
            &format!("targeted window {round}"),
        );
    }
    // And one window aimed at backend 0's range: the prune must not be
    // sticky — the previously skipped backend serves this one.
    let events: Vec<Event> = (0..8).map(|i| event(i * 11 % 100, i)).collect();
    let expect = oracle_rows(&all, &events);
    assert!(expect.iter().any(|row| !row.is_empty()));
    assert_window_matches(&mut client, &schema, &all, &events, "re-aimed window");

    let after = client.stats().unwrap();
    let pruned = after["backends_pruned"] - before["backends_pruned"];
    let sent = after["fanouts_sent"] - before["fanouts_sent"];
    let possible = after["fanouts_possible"] - before["fanouts_possible"];
    // The three targeted windows each skip two backends; the re-aimed
    // window skips backends 1 and 2.
    assert!(pruned >= 6, "expected >=6 pruned sends, got {pruned}");
    assert_eq!(sent + pruned, possible);
    assert!(sent < possible, "pruning never reduced the fan-out");
    assert!(after["summary_refreshes"] >= N_BACKENDS as u64);
    assert_eq!(after["cluster_degraded"], 0);

    client.quit().unwrap();
    let rendered = cluster.shutdown();
    assert!(rendered.contains("pruned_fanout_ratio 0."), "{rendered}");
}

/// Seeded SUB/UNSUB/PUB churn with summaries allowed to refresh between
/// rounds: every routed row stays byte-identical to the single-process
/// oracle. This is the safety half of the prune — no sequence of churn
/// and refresh may ever narrow a row, only widen the fan-out.
#[test]
fn seeded_churn_rounds_stay_byte_identical_with_pruning() {
    let wl = WorkloadSpec::new(150).seed(0x5A11).build();
    let cluster = ClusterHandle::start(
        wl.schema.clone(),
        vec![backend_config(); N_BACKENDS],
        router_config(),
    )
    .unwrap();
    let mut client = connect(&cluster.router_addr());
    wait_backends_up(&mut client, N_BACKENDS);

    let mut rng = StdRng::seed_from_u64(0x5A11_5A11);
    let mut live = vec![false; wl.subs.len()];
    for round in 0..6 {
        for (i, sub) in wl.subs.iter().enumerate() {
            if !live[i] && rng.gen_bool(0.5) {
                client.subscribe(sub, &wl.schema).unwrap();
                live[i] = true;
            } else if live[i] && rng.gen_bool(0.3) {
                client.unsubscribe(sub.id()).unwrap();
                live[i] = false;
            }
        }
        // Let the sweep re-establish every summary after the churn-driven
        // invalidations, so these windows run with pruning live.
        wait_summaries_fresh(&mut client, &[0, 1, 2]);
        let events = wl.events(24 + round);
        let live_subs: Vec<&Subscription> = wl
            .subs
            .iter()
            .enumerate()
            .filter(|(i, _)| live[*i])
            .map(|(_, s)| s)
            .collect();
        assert_window_matches(
            &mut client,
            &wl.schema,
            &live_subs,
            &events,
            &format!("churn round {round}"),
        );
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats["cluster_degraded"], 0);
    assert!(stats["summary_refreshes"] >= N_BACKENDS as u64);
    assert_eq!(
        stats["fanouts_sent"] + stats["backends_pruned"],
        stats["fanouts_possible"]
    );

    client.quit().unwrap();
    cluster.shutdown();
}

/// Migration interplay: a `RESHARD ADD` mid-publish forces conservative
/// full fan-out (nothing pruned, nothing partial, zero dropped rows), and
/// completion invalidates every cached summary so pruning re-establishes
/// itself against the post-migration catalog.
#[test]
fn reshard_disables_pruning_then_reestablishes_it() {
    let schema = Schema::uniform(2, 1000);
    let dir = tmpdir("reshard");
    let mut cluster = ClusterHandle::start_replicated(
        schema.clone(),
        (0..2)
            .map(|i| {
                (
                    node_config(&dir.join(format!("p{i}-primary"))),
                    Some(node_config(&dir.join(format!("p{i}-replica")))),
                )
            })
            .collect(),
        router_config(),
    )
    .unwrap();
    let mut client = connect(&cluster.router_addr());
    // Two replicated partitions: four nodes total.
    wait_backends_up(&mut client, 4);

    // Range-disjoint catalog on the old 2-member ring: backend 0 ids pin
    // a0 into [0,99], backend 1 ids into [900,999].
    let old_ring = Ring::new(&[0, 1]);
    let mut subs: Vec<Subscription> = (0..80)
        .map(|id| {
            let (lo, hi) = match old_ring.route(SubId(id)) {
                0 => (0, 99),
                _ => (900, 999),
            };
            range_sub(id, lo, hi)
        })
        .collect();
    for sub in &subs {
        client.subscribe(sub, &schema).unwrap();
    }
    wait_summaries_fresh(&mut client, &[0, 1]);

    // Pruning works on the pre-migration topology: a low-range window
    // skips backend 1.
    let before = client.stats().unwrap();
    let all: Vec<&Subscription> = subs.iter().collect();
    let events: Vec<Event> = (0..12).map(|i| event(i * 9 % 100, i)).collect();
    assert_window_matches(&mut client, &schema, &all, &events, "pre-reshard window");
    let mid = client.stats().unwrap();
    assert!(
        mid["backends_pruned"] > before["backends_pruned"],
        "pre-reshard window pruned nothing"
    );

    // Scale out 2 -> 3 with a background publisher hammering mixed-range
    // windows: every window must come back complete (zero dropped rows)
    // even though summaries go conservative mid-migration.
    let stop = AtomicBool::new(false);
    let addr = cluster.router_addr();
    std::thread::scope(|scope| {
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let _stop_on_unwind = StopOnDrop(&stop);
        let publisher = scope.spawn(|| {
            let mut pub_client = connect(&addr);
            let mut windows = 0u64;
            let mut k = 0i64;
            while !stop.load(Ordering::SeqCst) {
                let events: Vec<Event> = (0..6)
                    .map(|i| {
                        k += 1;
                        match (k + i) % 3 {
                            0 => event((k * 13) % 100, i),
                            1 => event(450 + (k * 13) % 100, i),
                            _ => event(900 + (k * 13) % 100, i),
                        }
                    })
                    .collect();
                let results = pub_client.publish_batch_flagged(&events, &schema).unwrap();
                for (seq, (_, partial)) in &results {
                    assert!(!partial, "window at seq {seq} partial mid-migration");
                }
                windows += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            windows
        });

        let primary = node_config(&dir.join("p2-primary"));
        let replica = node_config(&dir.join("p2-replica"));
        let slot = cluster.add_backend_pair(primary, Some(replica)).unwrap();
        assert_eq!(slot, 2);
        client
            .reshard_add(cluster.node_addr(slot, 0), Some(cluster.node_addr(slot, 1)))
            .unwrap();

        // Churn through the migration: fresh mid-range subscriptions for
        // ids the *new* ring moves onto the joiner.
        let new_ring = Ring::new(&[0, 1, 2]);
        let mut next_id = 80u32;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.reshard_status().unwrap();
            if status == "OK reshard idle" {
                break;
            }
            assert!(Instant::now() < deadline, "migration stuck: {status}");
            if next_id < 110 && new_ring.route(SubId(next_id)) == 2 {
                let sub = range_sub(next_id, 450, 549);
                client.subscribe(&sub, &schema).unwrap();
                subs.push(sub);
            }
            if next_id < 110 {
                next_id += 1;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Guarantee the joiner holds mid-range subscriptions even if the
        // migration outpaced the loop above.
        while next_id < 110 {
            if new_ring.route(SubId(next_id)) == 2 {
                let sub = range_sub(next_id, 450, 549);
                client.subscribe(&sub, &schema).unwrap();
                subs.push(sub);
            }
            next_id += 1;
        }

        stop.store(true, Ordering::SeqCst);
        let windows = publisher.join().expect("publisher thread");
        assert!(windows > 0, "publisher never got a window through");
    });

    let stats = client.stats().unwrap();
    assert_eq!(stats["reshards_completed"], 1);
    assert_eq!(stats["cluster_degraded"], 0);
    assert!(
        subs.iter()
            .any(|s| Ring::new(&[0, 1, 2]).route(s.id()) == 2),
        "no mid-range subscriptions landed on the joiner"
    );

    // Post-migration: caches were invalidated at completion; once the
    // sweep refreshes all three, a mid-range window prunes both legacy
    // backends and still matches the joiner's subscriptions exactly.
    wait_summaries_fresh(&mut client, &[0, 1, 2]);
    let before = client.stats().unwrap();
    let all: Vec<&Subscription> = subs.iter().collect();
    let events: Vec<Event> = (0..12).map(|i| event(450 + i * 7 % 100, i)).collect();
    let expect = oracle_rows(&all, &events);
    assert!(
        expect.iter().any(|row| !row.is_empty()),
        "post-reshard targeted window matched nothing"
    );
    assert_window_matches(&mut client, &schema, &all, &events, "post-reshard window");
    let after = client.stats().unwrap();
    assert!(
        after["backends_pruned"] > before["backends_pruned"],
        "pruning never re-established after the reshard"
    );

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
