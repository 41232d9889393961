//! Dynamic-corpus behavior: subscription churn must keep every dynamic
//! engine (A-PCM, BE-Tree) consistent with a scan over the live set.

use apcm::baselines::SequentialScan;
use apcm::betree::{BeTree, BeTreeConfig};
use apcm::core::{AdaptiveConfig, ApcmConfig, ApcmMatcher};
use apcm::prelude::*;
use apcm::server::{ServerConfig, ShardedEngine};
use apcm::workload::WorkloadSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

fn churn_config() -> ApcmConfig {
    ApcmConfig {
        adaptive: AdaptiveConfig {
            epoch_events: 128,
            min_probes: 16,
            max_pending: 32,
            ..AdaptiveConfig::default()
        },
        batch_size: 32,
        ..ApcmConfig::default()
    }
}

#[test]
fn apcm_tracks_live_set_under_churn() {
    let wl = WorkloadSpec::new(600)
        .seed(201)
        .planted_fraction(0.3)
        .build();
    let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &churn_config()).unwrap();
    let mut live: HashMap<SubId, Subscription> =
        wl.subs.iter().map(|s| (s.id(), s.clone())).collect();

    let extra = WorkloadSpec::new(600).seed(202).build();
    let mut rng = StdRng::seed_from_u64(203);
    let mut stream = wl.stream();
    let mut next_extra = 0usize;

    for round in 0..20 {
        // Mutate: remove ~20 random ids, add ~20 new subscriptions.
        let victims: Vec<SubId> = live
            .keys()
            .copied()
            .filter(|_| rng.gen_bool(0.03))
            .collect();
        for id in victims {
            assert!(apcm.unsubscribe(id), "round {round}: {id:?} must exist");
            live.remove(&id);
        }
        for _ in 0..20 {
            if next_extra >= extra.subs.len() {
                break;
            }
            let fresh = Subscription::new(
                SubId(10_000 + next_extra as u32),
                extra.subs[next_extra].predicates().to_vec(),
            )
            .unwrap();
            next_extra += 1;
            assert!(apcm.subscribe(&fresh).unwrap());
            live.insert(fresh.id(), fresh);
        }

        // Verify matching over the current live set.
        let live_subs: Vec<Subscription> = live.values().cloned().collect();
        let scan = SequentialScan::new(&live_subs);
        let window: Vec<Event> = (&mut stream).take(50).collect();
        let rows = apcm.match_batch(&window);
        for (ev, row) in window.iter().zip(rows.iter()) {
            assert_eq!(row, &scan.match_event(ev), "round {round}");
        }
        assert_eq!(apcm.len(), live.len(), "round {round}");
    }
    // Churn must have exercised maintenance at least once.
    assert!(apcm.stats().maintenance_runs > 0);
}

#[test]
fn betree_tracks_live_set_under_churn() {
    let wl = WorkloadSpec::new(500)
        .seed(204)
        .planted_fraction(0.3)
        .build();
    let mut tree = BeTree::build_with_config(
        &wl.schema,
        &wl.subs,
        BeTreeConfig {
            max_bucket: 8,
            max_cdir_depth: 8,
        },
    )
    .unwrap();
    let mut live: HashMap<SubId, Subscription> =
        wl.subs.iter().map(|s| (s.id(), s.clone())).collect();
    let mut rng = StdRng::seed_from_u64(205);
    let mut stream = wl.stream();

    for round in 0..10 {
        let victims: Vec<SubId> = live
            .keys()
            .copied()
            .filter(|_| rng.gen_bool(0.05))
            .collect();
        for id in victims {
            let sub = live.remove(&id).unwrap();
            assert!(tree.remove(&sub), "round {round}");
        }
        let live_subs: Vec<Subscription> = live.values().cloned().collect();
        let scan = SequentialScan::new(&live_subs);
        for ev in (&mut stream).take(30) {
            assert_eq!(
                tree.match_event(&ev),
                scan.match_event(&ev),
                "round {round}"
            );
        }
    }
}

#[test]
fn maintenance_preserves_results_exactly() {
    // Snapshot results, force maintenance, results must be identical.
    let wl = WorkloadSpec::new(800)
        .seed(206)
        .planted_fraction(0.5)
        .build();
    let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &churn_config()).unwrap();
    let events = wl.events(60);
    let before = apcm.match_batch(&events);
    // Heat the counters so the adaptive policy has something to act on.
    for _ in 0..5 {
        let _ = apcm.match_batch(&events);
    }
    apcm.maintain();
    let after = apcm.match_batch(&events);
    assert_eq!(before, after, "maintenance changed match results");
}

#[test]
fn resubscribe_same_id_after_unsubscribe() {
    let schema = Schema::uniform(4, 100);
    let apcm = ApcmMatcher::build(&schema, &[], &churn_config()).unwrap();
    let v1 = parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 5").unwrap();
    let v2 = parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 6").unwrap();
    apcm.subscribe(&v1).unwrap();
    assert!(apcm.unsubscribe(SubId(1)));
    assert!(apcm.subscribe(&v2).unwrap(), "id is free again");
    let ev5 = parser::parse_event(&schema, "a0 = 5").unwrap();
    let ev6 = parser::parse_event(&schema, "a0 = 6").unwrap();
    assert!(apcm.match_event(&ev5).is_empty());
    assert_eq!(apcm.match_event(&ev6), vec![SubId(1)]);
}

#[test]
fn sharded_engine_tracks_live_set_under_churn() {
    // Interleave subscribe / unsubscribe / match across a multi-shard
    // engine; every window must agree with a sequential scan over the
    // live set.
    let wl = WorkloadSpec::new(300)
        .seed(208)
        .planted_fraction(0.3)
        .build();
    let config = ServerConfig {
        shards: 3,
        ..ServerConfig::default()
    };
    let sharded = ShardedEngine::new(&wl.schema, &config).unwrap();
    let mut live: HashMap<SubId, Subscription> = HashMap::new();
    let extra = WorkloadSpec::new(300).seed(209).build();
    let mut rng = StdRng::seed_from_u64(210);
    let mut stream = wl.stream();
    let mut next_extra = 0usize;

    for sub in &wl.subs {
        assert!(sharded.subscribe(sub).unwrap());
        live.insert(sub.id(), sub.clone());
    }
    // Duplicate subscribe is rejected without disturbing the live set.
    assert!(!sharded.subscribe(&wl.subs[0]).unwrap());
    // Unsubscribe of an id that was never registered reports false.
    assert!(!sharded.unsubscribe(SubId(999_999)));
    assert_eq!(sharded.len(), live.len());

    for round in 0..12 {
        let victims: Vec<SubId> = live
            .keys()
            .copied()
            .filter(|_| rng.gen_bool(0.05))
            .collect();
        for id in victims {
            assert!(sharded.unsubscribe(id), "round {round}: {id:?} must exist");
            assert!(!sharded.unsubscribe(id), "round {round}: double unsub");
            live.remove(&id);
        }
        for _ in 0..10 {
            if next_extra >= extra.subs.len() {
                break;
            }
            let fresh = Subscription::new(
                SubId(30_000 + next_extra as u32),
                extra.subs[next_extra].predicates().to_vec(),
            )
            .unwrap();
            next_extra += 1;
            assert!(sharded.subscribe(&fresh).unwrap());
            live.insert(fresh.id(), fresh);
        }
        if round % 4 == 3 {
            sharded.maintain();
        }

        let live_subs: Vec<Subscription> = live.values().cloned().collect();
        let scan = SequentialScan::new(&live_subs);
        let window: Vec<Event> = (&mut stream).take(40).collect();
        let rows = sharded.match_window(&window);
        for (ev, row) in window.iter().zip(rows.iter()) {
            assert_eq!(row, &scan.match_event(ev), "round {round}");
        }
        assert_eq!(sharded.len(), live.len(), "round {round}");
        assert_eq!(sharded.per_shard_len().iter().sum::<usize>(), live.len());
    }
}

#[test]
fn concurrent_matching_during_churn() {
    // Matching threads and a churn thread share one matcher; results must
    // always correspond to *some* consistent subscription set, and the run
    // must be race-free (this test is primarily a sanitizer target).
    let wl = WorkloadSpec::new(400)
        .seed(207)
        .planted_fraction(0.3)
        .build();
    let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &churn_config()).unwrap();
    let events = wl.events(200);

    std::thread::scope(|scope| {
        let apcm = &apcm;
        let schema = &wl.schema;
        let events = &events;
        let matcher_handle = scope.spawn(move || {
            let mut total = 0usize;
            for chunk in events.chunks(20) {
                total += apcm.match_batch(chunk).iter().map(Vec::len).sum::<usize>();
            }
            total
        });
        let churn_handle = scope.spawn(move || {
            for i in 0..100u32 {
                let sub = parser::parse_subscription_with_id(
                    schema,
                    SubId(20_000 + i),
                    &format!("a0 = {}", i % 10),
                )
                .unwrap();
                apcm.subscribe(&sub).unwrap();
                if i % 2 == 0 {
                    apcm.unsubscribe(SubId(20_000 + i));
                }
            }
        });
        matcher_handle.join().unwrap();
        churn_handle.join().unwrap();
    });
    // 100 subscribed, 50 unsubscribed.
    assert_eq!(apcm.len(), 400 + 50);
}
