//! An idle ingest pipeline must sleep, even with a zero flush interval.
//!
//! The matcher thread blocks while its window is empty; a timed wait on
//! an empty queue would return at once with a zero interval and spin a
//! core. This is a binary of its own so that no other pipeline's thread
//! shares the process while the matcher's CPU ticks are read from
//! `/proc/self/task/*/stat`.

use apcm_bexpr::{parser, Schema, SubId};
use apcm_server::{
    IngestItem, IngestPipeline, ResultSink, ServerConfig, ServerStats, ShardedEngine,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Discard;

impl ResultSink for Discard {
    fn on_window(&self, _items: &[IngestItem], _rows: &[Vec<SubId>]) {}
}

/// utime + stime, in clock ticks, of the thread named `apcm-ingest`.
fn matcher_ticks() -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let stat = std::fs::read_to_string(task.unwrap().path().join("stat")).unwrap();
        // "tid (comm) state ppid ...": utime and stime are fields 14 and
        // 15, i.e. the 12th and 13th after the closing parenthesis.
        let (head, rest) = stat.rsplit_once(')').unwrap();
        if !head.ends_with("(apcm-ingest") {
            continue;
        }
        let fields: Vec<&str> = rest.split_whitespace().collect();
        return fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    }
    panic!("no apcm-ingest thread in /proc/self/task");
}

#[test]
fn idle_matcher_sleeps_with_zero_flush_interval() {
    let schema = Schema::uniform(2, 8);
    let config = ServerConfig {
        shards: 1,
        flush_interval: Duration::ZERO,
        ..ServerConfig::default()
    };
    let engine = Arc::new(ShardedEngine::new(&schema, &config).unwrap());
    let sub = parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 3").unwrap();
    engine.subscribe(&sub).unwrap();
    let stats = Arc::new(ServerStats::default());
    let pipeline = IngestPipeline::start(engine, stats.clone(), Arc::new(Discard), &config);

    std::thread::sleep(Duration::from_millis(100));
    let before = matcher_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let used = matcher_ticks() - before;
    assert!(used < 10, "idle matcher used {used} ticks in 1 s");

    // Still serving after the idle stretch.
    let event = parser::parse_event(&schema, "a0 = 3").unwrap();
    let tx = pipeline.sender();
    tx.send(IngestItem {
        conn: 1,
        seq: 0,
        event,
    })
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while ServerStats::get(&stats.matches) < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ServerStats::get(&stats.matches), 1);
    drop(tx);
    pipeline.shutdown();
}
