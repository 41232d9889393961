//! Robustness: inputs at the edges of the model — unknown attributes,
//! extreme domains, degenerate corpora — must degrade gracefully and
//! consistently across engines.

use apcm::baselines::{CountingMatcher, KIndex, SequentialScan};
use apcm::betree::BeTree;
use apcm::core::{ApcmConfig, ApcmMatcher};
use apcm::prelude::*;

#[test]
fn events_with_unknown_attributes_are_consistent() {
    // Events may carry attribute ids the schema never registered (e.g. a
    // producer running a newer schema). Every engine must treat them as
    // irrelevant — identical to the brute-force semantics where no
    // predicate references them.
    let schema = Schema::uniform(3, 100);
    let subs = vec![
        parser::parse_subscription_with_id(&schema, SubId(0), "a0 = 5").unwrap(),
        parser::parse_subscription_with_id(&schema, SubId(1), "a1 != 9").unwrap(),
    ];
    let ev = Event::new(vec![(AttrId(0), 5), (AttrId(1), 2), (AttrId(99), 7)]).unwrap();

    let scan = SequentialScan::new(&subs);
    let expect = scan.match_event(&ev);
    assert_eq!(expect, vec![SubId(0), SubId(1)]);

    let apcm = ApcmMatcher::build(&schema, &subs, &ApcmConfig::default()).unwrap();
    assert_eq!(apcm.match_event(&ev), expect);
    let counting = CountingMatcher::build(&schema, &subs).unwrap();
    assert_eq!(counting.match_event(&ev), expect);
    let kindex = KIndex::build(&schema, &subs);
    assert_eq!(kindex.match_event(&ev), expect);
    let betree = BeTree::build(&schema, &subs).unwrap();
    assert_eq!(betree.match_event(&ev), expect);
}

#[test]
fn negative_and_offset_domains() {
    let mut schema = Schema::new();
    schema.add_attr("temp", Domain::new(-100, 100)).unwrap();
    schema
        .add_attr("epoch", Domain::new(1_600_000_000, 1_700_000_000))
        .unwrap();
    let subs = vec![
        parser::parse_subscription_with_id(&schema, SubId(0), "temp BETWEEN -20 AND -5").unwrap(),
        parser::parse_subscription_with_id(&schema, SubId(1), "epoch >= 1650000000 AND temp != 0")
            .unwrap(),
    ];
    let apcm = ApcmMatcher::build(&schema, &subs, &ApcmConfig::default()).unwrap();
    let scan = SequentialScan::new(&subs);
    for (t, e) in [
        (-20i64, 1_600_000_000i64),
        (-5, 1_650_000_000),
        (0, 1_699_999_999),
        (100, 1_650_000_001),
        (-100, 1_600_000_001),
    ] {
        let ev = parser::parse_event(&schema, &format!("temp = {t}, epoch = {e}")).unwrap();
        assert_eq!(apcm.match_event(&ev), scan.match_event(&ev), "t={t} e={e}");
    }
}

#[test]
fn single_value_domains() {
    let mut schema = Schema::new();
    schema.add_attr("flag", Domain::new(1, 1)).unwrap();
    schema.add_attr("x", Domain::new(0, 9)).unwrap();
    let subs = vec![
        parser::parse_subscription_with_id(&schema, SubId(0), "flag = 1").unwrap(),
        parser::parse_subscription_with_id(&schema, SubId(1), "flag != 1 AND x = 3").unwrap(),
    ];
    let apcm = ApcmMatcher::build(&schema, &subs, &ApcmConfig::default()).unwrap();
    let ev = parser::parse_event(&schema, "flag = 1, x = 3").unwrap();
    // `flag != 1` is unsatisfiable within the domain.
    assert_eq!(apcm.match_event(&ev), vec![SubId(0)]);
}

#[test]
fn unsatisfiable_predicates_never_match() {
    // BETWEEN entirely below the domain after validation is impossible via
    // the parser, but direct construction can produce satisfiable-looking
    // predicates that cover nothing once intersected with a small domain.
    let mut schema = Schema::new();
    schema.add_attr("x", Domain::new(10, 20)).unwrap();
    let sub = Subscription::new(
        SubId(0),
        vec![Predicate::new(
            AttrId(0),
            Op::not_in_set((10..=20).collect::<Vec<_>>()).unwrap(),
        )],
    )
    .unwrap();
    let apcm =
        ApcmMatcher::build(&schema, std::slice::from_ref(&sub), &ApcmConfig::default()).unwrap();
    let scan = SequentialScan::new(&[sub]);
    for v in 10..=20 {
        let ev = Event::new(vec![(AttrId(0), v)]).unwrap();
        assert!(scan.match_event(&ev).is_empty());
        assert!(apcm.match_event(&ev).is_empty(), "v={v}");
    }
}

#[test]
fn duplicate_ids_in_corpus_collapse_consistently() {
    // Two subscriptions with the same id: match output is id-based and
    // deduplicated, so engines agree even though both entries are indexed.
    let schema = Schema::uniform(2, 10);
    let subs = vec![
        parser::parse_subscription_with_id(&schema, SubId(7), "a0 = 1").unwrap(),
        parser::parse_subscription_with_id(&schema, SubId(7), "a1 = 2").unwrap(),
    ];
    let scan = SequentialScan::new(&subs);
    let apcm = ApcmMatcher::build(&schema, &subs, &ApcmConfig::default()).unwrap();
    for text in ["a0 = 1", "a1 = 2", "a0 = 1, a1 = 2", "a0 = 3"] {
        let ev = parser::parse_event(&schema, text).unwrap();
        assert_eq!(apcm.match_event(&ev), scan.match_event(&ev), "{text}");
    }
}

/// Drives a broker or router whose line cap is 64 bytes: an oversized
/// request line and a `BATCH` with a bad and an oversized payload line
/// are each answered with a structured error, and the connection keeps
/// serving.
fn rejects_oversized_lines_and_stays_up(addr: &str) {
    use apcm::server::BrokerClient;
    use std::io::{BufRead, BufReader, Write};

    // Raw socket: an oversized line (no protocol framing assumptions) must
    // be answered with a structured error, not buffered or fatal.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    let mut big = vec![b'x'; 4096];
    big.push(b'\n');
    stream.write_all(&big).unwrap();
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read(), "-ERR line too long (max 64 bytes)");
    assert_eq!(read(), "+PONG"); // same connection still works

    // A second, clean connection is unaffected and sees the counter.
    let mut client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    assert_eq!(client.stats().unwrap()["oversized_lines"], 1);

    // Inside a batch, a bad and an oversized payload line each use up
    // their slot and get their own error; the good line is matched.
    stream.write_all(b"BATCH 3\na0 = 1\na0 = nope\n").unwrap();
    stream.write_all(&big).unwrap();
    let bad = read();
    assert!(bad.starts_with("-ERR batch line 1: bad event: "), "{bad}");
    assert_eq!(read(), "-ERR batch line 2: line too long");
    assert_eq!(read(), "+OK batch 0 1");
    // Delivered asynchronously: read it before the next request.
    assert_eq!(read(), "RESULT 0 0");
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read(), "+PONG");
    assert_eq!(client.stats().unwrap()["oversized_lines"], 2);
}

#[test]
fn broker_rejects_oversized_line_and_stays_up() {
    use apcm::server::{Server, ServerConfig};

    let config = ServerConfig {
        shards: 2,
        max_line_bytes: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(Schema::uniform(3, 16), config, "127.0.0.1:0").unwrap();
    rejects_oversized_lines_and_stays_up(&server.local_addr().to_string());
    server.shutdown();
}

#[test]
fn router_rejects_oversized_line_and_stays_up() {
    use apcm::cluster::{ClusterHandle, RouterConfig};
    use apcm::server::ServerConfig;

    let backend = ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    };
    let router = RouterConfig {
        max_line_bytes: 64,
        ..RouterConfig::default()
    };
    let cluster = ClusterHandle::start(
        Schema::uniform(3, 16),
        vec![backend.clone(), backend],
        router,
    )
    .unwrap();
    rejects_oversized_lines_and_stays_up(&cluster.router_addr());
    cluster.shutdown();
}

#[test]
fn broker_survives_slow_reader_under_drop_policy() {
    use apcm::server::{BrokerClient, Server, ServerConfig};

    let schema = Schema::uniform(3, 16);
    let config = ServerConfig {
        shards: 2,
        window: 8,
        conn_queue: 4, // tiny outbound queue: overflows immediately
        flush_interval: std::time::Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = Server::start(schema.clone(), config, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // The slow reader subscribes to everything and never reads.
    let mut slow = BrokerClient::connect(&addr).unwrap();
    slow.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let sub = parser::parse_subscription_with_id(&schema, SubId(1), "a0 >= 0").unwrap();
    slow.subscribe(&sub, &schema).unwrap();

    // A publisher floods events that all notify the slow reader.
    let mut publisher = BrokerClient::connect(&addr).unwrap();
    publisher
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    for _ in 0..40 {
        publisher.send_line("PUB a0 = 1, a1 = 1, a2 = 1").unwrap();
    }
    // The server stays responsive on another connection while dropping.
    let mut probe = BrokerClient::connect(&addr).unwrap();
    probe
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        probe.ping().unwrap();
        let stats = probe.stats().unwrap();
        if stats["replies_dropped"] > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no drops recorded: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn very_long_conjunction() {
    let schema = Schema::uniform(64, 4);
    let preds: Vec<Predicate> = (0..64)
        .map(|a| Predicate::new(AttrId(a), Op::Le(3))) // always true
        .collect();
    let sub = Subscription::new(SubId(0), preds).unwrap();
    let apcm = ApcmMatcher::build(&schema, &[sub], &ApcmConfig::default()).unwrap();
    let full = Event::new((0..64).map(|a| (AttrId(a), 0)).collect::<Vec<_>>()).unwrap();
    assert_eq!(apcm.match_event(&full), vec![SubId(0)]);
    // Missing one attribute → no match.
    let partial = Event::new((0..63).map(|a| (AttrId(a), 0)).collect::<Vec<_>>()).unwrap();
    assert!(apcm.match_event(&partial).is_empty());
}
