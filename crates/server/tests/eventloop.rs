//! Robustness tests for the event-loop broker: framing over torn writes,
//! oversized-line handling, idle reaping, slow-consumer policy, admission
//! control, the netio STATS gauges, and the headline property — one fixed
//! worker pool serving ~1k idle subscribers with no per-connection
//! threads. The wire protocol itself is pinned by the umbrella crate's
//! golden transcript (`tests/protocol_golden.rs`).

use apcm_bexpr::{parser, Schema, SubId};
use apcm_server::{BrokerClient, Server, ServerConfig, SlowConsumerPolicy};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn base_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 16,
        flush_interval: Duration::from_millis(5),
        maintenance_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (Server, String) {
    let schema = Schema::uniform(3, 16);
    let server = Server::start(schema, config, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn raw_conn(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// How many OS threads this process is running (server threads
/// included — the broker runs in-process in these tests).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

#[test]
fn oversized_line_reports_error_and_keeps_connection() {
    let (server, addr) = start(ServerConfig {
        max_line_bytes: 64,
        ..base_config()
    });
    let (mut stream, mut reader) = raw_conn(&addr);
    let big = vec![b'x'; 4096];
    stream.write_all(&big).unwrap();
    stream.write_all(b"\nPING\n").unwrap();
    let reply = read_reply(&mut reader);
    assert!(reply.starts_with("-ERR line too long"), "{reply}");
    assert_eq!(read_reply(&mut reader), "+PONG");

    let mut probe = BrokerClient::connect(&addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let stats = probe.stats().unwrap();
    assert!(stats["oversized_lines"] >= 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn torn_lines_reassemble_from_dribbled_bytes() {
    let (server, addr) = start(base_config());
    let (mut stream, mut reader) = raw_conn(&addr);
    // One byte per segment, flushed, with pauses: the loop sees up to
    // one readiness event per byte and must re-join the frame.
    for b in b"SUB 7 a0 >= 0" {
        stream.write_all(&[*b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    stream.write_all(b"\n").unwrap();
    assert_eq!(read_reply(&mut reader), "+OK 7");
    // A torn pair: half a PING in one write, the rest plus a whole
    // UNSUB in the next.
    stream.write_all(b"PI").unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(5));
    stream.write_all(b"NG\nUNSUB 7\n").unwrap();
    assert_eq!(read_reply(&mut reader), "+PONG");
    assert_eq!(read_reply(&mut reader), "+OK 7");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let (server, addr) = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..base_config()
    });
    let (mut stream, mut reader) = raw_conn(&addr);
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut reader), "+PONG");
    // Go quiet: the loop's timer wheel should close us.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "expected a silent close, got {rest:?}");

    // A fresh (active) connection sees the reap in STATS.
    let mut probe = BrokerClient::connect(&addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        probe.ping().unwrap();
        let stats = probe.stats().unwrap();
        if stats["idle_reaped"] >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "idle reap never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn slow_consumer_disconnect_policy_kicks_the_laggard() {
    let schema = Schema::uniform(3, 16);
    // The queue must hold one batch's acks + RESULT rows for the
    // publisher (which drains between batches) while still being small
    // enough that the never-reading subscriber overflows it.
    let (server, addr) = start(ServerConfig {
        conn_queue: 64,
        slow_consumer: SlowConsumerPolicy::Disconnect,
        ..base_config()
    });
    // The slow reader subscribes to everything and never reads.
    let mut slow = BrokerClient::connect(&addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let sub = parser::parse_subscription_with_id(&schema, SubId(1), "a0 >= 0").unwrap();
    slow.subscribe(&sub, &schema).unwrap();

    // The publisher floods EVENT notifications at the slow reader via
    // BATCH — publish_batch drains the publisher's own acks and RESULT
    // rows, so only the laggard's queue backs up.
    let mut publisher = BrokerClient::connect(&addr).unwrap();
    publisher
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let event = parser::parse_event(&schema, "a0 = 1, a1 = 1, a2 = 1").unwrap();
    let window: Vec<_> = std::iter::repeat_with(|| event.clone()).take(32).collect();
    let mut probe = BrokerClient::connect(&addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        publisher.publish_batch(&window, &schema).unwrap();
        let stats = probe.stats().unwrap();
        if stats["slow_disconnects"] >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect policy never fired: {stats:?}"
        );
    }
    server.shutdown();
}

#[test]
fn admission_cap_rejects_with_server_busy() {
    let (server, addr) = start(ServerConfig {
        max_conns: Some(2),
        ..base_config()
    });
    // Fill the cap and prove both admitted connections work.
    let (mut s1, mut r1) = raw_conn(&addr);
    let (mut s2, mut r2) = raw_conn(&addr);
    s1.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut r1), "+PONG");
    s2.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(&mut r2), "+PONG");

    let (_s3, mut r3) = raw_conn(&addr);
    assert_eq!(read_reply(&mut r3), "-ERR server busy");
    let mut rest = String::new();
    r3.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected conn should be closed");

    s1.write_all(b"STATS\n").unwrap();
    let header = read_reply(&mut r1);
    assert!(header.starts_with("+OK stats"), "{header}");
    let mut saw_rejected = false;
    loop {
        let line = read_reply(&mut r1);
        if line == "." {
            break;
        }
        if line == "conns_rejected 1" {
            saw_rejected = true;
        }
    }
    assert!(saw_rejected, "conns_rejected should be 1");
    server.shutdown();
}

#[test]
fn thousand_idle_subscribers_on_one_fixed_pool() {
    const CONNS: usize = 1000;
    let (server, addr) = start(ServerConfig {
        loop_workers: Some(2),
        ..base_config()
    });
    let threads_before = process_threads();

    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let (mut stream, mut reader) = raw_conn(&addr);
        stream
            .write_all(format!("SUB {i} a0 >= {}\n", i % 16).as_bytes())
            .unwrap();
        assert_eq!(read_reply(&mut reader), format!("+OK {i}"));
        conns.push((stream, reader));
    }

    // The whole fleet is served by the fixed pool: no per-connection
    // threads appeared. (Allow slack for transient blocking offloads.)
    let grown = process_threads().saturating_sub(threads_before);
    assert!(
        grown < 10,
        "expected a fixed worker pool, thread count grew by {grown} for {CONNS} conns"
    );

    // The loop gauges see every connection, and a random subscriber is
    // still live.
    let mut probe = BrokerClient::connect(&addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let stats = probe.stats().unwrap();
    assert!(
        stats["connections_open"] >= CONNS as u64,
        "connections_open {} < {CONNS}",
        stats["connections_open"]
    );
    assert!(stats.contains_key("epoll_wakeups"));
    assert!(stats.contains_key("outbound_queue_lines"));

    let (stream, reader) = &mut conns[617];
    stream.write_all(b"PING\n").unwrap();
    assert_eq!(read_reply(reader), "+PONG");

    drop(conns);
    server.shutdown();
}
