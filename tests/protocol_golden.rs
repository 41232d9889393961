//! Wire-protocol golden file: replays the committed single-connection
//! session in `tests/golden/protocol_session.txt` against a loopback
//! broker, and again against a cluster router over two such brokers,
//! and checks every reply byte for byte. The transcript covers the
//! request verbs, their error replies, and the `RESULT`/`EVENT` lines a
//! `BATCH` and a `PUB` produce. The format is described in the file's
//! header comment.

use apcm::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TRANSCRIPT: &str = include_str!("golden/protocol_session.txt");

/// One run of sent lines and the replies that must follow it.
#[derive(Default)]
struct Exchange {
    send: Vec<String>,
    expect: Vec<String>,
    eof: bool,
}

fn parse_transcript(text: &str) -> Vec<Exchange> {
    let mut runs: Vec<Exchange> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(sent) = line.strip_prefix("> ") {
            let open = runs.last().is_some_and(|r| r.expect.is_empty() && !r.eof);
            if !open {
                runs.push(Exchange::default());
            }
            runs.last_mut().unwrap().send.push(sent.to_string());
        } else if let Some(reply) = line.strip_prefix("< ") {
            let run = runs.last_mut().expect("reply before any sent line");
            run.expect.push(reply.to_string());
        } else if line == "! eof" {
            runs.last_mut().expect("eof before any sent line").eof = true;
        } else {
            panic!("unrecognized transcript line {line:?}");
        }
    }
    runs
}

fn schema() -> Schema {
    Schema::uniform(3, 16)
}

fn config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 16,
        flush_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

/// Replays the whole transcript over one fresh connection to `addr`.
fn replay(addr: SocketAddr) {
    let runs = parse_transcript(TRANSCRIPT);
    assert!(runs.len() >= 10, "transcript parsed to {} runs", runs.len());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    for run in &runs {
        let mut wire = String::new();
        for line in &run.send {
            wire.push_str(line);
            wire.push('\n');
        }
        stream.write_all(wire.as_bytes()).unwrap();
        for expected in &run.expect {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expected, "reply to {:?}", run.send);
        }
        if run.eof {
            let mut rest = String::new();
            assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "extra {rest:?}");
        }
    }
}

#[test]
fn broker_replays_protocol_golden_transcript() {
    let server = Server::start(schema(), config(), "127.0.0.1:0").unwrap();
    replay(server.local_addr());
    server.shutdown();
}

/// The router speaks the broker's protocol: the same transcript, sent
/// through a router over two backends, yields the same bytes.
#[test]
fn router_replays_protocol_golden_transcript() {
    let cluster =
        ClusterHandle::start(schema(), vec![config(), config()], RouterConfig::default()).unwrap();
    replay(cluster.router().local_addr());
    cluster.shutdown();
}
