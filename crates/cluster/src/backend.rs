//! One synchronous protocol connection from the router to a backend shard
//! server.
//!
//! The router serializes all traffic on a backend connection behind a
//! mutex (see [`crate::membership::Node`]), so a request/response here
//! never interleaves with another thread's command: after a command line
//! is written, the next `+`/`-` line on the wire is its reply.
//! Asynchronous `RESULT` lines are consumed only inside
//! [`BackendConn::publish_window`] (where the whole window is collected
//! under the same lock), and `EVENT` notifications are discarded — the
//! router synthesizes its own notifications from merged rows, so backend
//! ownership is irrelevant to delivery.

use apcm_bexpr::SubId;
use apcm_server::client::{connect_stream, ConnectOptions};
use apcm_server::protocol;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

pub struct BackendConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl BackendConn {
    /// Dials `addr` under `options` (the caller decides attempts/backoff;
    /// the health sweep passes a single-attempt clone and schedules retries
    /// itself).
    pub fn connect(addr: &str, options: &ConnectOptions) -> std::io::Result<Self> {
        let stream = connect_stream(addr, options)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Re-arms the socket's read deadline. The health sweep tightens it to
    /// the probe timeout around each `ROLE` probe (so a stalled-but-open
    /// backend cannot wedge the sweep) and restores the request timeout
    /// afterwards; `None` blocks forever.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one command line and returns its `+`/`-` reply verbatim,
    /// skipping any stray asynchronous lines.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        loop {
            let reply = self.read_line()?;
            if reply.starts_with("RESULT ") || reply.starts_with("EVENT ") {
                continue;
            }
            return Ok(reply);
        }
    }

    /// Publishes one window of pre-rendered event lines as a `BATCH` and
    /// collects this backend's row for every event, in window order.
    ///
    /// The backend acknowledges `+OK batch <first> <accepted>` and then
    /// pushes one `RESULT <seq> ...` per event; seqs are contiguous from
    /// `<first>` because every line the router sends was already parsed
    /// against the shared schema. A `RESULT` that races ahead of the ack
    /// (the backend's ingest workers flush windows on their own threads)
    /// is buffered and indexed once `<first>` is known. Any `-ERR` or seq
    /// gap is surfaced as an I/O error, which the caller treats as a
    /// backend failure.
    pub fn publish_window(&mut self, event_lines: &[String]) -> std::io::Result<Vec<Vec<SubId>>> {
        let n = event_lines.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        self.send_line(&format!("BATCH {n}"))?;
        for line in event_lines {
            self.send_line(line)?;
        }

        fn place(
            rows: &mut [Option<Vec<SubId>>],
            seen: &mut usize,
            first: u64,
            seq: u64,
            ids: Vec<SubId>,
        ) -> std::io::Result<()> {
            let index = seq
                .checked_sub(first)
                .filter(|&i| (i as usize) < rows.len())
                .ok_or_else(|| std::io::Error::other(format!("RESULT seq {seq} outside batch")))?
                as usize;
            if rows[index].replace(ids).is_none() {
                *seen += 1;
            }
            Ok(())
        }

        let mut first = None;
        let mut early: Vec<(u64, Vec<SubId>)> = Vec::new();
        let mut rows: Vec<Option<Vec<SubId>>> = vec![None; n];
        let mut seen = 0usize;
        while first.is_none() || seen < n {
            let line = self.read_line()?;
            if line.starts_with("RESULT ") {
                let (seq, ids, _) =
                    protocol::parse_result_ext(&line).map_err(std::io::Error::other)?;
                match first {
                    Some(first) => place(&mut rows, &mut seen, first, seq, ids)?,
                    None => {
                        if early.len() >= n {
                            return Err(std::io::Error::other("RESULT flood before the batch ack"));
                        }
                        early.push((seq, ids));
                    }
                }
            } else if let Some(rest) = line.strip_prefix("+OK batch ") {
                let mut parts = rest.split_whitespace();
                let start: u64 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| std::io::Error::other("bad batch ack"))?;
                let accepted: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| std::io::Error::other("bad batch ack"))?;
                if accepted != n {
                    return Err(std::io::Error::other(format!(
                        "backend accepted {accepted} of {n} events"
                    )));
                }
                first = Some(start);
                for (seq, ids) in early.drain(..) {
                    place(&mut rows, &mut seen, start, seq, ids)?;
                }
            } else if line.starts_with("-ERR") {
                return Err(std::io::Error::other(line));
            }
            // EVENT notifications for router-owned ids are discarded.
        }
        Ok(rows.into_iter().map(|r| r.expect("seen == n")).collect())
    }
}
