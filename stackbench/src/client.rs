//! The benchmark's own wire client: two connections, each a blocking
//! writer plus one reader thread parked on the socket. Nothing spins.
//!
//! * [`Publisher`] sends `PUB` / `BATCH` frames and its reader checks every
//!   `RESULT` row against the oracle the moment it arrives.
//! * [`Owner`] loads subscriptions, runs the churn, and counts the `EVENT`
//!   lines pushed to it.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::gen::Inputs;
use crate::workloads::Frame;

/// Any reply slower than this is a failed operation.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// What a `RESULT` row must equal, given which churn slots are live.
pub enum Check {
    /// Exact: the stable oracle row plus the live churn slots the event
    /// satisfies. `tails[e]` is the text after `RESULT <seq> `.
    Exact { tails: Vec<Vec<u8>> },
    /// Churn in flight: the stable part must equal the oracle and every
    /// other id must be a churn slot the event satisfies.
    StableOnly,
}

impl Check {
    pub fn exact(inputs: &Inputs, live: &[bool]) -> Check {
        let base = inputs.churn_base;
        let tails = inputs
            .expected
            .iter()
            .zip(&inputs.churn_matches)
            .map(|(stable, churn)| {
                let ids: Vec<String> = stable
                    .iter()
                    .chain(churn.iter().filter(|&&id| live[(id - base) as usize]))
                    .map(u32::to_string)
                    .collect();
                if ids.is_empty() {
                    b"0".to_vec()
                } else {
                    format!("{} {}", ids.len(), ids.join(",")).into_bytes()
                }
            })
            .collect();
        Check::Exact { tails }
    }

    fn row_ok(&self, inputs: &Inputs, event: usize, tail: &[u8]) -> bool {
        match self {
            Check::Exact { tails } => tails[event] == tail,
            Check::StableOnly => {
                let Some(ids) = parse_ids(tail) else {
                    return false;
                };
                let base = inputs.churn_base;
                let split = ids.partition_point(|&id| id < base);
                ids[..split] == inputs.expected[event][..]
                    && ids[split..]
                        .iter()
                        .all(|id| inputs.churn_matches[event].binary_search(id).is_ok())
            }
        }
    }
}

/// `<n>[ id,id,...]` → ids; `None` on a malformed or `partial` row.
fn parse_ids(tail: &[u8]) -> Option<Vec<u32>> {
    let text = std::str::from_utf8(tail).ok()?;
    let mut parts = text.split(' ');
    let count: usize = parts.next()?.parse().ok()?;
    let ids: Vec<u32> = match parts.next() {
        None => Vec::new(),
        Some(csv) => csv
            .split(',')
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?,
    };
    (parts.next().is_none() && ids.len() == count).then_some(ids)
}

/// Where the reader files a verified row.
pub enum Mode {
    /// Warm-up and verification frames: checked, not measured.
    Idle,
    /// Closed loop: correct rows received in `start..end` are counted.
    Closed {
        start: Instant,
        end: Instant,
        correct: u64,
    },
    /// Open loop: latency from each event's due time. Unit `k` (a frame,
    /// or one `PUB`) is due at `start + k * period`.
    Open {
        start: Instant,
        first_seq: u64,
        unit_events: u64,
        period: Duration,
        samples: Vec<f64>,
    },
}

pub struct PubState {
    pub sent: u64,
    pub received: u64,
    pub failed: u64,
    pub mode: Mode,
    pub check: Check,
    /// Set when the reader stops: EOF or a socket error.
    pub dead: Option<String>,
    /// The sender sleeps until at most this many events await their row;
    /// the reader wakes it then, not on every row.
    wake_at: Option<u64>,
}

impl PubState {
    /// Events sent whose row has not come back.
    pub fn in_flight(&self) -> u64 {
        self.sent - self.received
    }
}

struct PubShared {
    state: Mutex<PubState>,
    progress: Condvar,
}

pub struct Publisher {
    writer: BufWriter<TcpStream>,
    shared: Arc<PubShared>,
    reader: Option<JoinHandle<()>>,
    inputs: Arc<Inputs>,
    frame: Frame,
    pub bytes_out: u64,
    pub bytes_in: Arc<AtomicU64>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a client thread panicked holding the lock")
}

impl Publisher {
    pub fn connect(
        addr: &str,
        inputs: Arc<Inputs>,
        frame: Frame,
        check: Check,
    ) -> io::Result<Self> {
        let stream = connect(addr)?;
        let shared = Arc::new(PubShared {
            state: Mutex::new(PubState {
                sent: 0,
                received: 0,
                failed: 0,
                mode: Mode::Idle,
                check,
                dead: None,
                wake_at: None,
            }),
            progress: Condvar::new(),
        });
        let bytes_in = Arc::new(AtomicU64::new(0));
        let reader = {
            let stream = stream.try_clone()?;
            let shared = shared.clone();
            let inputs = inputs.clone();
            let bytes_in = bytes_in.clone();
            std::thread::Builder::new()
                .name("sb-pub-reader".into())
                .spawn(move || publisher_reader(stream, &shared, &inputs, &bytes_in))?
        };
        Ok(Self {
            writer: BufWriter::with_capacity(256 * 1024, stream),
            shared,
            reader: Some(reader),
            inputs,
            frame,
            bytes_out: 0,
            bytes_in,
        })
    }

    pub fn state(&self) -> MutexGuard<'_, PubState> {
        lock(&self.shared.state)
    }

    /// Writes events `sent..sent + n` in the workload's framing and flushes.
    fn send_events(&mut self, n: u64) -> io::Result<()> {
        let first = self.state().sent;
        let pool = self.inputs.event_lines.len() as u64;
        let mut bytes = 0usize;
        if let Frame::Batch(_) = self.frame {
            let head = format!("BATCH {n}\n");
            self.writer.write_all(head.as_bytes())?;
            bytes += head.len();
        }
        for seq in first..first + n {
            let line = &self.inputs.event_lines[(seq % pool) as usize];
            if let Frame::Pipelined(_) = self.frame {
                self.writer.write_all(b"PUB ")?;
                bytes += 4;
            }
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            bytes += line.len() + 1;
        }
        // Count before the flush: a row may come back before it returns.
        self.state().sent += n;
        self.bytes_out += bytes as u64;
        self.writer.flush()
    }

    /// Blocks until at most `in_flight` events await their row.
    fn wait_in_flight(&self, in_flight: u64) -> io::Result<()> {
        let mut state = self.state();
        let deadline = Instant::now() + OP_TIMEOUT;
        state.wake_at = Some(in_flight);
        while state.in_flight() > in_flight {
            if let Some(why) = &state.dead {
                return Err(io::Error::other(why.clone()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // The missing rows are failed operations, not a hang.
                state.failed += state.in_flight();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "RESULT rows missing",
                ));
            }
            state = self
                .shared
                .progress
                .wait_timeout(state, left)
                .expect("a client thread panicked holding the lock")
                .0;
        }
        state.wake_at = None;
        Ok(())
    }

    pub fn drain(&self) -> io::Result<()> {
        self.wait_in_flight(0)
    }

    /// One closed-loop step: a whole frame and its rows (`BATCH`), or a
    /// refill of the pipeline once a quarter of it has drained (`PUB`).
    pub fn closed_step(&mut self) -> io::Result<()> {
        match self.frame {
            Frame::Batch(n) => {
                self.send_events(n as u64)?;
                self.drain()
            }
            Frame::Pipelined(cap) => {
                let cap = cap as u64;
                self.wait_in_flight(cap - cap / 4)?;
                let room = cap - self.state().in_flight();
                self.send_events(room)
            }
        }
    }

    /// Closed loop until `until`, then waits for the rows still in flight.
    pub fn closed_loop(&mut self, until: Instant) -> io::Result<()> {
        while Instant::now() < until {
            self.closed_step()?;
        }
        self.drain()
    }

    /// One closed-loop segment, `start..start + length`. Returns correct
    /// rows received per second.
    pub fn segment_closed(&mut self, start: Instant, length: Duration) -> io::Result<f64> {
        self.drain()?;
        let end = start + length;
        self.state().mode = Mode::Closed {
            start,
            end,
            correct: 0,
        };
        let result = self.closed_loop(end);
        let mode = std::mem::replace(&mut self.state().mode, Mode::Idle);
        result?;
        let Mode::Closed { correct, .. } = mode else {
            unreachable!("mode is only changed by the sending thread");
        };
        Ok(correct as f64 / length.as_secs_f64())
    }

    /// One open-loop segment at `rate` events/s on a fixed timetable. A
    /// `BATCH` frame is due as a whole; `PUB` events are due one by one and
    /// every event already due goes out in one write. Returns the latency
    /// samples (µs, `INFINITY` for a missing or wrong row) and the share of
    /// sends issued late.
    pub fn segment_open(
        &mut self,
        start: Instant,
        length: Duration,
        rate: f64,
    ) -> io::Result<(Vec<f64>, f64)> {
        self.drain()?;
        let unit_events = match self.frame {
            Frame::Batch(n) => n as u64,
            Frame::Pipelined(_) => 1,
        };
        let schedule = Schedule::new(start, unit_events as f64 / rate);
        let first_seq = self.state().sent;
        self.state().mode = Mode::Open {
            start,
            first_seq,
            unit_events,
            period: schedule.period,
            samples: Vec::new(),
        };
        let end = start + length;
        let cap = self.frame.max_in_flight();
        let (mut next, mut late) = (0u64, 0u64);
        let sent = loop {
            let due = schedule.due(next);
            if due >= end {
                break Ok(());
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
                continue;
            }
            // The pipeline is bounded in the open loop too: the server drops
            // rows for a connection with 1024 lines queued. A full pipeline
            // holds the send back, which makes what follows late.
            let room = cap.saturating_sub(self.state().in_flight()) / unit_events;
            if room == 0 {
                if let Err(e) = self.wait_in_flight(cap - unit_events) {
                    break Err(e);
                }
                continue;
            }
            // Everything already due goes out now, as far as there is room;
            // each unit's lateness is measured against its own due time.
            let ready = match self.frame {
                Frame::Batch(_) => 1,
                Frame::Pipelined(_) => {
                    (schedule.due_by(now.min(end - Duration::from_nanos(1))) - next).min(room)
                }
            };
            late += (next..next + ready)
                .filter(|&unit| now - schedule.due(unit) > LATE)
                .count() as u64;
            if let Err(e) = self.send_events(ready * unit_events) {
                break Err(e);
            }
            next += ready;
        };
        let drained = self.drain();
        let mode = std::mem::replace(&mut self.state().mode, Mode::Idle);
        sent?;
        let Mode::Open { mut samples, .. } = mode else {
            unreachable!("mode is only changed by the sending thread");
        };
        // A row that never came counts as over any limit.
        let scheduled = (next * unit_events) as usize;
        samples.resize(scheduled.max(samples.len()), f64::INFINITY);
        drained?;
        Ok((samples, late as f64 / next.max(1) as f64))
    }

    pub fn close(mut self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A send is late when issued more than this after it was due.
pub const LATE: Duration = Duration::from_millis(1);

/// The open-loop timetable: unit `k` is due at `start + k * period`,
/// whatever happened to the units before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, period_s: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(period_s),
        }
    }

    pub fn due(&self, unit: u64) -> Instant {
        self.start + Duration::from_nanos(unit * self.period.as_nanos() as u64)
    }

    /// How many units are due at or before `now` (units `0..n`).
    pub fn due_by(&self, now: Instant) -> u64 {
        match now.checked_duration_since(self.start) {
            None => 0,
            Some(elapsed) => (elapsed.as_nanos() / self.period.as_nanos().max(1)) as u64 + 1,
        }
    }
}

fn publisher_reader(stream: TcpStream, shared: &PubShared, inputs: &Inputs, bytes_in: &AtomicU64) {
    let mut reader = BufReader::with_capacity(256 * 1024, stream);
    let mut line = Vec::with_capacity(4096);
    let pool = inputs.event_lines.len() as u64;
    let why = loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break "connection closed".to_string(),
            Ok(n) => bytes_in.fetch_add(n as u64, Ordering::Relaxed),
            Err(e) => break format!("read failed: {e}"),
        };
        let now = Instant::now();
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        if text.starts_with(b"+OK") {
            continue;
        }
        let mut state = lock(&shared.state);
        let row = text.strip_prefix(b"RESULT ").and_then(|rest| {
            let space = rest.iter().position(|&b| b == b' ')?;
            let seq: u64 = std::str::from_utf8(&rest[..space]).ok()?.parse().ok()?;
            Some((seq, &rest[space + 1..]))
        });
        let Some((seq, tail)) = row else {
            // `-ERR ...` or anything else unexpected on this connection.
            state.failed += 1;
            continue;
        };
        let ok = state.check.row_ok(inputs, (seq % pool) as usize, tail);
        state.received += 1;
        if !ok {
            state.failed += 1;
        }
        match &mut state.mode {
            Mode::Idle => {}
            Mode::Closed {
                start,
                end,
                correct,
            } => *correct += u64::from(ok && (*start..*end).contains(&now)),
            Mode::Open {
                start,
                first_seq,
                unit_events,
                period,
                samples,
            } => {
                let unit = (seq - *first_seq) / *unit_events;
                let due = *start + Duration::from_nanos(unit * period.as_nanos() as u64);
                let latency = now.saturating_duration_since(due);
                samples.push(if ok {
                    latency.as_secs_f64() * 1e6
                } else {
                    f64::INFINITY
                });
            }
        }
        let wake = state
            .wake_at
            .is_some_and(|limit| state.sent - state.received <= limit);
        drop(state);
        if wake {
            shared.progress.notify_all();
        }
    };
    lock(&shared.state).dead = Some(why);
    shared.progress.notify_all();
}

/// The subscription-owning connection.
pub struct Owner {
    writer: BufWriter<TcpStream>,
    replies: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// `EVENT` lines received.
    pub events_seen: Arc<AtomicU64>,
    /// Which churn slots are subscribed, by acked operations.
    pub live: Vec<bool>,
    next_slot: usize,
}

impl Owner {
    pub fn connect(addr: &str, churn_slots: usize) -> io::Result<Self> {
        let stream = connect(addr)?;
        let (tx, replies) = mpsc::channel();
        let events_seen = Arc::new(AtomicU64::new(0));
        let reader = {
            let stream = stream.try_clone()?;
            let events_seen = events_seen.clone();
            std::thread::Builder::new()
                .name("sb-owner-reader".into())
                .spawn(move || {
                    let mut reader = BufReader::with_capacity(256 * 1024, stream);
                    let mut line = Vec::with_capacity(4096);
                    loop {
                        line.clear();
                        match reader.read_until(b'\n', &mut line) {
                            Ok(0) | Err(_) => return,
                            Ok(_) => {}
                        }
                        if line.starts_with(b"EVENT ") {
                            events_seen.fetch_add(1, Ordering::Relaxed);
                        } else if tx
                            .send(String::from_utf8_lossy(&line).trim_end().to_string())
                            .is_err()
                        {
                            return;
                        }
                    }
                })?
        };
        Ok(Self {
            writer: BufWriter::with_capacity(256 * 1024, stream),
            replies,
            reader: Some(reader),
            events_seen,
            live: vec![false; churn_slots],
            next_slot: 0,
        })
    }

    fn reply(&self) -> io::Result<String> {
        match self.replies.recv_timeout(OP_TIMEOUT) {
            Ok(line) if line.starts_with("+OK") => Ok(line),
            Ok(line) => Err(io::Error::other(line)),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within 10 s",
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::other("owner connection closed")),
        }
    }

    /// Loads `lines` (one `SUB` each) with a bounded number unacknowledged,
    /// so neither side's socket buffer can fill with the other not reading.
    pub fn load(&mut self, lines: &[String]) -> io::Result<()> {
        const WINDOW: usize = 512;
        let mut acked = 0;
        for (sent, line) in lines.iter().enumerate() {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            if (sent + 1) % (WINDOW / 2) == 0 {
                self.writer.flush()?;
                while sent + 1 - acked > WINDOW / 2 {
                    self.reply()?;
                    acked += 1;
                }
            }
        }
        self.writer.flush()?;
        while acked < lines.len() {
            self.reply()?;
            acked += 1;
        }
        Ok(())
    }

    /// One acknowledged churn operation on `slot`: `UNSUB` if it is live,
    /// else `SUB` with the slot's expression.
    fn toggle(&mut self, inputs: &Inputs, slot: usize) -> io::Result<()> {
        if self.live[slot] {
            writeln!(self.writer, "UNSUB {}", inputs.churn_subs[slot].id().0)?;
        } else {
            self.writer.write_all(inputs.churn_lines[slot].as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        self.reply()?;
        self.live[slot] = !self.live[slot];
        Ok(())
    }

    /// Closed-loop churn over the slots in cyclic order from `start` for
    /// `length`. Returns `(acked ops per second, attempted, failed)`; a
    /// failed operation ends the segment.
    pub fn churn(&mut self, inputs: &Inputs, start: Instant, length: Duration) -> (f64, u64, u64) {
        let end = start + length;
        let (mut acked, mut attempted, mut failed) = (0u64, 0, 0);
        while Instant::now() < end {
            attempted += 1;
            let slot = self.next_slot;
            self.next_slot = (slot + 1) % self.live.len();
            if self.toggle(inputs, slot).is_err() {
                failed = 1;
                break;
            }
            acked += u64::from((start..end).contains(&Instant::now()));
        }
        (acked as f64 / length.as_secs_f64(), attempted, failed)
    }

    /// Brings the churn range to a fixed shape — the first tenth of the
    /// slots live, the rest not — so what follows sees the same corpus
    /// whichever slot the clock stopped the churn on. Returns ops issued.
    pub fn settle(&mut self, inputs: &Inputs) -> io::Result<u64> {
        let live = self.live.len() / 10;
        let mut ops = 0;
        for slot in 0..self.live.len() {
            if self.live[slot] != (slot < live) {
                self.toggle(inputs, slot)?;
                ops += 1;
            }
        }
        self.next_slot = 0;
        Ok(ops)
    }

    pub fn close(mut self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_due_on_a_fixed_timetable() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 0.001);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(250), start + Duration::from_millis(250));
        // Nothing is due before the start; unit 0 is due at it.
        assert_eq!(schedule.due_by(start - Duration::from_nanos(1)), 0);
        assert_eq!(schedule.due_by(start), 1);
        assert_eq!(schedule.due_by(start + Duration::from_micros(2500)), 3);
    }

    #[test]
    fn a_stall_leaves_a_backlog_that_is_all_due() {
        // The sender wrote unit 9, then stalled for 30 ms.
        let start = Instant::now();
        let schedule = Schedule::new(start, 0.001);
        let next = 10;
        let now = schedule.due(next) + Duration::from_millis(30);
        let ready = schedule.due_by(now) - next;
        assert_eq!(
            ready, 31,
            "every unit that came due during the stall goes out"
        );
        // Each is timed against its own due instant, not the write.
        let lateness: Vec<Duration> = (next..next + ready)
            .map(|u| now - schedule.due(u))
            .collect();
        assert_eq!(lateness[0], Duration::from_millis(30));
        assert_eq!(lateness[30], Duration::ZERO);
        assert_eq!(lateness.iter().filter(|&&l| l > LATE).count(), 29);
    }

    #[test]
    fn rows_are_checked_against_the_oracle() {
        assert_eq!(parse_ids(b"0"), Some(vec![]));
        assert_eq!(parse_ids(b"3 1,5,9"), Some(vec![1, 5, 9]));
        assert_eq!(parse_ids(b"2 1,5,9"), None);
        assert_eq!(parse_ids(b"1 7 partial"), None);
        assert_eq!(parse_ids(b"0 partial"), None);
    }
}
