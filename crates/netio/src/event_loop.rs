//! The event loop: a fixed pool of worker threads multiplexing accept,
//! nonblocking byte-capped line-framed reads, and EPOLLOUT-driven
//! buffered writes over one [`Poller`] per worker.
//!
//! ## Ownership model
//!
//! Every accepted connection is pinned to one worker, round-robin in
//! accept order (`conn id % workers`), and only that worker ever touches
//! the socket. Pinning is not by fd: when each accept pairs with another
//! open (an in-process client, a proxy's upstream dial), accepted fds
//! share a parity and would all land on one of two workers. Other
//! threads interact through the shared [`LoopHandle`]: enqueue outbound
//! lines ([`LoopHandle::try_send`] / [`LoopHandle::send`]) or request a
//! close ([`LoopHandle::kick`]); both nudge the owning worker through its
//! eventfd [`Waker`] and a small inbox, so the socket itself needs no
//! cross-thread synchronization.
//!
//! ## Outbound queue and backpressure
//!
//! Each connection has a bounded outbound queue of lines. `try_send`
//! (async fan-out: EVENT/RESULT pushes) reports `Full` at the cap and
//! lets the caller apply its slow-consumer policy. `send` (control
//! replies) enqueues beyond the cap — a reply to a request the peer
//! actually sent must not be silently dropped — and the loop compensates
//! by pausing reads (disarming `EPOLLIN`) while a connection's queue
//! sits above a high watermark, which bounds control-reply growth by
//! stalling the requests that generate them.
//!
//! ## Timers
//!
//! A hashed [`TimerWheel`] per worker drives idle reaping (one slot
//! entry per connection, rescheduled from its last-activity timestamp
//! when the check fires early), drain deadlines for closing
//! connections, and — on worker 0 — the periodic service tick. No
//! per-connection timer threads exist anywhere.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poller::{Interest, Mode, PollEvent, Poller, Waker};
use crate::wheel::TimerWheel;

pub type ConnId = u64;

const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_TICK: u64 = u64::MAX - 2;

/// How long a draining (service-closed) connection may take to flush
/// its tail before being cut off.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A line whose handling took this long (the service blocked on its own
/// I/O) has its queued replies written before the next line of the same
/// read runs. Faster lines leave them for one flush per read.
const SLOW_LINE: Duration = Duration::from_millis(1);

/// Queued lines gathered into one `writev` (two slices each, under the
/// kernel's 1 024-slice limit).
const WRITE_LINES: usize = 256;

/// One inbound protocol line, already framed and byte-capped.
pub enum Line<'a> {
    Text(&'a str),
    /// The line exceeded `max_line_bytes`; its bytes were discarded
    /// through the terminating newline.
    TooLong,
}

/// What the service wants done with the connection after a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Continue,
    /// Stop reading, flush queued replies, then close.
    Close,
}

/// Why a connection was closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed or reset the stream.
    Eof,
    /// A read or write failed.
    Error,
    /// [`LoopHandle::kick`] was called on it.
    Kicked,
    /// Idle longer than the configured timeout.
    Idle,
    /// The service returned [`Verdict::Close`] and the tail flushed
    /// (or the drain deadline expired).
    Requested,
    /// The loop is shutting down.
    Shutdown,
}

/// The protocol logic plugged into the loop. One instance serves every
/// connection; per-connection state lives in the `Session`.
pub trait Service: Send + Sync + 'static {
    type Session: Send;

    /// A connection was accepted and registered.
    fn on_open(&self, conn: ConnId, handle: &Arc<LoopHandle>) -> Self::Session;

    /// One complete inbound line. Replies go through the handle
    /// (`send`); ordering within the connection is FIFO.
    fn on_line(&self, session: &mut Self::Session, conn: ConnId, line: Line<'_>) -> Verdict;

    /// The connection is gone (always called exactly once per open).
    fn on_close(&self, session: &mut Self::Session, conn: ConnId, reason: CloseReason);

    /// Periodic maintenance hook (worker 0, `tick_interval` cadence).
    fn on_tick(&self) {}
}

/// Outcome of a bounded enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    Sent,
    /// Queue at capacity — the caller's slow-consumer policy decides.
    Full,
    /// No such connection (closed or never existed).
    Gone,
}

pub struct LoopOptions {
    /// Worker threads (connections are pinned round-robin). At least 1.
    pub workers: usize,
    /// Bounded outbound-queue capacity per connection (lines), enforced
    /// on [`LoopHandle::try_send`] only.
    pub conn_queue: usize,
    /// Byte cap for one inbound line; longer lines surface as
    /// [`Line::TooLong`].
    pub max_line_bytes: usize,
    /// Close connections with no inbound line for this long.
    pub idle_timeout: Option<Duration>,
    /// Admission cap on concurrently open connections; excess accepts
    /// are answered with `reject_line` and closed.
    pub max_conns: Option<usize>,
    /// Line written (newline appended) to a rejected connection.
    pub reject_line: Option<String>,
    /// Cadence of [`Service::on_tick`]; `None` disables it.
    pub tick_interval: Option<Duration>,
    /// Per-readiness read budget in bytes — a fairness bound so one
    /// firehose connection cannot monopolize its worker (the
    /// level-triggered registration re-reports leftovers).
    pub read_chunk: usize,
}

impl Default for LoopOptions {
    fn default() -> Self {
        LoopOptions {
            workers: default_workers(),
            conn_queue: 1024,
            max_line_bytes: 1024 * 1024,
            idle_timeout: None,
            max_conns: None,
            reject_line: None,
            tick_interval: None,
            read_chunk: 64 * 1024,
        }
    }
}

/// Default pool size: the core count clamped to `[2, 8]` — readiness
/// I/O is cheap, so a handful of workers serves tens of thousands of
/// connections, and two workers keep the pool honest even on one core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8)
}

/// Loop-wide counters, all monotonically written with relaxed ordering
/// (monitoring data, not synchronization).
#[derive(Default)]
pub struct LoopMetrics {
    /// Gauge: currently open (admitted) connections.
    pub connections_open: AtomicU64,
    /// Connections admitted over the loop's lifetime.
    pub conns_total: AtomicU64,
    /// Connections refused by the admission cap.
    pub conns_rejected: AtomicU64,
    /// `epoll_wait` returns that carried at least one event.
    pub epoll_wakeups: AtomicU64,
    /// Gauge: outbound lines queued across all connections.
    pub outbound_queued_lines: AtomicU64,
    /// Connections closed by idle reaping.
    pub idle_reaped: AtomicU64,
}

struct Outbound {
    queue: VecDeque<String>,
    /// Bytes of `queue[0]` (plus its trailing newline) already written.
    head_written: usize,
    /// Set once the connection is closed/kicked; sends return `Gone`.
    closed: bool,
}

/// The cross-thread face of one connection.
struct ConnShared {
    owner: usize,
    out: Mutex<Outbound>,
    /// Milliseconds since the loop epoch of the last inbound line.
    activity_ms: AtomicU64,
    /// Dedupes flush nudges: set by senders, cleared by the owner
    /// right before it flushes.
    flush_pending: AtomicBool,
}

enum Inject {
    /// A freshly accepted connection handed to its owning worker.
    Conn(TcpStream, ConnId),
    /// Cross-thread close request.
    Kick(ConnId),
    /// Outbound lines were queued; flush when convenient.
    Flush(ConnId),
}

struct WorkerShared {
    waker: Waker,
    inbox: Mutex<Vec<Inject>>,
}

/// Shared handle for interacting with the loop from any thread.
pub struct LoopHandle {
    workers: Vec<WorkerShared>,
    conns: Mutex<HashMap<ConnId, Arc<ConnShared>>>,
    metrics: LoopMetrics,
    conn_queue: usize,
    epoch: Instant,
    next_conn: AtomicU64,
    shutdown: AtomicBool,
}

impl LoopHandle {
    /// Bounded enqueue for asynchronous fan-out. Never blocks.
    pub fn try_send(&self, conn: ConnId, line: String) -> SendOutcome {
        let Some(shared) = self.conns.lock().unwrap().get(&conn).cloned() else {
            return SendOutcome::Gone;
        };
        {
            let mut out = shared.out.lock().unwrap();
            if out.closed {
                return SendOutcome::Gone;
            }
            if out.queue.len() >= self.conn_queue {
                return SendOutcome::Full;
            }
            out.queue.push_back(line);
        }
        self.metrics
            .outbound_queued_lines
            .fetch_add(1, Ordering::Relaxed);
        self.nudge(&shared, conn);
        SendOutcome::Sent
    }

    /// Control-reply enqueue: beyond-capacity, never dropped. The loop
    /// pauses the connection's reads while its queue is over the high
    /// watermark, so this stays bounded by inbound request volume.
    /// Returns `false` when the connection is gone.
    pub fn send(&self, conn: ConnId, line: String) -> bool {
        let Some(shared) = self.conns.lock().unwrap().get(&conn).cloned() else {
            return false;
        };
        {
            let mut out = shared.out.lock().unwrap();
            if out.closed {
                return false;
            }
            out.queue.push_back(line);
        }
        self.metrics
            .outbound_queued_lines
            .fetch_add(1, Ordering::Relaxed);
        self.nudge(&shared, conn);
        true
    }

    /// Requests an immediate close (no flush of pending output beyond
    /// what the socket takes). Idempotent; unknown ids are ignored.
    pub fn kick(&self, conn: ConnId) {
        let Some(shared) = self.conns.lock().unwrap().get(&conn).cloned() else {
            return;
        };
        shared.out.lock().unwrap().closed = true;
        let worker = &self.workers[shared.owner];
        worker.inbox.lock().unwrap().push(Inject::Kick(conn));
        worker.waker.wake();
    }

    pub fn metrics(&self) -> &LoopMetrics {
        &self.metrics
    }

    pub fn connections_open(&self) -> usize {
        self.metrics.connections_open.load(Ordering::Relaxed) as usize
    }

    /// Which worker owns `conn` (`None` when gone) — test/diagnostic.
    pub fn owner_of(&self, conn: ConnId) -> Option<usize> {
        self.conns.lock().unwrap().get(&conn).map(|s| s.owner)
    }

    fn nudge(&self, shared: &Arc<ConnShared>, conn: ConnId) {
        if !shared.flush_pending.swap(true, Ordering::AcqRel) {
            let worker = &self.workers[shared.owner];
            worker.inbox.lock().unwrap().push(Inject::Flush(conn));
            worker.waker.wake();
        }
    }
}

/// A running loop. [`EventLoop::shutdown`] (or drop) stops the workers
/// and closes every connection.
pub struct EventLoop {
    handle: Arc<LoopHandle>,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoop {
    /// Takes ownership of a bound listener and starts the worker pool.
    /// Worker 0 multiplexes accept alongside its share of connections.
    pub fn start<S: Service>(
        listener: TcpListener,
        service: Arc<S>,
        options: LoopOptions,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let nworkers = options.workers.max(1);
        let mut workers_shared = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            workers_shared.push(WorkerShared {
                waker: Waker::new()?,
                inbox: Mutex::new(Vec::new()),
            });
        }
        let handle = Arc::new(LoopHandle {
            workers: workers_shared,
            conns: Mutex::new(HashMap::new()),
            metrics: LoopMetrics::default(),
            conn_queue: options.conn_queue.max(1),
            epoch: Instant::now(),
            next_conn: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let options = Arc::new(options);
        let mut threads = Vec::with_capacity(nworkers);
        let mut listener = Some(listener);
        for index in 0..nworkers {
            let handle = handle.clone();
            let service = service.clone();
            let options = options.clone();
            let listener = if index == 0 { listener.take() } else { None };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("apcm-netio-{index}"))
                    .spawn(move || {
                        Worker {
                            index,
                            handle,
                            service,
                            options,
                            listener,
                        }
                        .run()
                    })
                    .map_err(io::Error::other)?,
            );
        }
        Ok(EventLoop {
            handle,
            workers: threads,
        })
    }

    pub fn handle(&self) -> Arc<LoopHandle> {
        self.handle.clone()
    }

    /// Stops the workers: every connection is closed (reason
    /// [`CloseReason::Shutdown`]) and the threads are joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.handle.shutdown.store(true, Ordering::SeqCst);
        for worker in &self.handle.workers {
            worker.waker.wake();
        }
        for thread in self.workers.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// Worker-local connection state; only the owning worker touches it.
struct ConnLocal<S: Service> {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    session: S::Session,
    /// Partial inbound line (no newline seen yet).
    buf: Vec<u8>,
    /// The partial line already blew the byte cap; discarding until its
    /// newline.
    overflowed: bool,
    interest: Interest,
    /// `Verdict::Close` received: reads stopped, flushing the tail.
    draining: bool,
    /// Reads disarmed while the outbound queue is over the watermark.
    paused: bool,
}

enum FlushResult {
    /// Queue drained (or made progress and armed EPOLLOUT).
    Ok,
    /// The socket failed; close the connection.
    Failed,
    /// Drained while draining: complete the requested close.
    Drained,
}

struct Worker<S: Service> {
    index: usize,
    handle: Arc<LoopHandle>,
    service: Arc<S>,
    options: Arc<LoopOptions>,
    listener: Option<TcpListener>,
}

impl<S: Service> Worker<S> {
    fn run(mut self) {
        let poller = match Poller::new() {
            Ok(p) => p,
            Err(_) => return,
        };
        let shared = &self.handle.workers[self.index];
        if poller
            .add(shared.waker.fd(), TOKEN_WAKER, Interest::READ, Mode::Level)
            .is_err()
        {
            return;
        }
        if let Some(listener) = &self.listener {
            if poller
                .add(
                    listener.as_raw_fd(),
                    TOKEN_LISTENER,
                    Interest::READ,
                    Mode::Level,
                )
                .is_err()
            {
                return;
            }
        }

        let mut conns: HashMap<ConnId, ConnLocal<S>> = HashMap::new();
        let mut wheel = TimerWheel::new(256, Duration::from_millis(50));
        if self.index == 0 {
            if let Some(interval) = self.options.tick_interval {
                wheel.schedule_after(TOKEN_TICK, interval);
            }
        }
        let mut events: Vec<PollEvent> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        let mut scratch = vec![0u8; self.options.read_chunk.clamp(4096, 1 << 20)];

        loop {
            if self.handle.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            let timeout = match wheel.next_deadline() {
                Some(deadline) => deadline
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(500)),
                None => Duration::from_millis(500),
            };
            events.clear();
            let n = match poller.wait(&mut events, Some(timeout)) {
                Ok(n) => n,
                Err(_) => break,
            };
            if n > 0 {
                self.handle
                    .metrics
                    .epoll_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            if self.handle.shutdown.load(Ordering::SeqCst) {
                break;
            }

            for &ev in events.iter() {
                match ev.token {
                    TOKEN_WAKER => self.handle.workers[self.index].waker.drain(),
                    TOKEN_LISTENER => self.accept_burst(&poller, &mut conns, &mut wheel),
                    id => self.conn_event(&poller, &mut conns, &mut wheel, id, ev, &mut scratch),
                }
            }

            // Cross-thread work: fresh connections, kicks, flush nudges.
            let injects =
                std::mem::take(&mut *self.handle.workers[self.index].inbox.lock().unwrap());
            for inject in injects {
                match inject {
                    Inject::Conn(stream, id) => {
                        self.install(&poller, &mut conns, &mut wheel, stream, id)
                    }
                    Inject::Kick(id) => {
                        self.close_conn(&poller, &mut conns, id, CloseReason::Kicked)
                    }
                    Inject::Flush(id) => {
                        if let Some(conn) = conns.get(&id) {
                            conn.shared.flush_pending.store(false, Ordering::Release);
                        }
                        self.flush_and_settle(&poller, &mut conns, id);
                    }
                }
            }

            // Timers: idle checks, drain deadlines, the maintenance tick.
            fired.clear();
            wheel.advance(Instant::now(), &mut fired);
            for token in std::mem::take(&mut fired) {
                if token == TOKEN_TICK {
                    self.service.on_tick();
                    if let Some(interval) = self.options.tick_interval {
                        wheel.schedule_after(TOKEN_TICK, interval);
                    }
                    continue;
                }
                self.timer_fired(&poller, &mut conns, &mut wheel, token);
            }
        }

        // Shutdown: close every connection this worker owns.
        let ids: Vec<ConnId> = conns.keys().copied().collect();
        for id in ids {
            self.close_conn(&poller, &mut conns, id, CloseReason::Shutdown);
        }
    }

    fn accept_burst(
        &mut self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        wheel: &mut TimerWheel,
    ) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    if let Some(max) = self.options.max_conns {
                        if self.handle.connections_open() >= max {
                            self.handle
                                .metrics
                                .conns_rejected
                                .fetch_add(1, Ordering::Relaxed);
                            if let Some(line) = &self.options.reject_line {
                                let _ = stream.write_all(line.as_bytes());
                                let _ = stream.write_all(b"\n");
                            }
                            continue; // dropped: closed
                        }
                    }
                    let id = self.handle.next_conn.fetch_add(1, Ordering::Relaxed);
                    let owner = (id % self.handle.workers.len() as u64) as usize;
                    let shared = Arc::new(ConnShared {
                        owner,
                        out: Mutex::new(Outbound {
                            queue: VecDeque::new(),
                            head_written: 0,
                            closed: false,
                        }),
                        activity_ms: AtomicU64::new(self.handle.epoch.elapsed().as_millis() as u64),
                        flush_pending: AtomicBool::new(false),
                    });
                    self.handle.conns.lock().unwrap().insert(id, shared);
                    self.handle
                        .metrics
                        .conns_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.handle
                        .metrics
                        .connections_open
                        .fetch_add(1, Ordering::Relaxed);
                    if owner == self.index {
                        self.install(poller, conns, wheel, stream, id);
                    } else {
                        let worker = &self.handle.workers[owner];
                        worker.inbox.lock().unwrap().push(Inject::Conn(stream, id));
                        worker.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (EMFILE, aborted handshake):
                    // back off briefly; the level-triggered registration
                    // re-reports pending connections.
                    std::thread::sleep(Duration::from_millis(2));
                    break;
                }
            }
        }
    }

    fn install(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        wheel: &mut TimerWheel,
        stream: TcpStream,
        id: ConnId,
    ) {
        let Some(shared) = self.handle.conns.lock().unwrap().get(&id).cloned() else {
            return; // kicked before installation
        };
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        if poller
            .add(stream.as_raw_fd(), id, Interest::READ, Mode::Level)
            .is_err()
        {
            self.handle.conns.lock().unwrap().remove(&id);
            self.handle
                .metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let session = self.service.on_open(id, &self.handle);
        conns.insert(
            id,
            ConnLocal {
                stream,
                shared,
                session,
                buf: Vec::new(),
                overflowed: false,
                interest: Interest::READ,
                draining: false,
                paused: false,
            },
        );
        if let Some(timeout) = self.options.idle_timeout {
            wheel.schedule_after(id, timeout);
        }
    }

    fn conn_event(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        wheel: &mut TimerWheel,
        id: ConnId,
        ev: PollEvent,
        scratch: &mut [u8],
    ) {
        if !conns.contains_key(&id) {
            return; // closed earlier in this batch
        }
        if ev.writable {
            self.flush_and_settle(poller, conns, id);
        }
        if ev.readable || ev.error || ev.hangup {
            self.handle_readable(poller, conns, wheel, id, scratch);
        }
    }

    /// Reads up to the fairness budget, frames lines, and dispatches
    /// them to the service. Level-triggered registration re-reports any
    /// leftover bytes on the next poll.
    fn handle_readable(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        wheel: &mut TimerWheel,
        id: ConnId,
        scratch: &mut [u8],
    ) {
        let mut close: Option<CloseReason> = None;
        let mut start_drain = false;
        {
            let Some(conn) = conns.get_mut(&id) else {
                return;
            };
            if conn.draining || conn.paused {
                return;
            }
            let mut budget = self.options.read_chunk;
            'read: loop {
                match (&conn.stream).read(scratch) {
                    Ok(0) => {
                        // EOF: a final unterminated line is delivered,
                        // matching the blocking reader's semantics.
                        if conn.overflowed {
                            let _ = self.service.on_line(&mut conn.session, id, Line::TooLong);
                        } else if !conn.buf.is_empty() {
                            let text = String::from_utf8_lossy(&conn.buf).into_owned();
                            conn.buf.clear();
                            let _ = self
                                .service
                                .on_line(&mut conn.session, id, Line::Text(&text));
                        }
                        close = Some(CloseReason::Eof);
                        break 'read;
                    }
                    Ok(n) => {
                        let verdict = self.feed_chunk(conn, id, &scratch[..n]);
                        if verdict == Verdict::Close {
                            start_drain = true;
                            break 'read;
                        }
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break 'read;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'read,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = Some(CloseReason::Error);
                        break 'read;
                    }
                }
            }
        }
        if let Some(reason) = close {
            // Give queued replies one last best-effort push (the error
            // reply for a bad final line, for instance) before closing.
            if reason == CloseReason::Eof {
                let _ = self.flush(conns, id, poller);
            }
            self.close_conn(poller, conns, id, reason);
            return;
        }
        if start_drain {
            if let Some(conn) = conns.get_mut(&id) {
                conn.draining = true;
                wheel.schedule_after(id, DRAIN_DEADLINE);
            }
        }
        self.flush_and_settle(poller, conns, id);
    }

    /// Splits one read chunk into byte-capped lines and hands each to
    /// the service. Returns the first non-`Continue` verdict.
    fn feed_chunk(&self, conn: &mut ConnLocal<S>, id: ConnId, chunk: &[u8]) -> Verdict {
        let max = self.options.max_line_bytes;
        let mut rest = chunk;
        loop {
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let started = Instant::now();
                    let verdict;
                    if conn.overflowed || conn.buf.len() + pos > max {
                        conn.overflowed = false;
                        conn.buf.clear();
                        verdict = self.service.on_line(&mut conn.session, id, Line::TooLong);
                    } else {
                        conn.buf.extend_from_slice(&rest[..pos]);
                        let text = String::from_utf8_lossy(&conn.buf).into_owned();
                        conn.buf.clear();
                        verdict = self
                            .service
                            .on_line(&mut conn.session, id, Line::Text(&text));
                    }
                    conn.shared.activity_ms.store(
                        self.handle.epoch.elapsed().as_millis() as u64,
                        Ordering::Relaxed,
                    );
                    // A slow line's replies go out now, not after the
                    // rest of the chunk; a failed write resurfaces on the
                    // flush that follows the chunk.
                    if started.elapsed() >= SLOW_LINE {
                        let _ = self.write_queued(conn);
                    }
                    rest = &rest[pos + 1..];
                    if verdict != Verdict::Continue {
                        return verdict;
                    }
                }
                None => {
                    if conn.overflowed || conn.buf.len() + rest.len() > max {
                        conn.overflowed = true;
                        conn.buf.clear();
                    } else {
                        conn.buf.extend_from_slice(rest);
                    }
                    return Verdict::Continue;
                }
            }
        }
    }

    /// Flushes, then applies the consequences (close on failure or
    /// drain completion) and settles interest/pause state.
    fn flush_and_settle(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        id: ConnId,
    ) {
        match self.flush(conns, id, poller) {
            FlushResult::Ok => {}
            FlushResult::Failed => self.close_conn(poller, conns, id, CloseReason::Error),
            FlushResult::Drained => self.close_conn(poller, conns, id, CloseReason::Requested),
        }
    }

    /// Writes queued lines until the queue empties or the socket would
    /// block; arms/disarms `EPOLLOUT` and the read-pause watermark.
    fn flush(
        &self,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        id: ConnId,
        poller: &Poller,
    ) -> FlushResult {
        let Some(conn) = conns.get_mut(&id) else {
            return FlushResult::Ok;
        };
        let Ok(blocked) = self.write_queued(conn) else {
            return FlushResult::Failed;
        };

        let pending = {
            let out = conn.shared.out.lock().unwrap();
            out.queue.len()
        };
        if pending == 0 && conn.draining {
            return FlushResult::Drained;
        }

        // Read-pause watermarks: stop reading while the outbound queue
        // is above capacity (control replies piled up), resume once it
        // drains below half.
        let high = self.handle.conn_queue;
        let low = (high / 2).max(1);
        if !conn.paused && pending > high {
            conn.paused = true;
        } else if conn.paused && pending < low {
            conn.paused = false;
        }

        let want = Interest {
            readable: !conn.draining && !conn.paused,
            writable: blocked || pending > 0,
        };
        if want != conn.interest
            && poller
                .modify(conn.stream.as_raw_fd(), id, want, Mode::Level)
                .is_ok()
        {
            conn.interest = want;
        }
        FlushResult::Ok
    }

    /// Writes queued lines, up to `WRITE_LINES` per `writev`, until the
    /// queue empties (`Ok(false)`) or the socket would block (`Ok(true)`);
    /// `Err` when the socket failed.
    fn write_queued(&self, conn: &ConnLocal<S>) -> Result<bool, ()> {
        let mut popped = 0u64;
        let mut out = conn.shared.out.lock().unwrap();
        let result = loop {
            if out.queue.is_empty() {
                break Ok(false);
            }
            let written = {
                let mut slices = Vec::with_capacity(2 * WRITE_LINES);
                for (i, line) in out.queue.iter().take(WRITE_LINES).enumerate() {
                    // Only the head can be partly written; its newline may
                    // be all that is left of it.
                    let skip = if i == 0 { out.head_written } else { 0 };
                    if skip < line.len() {
                        slices.push(IoSlice::new(&line.as_bytes()[skip..]));
                    }
                    slices.push(IoSlice::new(b"\n"));
                }
                (&conn.stream).write_vectored(&slices)
            };
            match written {
                Ok(0) => break Err(()),
                Ok(n) => {
                    let mut left = out.head_written + n;
                    while let Some(front) = out.queue.front() {
                        let total = front.len() + 1; // trailing newline
                        if left < total {
                            break;
                        }
                        left -= total;
                        out.queue.pop_front();
                        popped += 1;
                    }
                    out.head_written = left;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break Err(()),
            }
        };
        drop(out);
        if popped > 0 {
            self.handle
                .metrics
                .outbound_queued_lines
                .fetch_sub(popped, Ordering::Relaxed);
        }
        result
    }

    /// Idle-check / drain-deadline timer for one connection.
    fn timer_fired(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        wheel: &mut TimerWheel,
        id: ConnId,
    ) {
        let Some(conn) = conns.get(&id) else {
            return;
        };
        if conn.draining {
            // Drain deadline: the peer never took the tail.
            self.close_conn(poller, conns, id, CloseReason::Requested);
            return;
        }
        let Some(timeout) = self.options.idle_timeout else {
            return;
        };
        let now_ms = self.handle.epoch.elapsed().as_millis() as u64;
        let activity = conn.shared.activity_ms.load(Ordering::Relaxed);
        let idle = now_ms.saturating_sub(activity);
        let limit = timeout.as_millis() as u64;
        if idle > limit {
            self.handle
                .metrics
                .idle_reaped
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(poller, conns, id, CloseReason::Idle);
        } else {
            // Activity since the last check: re-arm from its timestamp.
            wheel.schedule_after(id, timeout.saturating_sub(Duration::from_millis(idle)));
        }
    }

    fn close_conn(
        &self,
        poller: &Poller,
        conns: &mut HashMap<ConnId, ConnLocal<S>>,
        id: ConnId,
        reason: CloseReason,
    ) {
        let Some(mut conn) = conns.remove(&id) else {
            return;
        };
        let _ = poller.remove(conn.stream.as_raw_fd());
        self.handle.conns.lock().unwrap().remove(&id);
        let dropped = {
            let mut out = conn.shared.out.lock().unwrap();
            out.closed = true;
            let n = out.queue.len() as u64;
            out.queue.clear();
            n
        };
        if dropped > 0 {
            self.handle
                .metrics
                .outbound_queued_lines
                .fetch_sub(dropped, Ordering::Relaxed);
        }
        self.handle
            .metrics
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
        self.service.on_close(&mut conn.session, id, reason);
        // Dropping the stream closes the fd.
    }
}
