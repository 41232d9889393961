//! The routing front broker.
//!
//! Speaks the same newline text protocol as `apcm-server` to clients but
//! owns no subscriptions itself:
//!
//! * `SUB`/`UNSUB`/`CLAIM` are routed to exactly one backend by the
//!   shared consistent-hash ring (`apcm_server::Ring`) placement of the
//!   id — or, mid-migration, by the owning leg's phase (donor until the
//!   flip, puller after, with a best-effort double-write in between);
//! * `PUB`/`BATCH` windows are fanned to every live backend on scoped
//!   threads, and the returned rows are merged (concatenate, sort,
//!   deduplicate — ids partition across backends, so duplicates only
//!   appear if a backend was restored from a stale snapshot);
//! * a window matched while one or more backends were down is still
//!   served from the surviving partitions, with the `RESULT` rows flagged
//!   `partial` and `cluster_degraded` counted;
//! * `TOPOLOGY` reports the membership table; `STATS` reports router
//!   counters; everything else (`PING`, `QUIT`, `SNAPSHOT`) behaves as a
//!   client of a standalone server would expect.
//!
//! Threading is thread-per-connection: an accept thread (blocked on an
//! `apcm-netio` poller rather than sleep-polling, with an eventfd waker
//! for instant shutdown), a reader plus a writer thread per client
//! connection, the writer draining that connection's bounded outbound
//! queue, and a health thread running the membership sweep.
//! Scatter-gather runs on the publishing connection's reader thread with
//! one scoped thread per live backend. (The server broker serves its
//! connections on the netio event loop instead.)

use apcm_bexpr::{Event, Schema, SubId};
use apcm_encoding::{FixedBitSet, SummarySpace};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use apcm_netio::{Interest, Mode, PollEvent, Poller, Waker};
use apcm_server::client::ConnectOptions;
use apcm_server::protocol::{self, Request};
use apcm_server::{read_capped_line, LineOutcome};

use crate::membership::{BackendSpec, FollowerRead, Membership, Partition};
use crate::migration::{phase, MigrationController};
use crate::stats::ClusterStats;

/// Router tuning. The connection-facing knobs mirror `ServerConfig`; the
/// `connect` policy governs backend dials and the reconnect backoff
/// schedule reused by the health sweep.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Capacity of each client connection's bounded outbound queue.
    pub conn_queue: usize,
    /// Hard cap on one inbound protocol line.
    pub max_line_bytes: usize,
    /// Period of the membership sweep (`PING` probes + reconnects).
    pub health_interval: Duration,
    /// Read deadline for one `ROLE` health probe; a backend that accepts
    /// the dial but stalls is marked down after this long instead of
    /// wedging the sweep behind the request `read_timeout`.
    pub probe_timeout: Duration,
    /// Backend dial policy; `delay_before_retry` drives reconnect backoff.
    pub connect: ConnectOptions,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            conn_queue: 1024,
            max_line_bytes: 1024 * 1024,
            health_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
            connect: ConnectOptions {
                connect_timeout: Some(Duration::from_secs(1)),
                read_timeout: Some(Duration::from_secs(10)),
                attempts: 1,
                ..ConnectOptions::default()
            },
        }
    }
}

impl RouterConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.conn_queue == 0 {
            return Err("conn_queue must be positive".into());
        }
        if self.max_line_bytes < 16 {
            return Err("max_line_bytes must be at least 16".into());
        }
        if self.health_interval.is_zero() {
            return Err("health_interval must be positive".into());
        }
        if self.probe_timeout.is_zero() {
            return Err("probe_timeout must be positive".into());
        }
        Ok(())
    }
}

/// Outbound handle for one client connection.
struct ConnHandle {
    out: Sender<String>,
    stream: TcpStream,
}

/// State shared by every router thread.
struct RouterHub {
    schema: Schema,
    /// Coarse predicate-space layout shared with every backend (both
    /// sides derive it deterministically from the schema), used to encode
    /// events for the first-stage prune against cached backend summaries.
    summary_space: SummarySpace,
    stats: Arc<ClusterStats>,
    membership: Arc<Membership>,
    migration: Arc<MigrationController>,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    /// Which client connection owns (receives `EVENT` notifications for)
    /// each id. The router synthesizes notifications from merged rows;
    /// backend-side ownership never reaches clients.
    owners: RwLock<HashMap<SubId, u64>>,
}

impl RouterHub {
    /// Queues `line` on a client's outbound queue; overflow drops the line
    /// (`replies_dropped`) — a router never disconnects a slow consumer,
    /// because it cannot replay what the backends already matched.
    fn push_line(&self, conn_id: u64, line: String) {
        let conns = self.conns.lock();
        let Some(handle) = conns.get(&conn_id) else {
            return;
        };
        match handle.out.try_send(line) {
            Ok(()) => ClusterStats::add(&self.stats.replies_sent, 1),
            Err(TrySendError::Full(_)) => ClusterStats::add(&self.stats.replies_dropped, 1),
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

/// A running router. Call [`Router::shutdown`] for an orderly stop.
pub struct Router {
    hub: Arc<RouterHub>,
    membership: Arc<Membership>,
    stats: Arc<ClusterStats>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Wakes the accept thread out of its poller wait at shutdown.
    accept_waker: Arc<Waker>,
    accept_thread: Option<JoinHandle<()>>,
    health_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral), dials every backend once, and
    /// starts the accept and health threads. The router comes up even if
    /// every backend is down — churn is refused per-backend and matching
    /// degrades to partial rows until the sweep reconnects them.
    pub fn start(
        schema: Schema,
        backend_addrs: &[String],
        config: RouterConfig,
        addr: &str,
    ) -> std::io::Result<Router> {
        let specs: Vec<BackendSpec> = backend_addrs
            .iter()
            .map(|a| BackendSpec::standalone(a.clone()))
            .collect();
        Self::start_replicated(schema, &specs, config, addr)
    }

    /// Like [`Router::start`], but each partition may name a replica node
    /// alongside its primary. When a primary is marked down, the health
    /// sweep (or the routing paths, inline) promotes a caught-up replica
    /// instead of degrading that partition to partial rows.
    pub fn start_replicated(
        schema: Schema,
        specs: &[BackendSpec],
        config: RouterConfig,
        addr: &str,
    ) -> std::io::Result<Router> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        if specs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let stats = Arc::new(ClusterStats::default());
        let membership = Arc::new(Membership::connect_replicated(
            specs,
            config.connect.clone(),
            config.probe_timeout,
            &stats,
        ));
        let migration = Arc::new(MigrationController::new(config.connect.clone()));
        let hub = Arc::new(RouterHub {
            summary_space: SummarySpace::new(&schema),
            schema,
            stats: stats.clone(),
            membership: membership.clone(),
            migration,
            conns: Mutex::new(HashMap::new()),
            owners: RwLock::new(HashMap::new()),
        });

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        // The accept thread parks on an apcm-netio poller instead of
        // sleep-polling the nonblocking listener: zero wakeups while no
        // client is dialing, and the eventfd waker turns shutdown from a
        // worst-case 5 ms poll-quantum wait into an immediate unblock.
        const TOKEN_LISTENER: u64 = 0;
        const TOKEN_WAKER: u64 = 1;
        let accept_waker = Arc::new(Waker::new()?);
        let poller = Poller::new()?;
        poller.add(
            listener.as_raw_fd(),
            TOKEN_LISTENER,
            Interest::READ,
            Mode::Level,
        )?;
        poller.add(accept_waker.fd(), TOKEN_WAKER, Interest::READ, Mode::Level)?;

        let accept_thread = {
            let hub = hub.clone();
            let stats = stats.clone();
            let shutdown = shutdown.clone();
            let conn_threads = conn_threads.clone();
            let conn_queue = config.conn_queue;
            let max_line_bytes = config.max_line_bytes;
            let waker = accept_waker.clone();
            std::thread::Builder::new()
                .name("apcm-route-accept".into())
                .spawn(move || {
                    let mut events: Vec<PollEvent> = Vec::new();
                    let mut next_conn = 1u64;
                    while !shutdown.load(Ordering::SeqCst) {
                        events.clear();
                        if poller.wait(&mut events, None).is_err() {
                            break;
                        }
                        if events.iter().any(|e| e.token == TOKEN_WAKER) {
                            waker.drain();
                            continue; // re-check the shutdown flag
                        }
                        // Level-triggered listener: drain the whole
                        // accept backlog before waiting again.
                        loop {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    let conn_id = next_conn;
                                    next_conn += 1;
                                    ClusterStats::add(&stats.conns_total, 1);
                                    ClusterStats::add(&stats.conns_active, 1);
                                    spawn_connection(
                                        hub.clone(),
                                        stream,
                                        conn_id,
                                        conn_queue,
                                        max_line_bytes,
                                        &conn_threads,
                                    );
                                }
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                                Err(_) => return,
                            }
                        }
                    }
                })
                .expect("spawning router accept thread")
        };

        let health_thread = {
            let hub = hub.clone();
            let shutdown = shutdown.clone();
            let interval = config.health_interval;
            std::thread::Builder::new()
                .name("apcm-route-health".into())
                .spawn(move || {
                    let quantum = Duration::from_millis(20).min(interval);
                    'outer: loop {
                        let mut waited = Duration::ZERO;
                        while waited < interval {
                            if shutdown.load(Ordering::SeqCst) {
                                break 'outer;
                            }
                            std::thread::sleep(quantum);
                            waited += quantum;
                        }
                        hub.membership.sweep(&hub.stats);
                        // The tick runs on post-sweep state: active-node
                        // addresses reflect any failover just performed.
                        hub.migration.tick(&hub.membership, &hub.stats);
                    }
                })
                .expect("spawning router health thread")
        };

        Ok(Router {
            hub,
            membership,
            stats,
            addr: local_addr,
            shutdown,
            accept_waker,
            accept_thread: Some(accept_thread),
            health_thread: Some(health_thread),
            conn_threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The elastic-resharding controller (admin surface for tests and
    /// tooling; the wire surface is `RESHARD ADD`/`REMOVE`/`STATUS`).
    pub fn migration(&self) -> &MigrationController {
        &self.hub.migration
    }

    /// Graceful stop: join the accept and health threads, close every
    /// client connection, join the workers, and return the final rendered
    /// stats plus topology.
    pub fn shutdown(mut self) -> String {
        self.shutdown.store(true, Ordering::SeqCst);
        self.accept_waker.wake();
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        {
            let conns = self.hub.conns.lock();
            for handle in conns.values() {
                let _ = handle.stream.shutdown(Shutdown::Both);
            }
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_threads.lock());
        for t in handles {
            let _ = t.join();
        }
        let mut out = self.stats.render(
            self.membership.len(),
            self.membership.up_count(),
            self.membership.node_count(),
            self.membership.nodes_up(),
        );
        for line in self.membership.topology_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

fn spawn_connection(
    hub: Arc<RouterHub>,
    stream: TcpStream,
    conn_id: u64,
    conn_queue: usize,
    max_line_bytes: usize,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let (out_tx, out_rx) = bounded::<String>(conn_queue);

    let writer = {
        let stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        std::thread::Builder::new()
            .name(format!("apcm-route-{conn_id}-w"))
            .spawn(move || write_loop(stream, out_rx))
            .expect("spawning router connection writer")
    };

    let reader = {
        let registry_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        hub.conns.lock().insert(
            conn_id,
            ConnHandle {
                out: out_tx.clone(),
                stream: registry_stream,
            },
        );
        std::thread::Builder::new()
            .name(format!("apcm-route-{conn_id}-r"))
            .spawn(move || {
                read_loop(&hub, stream, conn_id, out_tx, max_line_bytes);
                hub.conns.lock().remove(&conn_id);
                ClusterStats::sub(&hub.stats.conns_active, 1);
            })
            .expect("spawning router connection reader")
    };

    let mut threads = conn_threads.lock();
    threads.push(writer);
    threads.push(reader);
}

fn write_loop(stream: TcpStream, out_rx: Receiver<String>) {
    let mut w = BufWriter::new(stream);
    while let Ok(line) = out_rx.recv() {
        if w.write_all(line.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            return;
        }
        if out_rx.is_empty() && w.flush().is_err() {
            return;
        }
    }
    let _ = w.flush();
}

/// Whether a successful churn reply consumed one durable log record —
/// the router-side bookkeeping behind the partition's promotion floor.
/// Fresh `SUB` and successful `UNSUB` acks append exactly one record;
/// `+OK claimed` is an ownership transfer with no durable churn.
fn churn_ack_appends_record(reply: &str) -> bool {
    reply.starts_with('+') && !reply.starts_with("+OK claimed")
}

/// Forwards one churn command line to the partition owning `id` and
/// returns the authoritative reply.
///
/// Without a migration, ownership is the ring placement. Mid-migration a
/// moved id follows its leg's phase: the donor alone before double-write
/// (the pull stream carries the churn over), donor-plus-copy during
/// double-write (the donor's ack is authoritative; the copy shrinks the
/// cursor gap the flip must wait out, and failures are tolerated — the
/// record still reaches the puller through the stream), and the puller
/// alone once flipped.
fn route_churn(hub: &RouterHub, id: SubId, line: &str) -> String {
    let Some(m) = hub.migration.active() else {
        let member = hub.membership.ring().route(id);
        return route_to_member(hub, member, line);
    };
    let old = m.old_ring.route(id);
    let new = m.new_ring.route(id);
    let Some(leg) = (old != new).then(|| m.leg(old, new)).flatten() else {
        return route_to_member(hub, old, line);
    };
    // Raise the in-flight gauge *before* reading the phase: the flip
    // stores the phase first and then waits for zero, so every copy it
    // must cover is either observed or already routed to the puller.
    let leg_phase = leg.enter_double_write();
    if leg_phase != phase::DOUBLE_WRITE {
        leg.exit_double_write();
        if leg_phase == phase::FLIPPED {
            // Between the flip and the cutover the donor no longer takes
            // moved churn and the puller is still draining the stream
            // tail — a direct write now could be shadowed by a stale
            // streamed record. Refuse retryably; the client rides it out
            // over the (short) cutover window.
            return format!("-ERR not owner {}", id.0);
        }
        let target = if leg_phase >= phase::DONE { new } else { old };
        return route_to_member(hub, target, line);
    }
    let reply = route_to_member(hub, old, line);
    if churn_ack_appends_record(&reply) {
        if let Some(puller) = hub.membership.partition_for_member(new) {
            if route_to_partition(hub, &puller, line).starts_with('+') {
                ClusterStats::add(&hub.stats.reshard_double_writes, 1);
            }
        }
    }
    leg.exit_double_write();
    reply
}

/// Resolves a ring member to its partition and forwards `line`.
fn route_to_member(hub: &RouterHub, member: u32, line: &str) -> String {
    match hub.membership.partition_for_member(member) {
        Some(partition) => route_to_partition(hub, &partition, line),
        None => {
            ClusterStats::add(&hub.stats.protocol_errors, 1);
            format!("-ERR backend {member} unavailable")
        }
    }
}

/// Forwards one command line to a partition's active node. A node failure
/// marks it down and triggers an inline failover (promote the caught-up
/// standby) followed by one retry; `-ERR backend <i> unavailable` is
/// returned only when *neither* node is serviceable — which
/// `BrokerClient` classifies as a retryable refusal.
fn route_to_partition(hub: &RouterHub, partition: &Partition, line: &str) -> String {
    for attempt in 0..2 {
        let node = partition.active_node().clone();
        let mut conn = node.lock_conn();
        let reply = match conn.as_mut() {
            Some(c) => c.request(line),
            None => Err(std::io::Error::other("down")),
        };
        match reply {
            Ok(reply) => {
                if churn_ack_appends_record(&reply) {
                    // A durable ack carries the appended record's log seq
                    // (`+OK <id> seq <n>`); folding it into the floor
                    // covers the record immediately, so a follower probed
                    // as caught-up *before* this ack cannot keep serving
                    // reads (or summaries) that miss it.
                    partition.record_churn_ack(protocol::parse_churn_ack_seq(&reply));
                }
                return reply;
            }
            Err(_) => {
                node.mark_down_locked(&mut conn, hub.membership.connect_options(), &hub.stats);
                drop(conn); // failover takes the promote lock conn-free
                if attempt == 0 && hub.membership.try_failover(partition, &hub.stats).is_some() {
                    continue;
                }
                break;
            }
        }
    }
    ClusterStats::add(&hub.stats.protocol_errors, 1);
    format!("-ERR backend {} unavailable", partition.index)
}

/// Publishes one window to a partition, failing over to a standby when
/// the active node dies mid-window. `None` only when no node could serve
/// it.
///
/// A publish window is a pure read of the subscription catalog, so it is
/// offered to a read-eligible follower first — one whose applied sequence
/// already clears this router's churn-ack floor, which proves it holds
/// every subscription any client has had acknowledged (the seq-floor
/// staleness guard; see `Partition::choose_read_follower`). A lagging
/// chain falls back to the primary rather than ever returning stale rows,
/// and a follower dying mid-window is marked down and retried on the
/// primary without triggering a failover — the primary is still fine.
fn scatter_to_partition(
    hub: &RouterHub,
    partition: &Partition,
    event_lines: &[String],
) -> Option<Vec<Vec<SubId>>> {
    match partition.choose_read_follower() {
        FollowerRead::Serve(i) => {
            let node = partition.nodes()[i].clone();
            let mut conn = node.lock_conn();
            match conn.as_mut().map(|c| c.publish_window(event_lines)) {
                Some(Ok(rows)) => {
                    ClusterStats::add(&hub.stats.reads_follower_served, 1);
                    return Some(rows);
                }
                Some(Err(_)) => {
                    node.mark_down_locked(&mut conn, hub.membership.connect_options(), &hub.stats);
                }
                None => {}
            }
        }
        FollowerRead::BelowFloor => {
            ClusterStats::add(&hub.stats.reads_floor_fallbacks, 1);
        }
        FollowerRead::NoFollowers => {}
    }
    for attempt in 0..2 {
        let node = partition.active_node().clone();
        let mut conn = node.lock_conn();
        let result = conn.as_mut().map(|c| c.publish_window(event_lines));
        match result {
            Some(Ok(rows)) => return Some(rows),
            Some(Err(_)) => {
                node.mark_down_locked(&mut conn, hub.membership.connect_options(), &hub.stats);
            }
            None => {}
        }
        drop(conn); // failover takes the promote lock conn-free
        if attempt == 0 && hub.membership.try_failover(partition, &hub.stats).is_none() {
            return None;
        }
    }
    None
}

/// Fans `events` to every partition's active node and merges the
/// per-event rows. Returns `(rows, partial)`; `partial` is set when a
/// partition could not be served by either of its nodes, in which case
/// the rows cover the surviving partitions only.
///
/// Before fanning out, the window is tested against each partition's
/// cached predicate-space summary (the cluster-level first stage of the
/// A-PCM prune): a partition whose summary shares no bucket with any
/// event in the window provably holds no matching subscription and is
/// skipped outright. A pruned partition contributes empty rows — it is
/// *not* partial; the emptiness is proven, not degraded. Missing or
/// stale-tagged summaries fall back to a full send, and the prune is
/// disabled entirely mid-migration, when subscriptions move between
/// backends faster than summaries refresh.
fn scatter_window(hub: &RouterHub, events: &[Event]) -> (Vec<Vec<SubId>>, bool) {
    let event_lines: Vec<String> = events
        .iter()
        .map(|ev| ev.display(&hub.schema).to_string())
        .collect();
    let partitions = hub.membership.partitions();
    // One migration snapshot for the whole window: the prune decision and
    // the authority filter below must agree on whether a reshard is on.
    let migration = hub.migration.active();

    let mut skip = vec![false; partitions.len()];
    if migration.is_none() {
        let event_bits: Vec<FixedBitSet> = events
            .iter()
            .map(|ev| hub.summary_space.event_bits(ev))
            .collect();
        for (partition, skip) in partitions.iter().zip(skip.iter_mut()) {
            if let Some(summary) = partition.summary_for_scatter() {
                *skip = !hub.summary_space.window_may_match(&summary, &event_bits);
            }
        }
    }
    let pruned = skip.iter().filter(|&&s| s).count() as u64;
    ClusterStats::add(&hub.stats.backends_pruned, pruned);
    ClusterStats::add(&hub.stats.fanouts_possible, partitions.len() as u64);
    ClusterStats::add(&hub.stats.fanouts_sent, partitions.len() as u64 - pruned);

    let live = partitions.len() - pruned as usize;
    let mut per_backend: Vec<Option<Vec<Vec<SubId>>>> = if live <= 1 {
        // Nothing to overlap: serve the at-most-one surviving partition on
        // the publishing thread instead of paying a scoped spawn.
        partitions
            .iter()
            .zip(&skip)
            .map(|(partition, &skip)| {
                if skip {
                    Some(Vec::new())
                } else {
                    scatter_to_partition(hub, partition, &event_lines)
                }
            })
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .zip(&skip)
                .map(|(partition, &skip)| {
                    let event_lines = &event_lines;
                    (!skip).then(|| {
                        scope.spawn(move || scatter_to_partition(hub, partition, event_lines))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle {
                    Some(h) => h.join().unwrap(),
                    None => Some(Vec::new()),
                })
                .collect()
        })
    };

    // Mid-migration, an id's subscription can exist on two backends at
    // once (the puller absorbs it legs before the flip; the donor keeps
    // its stale copy until the post-flip prune). Only the authoritative
    // side sees live churn, so keep each backend's matches only for ids
    // it is currently authoritative for — otherwise an id unsubbed on the
    // puller could still surface from the donor's stale copy.
    if let Some(m) = migration {
        for (partition, rows) in partitions.iter().zip(per_backend.iter_mut()) {
            if let Some(rows) = rows {
                for row in rows.iter_mut() {
                    row.retain(|&id| m.authority(id) == partition.index as u32);
                }
            }
        }
    }

    let partial = per_backend.iter().any(Option::is_none);
    let mut merged = vec![Vec::new(); events.len()];
    for rows in per_backend.into_iter().flatten() {
        for (slot, mut row) in merged.iter_mut().zip(rows) {
            if slot.is_empty() {
                *slot = row;
            } else {
                slot.append(&mut row);
            }
        }
    }
    for row in &mut merged {
        row.sort_unstable();
        row.dedup();
    }
    (merged, partial)
}

/// Emits the `RESULT` rows of one window to the publisher and synthesizes
/// `EVENT` notifications to each matched id's owning client connection.
fn deliver_window(
    hub: &RouterHub,
    conn_id: u64,
    first_seq: u64,
    events: &[Event],
    rows: &[Vec<SubId>],
    partial: bool,
) {
    ClusterStats::add(&hub.stats.windows, 1);
    if partial {
        ClusterStats::add(&hub.stats.cluster_degraded, 1);
    }
    for (i, (event, row)) in events.iter().zip(rows).enumerate() {
        ClusterStats::add(&hub.stats.matches, row.len() as u64);
        hub.push_line(
            conn_id,
            protocol::render_result_ext(first_seq + i as u64, row, partial),
        );
        for &id in row {
            let owner = hub.owners.read().get(&id).copied();
            if let Some(owner) = owner {
                hub.push_line(
                    owner,
                    protocol::render_event_notification(id, event, &hub.schema),
                );
            }
        }
    }
}

/// Parses and executes client requests until EOF, error, or QUIT.
fn read_loop(
    hub: &RouterHub,
    stream: TcpStream,
    conn_id: u64,
    out: Sender<String>,
    max_line_bytes: usize,
) {
    let stats = &hub.stats;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut next_seq = 0u64;
    let reply = |text: String| {
        let _ = out.send(text);
        ClusterStats::add(&stats.replies_sent, 1);
    };
    loop {
        match read_capped_line(&mut reader, &mut line, max_line_bytes) {
            Ok(LineOutcome::Line) => {}
            Ok(LineOutcome::TooLong) => {
                ClusterStats::add(&stats.oversized_lines, 1);
                ClusterStats::add(&stats.protocol_errors, 1);
                reply(format!("-ERR line too long (max {max_line_bytes} bytes)"));
                continue;
            }
            Ok(LineOutcome::Eof) | Err(_) => return,
        }
        let request = match protocol::parse_request(&hub.schema, &line) {
            Ok(Some(req)) => req,
            Ok(None) => continue,
            Err(msg) => {
                ClusterStats::add(&stats.protocol_errors, 1);
                reply(format!("-ERR {msg}"));
                continue;
            }
        };
        match request {
            Request::Sub { id, sub } => {
                // Re-render canonically; the backend fingerprints the
                // parsed expression, so takeover semantics survive the
                // extra parse/render hop.
                let forwarded = format!("SUB {} {}", id.0, sub.display(&hub.schema));
                let backend_reply = route_churn(hub, id, &forwarded);
                if backend_reply.starts_with("+OK claimed") {
                    hub.owners.write().insert(id, conn_id);
                    ClusterStats::add(&stats.claims_routed, 1);
                } else if backend_reply.starts_with('+') {
                    hub.owners.write().insert(id, conn_id);
                    ClusterStats::add(&stats.subs_routed, 1);
                    // A fresh SUB may have grown the backend's summary
                    // past the router's cache; pruning on the stale bits
                    // could skip a backend that now holds a match. Drop
                    // the cache — full fan-out until the sweep refreshes.
                    // (`+OK claimed` and UNSUB never grow the bits.)
                    if let Some(partition) = hub.membership.route(id) {
                        partition.invalidate_summary();
                    }
                }
                // `-ERR duplicate <id>` passes through verbatim so the
                // client can drive CLAIM.
                reply(backend_reply);
            }
            Request::Unsub { id } => {
                let backend_reply = route_churn(hub, id, &format!("UNSUB {}", id.0));
                if backend_reply.starts_with('+') {
                    hub.owners.write().remove(&id);
                    ClusterStats::add(&stats.unsubs_routed, 1);
                }
                reply(backend_reply);
            }
            Request::Claim { id } => {
                let backend_reply = route_churn(hub, id, &format!("CLAIM {}", id.0));
                if backend_reply.starts_with('+') {
                    hub.owners.write().insert(id, conn_id);
                    ClusterStats::add(&stats.claims_routed, 1);
                }
                reply(backend_reply);
            }
            Request::Pub { event } => {
                let seq = next_seq;
                next_seq += 1;
                ClusterStats::add(&stats.events_in, 1);
                reply(format!("+OK {seq}"));
                let events = [event];
                let (rows, partial) = scatter_window(hub, &events);
                deliver_window(hub, conn_id, seq, &events, &rows, partial);
            }
            Request::Batch { count } => {
                let first = next_seq;
                let mut events = Vec::with_capacity(count);
                for i in 0..count {
                    match read_capped_line(&mut reader, &mut line, max_line_bytes) {
                        Ok(LineOutcome::Line) => {}
                        Ok(LineOutcome::TooLong) => {
                            ClusterStats::add(&stats.oversized_lines, 1);
                            ClusterStats::add(&stats.protocol_errors, 1);
                            reply(format!("-ERR batch line {i}: line too long"));
                            continue;
                        }
                        Ok(LineOutcome::Eof) | Err(_) => return,
                    }
                    match apcm_bexpr::parser::parse_event(&hub.schema, line.trim()) {
                        Ok(event) => {
                            next_seq += 1;
                            ClusterStats::add(&stats.events_in, 1);
                            events.push(event);
                        }
                        Err(e) => {
                            ClusterStats::add(&stats.protocol_errors, 1);
                            reply(format!("-ERR batch line {i}: bad event: {e}"));
                        }
                    }
                }
                reply(format!("+OK batch {first} {}", events.len()));
                if !events.is_empty() {
                    let (rows, partial) = scatter_window(hub, &events);
                    deliver_window(hub, conn_id, first, &events, &rows, partial);
                }
            }
            Request::Stats => {
                let body = stats.render(
                    hub.membership.len(),
                    hub.membership.up_count(),
                    hub.membership.node_count(),
                    hub.membership.nodes_up(),
                );
                reply(format!("+OK stats\n{body}."));
            }
            Request::Snapshot => {
                // Fan the snapshot request to every partition's active
                // node (followers snapshot on their own rotation cadence).
                let mut ok = 0usize;
                for partition in hub.membership.partitions() {
                    let node = partition.active_node().clone();
                    let mut conn = node.lock_conn();
                    match conn.as_mut().map(|c| c.request("SNAPSHOT")) {
                        Some(Ok(r)) if r.starts_with('+') => ok += 1,
                        Some(Ok(_)) | None => {}
                        Some(Err(_)) => node.mark_down_locked(
                            &mut conn,
                            hub.membership.connect_options(),
                            stats,
                        ),
                    }
                }
                reply(format!(
                    "+OK snapshot {ok} of {} backends",
                    hub.membership.len()
                ));
            }
            Request::Topology => {
                // One queued string so async lines cannot interleave.
                let mut body = format!("+OK topology {}\n", hub.membership.len());
                for line in hub.membership.topology_lines() {
                    body.push_str(&line);
                    body.push('\n');
                }
                body.push('.');
                reply(body);
            }
            Request::Role => {
                // The router is not a replication peer; it answers with a
                // router-flavoured report so generic probes don't error.
                reply(format!(
                    "+OK role router partitions {} up {}",
                    hub.membership.len(),
                    hub.membership.up_count()
                ));
            }
            Request::Replicate { .. } | Request::ReplAck { .. } => {
                ClusterStats::add(&stats.protocol_errors, 1);
                reply("-ERR REPLICATE targets a backend, not the router".into());
            }
            Request::Summary { .. } => {
                // The router consumes backend summaries; it does not own a
                // subscription catalog to summarize.
                ClusterStats::add(&stats.protocol_errors, 1);
                reply("-ERR SUMMARY targets a backend, not the router".into());
            }
            Request::Reshard(cmd) => match cmd {
                protocol::ReshardCmd::Add { primary, followers } => {
                    let spec = BackendSpec { primary, followers };
                    match hub.migration.start_add(&hub.membership, &spec, stats) {
                        Ok(new) => reply(format!("+OK reshard add started partition {new}")),
                        Err(e) => {
                            ClusterStats::add(&stats.protocol_errors, 1);
                            reply(format!("-ERR {e}"));
                        }
                    }
                }
                protocol::ReshardCmd::Remove { partition } => {
                    match hub
                        .migration
                        .start_remove(&hub.membership, partition, stats)
                    {
                        Ok(()) => {
                            reply(format!("+OK reshard remove started partition {partition}"))
                        }
                        Err(e) => {
                            ClusterStats::add(&stats.protocol_errors, 1);
                            reply(format!("-ERR {e}"));
                        }
                    }
                }
                protocol::ReshardCmd::Status => reply(hub.migration.status_line()),
                protocol::ReshardCmd::Pull { .. }
                | protocol::ReshardCmd::Cutoff
                | protocol::ReshardCmd::Prune { .. } => {
                    ClusterStats::add(&stats.protocol_errors, 1);
                    reply("-ERR RESHARD PULL/CUTOFF/PRUNE target a backend, not the router".into());
                }
            },
            Request::Promote | Request::Demote { .. } => {
                ClusterStats::add(&stats.protocol_errors, 1);
                reply("-ERR role changes target a backend, not the router".into());
            }
            Request::Ping => reply("+PONG".into()),
            Request::Quit => {
                reply("+OK bye".into());
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        RouterConfig::default().validate().unwrap();
    }

    #[test]
    fn config_rejects_bad_knobs() {
        for config in [
            RouterConfig {
                conn_queue: 0,
                ..RouterConfig::default()
            },
            RouterConfig {
                max_line_bytes: 4,
                ..RouterConfig::default()
            },
            RouterConfig {
                health_interval: Duration::ZERO,
                ..RouterConfig::default()
            },
        ] {
            assert!(config.validate().is_err());
        }
    }

    #[test]
    fn start_requires_backends() {
        let schema = Schema::uniform(2, 8);
        assert!(Router::start(schema, &[], RouterConfig::default(), "127.0.0.1:0").is_err());
    }
}
