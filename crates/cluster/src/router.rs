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
//! Client connections are served the way the broker serves them: on an
//! `apcm-netio` event loop (a fixed worker pool, no per-connection
//! threads), framed by the broker's [`Framing`] and written through its
//! [`Delivery`], whose slow-consumer policy is fixed to `Drop` here — a
//! router never disconnects a slow consumer, because it cannot replay
//! what the backends already matched. Requests run inline on the loop
//! worker that read them; scatter-gather adds one scoped thread per live
//! backend. A health thread runs the membership sweep, because one probe
//! may block for up to `probe_timeout` and must not stall a loop worker.

use apcm_bexpr::{Event, Schema, SubId};
use apcm_encoding::{FixedBitSet, SummarySpace};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use apcm_netio::{CloseReason, ConnId, EventLoop, Line, LoopHandle, LoopOptions, Service, Verdict};
use apcm_server::client::ConnectOptions;
use apcm_server::protocol::{self, Request};
use apcm_server::{Delivery, Framed, Framing, FramingCounters, Publish, SlowConsumerPolicy};

use crate::backend::BackendConn;
use crate::membership::{BackendSpec, FollowerRead, Membership, Node, Partition};
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

/// The router's event-loop service: routing state shared by every loop
/// worker and the health thread.
struct RouterService {
    schema: Schema,
    /// Coarse predicate-space layout shared with every backend (both
    /// sides derive it deterministically from the schema), used to encode
    /// events for the first-stage prune against cached backend summaries.
    summary_space: SummarySpace,
    max_line_bytes: usize,
    stats: ClusterStats,
    membership: Membership,
    migration: MigrationController,
    /// Client connections' outbound side. Its owners map says which
    /// connection receives `EVENT` notifications for each id: the router
    /// synthesizes them from merged rows; backend-side ownership never
    /// reaches clients.
    delivery: Delivery,
}

/// A running router. Call [`Router::shutdown`] for an orderly stop.
pub struct Router {
    service: Arc<RouterService>,
    addr: SocketAddr,
    /// Dropping it stops the health thread.
    stop_health: Sender<()>,
    health_thread: JoinHandle<()>,
    event_loop: EventLoop,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral), dials every backend once, and
    /// starts the event loop and the health thread. The router comes up
    /// even if every backend is down — churn is refused per-backend and
    /// matching degrades to partial rows until the sweep reconnects them.
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
        let stats = ClusterStats::default();
        let membership = Membership::connect_replicated(
            specs,
            config.connect.clone(),
            config.probe_timeout,
            &stats,
        );
        let service = Arc::new(RouterService {
            summary_space: SummarySpace::new(&schema),
            schema,
            max_line_bytes: config.max_line_bytes,
            stats,
            membership,
            migration: MigrationController::new(config.connect.clone()),
            delivery: Delivery::new(SlowConsumerPolicy::Drop),
        });

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let options = LoopOptions {
            conn_queue: config.conn_queue,
            max_line_bytes: config.max_line_bytes,
            ..LoopOptions::default()
        };
        let event_loop = EventLoop::start(listener, service.clone(), options)?;
        service.delivery.attach(&event_loop.handle());

        let (stop_health, stopped) = mpsc::channel::<()>();
        let health_thread = {
            let service = service.clone();
            let interval = config.health_interval;
            std::thread::Builder::new()
                .name("apcm-route-health".into())
                .spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                        service.membership.sweep(&service.stats);
                        // The tick runs on post-sweep state: active-node
                        // addresses reflect any failover just performed.
                        service.migration.tick(&service.membership, &service.stats);
                    }
                })
                .expect("spawning router health thread")
        };

        Ok(Router {
            service,
            addr: local_addr,
            stop_health,
            health_thread,
            event_loop,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.service.stats
    }

    pub fn membership(&self) -> &Membership {
        &self.service.membership
    }

    /// The elastic-resharding controller (admin surface for tests and
    /// tooling; the wire surface is `RESHARD ADD`/`REMOVE`/`STATUS`).
    pub fn migration(&self) -> &MigrationController {
        &self.service.migration
    }

    /// Graceful stop: join the health thread, close every client
    /// connection and join the loop workers, and return the final
    /// rendered stats plus topology.
    pub fn shutdown(self) -> String {
        drop(self.stop_health);
        let _ = self.health_thread.join();
        self.event_loop.shutdown();
        let mut out = self.service.render_stats();
        for line in self.service.membership.topology_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Whether a successful churn reply consumed one durable log record —
/// the router-side bookkeeping behind the partition's promotion floor.
/// Fresh `SUB` and successful `UNSUB` acks append exactly one record;
/// `+OK claimed` is an ownership transfer with no durable churn.
fn churn_ack_appends_record(reply: &str) -> bool {
    reply.starts_with('+') && !reply.starts_with("+OK claimed")
}

impl RouterService {
    /// Forwards one churn command line to the partition owning `id` and
    /// returns the authoritative reply.
    ///
    /// Without a migration, ownership is the ring placement. Mid-migration
    /// a moved id follows its leg's phase: the donor alone before
    /// double-write (the pull stream carries the churn over),
    /// donor-plus-copy during double-write (the donor's ack is
    /// authoritative; the copy shrinks the cursor gap the flip must wait
    /// out, and failures are tolerated — the record still reaches the
    /// puller through the stream), and the puller alone once flipped.
    fn route_churn(&self, id: SubId, line: &str) -> String {
        let Some(m) = self.migration.active() else {
            let member = self.membership.ring().route(id);
            return self.route_to_member(member, line);
        };
        let old = m.old_ring.route(id);
        let new = m.new_ring.route(id);
        let Some(leg) = (old != new).then(|| m.leg(old, new)).flatten() else {
            return self.route_to_member(old, line);
        };
        // Raise the in-flight gauge *before* reading the phase: the flip
        // stores the phase first and then waits for zero, so every copy it
        // must cover is either observed or already routed to the puller.
        let leg_phase = leg.enter_double_write();
        if leg_phase != phase::DOUBLE_WRITE {
            leg.exit_double_write();
            if leg_phase == phase::FLIPPED {
                // Between the flip and the cutover the donor no longer
                // takes moved churn and the puller is still draining the
                // stream tail — a direct write now could be shadowed by a
                // stale streamed record. Refuse retryably; the client
                // rides it out over the (short) cutover window.
                return format!("-ERR not owner {}", id.0);
            }
            let target = if leg_phase >= phase::DONE { new } else { old };
            return self.route_to_member(target, line);
        }
        let reply = self.route_to_member(old, line);
        if churn_ack_appends_record(&reply) {
            if let Some(puller) = self.membership.partition_for_member(new) {
                if self.route_to_partition(&puller, line).starts_with('+') {
                    ClusterStats::add(&self.stats.reshard_double_writes, 1);
                }
            }
        }
        leg.exit_double_write();
        reply
    }

    /// Marks `node` down after a request on its locked connection failed.
    fn mark_down(&self, node: &Node, conn: &mut Option<BackendConn>) {
        node.mark_down_locked(conn, self.membership.connect_options(), &self.stats);
    }

    /// Promotes a caught-up standby of `partition` if its active node is
    /// down; whether a node now serves it.
    fn failover(&self, partition: &Partition) -> bool {
        self.membership
            .try_failover(partition, &self.stats)
            .is_some()
    }

    /// Resolves a ring member to its partition and forwards `line`.
    fn route_to_member(&self, member: u32, line: &str) -> String {
        match self.membership.partition_for_member(member) {
            Some(partition) => self.route_to_partition(&partition, line),
            None => {
                ClusterStats::add(&self.stats.protocol_errors, 1);
                format!("-ERR backend {member} unavailable")
            }
        }
    }

    /// Forwards one command line to a partition's active node. A node
    /// failure marks it down and triggers an inline failover (promote the
    /// caught-up standby) followed by one retry; `-ERR backend <i>
    /// unavailable` is returned only when *neither* node is serviceable —
    /// which `BrokerClient` classifies as a retryable refusal.
    fn route_to_partition(&self, partition: &Partition, line: &str) -> String {
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
                        // A durable ack carries the appended record's log
                        // seq (`+OK <id> seq <n>`); folding it into the
                        // floor covers the record immediately, so a
                        // follower probed as caught-up *before* this ack
                        // cannot keep serving reads (or summaries) that
                        // miss it.
                        partition.record_churn_ack(protocol::parse_churn_ack_seq(&reply));
                    }
                    return reply;
                }
                Err(_) => {
                    self.mark_down(&node, &mut conn);
                    drop(conn); // failover takes the promote lock conn-free
                    if attempt == 0 && self.failover(partition) {
                        continue;
                    }
                    break;
                }
            }
        }
        ClusterStats::add(&self.stats.protocol_errors, 1);
        format!("-ERR backend {} unavailable", partition.index)
    }

    /// Publishes one window to a partition, failing over to a standby when
    /// the active node dies mid-window. `None` only when no node could
    /// serve it.
    ///
    /// A publish window is a pure read of the subscription catalog, so it
    /// is offered to a read-eligible follower first — one whose applied
    /// sequence already clears this router's churn-ack floor, which proves
    /// it holds every subscription any client has had acknowledged (the
    /// seq-floor staleness guard; see `Partition::choose_read_follower`).
    /// A lagging chain falls back to the primary rather than ever
    /// returning stale rows, and a follower dying mid-window is marked
    /// down and retried on the primary without triggering a failover — the
    /// primary is still fine.
    fn scatter_to_partition(
        &self,
        partition: &Partition,
        event_lines: &[String],
    ) -> Option<Vec<Vec<SubId>>> {
        match partition.choose_read_follower() {
            FollowerRead::Serve(i) => {
                let node = partition.nodes()[i].clone();
                let mut conn = node.lock_conn();
                match conn.as_mut().map(|c| c.publish_window(event_lines)) {
                    Some(Ok(rows)) => {
                        ClusterStats::add(&self.stats.reads_follower_served, 1);
                        return Some(rows);
                    }
                    Some(Err(_)) => self.mark_down(&node, &mut conn),
                    None => {}
                }
            }
            FollowerRead::BelowFloor => {
                ClusterStats::add(&self.stats.reads_floor_fallbacks, 1);
            }
            FollowerRead::NoFollowers => {}
        }
        for attempt in 0..2 {
            let node = partition.active_node().clone();
            let mut conn = node.lock_conn();
            let result = conn.as_mut().map(|c| c.publish_window(event_lines));
            match result {
                Some(Ok(rows)) => return Some(rows),
                Some(Err(_)) => self.mark_down(&node, &mut conn),
                None => {}
            }
            drop(conn); // failover takes the promote lock conn-free
            if attempt == 0 && !self.failover(partition) {
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
    /// cached predicate-space summary (the cluster-level first stage of
    /// the A-PCM prune): a partition whose summary shares no bucket with
    /// any event in the window provably holds no matching subscription and
    /// is skipped outright. A pruned partition contributes empty rows — it
    /// is *not* partial; the emptiness is proven, not degraded. Missing or
    /// stale-tagged summaries fall back to a full send, and the prune is
    /// disabled entirely mid-migration, when subscriptions move between
    /// backends faster than summaries refresh.
    fn scatter_window(&self, events: &[(u64, Event)]) -> (Vec<Vec<SubId>>, bool) {
        let event_lines: Vec<String> = events
            .iter()
            .map(|(_, ev)| ev.display(&self.schema).to_string())
            .collect();
        let partitions = self.membership.partitions();
        // One migration snapshot for the whole window: the prune decision
        // and the authority filter below must agree on whether a reshard
        // is on.
        let migration = self.migration.active();

        let mut skip = vec![false; partitions.len()];
        if migration.is_none() {
            let event_bits: Vec<FixedBitSet> = events
                .iter()
                .map(|(_, ev)| self.summary_space.event_bits(ev))
                .collect();
            for (partition, skip) in partitions.iter().zip(skip.iter_mut()) {
                if let Some(summary) = partition.summary_for_scatter() {
                    *skip = !self.summary_space.window_may_match(&summary, &event_bits);
                }
            }
        }
        let pruned = skip.iter().filter(|&&s| s).count() as u64;
        ClusterStats::add(&self.stats.backends_pruned, pruned);
        ClusterStats::add(&self.stats.fanouts_possible, partitions.len() as u64);
        ClusterStats::add(&self.stats.fanouts_sent, partitions.len() as u64 - pruned);

        let live = partitions.len() - pruned as usize;
        let mut per_backend: Vec<Option<Vec<Vec<SubId>>>> = if live <= 1 {
            // Nothing to overlap: serve the at-most-one surviving partition
            // on the publishing thread instead of paying a scoped spawn.
            partitions
                .iter()
                .zip(&skip)
                .map(|(partition, &skip)| {
                    if skip {
                        Some(Vec::new())
                    } else {
                        self.scatter_to_partition(partition, &event_lines)
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
                            scope.spawn(move || self.scatter_to_partition(partition, event_lines))
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
        // it is currently authoritative for — otherwise an id unsubbed on
        // the puller could still surface from the donor's stale copy.
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

    /// Acks a `PUB` or completed `BATCH`, matches its events across the
    /// partitions as one window, and delivers the rows: `RESULT`s to the
    /// publisher, `EVENT`s to owners.
    fn publish(&self, conn: ConnId, publish: Publish) {
        self.delivery.reply(conn, publish.ack);
        let events = publish.events;
        ClusterStats::add(&self.stats.events_in, events.len() as u64);
        if events.is_empty() {
            return;
        }
        let (rows, partial) = self.scatter_window(&events);
        ClusterStats::add(&self.stats.windows, 1);
        if partial {
            ClusterStats::add(&self.stats.cluster_degraded, 1);
        }
        for ((seq, event), row) in events.iter().zip(&rows) {
            ClusterStats::add(&self.stats.matches, row.len() as u64);
            self.delivery
                .deliver(&self.schema, conn, *seq, event, row, partial);
        }
    }

    fn render_stats(&self) -> String {
        self.stats.render(
            self.membership.len(),
            self.membership.up_count(),
            self.membership.node_count(),
            self.membership.nodes_up(),
            self.delivery.gauges(),
        )
    }

    /// Executes one client request line.
    fn execute(&self, framing: &mut Framing, conn: ConnId, line: &str) -> Verdict {
        let stats = &self.stats;
        let reply = |text: String| self.delivery.reply(conn, text);
        let request = match protocol::parse_request(&self.schema, line) {
            Ok(Some(req)) => req,
            Ok(None) => return Verdict::Continue,
            Err(msg) => {
                ClusterStats::add(&stats.protocol_errors, 1);
                reply(format!("-ERR {msg}"));
                return Verdict::Continue;
            }
        };
        match request {
            Request::Sub { id, sub } => {
                // Re-render canonically; the backend fingerprints the
                // parsed expression, so takeover semantics survive the
                // extra parse/render hop.
                let forwarded = format!("SUB {} {}", id.0, sub.display(&self.schema));
                let backend_reply = self.route_churn(id, &forwarded);
                if backend_reply.starts_with("+OK claimed") {
                    self.delivery.owners.write().insert(id, conn);
                    ClusterStats::add(&stats.claims_routed, 1);
                } else if backend_reply.starts_with('+') {
                    self.delivery.owners.write().insert(id, conn);
                    ClusterStats::add(&stats.subs_routed, 1);
                    // A fresh SUB may have grown the backend's summary
                    // past the router's cache; pruning on the stale bits
                    // could skip a backend that now holds a match. Drop
                    // the cache — full fan-out until the sweep refreshes.
                    // (`+OK claimed` and UNSUB never grow the bits.)
                    if let Some(partition) = self.membership.route(id) {
                        partition.invalidate_summary();
                    }
                }
                // `-ERR duplicate <id>` passes through verbatim so the
                // client can drive CLAIM.
                reply(backend_reply);
            }
            Request::Unsub { id } => {
                let backend_reply = self.route_churn(id, &format!("UNSUB {}", id.0));
                if backend_reply.starts_with('+') {
                    self.delivery.owners.write().remove(&id);
                    ClusterStats::add(&stats.unsubs_routed, 1);
                }
                reply(backend_reply);
            }
            Request::Claim { id } => {
                let backend_reply = self.route_churn(id, &format!("CLAIM {}", id.0));
                if backend_reply.starts_with('+') {
                    self.delivery.owners.write().insert(id, conn);
                    ClusterStats::add(&stats.claims_routed, 1);
                }
                reply(backend_reply);
            }
            Request::Pub { event } => self.publish(conn, framing.publish(event)),
            Request::Batch { count } => framing.open_batch(count),
            Request::Stats => reply(format!("+OK stats\n{}.", self.render_stats())),
            Request::Snapshot => {
                // Fan the snapshot request to every partition's active
                // node (followers snapshot on their own rotation cadence).
                let mut ok = 0usize;
                for partition in self.membership.partitions() {
                    let node = partition.active_node().clone();
                    let mut conn = node.lock_conn();
                    match conn.as_mut().map(|c| c.request("SNAPSHOT")) {
                        Some(Ok(r)) if r.starts_with('+') => ok += 1,
                        Some(Ok(_)) | None => {}
                        Some(Err(_)) => self.mark_down(&node, &mut conn),
                    }
                }
                reply(format!(
                    "+OK snapshot {ok} of {} backends",
                    self.membership.len()
                ));
            }
            Request::Topology => {
                // One queued string so async lines cannot interleave.
                let mut body = format!("+OK topology {}\n", self.membership.len());
                for line in self.membership.topology_lines() {
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
                    self.membership.len(),
                    self.membership.up_count()
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
                    match self.migration.start_add(&self.membership, &spec, stats) {
                        Ok(new) => reply(format!("+OK reshard add started partition {new}")),
                        Err(e) => {
                            ClusterStats::add(&stats.protocol_errors, 1);
                            reply(format!("-ERR {e}"));
                        }
                    }
                }
                protocol::ReshardCmd::Remove { partition } => {
                    match self
                        .migration
                        .start_remove(&self.membership, partition, stats)
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
                protocol::ReshardCmd::Status => reply(self.migration.status_line()),
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
                return Verdict::Close;
            }
        }
        Verdict::Continue
    }
}

impl Service for RouterService {
    type Session = Framing;

    fn on_open(&self, _conn: ConnId, handle: &Arc<LoopHandle>) -> Framing {
        self.delivery.attach(handle);
        ClusterStats::add(&self.stats.conns_total, 1);
        ClusterStats::add(&self.stats.conns_active, 1);
        Framing::default()
    }

    fn on_line(&self, framing: &mut Framing, conn: ConnId, line: Line<'_>) -> Verdict {
        let counters = FramingCounters {
            oversized_lines: &self.stats.oversized_lines,
            protocol_errors: &self.stats.protocol_errors,
        };
        let mut reply = |text: String| self.delivery.reply(conn, text);
        match framing.feed(
            line,
            &self.schema,
            self.max_line_bytes,
            counters,
            &mut reply,
        ) {
            Framed::Request(line) => self.execute(framing, conn, line),
            Framed::Publish(publish) => {
                self.publish(conn, publish);
                Verdict::Continue
            }
            Framed::Consumed => Verdict::Continue,
        }
    }

    fn on_close(&self, _framing: &mut Framing, _conn: ConnId, _reason: CloseReason) {
        ClusterStats::sub(&self.stats.conns_active, 1);
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
            RouterConfig {
                probe_timeout: Duration::ZERO,
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
