//! TCP broker: connection serving, result delivery, background
//! maintenance, and graceful shutdown, with no async runtime.
//!
//! The listener and every client connection are served by the
//! `apcm-netio` readiness loop: a fixed worker pool multiplexing
//! epoll-driven reads, byte-capped line framing, bounded per-connection
//! outbound queues flushed on `EPOLLOUT`, and a timer wheel for idle
//! reaping, with the maintenance sweep (every shard's `maintain()` and the
//! persister's [`Persister::maintenance_tick`]) riding the loop's tick
//! hook. Thread count is O(workers), not O(connections), so tens of
//! thousands of mostly-idle subscribers fit in one pool. Every inbound
//! line goes through one dispatcher (`request::on_conn_line`),
//! and every outbound line through [`Delivery`] — the framing and
//! delivery types the cluster router is built from as well.
//! The **matcher** thread inside [`IngestPipeline`], the outbound
//! replication/reshard pullers (`ReplicaRunner`, `ReshardRunner`) and
//! offloaded blocking requests run on dedicated threads.
//!
//! Subscriptions are durable within a run: a closed connection keeps its
//! subscriptions live (notifications for them are silently discarded until
//! another connection re-subscribes or unsubscribes the ids). With
//! `ServerConfig::persist` set they are durable across runs too — churn is
//! acknowledged only after it reaches the append log, and startup restores
//! the snapshot + log into the engine before the listener opens.
//!
//! Inbound hardening: every protocol line is framed under a byte cap
//! (`max_line_bytes`) — an oversized line is discarded up to its newline
//! and answered with a structured `-ERR`, never buffered unboundedly.
//! Connections silent for longer than `idle_timeout` are reaped by the
//! loop's timer wheel.

use apcm_bexpr::{Schema, SubId, Subscription};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{connect_stream, ConnectOptions};
use crate::config::ServerConfig;
use crate::delivery::Delivery;
use crate::event_broker::BrokerService;
use crate::ingest::{IngestItem, IngestPipeline, ResultSink};
use crate::persist::log::{parse_frame, ReplayOp};
use crate::persist::{Persister, RecoveryReport};
use crate::protocol::{self, ReplicateStart};
use crate::replication::{Role, RoleState};
use crate::request::ConnCtx;
use crate::ring::RingScope;
use crate::shard::ShardedEngine;
use crate::stats::ServerStats;

/// Compact fingerprint of a subscription's expression, used to decide
/// whether a duplicate `SUB` is a reconnect offering the byte-identical
/// expression (ownership takeover) or a genuinely conflicting id. The
/// parser normalizes predicate order, so two byte-identical protocol lines
/// always fingerprint equal.
pub(crate) fn sub_fingerprint(sub: &Subscription) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sub.hash(&mut h);
    h.finish()
}

/// Decodes one `BLOCK <partition> <rows> <raw_len> <crc8hex> <base64>`
/// line of a colstore replication bootstrap into subscriptions. Every
/// failure mode (bad framing, base64 damage, CRC mismatch, columnar
/// decode error, unparseable expression) is just an error string — the
/// caller drops the connection and refetches the whole bootstrap.
fn decode_bootstrap_block(line: &str, schema: &Schema) -> Result<Vec<Subscription>, String> {
    let rest = line.strip_prefix("BLOCK ").ok_or("not a BLOCK line")?;
    let mut parts = rest.split_whitespace();
    let partition: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("missing partition")?;
    let rows: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("missing row count")?;
    let raw_len: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("missing raw_len")?;
    let crc: u32 = parts
        .next()
        .and_then(|t| u32::from_str_radix(t, 16).ok())
        .ok_or("missing crc")?;
    let data = apcm_colstore::b64::decode(parts.next().ok_or("missing payload")?)
        .map_err(|e| e.to_string())?;
    if parts.next().is_some() {
        return Err("trailing tokens on BLOCK line".into());
    }
    let block = apcm_colstore::CompressedBlock {
        partition,
        rows,
        min_id: 0,
        max_id: 0,
        raw_len,
        crc,
        data,
    };
    let decoded = block.decode().map_err(|e| e.to_string())?;
    decoded
        .iter()
        .map(|row| crate::persist::snapshot::row_to_sub(row, schema).map_err(|e| e.to_string()))
        .collect()
}

/// State shared by every thread: delivery to the event loop's
/// connections and subscription ownership. Doubles as the ingest
/// pipeline's [`ResultSink`].
pub(crate) struct Hub {
    pub(crate) schema: Schema,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) delivery: Delivery,
    /// Fingerprint of every live subscription's expression (seeded from
    /// recovery, maintained by SUB/UNSUB). Backs `CLAIM` liveness checks
    /// and identical-expression takeover without cloning expressions.
    pub(crate) live: RwLock<HashMap<SubId, u64>>,
    /// Ring ownership filter installed by `RESHARD PRUNE`: churn for ids
    /// the scope does not own is refused with `-ERR not owner <id>`.
    /// `None` (the default, and the state after a restart) accepts
    /// everything — the filter is a migration-era safety net against
    /// stale-routed churn, re-installed idempotently by the router's
    /// migration controller, not the source of routing truth.
    pub(crate) ownership: RwLock<Option<RingScope>>,
}

impl ResultSink for Hub {
    fn on_window(&self, items: &[IngestItem], rows: &[Vec<SubId>]) {
        for (item, row) in items.iter().zip(rows) {
            self.delivery
                .deliver(&self.schema, item.conn, item.seq, &item.event, row, false);
        }
    }
}

/// A running broker. Dropping without calling [`Server::shutdown`] aborts
/// connections ungracefully; call `shutdown` for an orderly stop.
pub struct Server {
    hub: Arc<Hub>,
    engine: Arc<ShardedEngine>,
    persist: Option<Arc<Persister>>,
    stats: Arc<ServerStats>,
    role: Arc<RoleState>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Replication/reshard pullers and offloaded blocking requests,
    /// joined at teardown.
    helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    pipeline: Option<IngestPipeline>,
    event_loop: Option<apcm_netio::EventLoop>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts all
    /// background threads. With `config.persist` set, recovery (snapshot
    /// load + log replay + engine restore) completes before the listener
    /// accepts its first connection.
    pub fn start(schema: Schema, config: ServerConfig, addr: &str) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let engine =
            Arc::new(ShardedEngine::new(&schema, &config).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?);
        let stats = Arc::new(ServerStats::default());

        let mut recovered_live: HashMap<SubId, u64> = HashMap::new();
        let persist = match &config.persist {
            Some(pconfig) => {
                let (persister, restored) = Persister::open(
                    pconfig.clone(),
                    schema.clone(),
                    stats.clone(),
                    config.shards,
                )?;
                engine.bulk_restore(&restored).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                // Recovered subscriptions have no owning connection yet;
                // seeding their fingerprints is what lets a reconnecting
                // client CLAIM them (or re-SUB the identical expression).
                recovered_live = fingerprints(&restored);
                Some(Arc::new(persister))
            }
            None => None,
        };

        let hub = Arc::new(Hub {
            schema,
            stats: stats.clone(),
            delivery: Delivery::new(config.slow_consumer),
            live: RwLock::new(recovered_live),
            ownership: RwLock::new(None),
        });
        let pipeline = IngestPipeline::start(engine.clone(), stats.clone(), hub.clone(), &config);

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let helper_threads = Arc::new(Mutex::new(Vec::new()));

        let role = Arc::new(RoleState::new(match &config.replica_of {
            Some(primary) => Role::Replica {
                primary: primary.clone(),
            },
            None => Role::Primary,
        }));
        stats
            .role_replica
            .store(u64::from(config.replica_of.is_some()), Ordering::Relaxed);
        let runner = persist.as_ref().map(|persist| {
            Arc::new(ReplicaRunner {
                hub: hub.clone(),
                engine: engine.clone(),
                persist: persist.clone(),
                role: role.clone(),
                shutdown: shutdown.clone(),
                helper_threads: helper_threads.clone(),
                ack_every: config.repl_ack_every,
            })
        });
        let reshard = persist.as_ref().map(|persist| {
            Arc::new(ReshardRunner {
                hub: hub.clone(),
                engine: engine.clone(),
                persist: persist.clone(),
                shutdown: shutdown.clone(),
                helper_threads: helper_threads.clone(),
                ack_every: config.repl_ack_every,
                generation: AtomicU64::new(0),
                target: Mutex::new(None),
                cursor: AtomicU64::new(0),
                connected: AtomicU64::new(0),
            })
        });
        if config.replica_of.is_some() {
            // Replica mode requires persistence (validated above), so the
            // runner exists; pull from the configured primary right away.
            runner
                .as_ref()
                .expect("replica mode requires persistence")
                .clone()
                .spawn(role.generation());
        }

        let ctx = ConnCtx {
            hub: hub.clone(),
            engine: engine.clone(),
            persist: persist.clone(),
            ingest: pipeline.sender(),
            max_line_bytes: config.max_line_bytes,
            role: role.clone(),
            runner,
            reshard,
            helper_threads: helper_threads.clone(),
        };
        let options = apcm_netio::LoopOptions {
            workers: config
                .loop_workers
                .unwrap_or_else(apcm_netio::default_workers),
            conn_queue: config.conn_queue,
            max_line_bytes: config.max_line_bytes,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            reject_line: Some("-ERR server busy".into()),
            tick_interval: Some(config.maintenance_interval),
            read_chunk: 64 * 1024,
        };
        let event_loop =
            apcm_netio::EventLoop::start(listener, Arc::new(BrokerService::new(ctx)), options)?;
        hub.delivery.attach(&event_loop.handle());

        Ok(Server {
            hub,
            engine,
            persist,
            stats,
            role,
            addr: local_addr,
            shutdown,
            helper_threads,
            pipeline: Some(pipeline),
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// What startup recovery found; `None` without persistence.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.persist.as_ref().map(|p| p.recovery_report())
    }

    /// The server's current role (dynamic: `PROMOTE`/`DEMOTE` flip it).
    pub fn role(&self) -> Role {
        self.role.role()
    }

    /// Highest durable churn sequence; 0 without persistence.
    pub fn current_seq(&self) -> u64 {
        self.persist.as_ref().map(|p| p.current_seq()).unwrap_or(0)
    }

    /// Forces a full snapshot + log rotation (the `SNAPSHOT` verb's
    /// in-process equivalent). Errors without persistence.
    pub fn snapshot(&self) -> std::io::Result<crate::persist::SnapshotOutcome> {
        match &self.persist {
            Some(p) => p.snapshot(),
            None => Err(std::io::Error::other("persistence disabled")),
        }
    }

    /// Background-style snapshot pass: writes a delta when the colstore
    /// chain permits one, a full otherwise. Errors without persistence.
    pub fn snapshot_incremental(&self) -> std::io::Result<crate::persist::SnapshotOutcome> {
        match &self.persist {
            Some(p) => p.snapshot_incremental(),
            None => Err(std::io::Error::other("persistence disabled")),
        }
    }

    /// Stops threads and closes sockets; shared by the graceful and
    /// abortive paths. Returns the residual ingest queue depth.
    fn teardown(&mut self) -> usize {
        self.shutdown.store(true, Ordering::SeqCst);

        // Closes every connection, joins the worker pool, and drops the
        // service — releasing its ingest sender so the matcher below can
        // drain to completion.
        if let Some(el) = self.event_loop.take() {
            el.shutdown();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.helper_threads.lock());
        for t in handles {
            let _ = t.join();
        }
        // All publisher senders are gone; the matcher drains and exits.
        self.pipeline
            .take()
            .map(|p| {
                let d = p.depth();
                p.shutdown();
                d
            })
            .unwrap_or(0)
    }

    /// Graceful shutdown: stop accepting, close every connection, join all
    /// worker threads, drain the ingest pipeline, flush the durable log,
    /// and return the final rendered stats.
    pub fn shutdown(mut self) -> String {
        let depth = self.teardown();
        if let Some(persister) = &self.persist {
            persister.flush();
        }
        let mut out = self.stats.render(
            &self.engine.per_shard_len(),
            depth,
            self.engine.kernel_counters(),
            (
                self.engine.summary_epoch(),
                self.engine.summary_bits_set() as u64,
                self.engine.summary_rebuilds(),
            ),
            self.hub.delivery.gauges(),
        );
        out.push_str(&format!("shards {}\n", self.engine.shard_count()));
        out
    }

    /// Abortive stop for crash tests: threads are joined (no leaked
    /// resources in-process) but the durable log is **not** flushed and no
    /// final snapshot is taken — on-disk state is exactly what the write
    /// path had produced at the moment of the "crash".
    pub fn abort(mut self) {
        let _ = self.teardown();
    }
}

/// Drives replica mode: a puller thread that dials the primary, performs
/// the `REPLICATE <from_seq>` handshake, and applies the streamed churn
/// frames to the local engine + persistence. One runner exists per server
/// (when persistence is on); each `DEMOTE` spawns a fresh puller tagged
/// with the role generation, and stale pullers notice the generation
/// moved on and exit — `PROMOTE` therefore stops replication without any
/// extra signalling.
pub(crate) struct ReplicaRunner {
    hub: Arc<Hub>,
    engine: Arc<ShardedEngine>,
    persist: Arc<Persister>,
    role: Arc<RoleState>,
    shutdown: Arc<AtomicBool>,
    helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    ack_every: u64,
}

impl ReplicaRunner {
    /// Starts a puller for role `generation`; the handle joins with the
    /// other helper threads at shutdown.
    pub(crate) fn spawn(self: Arc<Self>, generation: u64) {
        let runner = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("apcm-replica-g{generation}"))
            .spawn(move || runner.run(generation))
            .expect("spawning replica puller");
        self.helper_threads.lock().push(handle);
    }

    /// The primary to follow, or `None` once this puller is obsolete
    /// (server shutting down, role flipped, or a newer generation took
    /// over).
    fn primary(&self, generation: u64) -> Option<String> {
        if self.shutdown.load(Ordering::SeqCst) || self.role.generation() != generation {
            return None;
        }
        self.role.primary_addr()
    }

    fn run(&self, generation: u64) {
        let stats = &self.hub.stats;
        let options = ConnectOptions {
            connect_timeout: Some(Duration::from_millis(500)),
            // Short read quanta keep shutdown/demotion latency bounded and
            // double as the keepalive-REPLACK cadence while idle.
            read_timeout: Some(Duration::from_millis(250)),
            attempts: 1,
            ..ConnectOptions::default()
        };
        let mut connected_before = false;
        let mut failures = 0u32;
        // Set when a truncate handshake's CRC probe failed: the next dial
        // sends a trailing `reset` to force the wholesale bootstrap.
        let mut force_reset = false;
        loop {
            let Some(primary) = self.primary(generation) else {
                stats.repl_connected.store(0, Ordering::Relaxed);
                return;
            };
            match connect_stream(&primary, &options) {
                Ok(stream) => {
                    if connected_before {
                        ServerStats::add(&stats.repl_reconnects, 1);
                    }
                    connected_before = true;
                    failures = 0;
                    self.follow(generation, stream, &mut force_reset);
                    stats.repl_connected.store(0, Ordering::Relaxed);
                }
                Err(_) => {
                    failures = failures.saturating_add(1).min(8);
                    let deadline = Instant::now() + options.delay_before_retry(failures);
                    while Instant::now() < deadline {
                        if self.primary(generation).is_none() {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
    }

    /// One connected stint against the primary: handshake, optional
    /// snapshot bootstrap, then the live frame tail. Returning (for any
    /// reason) sends control back to `run`, which redials from the
    /// current applied seq — so every exit path is also the repair path.
    fn follow(&self, generation: u64, stream: TcpStream, force_reset: &mut bool) {
        let stats = &self.hub.stats;
        let live = || self.primary(generation).is_some();
        let Some(mut pull) = PullStream::new(stream) else {
            return;
        };
        let mut applied = self.persist.current_seq();
        // `reset` (one-shot, after a failed truncate CRC probe) forces the
        // wholesale bootstrap.
        let reset = if std::mem::take(force_reset) {
            " reset"
        } else {
            ""
        };
        if !pull.send(&format!("REPLICATE {applied}{reset}")) {
            return;
        }

        let Some(header) = pull.next_line(applied, &live) else {
            return;
        };
        let start = match protocol::parse_replicate_header(&header) {
            Ok(start) => start,
            // `-ERR` (e.g. the peer lost persistence) or garbage: redial.
            Err(_) => return,
        };

        if let ReplicateStart::Truncate { seq, crc } = start {
            // Covered-suffix rewind: our history is ahead of the
            // primary's (an unacked suffix from an old promotion).
            // Verify our own frame at `seq` carries the CRC the
            // primary announced; a match proves the histories agree
            // up to `seq`, so the suffix can be discarded locally
            // with zero transferred state. A mismatch (or a missing
            // frame) means divergence — redial with `reset` for the
            // wholesale bootstrap.
            if self.persist.local_frame_crc(seq) != Some(crc) {
                *force_reset = true;
                return;
            }
            let Ok(subs) = self.persist.rewind_to(&self.engine, seq) else {
                *force_reset = true;
                return;
            };
            self.install_live(fingerprints(&subs));
            applied = seq;
            stats.repl_applied_seq.store(applied, Ordering::Relaxed);
            if !pull.ack(applied) {
                return;
            }
        }
        // Full bootstrap: our log position is useless to the primary
        // (predates its retained log, or is ahead of it after a failed
        // promote), so the whole catalog image replaces ours.
        let Ok(bootstrap) = pull.read_bootstrap(start, applied, &live, &self.hub) else {
            return;
        };
        if let Some((subs, seq)) = bootstrap {
            let fresh = fingerprints(&subs);
            if self
                .persist
                .bootstrap_replace(&self.engine, subs, seq)
                .is_err()
            {
                return;
            }
            self.install_live(fresh);
            applied = seq;
            stats.repl_applied_seq.store(applied, Ordering::Relaxed);
            ServerStats::add(&stats.repl_bootstraps, 1);
            let _ = pull.ack(applied);
        }
        // Flip the gauge only now that any bootstrap/rewind has resolved:
        // `connected 1` in this node's `ROLE` report certifies "history
        // reconciled with the upstream", which is what the router's
        // follower-read eligibility check leans on — a returned
        // ex-primary mid-bootstrap must not look readable.
        stats.repl_connected.store(1, Ordering::Relaxed);

        let mut since_ack = 0u64;
        loop {
            let Some(line) = pull.next_line(applied, &live) else {
                return;
            };
            let record = match parse_frame(&line, &self.hub.schema) {
                Ok(record) => record,
                Err(_) => {
                    // A framed-but-corrupt record is never applied. Drop
                    // the connection instead of skipping past it: the
                    // reconnect handshake (`REPLICATE <applied>`) refetches
                    // the record from the primary's durable log, so no
                    // hole survives wire corruption.
                    ServerStats::add(&stats.repl_crc_skipped, 1);
                    return;
                }
            };
            if record.seq <= applied {
                continue; // backlog/live overlap around the handshake
            }
            match self.persist.apply_replicated(&self.engine, &line, &record) {
                Ok(true) => {
                    match &record.op {
                        ReplayOp::Sub(sub) => {
                            self.hub.live.write().insert(sub.id(), sub_fingerprint(sub));
                        }
                        ReplayOp::Unsub(id) => {
                            self.hub.live.write().remove(id);
                            self.hub.delivery.owners.write().remove(id);
                        }
                    }
                    applied = record.seq;
                    stats.repl_applied_seq.store(applied, Ordering::Relaxed);
                    since_ack += 1;
                    // Pipelined acks: while more records are already
                    // readable on the stream they will be applied in this
                    // same drain, so hold the ack and send one line at
                    // the drain boundary — `ack_every` caps how long a
                    // continuous burst can go unacknowledged.
                    if since_ack >= self.ack_every || !pull.burst_continues() {
                        if since_ack > 1 {
                            ServerStats::add(&stats.replacks_pipelined, 1);
                        }
                        since_ack = 0;
                        if !pull.ack(applied) {
                            return;
                        }
                    }
                }
                Ok(false) => {
                    applied = applied.max(record.seq);
                }
                // Local persistence is degraded; redial after backoff so
                // the append retries rather than silently dropping churn.
                Err(_) => return,
            }
        }
    }

    /// Mirrors a wholesale engine + catalog swap (bootstrap or rewind) in
    /// the hub, so CLAIM liveness and notification routing agree with
    /// what is actually matchable.
    fn install_live(&self, fresh: HashMap<SubId, u64>) {
        self.hub
            .delivery
            .owners
            .write()
            .retain(|id, _| fresh.contains_key(id));
        *self.hub.live.write() = fresh;
    }
}

/// Fingerprint of every subscription in a catalog image, keyed by id (the
/// shape of [`Hub::live`]).
fn fingerprints(subs: &[Subscription]) -> HashMap<SubId, u64> {
    subs.iter()
        .map(|sub| (sub.id(), sub_fingerprint(sub)))
        .collect()
}

/// The pulling side of one `REPLICATE` connection, shared by
/// [`ReplicaRunner`] and [`ReshardRunner`]: a buffered reader that
/// tolerates read-timeout ticks, and the write half that carries the
/// handshake and `REPLACK`s.
struct PullStream {
    reader: BufReader<TcpStream>,
    /// A partial line carried across read-timeout ticks.
    pending: String,
    writer: TcpStream,
}

impl PullStream {
    fn new(stream: TcpStream) -> Option<Self> {
        let writer = stream.try_clone().ok()?;
        Some(PullStream {
            reader: BufReader::new(stream),
            pending: String::new(),
            writer,
        })
    }

    /// Writes one protocol line; `false` means the stream is gone.
    fn send(&mut self, line: &str) -> bool {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .is_ok()
    }

    fn ack(&mut self, seq: u64) -> bool {
        self.send(&format!("REPLACK {seq}"))
    }

    /// Reads the next complete line, tolerating read-timeout ticks. Each
    /// idle tick re-checks `live` and sends a keepalive `REPLACK <ack>`
    /// so the upstream's lag gauge stays fresh. `None` means the stream
    /// ended or this puller should stop.
    fn next_line(&mut self, ack: u64, live: &dyn Fn() -> bool) -> Option<String> {
        loop {
            if !live() {
                return None;
            }
            match self.reader.read_line(&mut self.pending) {
                Ok(0) => return None,
                Ok(_) => {
                    if self.pending.ends_with('\n') {
                        let line = self.pending.trim_end().to_string();
                        self.pending.clear();
                        return Some(line);
                    }
                    // Unterminated tail: EOF follows on the next read.
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if !self.ack(ack) {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Collects the whole catalog image a colstore bootstrap announces as
    /// `BLOCK` lines; `Ok(None)` for the forms that carry none (log tail,
    /// truncate). Any corrupt block poisons the image: it is counted in
    /// `repl_crc_skipped`, and `Err` tells the caller to drop the
    /// connection so the redial refetches the image from scratch,
    /// skipping nothing, rather than install a catalog with holes.
    fn read_bootstrap(
        &mut self,
        start: ReplicateStart,
        ack: u64,
        live: &dyn Fn() -> bool,
        hub: &Hub,
    ) -> Result<Option<(Vec<Subscription>, u64)>, ()> {
        let skipped = || ServerStats::add(&hub.stats.repl_crc_skipped, 1);
        match start {
            ReplicateStart::Log { .. } | ReplicateStart::Truncate { .. } => Ok(None),
            ReplicateStart::Colstore {
                blocks,
                subs: count,
                seq,
            } => {
                let mut subs = Vec::with_capacity(count);
                for _ in 0..blocks {
                    let line = self.next_line(ack, live).ok_or(())?;
                    // CRC/format damage on the wire is counted like a
                    // corrupt streamed frame.
                    let mut block_subs =
                        decode_bootstrap_block(&line, &hub.schema).map_err(|_| skipped())?;
                    subs.append(&mut block_subs);
                }
                if subs.len() != count {
                    skipped();
                    return Err(());
                }
                Ok(Some((subs, seq)))
            }
        }
    }

    /// Whether the replication burst being drained continues: another
    /// frame is already buffered, or the kernel socket buffer has more
    /// bytes ready right now. The `BufReader` buffer alone is not a drain
    /// boundary — a burst larger than one buffer fill (8KB default) looks
    /// "drained" at every buffer edge, which would ack far more often
    /// than `ack_every` intends — so when the buffer is quiet, peek the
    /// socket with a momentary non-blocking fill: `WouldBlock` is the
    /// genuine boundary.
    fn burst_continues(&mut self) -> bool {
        let reader = &mut self.reader;
        if reader.buffer().contains(&b'\n') {
            return true;
        }
        // A non-empty buffer without a newline is a torn frame: its tail
        // is in flight, so the fill below reports the burst continuing
        // (either from fresh bytes or the buffered remainder) and the ack
        // holds — the idle keepalive still bounds how long that can last.
        if reader.get_ref().set_nonblocking(true).is_err() {
            return false;
        }
        let ready = matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty());
        let _ = reader.get_ref().set_nonblocking(false);
        ready
    }
}

/// What a `RESHARD PULL` told us to migrate: the donor to dial, the ring
/// subset to keep out of its catalog, and (optionally) the donor's
/// old-ring ownership, which bounds the bootstrap reconcile.
#[derive(Clone)]
struct PullTarget {
    source: String,
    scope: RingScope,
    donor: Option<RingScope>,
}

/// Drives the receiving side of a live partition migration (`RESHARD
/// PULL`): a puller thread dials the donor, performs a **scoped**
/// `REPLICATE ... ring` handshake, and applies the owned subset of the
/// stream through the **local** churn path.
///
/// Differences from [`ReplicaRunner`], which it otherwise mirrors:
///
/// * Applied records mint **local** seqs via [`Persister::apply_sub`] —
///   the donor's seq domain is never copied into this node's log, so the
///   node stays a normal primary (serving churn, feeding its own standby)
///   throughout the migration.
/// * Progress is a **source-seq cursor** (`cursor`), advanced across
///   *every* streamed frame — owned or not — so the `REPLACK`s it sends
///   stay comparable with the donor's log seq. That comparability is what
///   the router's double-write floor handshake relies on.
/// * The cursor survives re-`PULL`s that carry the same scope (a donor
///   failover changes the address, not the leg), and is reset when the
///   scope changes (a different leg).
pub(crate) struct ReshardRunner {
    hub: Arc<Hub>,
    engine: Arc<ShardedEngine>,
    persist: Arc<Persister>,
    shutdown: Arc<AtomicBool>,
    helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    ack_every: u64,
    /// Bumped by every `PULL`/`CUTOFF`/`DEMOTE`; a puller thread tagged
    /// with an older generation notices and exits — cutover needs no
    /// extra signalling, exactly like role generations.
    generation: AtomicU64,
    target: Mutex<Option<PullTarget>>,
    /// Highest donor-log seq fully covered (bootstrap or applied frame).
    /// Stored, not maxed: a promoted standby can legitimately present
    /// fewer records than the dead donor had streamed.
    pub(crate) cursor: AtomicU64,
    /// 1 while a stream is established (for `RESHARD STATUS`).
    connected: AtomicU64,
}

impl ReshardRunner {
    /// Installs a (new or re-issued) pull target and starts a puller
    /// generation for it. Idempotent per leg: re-pulling the same scope —
    /// the router controller's repair action after either side dies —
    /// keeps the cursor and simply redials.
    pub(crate) fn start_pull(
        self: &Arc<Self>,
        source: String,
        scope: RingScope,
        donor: Option<RingScope>,
    ) {
        let mut target = self.target.lock();
        let same_leg = matches!(&*target, Some(t) if t.scope == scope && t.donor == donor);
        if !same_leg {
            self.cursor.store(0, Ordering::SeqCst);
        }
        *target = Some(PullTarget {
            source,
            scope,
            donor,
        });
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        drop(target);
        self.hub.stats.reshard_pulling.store(1, Ordering::Relaxed);
        let runner = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("apcm-reshard-g{generation}"))
            .spawn(move || runner.run(generation))
            .expect("spawning reshard puller");
        self.helper_threads.lock().push(handle);
    }

    /// `RESHARD CUTOFF` (or demotion): stop pulling. The applied catalog
    /// stays — cutoff means the migration controller decided this node
    /// now owns what it pulled.
    pub(crate) fn stop(&self) {
        // Bump the generation while holding the target lock: frame
        // application takes the same lock and re-checks liveness, so once
        // this returns (and `RESHARD CUTOFF` is acked) no further frame —
        // in particular no donor-prune `UNSUB` racing down the stream —
        // can touch the catalog this node now owns.
        let mut target = self.target.lock();
        *target = None;
        self.generation.fetch_add(1, Ordering::SeqCst);
        drop(target);
        self.connected.store(0, Ordering::Relaxed);
        self.hub.stats.reshard_pulling.store(0, Ordering::Relaxed);
    }

    /// Whether the puller tagged `generation` should keep running.
    fn live(&self, generation: u64) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
            && self.generation.load(Ordering::SeqCst) == generation
    }

    pub(crate) fn status_line(&self) -> String {
        match &*self.target.lock() {
            Some(t) => format!(
                "+OK reshard pulling {} applied {} connected {}",
                t.source,
                self.cursor.load(Ordering::SeqCst),
                self.connected.load(Ordering::Relaxed)
            ),
            None => "+OK reshard idle".into(),
        }
    }

    fn run(&self, generation: u64) {
        let options = ConnectOptions {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_millis(250)),
            attempts: 1,
            ..ConnectOptions::default()
        };
        let mut failures = 0u32;
        loop {
            if !self.live(generation) {
                return;
            }
            let Some(target) = self.target.lock().clone() else {
                return;
            };
            match connect_stream(&target.source, &options) {
                Ok(stream) => {
                    failures = 0;
                    self.follow(generation, &target, stream);
                    self.connected.store(0, Ordering::Relaxed);
                }
                Err(_) => {
                    failures = failures.saturating_add(1).min(8);
                    let deadline = Instant::now() + options.delay_before_retry(failures);
                    while Instant::now() < deadline {
                        if !self.live(generation) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
    }

    /// Applies one owned subscription through the local churn path.
    /// Convergent: an already-present identical expression is a no-op, a
    /// conflicting expression under the same id (the donor's version
    /// wins — it is the owner of record during catch-up) is replaced.
    /// `Err` means local persistence is degraded; the caller drops the
    /// stream and the redial re-covers from the cursor.
    fn apply_owned_sub(&self, sub: &Subscription) -> Result<(), ()> {
        let fp = sub_fingerprint(sub);
        if self.hub.live.read().get(&sub.id()).copied() == Some(fp) {
            return Ok(());
        }
        match self.persist.apply_sub(&self.engine, sub) {
            Ok(Some(_)) => {}
            Ok(None) => {
                if self.persist.apply_unsub(&self.engine, sub.id()).is_err()
                    || self.persist.apply_sub(&self.engine, sub).is_err()
                {
                    return Err(());
                }
            }
            Err(_) => return Err(()),
        }
        self.hub.live.write().insert(sub.id(), fp);
        ServerStats::add(&self.hub.stats.reshard_pull_applied, 1);
        Ok(())
    }

    /// Removes one owned subscription through the local churn path.
    fn apply_owned_unsub(&self, id: SubId) -> Result<(), ()> {
        match self.persist.apply_unsub(&self.engine, id) {
            Ok(Some(_)) => {
                self.hub.live.write().remove(&id);
                self.hub.delivery.owners.write().remove(&id);
                ServerStats::add(&self.hub.stats.reshard_pull_applied, 1);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(_) => Err(()),
        }
    }

    /// One connected stint against the donor: scoped handshake, optional
    /// bootstrap (the donor filters the catalog image to our scope; we
    /// re-filter defensively), then the live frame tail. The log tail and
    /// live stream carry **all** of the donor's frames — we skip the ones
    /// outside our scope but still advance the cursor across them.
    fn follow(&self, generation: u64, target: &PullTarget, stream: TcpStream) {
        let stats = &self.hub.stats;
        let scope = &target.scope;
        let live = || self.live(generation);
        let Some(mut pull) = PullStream::new(stream) else {
            return;
        };
        let mut cursor = self.cursor.load(Ordering::SeqCst);
        if !pull.send(&format!(
            "REPLICATE {cursor} ring {} {}",
            scope.ring().to_csv(),
            scope.keep_csv()
        )) {
            return;
        }

        let Some(header) = pull.next_line(cursor, &live) else {
            return;
        };
        let start = match protocol::parse_replicate_header(&header) {
            Ok(start) => start,
            Err(_) => return,
        };
        self.connected.store(1, Ordering::Relaxed);

        // Scoped pulls are never offered a truncate (the donor's
        // handshake gates it on an unscoped stream); treat one as a
        // protocol violation and redial.
        if matches!(start, ReplicateStart::Truncate { .. }) {
            return;
        }
        // Collect the whole image first, and only then touch local state.
        let Ok(bootstrap) = pull.read_bootstrap(start, cursor, &live, &self.hub) else {
            return;
        };
        if let Some((mut subs, seq)) = bootstrap {
            // Unlike a replica bootstrap, this is *additive*: the node
            // keeps serving its existing catalog while absorbing the
            // migrated subset, so no wholesale replace.
            subs.retain(|s| scope.owns(s.id()));
            let image: HashMap<SubId, ()> = subs.iter().map(|s| (s.id(), ())).collect();
            // Applied under the target lock with a liveness re-check: a
            // cutoff acked mid-bootstrap must not race a stale image into
            // the catalog the controller just took ownership of.
            let guard = self.target.lock();
            if !self.live(generation) {
                return;
            }
            for sub in &subs {
                if self.apply_owned_sub(sub).is_err() {
                    return;
                }
            }
            // Reconcile: an owned id present locally but absent from the
            // donor's image was unsubscribed while we were disconnected
            // past the donor's log retention — drop it, or it resurrects.
            // Bounded by the donor's old-ring scope: ids absorbed from
            // *earlier* legs of the same migration are owned by `scope`
            // but were never this donor's, and must survive.
            for id in self.persist.catalog_ids() {
                let from_this_donor = target.donor.as_ref().is_none_or(|d| d.owns(id));
                if scope.owns(id)
                    && from_this_donor
                    && !image.contains_key(&id)
                    && self.apply_owned_unsub(id).is_err()
                {
                    return;
                }
            }
            drop(guard);
            cursor = seq;
            self.cursor.store(cursor, Ordering::SeqCst);
            stats.reshard_pull_seq.store(cursor, Ordering::Relaxed);
            if !pull.ack(cursor) {
                return;
            }
        }

        let mut since_ack = 0u64;
        loop {
            let Some(line) = pull.next_line(cursor, &live) else {
                return;
            };
            let record = match parse_frame(&line, &self.hub.schema) {
                Ok(record) => record,
                Err(_) => {
                    // Never applied, never acked: drop the stream and let
                    // the redial refetch it from the donor's durable log.
                    ServerStats::add(&stats.repl_crc_skipped, 1);
                    return;
                }
            };
            if record.seq <= cursor {
                continue;
            }
            let id = match &record.op {
                ReplayOp::Sub(sub) => sub.id(),
                ReplayOp::Unsub(id) => *id,
            };
            if scope.owns(id) {
                // Lock-and-recheck against a concurrent `RESHARD CUTOFF`:
                // once the cutoff is acked this node owns its catalog, and
                // a frame already in flight — the donor prune's `UNSUB`s
                // chief among them — must not be applied over it.
                let guard = self.target.lock();
                if !self.live(generation) {
                    return;
                }
                let applied = match &record.op {
                    ReplayOp::Sub(sub) => self.apply_owned_sub(sub),
                    ReplayOp::Unsub(id) => self.apply_owned_unsub(*id),
                };
                drop(guard);
                if applied.is_err() {
                    return;
                }
            }
            // The cursor covers non-owned frames too — acking them is
            // what keeps it comparable with the donor's log seq.
            cursor = record.seq;
            self.cursor.store(cursor, Ordering::SeqCst);
            stats.reshard_pull_seq.store(cursor, Ordering::Relaxed);
            since_ack += 1;
            if since_ack >= self.ack_every {
                since_ack = 0;
                if !pull.ack(cursor) {
                    return;
                }
            }
        }
    }
}
