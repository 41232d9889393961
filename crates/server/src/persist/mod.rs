//! Durable subscription state: snapshot + append-log persistence and
//! crash recovery for the broker's live subscription set.
//!
//! Layout of the persist directory:
//!
//! * `snapshot.apcm` — checksummed full snapshot (see [`snapshot`]),
//!   written atomically (temp file + rename) by the maintenance sweep,
//!   the `SNAPSHOT` admin command, or log-size rotation. Always binary
//!   block-columnar colstore v2; a legacy text v1 file is refused at
//!   open (see [`snapshot`]).
//! * `snapshot-delta-N.col` + `snapshot.manifest` — colstore delta
//!   snapshots: age-triggered background snapshots re-serialize only the
//!   partitions dirtied since the chain's last element, chained onto the
//!   full by the manifest. Deltas never rotate the churn log (only fulls
//!   do), so dropping a corrupt delta on recovery is always healed by
//!   log replay.
//! * `churn.log` — append-only SUB/UNSUB records with per-record CRC and
//!   monotone sequence numbers (see [`log`]); rotated after every
//!   successful *full* snapshot, retaining any records that landed while
//!   the snapshot was being compressed and written.
//!
//! Snapshot writes split *prepare* (capture + columnarize, under the
//! append lock just long enough to clone the catalog) from
//! *compress + fsync* (outside the lock) — churn acks keep flowing while
//! a snapshot is on disk's time.
//!
//! Recovery loads the snapshot (if any), replays log records with a higher
//! sequence, truncates torn tails, skips CRC-invalid records, and reports
//! exactly what was dropped — corruption is counted, never a panic.
//!
//! The write path is **ack-after-append**: a `SUB`/`UNSUB` is applied to
//! the in-memory engine first, then logged; if the append fails the engine
//! change is rolled back and the client sees `-ERR`, so acknowledged churn
//! always equals durable churn. Append failures put the persister into a
//! *degraded* state: churn is refused (fast) while matching continues,
//! the maintenance sweep retries with exponential backoff, and the
//! `STATS` counters surface everything.

pub mod crc;
pub mod failpoint;
pub mod log;
pub mod snapshot;

use apcm_bexpr::{BexprError, Schema, SubId, Subscription};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::{FsyncPolicy, PersistConfig};
use crate::replication::{send_chunk, FollowerConn, ReplicationHub};
use crate::ring::RingScope;
use crate::shard::{route_partition, ShardedEngine};
use crate::stats::ServerStats;
use apcm_colstore::{b64, Manifest};
use log::{ChurnLog, ChurnOp, ReplayOp, ReplayRecord};

/// Why a churn operation was rejected.
#[derive(Debug)]
pub enum ChurnError {
    /// The expression itself is invalid — the engine never saw it.
    Engine(BexprError),
    /// The engine accepted it but the durable append failed; the engine
    /// change was rolled back.
    Persist(String),
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::Engine(e) => write!(f, "bad subscription: {e}"),
            ChurnError::Persist(msg) => write!(f, "persist: {msg}"),
        }
    }
}

/// What startup recovery found. Rendered by `apcm serve` and exposed via
/// [`crate::Server::recovery_report`].
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Subscriptions restored from the snapshot.
    pub snapshot_subs: usize,
    /// Log sequence the snapshot covered.
    pub snapshot_seq: u64,
    /// Set when a snapshot existed but was corrupt (recovery continued
    /// from the log alone).
    pub snapshot_error: Option<String>,
    /// Log records applied on top of the snapshot.
    pub log_records_applied: u64,
    /// Log records skipped because the snapshot already covered them.
    pub log_records_obsolete: u64,
    /// CRC-invalid or unparseable records dropped.
    pub corrupt_records_dropped: u64,
    /// Torn-tail bytes truncated off the log.
    pub truncated_bytes: u64,
    /// UNSUB records whose id was not live (double-unsub across a crash).
    pub unknown_unsubs: u64,
    /// Delta snapshot files applied on top of the full snapshot.
    pub snapshot_deltas_applied: u64,
    /// Delta snapshot files dropped (they or a predecessor failed
    /// validation); the chain fell back to its last consistent prefix and
    /// log replay covered the difference.
    pub snapshot_deltas_dropped: u64,
    /// Live subscriptions after recovery.
    pub live_subs: usize,
    /// Human-readable notes about everything dropped.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// Whether recovery had to drop anything.
    pub fn is_clean(&self) -> bool {
        self.snapshot_error.is_none()
            && self.corrupt_records_dropped == 0
            && self.truncated_bytes == 0
            && self.snapshot_deltas_dropped == 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovered {} live subscription(s): {} from snapshot (seq {}), {} log record(s) replayed",
            self.live_subs, self.snapshot_subs, self.snapshot_seq, self.log_records_applied
        )?;
        if let Some(err) = &self.snapshot_error {
            writeln!(f, "  snapshot unusable: {err}")?;
        }
        if self.snapshot_deltas_applied > 0 || self.snapshot_deltas_dropped > 0 {
            writeln!(
                f,
                "  delta chain: {} applied, {} dropped",
                self.snapshot_deltas_applied, self.snapshot_deltas_dropped
            )?;
        }
        if self.corrupt_records_dropped > 0 || self.truncated_bytes > 0 {
            writeln!(
                f,
                "  dropped {} corrupt record(s), truncated {} torn byte(s)",
                self.corrupt_records_dropped, self.truncated_bytes
            )?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// Result of one snapshot pass.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotOutcome {
    pub subs: usize,
    pub seq: u64,
    pub bytes: u64,
    /// `true` when this pass wrote a delta file instead of a full.
    pub delta: bool,
}

struct PersistInner {
    log: ChurnLog,
    /// `false` after an append/sync failure until a retry succeeds.
    healthy: bool,
    next_retry: Instant,
    backoff: Duration,
    last_snapshot: Instant,
    /// Per-partition sequence of the most recent mutation; a partition is
    /// dirty (needs re-serializing into the next delta) when its entry
    /// exceeds the chain's covered sequence.
    dirty_seq: Vec<u64>,
    /// The on-disk full+delta chain this process has written, if any.
    /// `None` until the first full snapshot of this process lifetime —
    /// chains deliberately don't survive restarts (the first background
    /// snapshot after a restart is always a full), which keeps delta
    /// bookkeeping purely in-memory.
    chain: Option<Manifest>,
}

/// The durability layer: owns the churn log, the canonical catalog of live
/// subscriptions (the snapshot source), and the degraded/retry state.
pub struct Persister {
    config: PersistConfig,
    schema: Schema,
    stats: Arc<ServerStats>,
    /// Partition count snapshots and bootstrap blocks are routed with
    /// (the serving shard count).
    partitions: u32,
    /// Serializes churn appends and log rotation — the ordering of
    /// log records always equals the ordering of engine mutations.
    inner: Mutex<PersistInner>,
    /// Serializes whole snapshot passes (SNAPSHOT verb vs maintenance
    /// thread) without blocking churn: the compress+fsync phase runs with
    /// only this held.
    snap_lock: Mutex<()>,
    /// Canonical live set, keyed by id. Updated only after a successful
    /// append, so it never disagrees with the durable state.
    catalog: RwLock<HashMap<SubId, Subscription>>,
    /// Live `REPLICATE` follower streams; every durable append is fanned
    /// out to them (under `inner`, so followers see append order).
    repl: ReplicationHub,
    recovery: RecoveryReport,
}

/// How a `REPLICATE <from_seq>` handshake was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStart {
    /// The retained log covered `from_seq`: this many backlog frames were
    /// shipped, live tail follows.
    Log { backlog: usize },
    /// `from_seq` predated the retained log (or was ahead of the primary —
    /// stale promote leftovers), or the follower asked for a `reset`: the
    /// full catalog was shipped at `seq` as compressed colstore blocks
    /// (base64 `BLOCK` lines).
    Colstore {
        blocks: usize,
        subs: usize,
        seq: u64,
    },
    /// The follower was *ahead* of this primary but the primary still
    /// retains its own head frame: nothing was shipped; the follower was
    /// told to verify its frame at `seq` against `crc` and rewind locally
    /// (discarding only its divergent — necessarily unacked — suffix).
    Truncate { seq: u64, crc: u32 },
}

impl Persister {
    /// Opens (or creates) the persist directory, runs recovery, and
    /// returns the persister plus the recovered subscriptions in ascending
    /// id order, ready for [`ShardedEngine::bulk_restore`].
    pub fn open(
        config: PersistConfig,
        schema: Schema,
        stats: Arc<ServerStats>,
        partitions: usize,
    ) -> io::Result<(Self, Vec<Subscription>)> {
        let partitions = partitions.max(1) as u32;
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        std::fs::create_dir_all(&config.dir)?;

        let mut report = RecoveryReport::default();
        let mut catalog: HashMap<SubId, Subscription> = HashMap::new();
        let mut base_seq = 0u64;
        match snapshot::load(&config.dir, &schema) {
            Ok(Some(snap)) => {
                report.snapshot_subs = snap.subs.len();
                report.snapshot_seq = snap.seq;
                report.snapshot_deltas_applied = snap.deltas_applied;
                report.snapshot_deltas_dropped = snap.deltas_dropped;
                report.notes.extend(snap.notes.iter().cloned());
                base_seq = snap.seq;
                for sub in snap.subs {
                    catalog.insert(sub.id(), sub);
                }
            }
            Ok(None) => {}
            Err(snapshot::SnapshotError::Corrupt(msg)) => {
                report.snapshot_error = Some(msg.clone());
                report
                    .notes
                    .push(format!("snapshot discarded as corrupt: {msg}"));
            }
            Err(snapshot::SnapshotError::SchemaMismatch(msg)) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
            Err(snapshot::SnapshotError::Io(e)) => return Err(e),
        }

        let replay = log::replay(&config.dir, &schema)?;
        report.corrupt_records_dropped += replay.corrupt_skipped;
        report.truncated_bytes += replay.truncated_bytes;
        report.notes.extend(replay.notes.iter().cloned());
        for record in &replay.records {
            if record.seq <= base_seq {
                report.log_records_obsolete += 1;
                continue;
            }
            report.log_records_applied += 1;
            match &record.op {
                ReplayOp::Sub(sub) => {
                    catalog.insert(sub.id(), sub.clone());
                }
                ReplayOp::Unsub(id) => {
                    if catalog.remove(id).is_none() {
                        report.unknown_unsubs += 1;
                    }
                }
            }
        }
        let last_seq = base_seq.max(replay.last_seq);
        report.live_subs = catalog.len();

        ServerStats::add(&stats.recovered_subs, report.live_subs as u64);
        ServerStats::add(&stats.recovery_log_applied, report.log_records_applied);
        ServerStats::add(
            &stats.recovery_corrupt_dropped,
            report.corrupt_records_dropped + u64::from(report.snapshot_error.is_some()),
        );
        ServerStats::add(&stats.recovery_truncated_bytes, report.truncated_bytes);
        ServerStats::add(
            &stats.recovery_deltas_dropped,
            report.snapshot_deltas_dropped,
        );

        // The oldest retained record bounds what a replication stream can
        // serve without a snapshot bootstrap.
        let retained_base = replay
            .records
            .first()
            .map(|r| r.seq.saturating_sub(1))
            .unwrap_or(last_seq);
        let log = ChurnLog::open(&config.dir, last_seq, retained_base)?;
        let now = Instant::now();
        let mut restored: Vec<Subscription> = catalog.values().cloned().collect();
        restored.sort_by_key(|s| s.id());
        let persister = Self {
            inner: Mutex::new(PersistInner {
                log,
                healthy: true,
                next_retry: now,
                backoff: config.retry_backoff,
                last_snapshot: now,
                dirty_seq: vec![0; partitions as usize],
                chain: None,
            }),
            config,
            schema,
            stats,
            partitions,
            snap_lock: Mutex::new(()),
            catalog: RwLock::new(catalog),
            repl: ReplicationHub::default(),
            recovery: report,
        };
        Ok((persister, restored))
    }

    /// What startup recovery found.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Whether churn is currently refused pending a retry.
    pub fn is_degraded(&self) -> bool {
        !self.inner.lock().healthy
    }

    fn fsync_per_append(&self) -> bool {
        self.config.fsync == FsyncPolicy::Always
    }

    /// Degradation bookkeeping after a failed append/sync.
    fn note_failure(&self, inner: &mut PersistInner) {
        ServerStats::add(&self.stats.persist_errors, 1);
        if inner.healthy {
            inner.backoff = self.config.retry_backoff;
        } else {
            inner.backoff = (inner.backoff * 2).min(self.config.max_retry_backoff);
        }
        inner.healthy = false;
        inner.next_retry = Instant::now() + inner.backoff;
        self.stats
            .persist_degraded
            .store(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn note_success(&self, inner: &mut PersistInner) {
        if !inner.healthy {
            inner.healthy = true;
            inner.backoff = self.config.retry_backoff;
            self.stats
                .persist_degraded
                .store(0, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Gate for churn while degraded: fail fast inside the backoff window,
    /// attempt a repair when one is due.
    fn gate(&self, inner: &mut PersistInner) -> Result<(), ChurnError> {
        if inner.healthy {
            return Ok(());
        }
        if Instant::now() < inner.next_retry {
            return Err(ChurnError::Persist(
                "durable log degraded; retry in progress".into(),
            ));
        }
        ServerStats::add(&self.stats.persist_retries, 1);
        match inner.log.repair() {
            Ok(()) => Ok(()), // the append below is the real probe
            Err(e) => {
                self.note_failure(inner);
                Err(ChurnError::Persist(format!("retry failed: {e}")))
            }
        }
    }

    /// Records that `id`'s partition mutated at `seq` — the next delta
    /// snapshot must re-serialize it.
    fn mark_dirty(&self, inner: &mut PersistInner, id: SubId, seq: u64) {
        inner.dirty_seq[route_partition(id, self.partitions as usize)] = seq;
    }

    /// Applies a SUB through engine + log with rollback. `Ok(Some(seq))`
    /// carries the appended record's durable log sequence — the churn ack
    /// reports it so the router can anchor its promotion/read floor to a
    /// real sequence. `Ok(None)` for a duplicate id (nothing written).
    pub fn apply_sub(
        &self,
        engine: &ShardedEngine,
        sub: &Subscription,
    ) -> Result<Option<u64>, ChurnError> {
        let mut inner = self.inner.lock();
        self.gate(&mut inner)?;
        match engine.subscribe(sub) {
            Ok(true) => {}
            Ok(false) => return Ok(None),
            Err(e) => return Err(ChurnError::Engine(e)),
        }
        match inner
            .log
            .append(&ChurnOp::Sub(sub), &self.schema, self.fsync_per_append())
        {
            Ok(seq) => {
                ServerStats::add(&self.stats.persist_appends, 1);
                self.note_success(&mut inner);
                self.mark_dirty(&mut inner, sub.id(), seq);
                self.catalog.write().insert(sub.id(), sub.clone());
                self.fan_out(&ChurnOp::Sub(sub), seq);
                Ok(Some(seq))
            }
            Err(e) => {
                engine.unsubscribe(sub.id());
                self.note_failure(&mut inner);
                Err(ChurnError::Persist(e.to_string()))
            }
        }
    }

    /// Applies an UNSUB through engine + log with rollback. `Ok(Some(seq))`
    /// carries the appended record's durable log sequence; `Ok(None)`
    /// when the id was not live (nothing written).
    pub fn apply_unsub(
        &self,
        engine: &ShardedEngine,
        id: SubId,
    ) -> Result<Option<u64>, ChurnError> {
        let mut inner = self.inner.lock();
        self.gate(&mut inner)?;
        if !engine.unsubscribe(id) {
            return Ok(None);
        }
        match inner
            .log
            .append(&ChurnOp::Unsub(id), &self.schema, self.fsync_per_append())
        {
            Ok(seq) => {
                ServerStats::add(&self.stats.persist_appends, 1);
                self.note_success(&mut inner);
                self.mark_dirty(&mut inner, id, seq);
                self.catalog.write().remove(&id);
                self.fan_out(&ChurnOp::Unsub(id), seq);
                Ok(Some(seq))
            }
            Err(e) => {
                // Roll the engine back from the catalog copy (still present
                // because the catalog is only updated after a good append).
                if let Some(sub) = self.catalog.read().get(&id).cloned() {
                    let _ = engine.subscribe(&sub);
                }
                self.note_failure(&mut inner);
                Err(ChurnError::Persist(e.to_string()))
            }
        }
    }

    /// Writes a full snapshot of the live set and rotates the log (keeping
    /// any records that land mid-write). Churn pauses only for the catalog
    /// capture, not for the compress+fsync phase.
    pub fn snapshot(&self) -> io::Result<SnapshotOutcome> {
        self.snapshot_pass(false)
    }

    /// Like [`Self::snapshot`], but writes a *delta* file (dirty
    /// partitions only, chained by the manifest) when a full already
    /// exists, fewer than `max_delta_chain`
    /// deltas are stacked, and some partitions are still clean. Falls back
    /// to a full snapshot otherwise.
    pub fn snapshot_incremental(&self) -> io::Result<SnapshotOutcome> {
        self.snapshot_pass(true)
    }

    fn snapshot_pass(&self, allow_delta: bool) -> io::Result<SnapshotOutcome> {
        // One snapshot at a time; churn is NOT blocked by this lock.
        let _guard = self.snap_lock.lock();

        // Prepare phase: capture a consistent (seq, catalog) pair and
        // decide full vs delta, holding the append lock only for the
        // clone. `snap_lock` keeps the chain state we read here stable.
        let (seq, subs, delta_plan) = {
            let inner = self.inner.lock();
            let seq = inner.log.seq();
            let mut subs: Vec<Subscription> = self.catalog.read().values().cloned().collect();
            subs.sort_by_key(|s| s.id());
            let plan = if allow_delta && self.config.max_delta_chain > 0 {
                inner.chain.as_ref().and_then(|chain| {
                    if chain.deltas.len() as u32 >= self.config.max_delta_chain {
                        return None;
                    }
                    let covered = chain.covered_seq();
                    let dirty: Vec<u32> = inner
                        .dirty_seq
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| **s > covered)
                        .map(|(p, _)| p as u32)
                        .collect();
                    // A delta only pays off while some partitions stayed
                    // clean; all-dirty (or nothing to do) means full.
                    (!dirty.is_empty() && dirty.len() < self.partitions as usize)
                        .then(|| (chain.clone(), dirty))
                })
            } else {
                None
            };
            (seq, subs, plan)
        };

        // Compress + fsync phase: no locks held except `snap_lock`, so
        // churn acks keep flowing while the snapshot hits the disk.
        if let Some((chain, dirty)) = delta_plan {
            match snapshot::write_delta(
                &self.config.dir,
                &self.schema,
                &subs,
                seq,
                self.partitions,
                &dirty,
                &chain,
            ) {
                Ok((bytes, next)) => {
                    let mut inner = self.inner.lock();
                    inner.chain = Some(next);
                    inner.last_snapshot = Instant::now();
                    ServerStats::add(&self.stats.snapshots_taken, 1);
                    ServerStats::add(&self.stats.snapshot_deltas_taken, 1);
                    // The log is deliberately NOT rotated: a corrupt delta
                    // discovered on recovery must be healable by replay.
                    Ok(SnapshotOutcome {
                        subs: subs.len(),
                        seq,
                        bytes,
                        delta: true,
                    })
                }
                Err(e) => {
                    ServerStats::add(&self.stats.snapshot_errors, 1);
                    Err(e)
                }
            }
        } else {
            match snapshot::write(&self.config.dir, &self.schema, &subs, seq, self.partitions) {
                Ok((bytes, chain)) => {
                    let mut inner = self.inner.lock();
                    // Keep any churn that landed during compress+fsync.
                    inner.log.rotate_retaining(seq)?;
                    inner.chain = Some(chain);
                    inner.last_snapshot = Instant::now();
                    ServerStats::add(&self.stats.snapshots_taken, 1);
                    Ok(SnapshotOutcome {
                        subs: subs.len(),
                        seq,
                        bytes,
                        delta: false,
                    })
                }
                Err(e) => {
                    ServerStats::add(&self.stats.snapshot_errors, 1);
                    Err(e)
                }
            }
        }
    }

    /// Periodic work, called from the broker's maintenance sweep (the
    /// event loop's tick):
    /// interval fsync, degraded-log repair retries (with backoff), and
    /// background snapshotting — size-triggered passes force a full
    /// (rotating the log back down), age-triggered passes may write a
    /// delta. Snapshots run after the append lock is released, so churn
    /// is never blocked behind a background snapshot.
    pub fn maintenance_tick(&self) {
        let (due_full, due_incremental) = {
            let mut inner = self.inner.lock();

            if !inner.healthy && Instant::now() >= inner.next_retry {
                ServerStats::add(&self.stats.persist_retries, 1);
                match inner.log.repair() {
                    Ok(()) => self.note_success(&mut inner),
                    Err(_) => self.note_failure(&mut inner),
                }
            }

            if inner.healthy && self.config.fsync == FsyncPolicy::Interval {
                if let Err(_e) = inner.log.sync() {
                    self.note_failure(&mut inner);
                }
            }

            let due_by_age = self
                .config
                .snapshot_interval
                .map(|iv| inner.last_snapshot.elapsed() >= iv)
                .unwrap_or(false);
            let due_by_size = inner.log.len_bytes() >= self.config.rotate_log_bytes;
            (
                inner.healthy && due_by_size,
                inner.healthy && !due_by_size && due_by_age && inner.log.len_bytes() > 0,
            )
        };
        if due_full {
            let _ = self.snapshot();
        } else if due_incremental {
            let _ = self.snapshot_incremental();
        }
    }

    /// Final flush on graceful shutdown: make everything appended durable.
    /// (No snapshot — the log replays equivalently on the next start.)
    pub fn flush(&self) {
        let mut inner = self.inner.lock();
        if inner.log.sync().is_err() {
            self.note_failure(&mut inner);
        }
    }

    /// Number of live subscriptions in the durable catalog.
    pub fn catalog_len(&self) -> usize {
        self.catalog.read().len()
    }

    /// Sorted ids of every live catalog subscription — the work list for
    /// `RESHARD PRUNE` and the resharding puller's bootstrap reconcile.
    pub fn catalog_ids(&self) -> Vec<SubId> {
        let mut ids: Vec<SubId> = self.catalog.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Current churn-log size in bytes (for `STATS`).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log.len_bytes()
    }

    /// Highest durable sequence (log cursor).
    pub fn current_seq(&self) -> u64 {
        self.inner.lock().log.seq()
    }

    /// Re-renders a just-appended record as a wire frame and fans it out
    /// to live followers. Called with `inner` held so the per-follower
    /// queues observe exact append order; a no-op without followers.
    fn fan_out(&self, op: &ChurnOp<'_>, seq: u64) {
        if !self.repl.has_followers() {
            return;
        }
        let frame = log::render_frame(seq, op, &self.schema);
        self.repl.broadcast(&frame, seq, &self.stats);
    }

    /// Answers a `REPLICATE <from_seq>` handshake: decides log-tail vs
    /// snapshot bootstrap, queues the header + backlog as one chunk on the
    /// follower connection's outbound channel, and registers the stream
    /// for live fan-out — all under the append lock, so no record is
    /// missed or duplicated between backlog and tail.
    ///
    /// `scope` (a resharding pull) restricts the **bootstrap catalog** to
    /// the subscriptions the scope owns. It deliberately does NOT filter
    /// the log tail or the live stream: the receiver skips non-owned
    /// frames itself, so its `REPLACK` cursor counts every source
    /// sequence and stays directly comparable with this log's seq — the
    /// property the migration double-write floor handshake relies on.
    ///
    /// `reset` (the follower's trailing `reset` token) forces the
    /// wholesale-bootstrap path even when a covered-suffix truncate would
    /// apply — the follower sends it after a failed CRC probe.
    pub fn begin_stream(
        &self,
        follower_id: u64,
        from_seq: u64,
        reset: bool,
        scope: Option<&RingScope>,
        conn: Box<dyn FollowerConn>,
    ) -> io::Result<StreamStart> {
        let inner = self.inner.lock();
        let current = inner.log.seq();
        let base = inner.log.base_seq();
        let start = if from_seq >= base && from_seq <= current {
            let frames = inner.log.frames_after(from_seq)?;
            let mut chunk = format!("+OK replicate log {}", frames.len());
            for frame in &frames {
                chunk.push('\n');
                chunk.push_str(frame);
            }
            let backlog = frames.len();
            send_chunk(&*conn, chunk).map_err(io::Error::other)?;
            self.repl.register(follower_id, conn, from_seq);
            StreamStart::Log { backlog }
        } else if let Some(crc) = (!reset && scope.is_none() && from_seq > current)
            .then(|| Self::frame_crc_at(&inner.log, current))
            .flatten()
        {
            // The follower is ahead (an unacked suffix from an old
            // promotion) and we still retain our head frame: offer a
            // covered-suffix truncate. The follower verifies its own
            // frame at `current` against our CRC; a match proves the
            // histories agree up to `current`, so it rewinds locally with
            // zero transferred state and tails from there. A mismatch
            // makes it redial with `reset` for the wholesale bootstrap.
            let chunk = format!("+OK replicate truncate {current} {crc:08x}");
            send_chunk(&*conn, chunk).map_err(io::Error::other)?;
            // Register at cursor 0, not `current`: nothing is verified
            // until the follower CRC-probes its own frame at `current`
            // and acks the rewind. Registering at `current` would fold an
            // as-yet-unverified (possibly divergent) follower into
            // `min_acked`, overstating the chain's durability horizon in
            // ROLE/TOPOLOGY until the CRC mismatch disconnects it. The
            // follower's first `REPLACK` after the rewind raises the
            // cursor to its true verified progress.
            self.repl.register(follower_id, conn, 0);
            StreamStart::Truncate { seq: current, crc }
        } else {
            // The follower predates the retained log (rotation), asked
            // for a `reset`, or is ahead of a primary whose head frame is
            // no longer retained: ship the whole catalog at the current
            // sequence (scoped pulls get only their owned subset).
            let mut subs: Vec<Subscription> = match scope {
                Some(scope) => self
                    .catalog
                    .read()
                    .values()
                    .filter(|s| scope.owns(s.id()))
                    .cloned()
                    .collect(),
                None => self.catalog.read().values().cloned().collect(),
            };
            subs.sort_by_key(|s| s.id());
            // The same prepare+compress path the snapshot writer uses,
            // shipped as base64 `BLOCK` lines in one chunk. The follower
            // CRC-checks every block and refetches the whole bootstrap on
            // any mismatch.
            let blocks = snapshot::prepare_blocks(&subs, &self.schema, self.partitions, None)?;
            let mut chunk = format!(
                "+OK replicate colstore {} {} {current}",
                blocks.len(),
                subs.len()
            );
            for block in &blocks {
                chunk.push('\n');
                chunk.push_str(&format!(
                    "BLOCK {} {} {} {:08x} {}",
                    block.partition,
                    block.rows,
                    block.raw_len,
                    block.crc,
                    b64::encode(&block.data)
                ));
            }
            ServerStats::add(&self.stats.repl_bootstrap_bytes, chunk.len() as u64 + 1);
            send_chunk(&*conn, chunk).map_err(io::Error::other)?;
            self.repl.register(follower_id, conn, from_seq.min(current));
            StreamStart::Colstore {
                blocks: blocks.len(),
                subs: subs.len(),
                seq: current,
            }
        };
        self.stats.repl_followers.store(
            self.repl.follower_count() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        Ok(start)
    }

    /// CRC field of the retained log frame at exactly `seq`, if present
    /// (`seq` must fall inside the retained window `(base, head]`).
    fn frame_crc_at(log: &ChurnLog, seq: u64) -> Option<u32> {
        if seq == 0 || seq <= log.base_seq() {
            return None;
        }
        let frames = log.frames_after(seq - 1).ok()?;
        frames.iter().find_map(|f| {
            let mut it = f.split(' ');
            let crc = u32::from_str_radix(it.next()?, 16).ok()?;
            (it.next()?.parse::<u64>().ok()? == seq).then_some(crc)
        })
    }

    /// CRC field of this node's own log frame at `seq` — the follower
    /// side of the truncate handshake probes its local history with this
    /// before agreeing to rewind.
    pub fn local_frame_crc(&self, seq: u64) -> Option<u32> {
        Self::frame_crc_at(&self.inner.lock().log, seq)
    }

    /// Records a follower's `REPLACK` and refreshes the lag gauge.
    pub fn follower_ack(&self, follower_id: u64, acked_seq: u64) {
        let current = self.current_seq();
        let lag = self.repl.ack(follower_id, acked_seq, current);
        self.stats
            .repl_lag_records
            .store(lag, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drops a follower stream (its connection closed). Idempotent.
    pub fn remove_follower(&self, follower_id: u64) {
        self.repl.remove(follower_id);
        let count = self.repl.follower_count() as u64;
        self.stats
            .repl_followers
            .store(count, std::sync::atomic::Ordering::Relaxed);
        if count == 0 {
            self.stats
                .repl_lag_records
                .store(0, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Number of live follower streams.
    pub fn follower_count(&self) -> usize {
        self.repl.follower_count()
    }

    /// Minimum `REPLACK`ed sequence across live followers (own seq with
    /// none) — what `ROLE` reports as `acked` so the router's promotion
    /// floor tracks the chain's durably confirmed progress.
    pub fn followers_min_acked(&self) -> u64 {
        self.repl.min_acked(self.current_seq())
    }

    /// Applies one replicated record on a follower: engine first, then the
    /// frame is appended *verbatim* (primary's sequence and CRC) to the
    /// local log, with the same rollback discipline as the client churn
    /// path. Returns `Ok(false)` for an already-applied sequence (stream
    /// overlap after a reconnect) — nothing written.
    pub fn apply_replicated(
        &self,
        engine: &ShardedEngine,
        frame: &str,
        record: &ReplayRecord,
    ) -> Result<bool, ChurnError> {
        let mut inner = self.inner.lock();
        if record.seq <= inner.log.seq() {
            return Ok(false);
        }
        self.gate(&mut inner)?;
        // Engine apply is best-effort idempotent: a duplicate SUB or an
        // unknown UNSUB can legitimately arrive after a bootstrap overlap;
        // the frame is still appended so the local log mirrors the stream.
        let engine_added = match &record.op {
            ReplayOp::Sub(sub) => match engine.subscribe(sub) {
                Ok(added) => added,
                Err(e) => return Err(ChurnError::Engine(e)),
            },
            ReplayOp::Unsub(id) => {
                engine.unsubscribe(*id);
                false
            }
        };
        match inner
            .log
            .append_frame(frame, record.seq, self.fsync_per_append())
        {
            Ok(()) => {
                ServerStats::add(&self.stats.persist_appends, 1);
                self.note_success(&mut inner);
                match &record.op {
                    ReplayOp::Sub(sub) => {
                        self.mark_dirty(&mut inner, sub.id(), record.seq);
                        self.catalog.write().insert(sub.id(), sub.clone());
                    }
                    ReplayOp::Unsub(id) => {
                        self.mark_dirty(&mut inner, *id, record.seq);
                        self.catalog.write().remove(id);
                    }
                }
                // Chain hop: forward the frame *verbatim* (the primary's
                // sequence and CRC survive every hop) to any followers
                // replicating from this node — persisted here first, so
                // each hop only forwards what it can itself re-serve.
                if self.repl.has_followers() {
                    self.repl.broadcast(frame, record.seq, &self.stats);
                }
                Ok(true)
            }
            Err(e) => {
                match &record.op {
                    ReplayOp::Sub(sub) => {
                        if engine_added {
                            engine.unsubscribe(sub.id());
                        }
                    }
                    ReplayOp::Unsub(id) => {
                        if let Some(sub) = self.catalog.read().get(id).cloned() {
                            let _ = engine.subscribe(&sub);
                        }
                    }
                }
                self.note_failure(&mut inner);
                Err(ChurnError::Persist(e.to_string()))
            }
        }
    }

    /// Replaces the follower's entire local state with the primary's
    /// snapshot at `seq`: engine contents swapped, a local snapshot
    /// written, and the log truncated with both cursors jumped to `seq`.
    /// Returns `(removed, restored)` subscription counts.
    pub fn bootstrap_replace(
        &self,
        engine: &ShardedEngine,
        mut subs: Vec<Subscription>,
        seq: u64,
    ) -> io::Result<(usize, usize)> {
        subs.sort_by_key(|s| s.id());
        // Exclude concurrent snapshot passes: both mutate the chain state
        // and the on-disk manifest.
        let _guard = self.snap_lock.lock();
        let mut inner = self.inner.lock();
        let mut catalog = self.catalog.write();
        let removed = catalog.len();
        for id in catalog.keys() {
            engine.unsubscribe(*id);
        }
        engine
            .bulk_restore(&subs)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (_, chain) =
            snapshot::write(&self.config.dir, &self.schema, &subs, seq, self.partitions)?;
        inner.log.rotate_to(seq)?;
        inner.last_snapshot = Instant::now();
        inner.chain = Some(chain);
        inner.dirty_seq.fill(seq);
        *catalog = subs.iter().map(|s| (s.id(), s.clone())).collect();
        ServerStats::add(&self.stats.snapshots_taken, 1);
        // History just jumped: downstream chain followers must
        // re-handshake against the new log rather than silently skip the
        // sequence gap.
        self.repl.kick_all(&self.stats);
        Ok((removed, subs.len()))
    }

    /// Covered-suffix rewind — the follower side of the `truncate`
    /// handshake. The primary confirmed (by frame CRC) that this node's
    /// history agrees with its own up to `seq`, so the local suffix past
    /// `seq` is divergent-but-unacked (the router's promotion floor never
    /// elects a primary below the acked sequence) and can be discarded
    /// without any state transfer: the catalog at `seq` is rebuilt from
    /// the local snapshot + log prefix and installed through the same
    /// wholesale-swap path a bootstrap uses (which also truncates the log
    /// to `seq` and kicks downstream chain followers). Returns the
    /// installed catalog so the caller can rebuild its liveness maps.
    pub fn rewind_to(&self, engine: &ShardedEngine, seq: u64) -> io::Result<Vec<Subscription>> {
        let mut catalog: HashMap<SubId, Subscription> = HashMap::new();
        let mut base = 0u64;
        match snapshot::load(&self.config.dir, &self.schema) {
            Ok(Some(snap)) => {
                if snap.seq > seq {
                    return Err(io::Error::other(format!(
                        "local snapshot at {} already covers {seq}; cannot rewind",
                        snap.seq
                    )));
                }
                base = snap.seq;
                for sub in snap.subs {
                    catalog.insert(sub.id(), sub);
                }
            }
            Ok(None) => {}
            Err(snapshot::SnapshotError::Io(e)) => return Err(e),
            Err(e) => {
                return Err(io::Error::other(format!("rewind snapshot load: {e:?}")));
            }
        }
        let replay = log::replay(&self.config.dir, &self.schema)?;
        for record in &replay.records {
            if record.seq <= base || record.seq > seq {
                continue;
            }
            match &record.op {
                ReplayOp::Sub(sub) => {
                    catalog.insert(sub.id(), sub.clone());
                }
                ReplayOp::Unsub(id) => {
                    catalog.remove(id);
                }
            }
        }
        let subs: Vec<Subscription> = catalog.into_values().collect();
        self.bootstrap_replace(engine, subs.clone(), seq)?;
        ServerStats::add(&self.stats.repl_truncates, 1);
        Ok(subs)
    }
}
