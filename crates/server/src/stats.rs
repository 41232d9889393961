//! Lock-free server counters and the `STATS` snapshot.

use apcm_core::MaintenanceReport;

use crate::delivery::DeliveryGauges;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Power-of-two latency histogram in microseconds: bucket `i` counts
/// samples in `[2^i, 2^(i+1))` µs, with bucket 0 catching sub-µs samples
/// and the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 20;

#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros() as u64;
        let idx = (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Smallest bucket upper bound (µs) covering `q` of the samples, or
    /// `None` with no samples. Coarse by construction — buckets are
    /// powers of two — but monotone and cheap.
    pub fn quantile_upper_bound_us(&self, q: f64) -> Option<u64> {
        let snap = self.snapshot();
        let total: u64 = snap.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (total as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, &count) in snap.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (LATENCY_BUCKETS - 1))
    }
}

/// Counters shared by every server thread. All relaxed: these are
/// monitoring data, not synchronization.
#[derive(Default)]
pub struct ServerStats {
    /// Events accepted into the ingest queue.
    pub events_in: AtomicU64,
    /// Events matched (windows fully processed).
    pub events_matched: AtomicU64,
    /// Windows flushed through the engine.
    pub windows: AtomicU64,
    /// Of `windows`, those flushed because the oldest buffered event had
    /// waited `flush_interval` (not full, and no frame end found the
    /// queue idle). Reads 0 under closed-loop traffic.
    pub windows_timed_out: AtomicU64,
    /// Total (event, subscription) match pairs produced.
    pub matches: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub conns_total: AtomicU64,
    /// Currently open connections.
    pub conns_active: AtomicU64,
    /// Successful SUB commands.
    pub subs_added: AtomicU64,
    /// Successful UNSUB commands.
    pub subs_removed: AtomicU64,
    /// Ownership reclaims: `CLAIM` commands plus `SUB`s whose expression
    /// was byte-identical to the live subscription (takeover).
    pub subs_reclaimed: AtomicU64,
    /// Protocol errors returned to clients.
    pub protocol_errors: AtomicU64,
    /// Lines rejected (and discarded) for exceeding `max_line_bytes`.
    pub oversized_lines: AtomicU64,
    /// Connections closed by the idle-reaping sweep.
    pub idle_reaped: AtomicU64,
    /// Churn records durably appended to the log.
    pub persist_appends: AtomicU64,
    /// Failed appends/syncs (each rolled back and surfaced as `-ERR`).
    pub persist_errors: AtomicU64,
    /// Repair/retry attempts made while degraded.
    pub persist_retries: AtomicU64,
    /// Gauge: 1 while the durable log is degraded (churn refused), else 0.
    pub persist_degraded: AtomicU64,
    /// Snapshots successfully written (background, rotation, or SNAPSHOT).
    pub snapshots_taken: AtomicU64,
    /// Snapshot attempts that failed (previous snapshot left intact).
    pub snapshot_errors: AtomicU64,
    /// Of `snapshots_taken`, how many were delta files chained onto the
    /// last full.
    pub snapshot_deltas_taken: AtomicU64,
    /// Subscriptions restored at startup (snapshot + log replay).
    pub recovered_subs: AtomicU64,
    /// Log records replayed on top of the snapshot at startup.
    pub recovery_log_applied: AtomicU64,
    /// Corrupt records (or snapshots) dropped during recovery.
    pub recovery_corrupt_dropped: AtomicU64,
    /// Torn-tail bytes truncated off the log during recovery.
    pub recovery_truncated_bytes: AtomicU64,
    /// Delta snapshot files dropped during recovery because they (or a
    /// predecessor in the chain) failed validation.
    pub recovery_deltas_dropped: AtomicU64,
    /// Gauge: live `REPLICATE` follower streams on this (primary) server.
    pub repl_followers: AtomicU64,
    /// Churn record frames shipped to followers.
    pub repl_records_sent: AtomicU64,
    /// Bytes shipped over replication streams (frames + newlines).
    pub repl_bytes: AtomicU64,
    /// Gauge: records the slowest follower still lacks (primary side), or
    /// how far this replica trails its primary's announced sequence.
    pub repl_lag_records: AtomicU64,
    /// Gauge: highest replicated sequence applied locally (replica side).
    pub repl_applied_seq: AtomicU64,
    /// Streamed records rejected by the CRC/frame check (skipped, counted,
    /// never applied).
    pub repl_crc_skipped: AtomicU64,
    /// Times the replica puller redialed its primary.
    pub repl_reconnects: AtomicU64,
    /// Gauge: 1 while the replica puller holds a live stream to its
    /// primary, else 0 (always 0 on a primary).
    pub repl_connected: AtomicU64,
    /// Snapshot bootstraps applied by this replica (wholesale state
    /// replacement on handshake).
    pub repl_bootstraps: AtomicU64,
    /// Covered-suffix truncations: handshakes resolved by rewinding the
    /// follower's local log instead of a wholesale bootstrap.
    pub repl_truncates: AtomicU64,
    /// `REPLACK`s that covered more than one applied record (drained-batch
    /// acks on the follower's pull stream).
    pub replacks_pipelined: AtomicU64,
    /// Bytes shipped in bootstrap chunks (text frames or colstore blocks)
    /// answering `REPLICATE` handshakes on this primary.
    pub repl_bootstrap_bytes: AtomicU64,
    /// Churn refused because the id routes outside this node's ring
    /// ownership (`-ERR not owner`, see `RESHARD PRUNE`).
    pub not_owner_refusals: AtomicU64,
    /// Records applied by the resharding puller (owned SUB/UNSUBs taken
    /// over from a migration source).
    pub reshard_pull_applied: AtomicU64,
    /// Catalog ids durably unsubscribed by `RESHARD PRUNE`.
    pub reshard_pruned: AtomicU64,
    /// Gauge: 1 while a resharding pull stream is configured, else 0.
    pub reshard_pulling: AtomicU64,
    /// Gauge: the source sequence the resharding puller has covered (its
    /// `REPLACK` cursor — counts *all* frames seen, owned or not, so it
    /// is comparable with the source's log seq).
    pub reshard_pull_seq: AtomicU64,
    /// Role transitions: replica -> primary (`PROMOTE`).
    pub promotions: AtomicU64,
    /// Role transitions: primary -> replica (`DEMOTE`).
    pub demotions: AtomicU64,
    /// Gauge: 1 while this server is a read-only replica, else 0.
    pub role_replica: AtomicU64,
    /// Background maintenance passes that did work.
    pub maintenance_passes: AtomicU64,
    /// Aggregate `MaintenanceReport` fields across all passes and shards.
    pub maintenance_folded: AtomicU64,
    pub maintenance_rebuilt: AtomicU64,
    pub maintenance_dropped: AtomicU64,
    /// Per-window matching latency (queue pop to results ready).
    pub latency: LatencyHistogram,
}

impl ServerStats {
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(counter: &AtomicU64, n: u64) {
        counter.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    pub fn record_maintenance(&self, report: &MaintenanceReport) {
        if report.is_noop() {
            return;
        }
        Self::add(&self.maintenance_passes, 1);
        Self::add(&self.maintenance_folded, report.folded_pending as u64);
        Self::add(&self.maintenance_rebuilt, report.rebuilt_clusters as u64);
        Self::add(&self.maintenance_dropped, report.dropped_clusters as u64);
    }

    /// Renders the `STATS` body: `key value` lines, one per metric.
    /// Transport-independent so the CLI can reuse it on shutdown.
    /// `kernel_counters` is the engine's lifetime `(probes, prunes, hits)`
    /// (see [`crate::ShardedEngine::kernel_counters`]).
    /// `summary` is the engine's `(epoch, bits_set, rebuilds)` triple for
    /// the coarse predicate-space summary served to cluster routers.
    /// `delivery` carries the delivery counters and the event loop's
    /// gauges; the loop counts admission-cap refusals itself.
    pub fn render(
        &self,
        per_shard_subs: &[usize],
        ingest_depth: usize,
        kernel_counters: (u64, u64, u64),
        summary: (u64, u64, u64),
        delivery: DeliveryGauges,
    ) -> String {
        let mut out = String::new();
        let mut push = |key: &str, value: u64| {
            out.push_str(key);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        };
        push("events_in", Self::get(&self.events_in));
        push("events_matched", Self::get(&self.events_matched));
        push("windows", Self::get(&self.windows));
        push("windows_timed_out", Self::get(&self.windows_timed_out));
        push("matches", Self::get(&self.matches));
        push("replies_sent", delivery.replies_sent);
        push("replies_dropped", delivery.replies_dropped);
        push("slow_disconnects", delivery.slow_disconnects);
        push("conns_total", Self::get(&self.conns_total));
        push("conns_active", Self::get(&self.conns_active));
        push("conns_rejected", delivery.conns_rejected);
        push("connections_open", delivery.connections_open);
        push("epoll_wakeups", delivery.epoll_wakeups);
        push("outbound_queue_lines", delivery.outbound_queue_lines);
        push("subs_added", Self::get(&self.subs_added));
        push("subs_removed", Self::get(&self.subs_removed));
        push("subs_reclaimed", Self::get(&self.subs_reclaimed));
        push("protocol_errors", Self::get(&self.protocol_errors));
        push("oversized_lines", Self::get(&self.oversized_lines));
        push("idle_reaped", Self::get(&self.idle_reaped));
        push("persist_appends", Self::get(&self.persist_appends));
        push("persist_errors", Self::get(&self.persist_errors));
        push("persist_retries", Self::get(&self.persist_retries));
        push("persist_degraded", Self::get(&self.persist_degraded));
        push("snapshots_taken", Self::get(&self.snapshots_taken));
        push("snapshot_errors", Self::get(&self.snapshot_errors));
        push(
            "snapshot_deltas_taken",
            Self::get(&self.snapshot_deltas_taken),
        );
        push("recovered_subs", Self::get(&self.recovered_subs));
        push(
            "recovery_log_applied",
            Self::get(&self.recovery_log_applied),
        );
        push(
            "recovery_corrupt_dropped",
            Self::get(&self.recovery_corrupt_dropped),
        );
        push(
            "recovery_truncated_bytes",
            Self::get(&self.recovery_truncated_bytes),
        );
        push(
            "recovery_deltas_dropped",
            Self::get(&self.recovery_deltas_dropped),
        );
        push("repl_followers", Self::get(&self.repl_followers));
        push("repl_records_sent", Self::get(&self.repl_records_sent));
        push("repl_bytes", Self::get(&self.repl_bytes));
        push("repl_lag_records", Self::get(&self.repl_lag_records));
        push("repl_applied_seq", Self::get(&self.repl_applied_seq));
        push("repl_crc_skipped", Self::get(&self.repl_crc_skipped));
        push("repl_reconnects", Self::get(&self.repl_reconnects));
        push("repl_connected", Self::get(&self.repl_connected));
        push("repl_bootstraps", Self::get(&self.repl_bootstraps));
        push("repl_truncates", Self::get(&self.repl_truncates));
        push("replacks_pipelined", Self::get(&self.replacks_pipelined));
        push(
            "repl_bootstrap_bytes",
            Self::get(&self.repl_bootstrap_bytes),
        );
        push("not_owner_refusals", Self::get(&self.not_owner_refusals));
        push(
            "reshard_pull_applied",
            Self::get(&self.reshard_pull_applied),
        );
        push("reshard_pruned", Self::get(&self.reshard_pruned));
        push("reshard_pulling", Self::get(&self.reshard_pulling));
        push("reshard_pull_seq", Self::get(&self.reshard_pull_seq));
        push("promotions", Self::get(&self.promotions));
        push("demotions", Self::get(&self.demotions));
        push("role_replica", Self::get(&self.role_replica));
        push("maintenance_passes", Self::get(&self.maintenance_passes));
        push("maintenance_folded", Self::get(&self.maintenance_folded));
        push("maintenance_rebuilt", Self::get(&self.maintenance_rebuilt));
        push("maintenance_dropped", Self::get(&self.maintenance_dropped));
        push("ingest_queue_depth", ingest_depth as u64);
        let (summary_epoch, summary_bits, summary_rebuilds) = summary;
        push("summary_epoch", summary_epoch);
        push("summary_bits_set", summary_bits);
        push("summary_rebuilds", summary_rebuilds);
        let (probes, prunes, hits) = kernel_counters;
        push("kernel_probes", probes);
        push("kernel_prunes", prunes);
        push("kernel_hits", hits);
        for (i, &n) in per_shard_subs.iter().enumerate() {
            push(&format!("shard_{i}_subs"), n as u64);
        }
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            if let Some(us) = self.latency.quantile_upper_bound_us(q) {
                push(&format!("window_latency_{label}_us_le"), us);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap[0], 1); // sub-µs
        assert_eq!(snap[1], 1); // [1,2)
        assert_eq!(snap[2], 1); // [2,4)
        assert_eq!(snap[10], 1); // [512,1024) ... 1000µs
        assert_eq!(snap.iter().sum::<u64>(), 4);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_upper_bound_us(0.5), None);
        for us in [1u64, 2, 4, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_upper_bound_us(0.5).unwrap();
        let p99 = h.quantile_upper_bound_us(0.99).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn render_includes_shards_and_counters() {
        let stats = ServerStats::default();
        ServerStats::add(&stats.events_in, 7);
        let none = DeliveryGauges::default();
        let text = stats.render(&[3, 4], 2, (0, 0, 0), (1, 0, 0), none);
        assert!(text.contains("events_in 7\n"));
        assert!(text.contains("windows_timed_out 0\n"));
        assert!(text.contains("shard_0_subs 3\n"));
        assert!(text.contains("shard_1_subs 4\n"));
        assert!(text.contains("ingest_queue_depth 2\n"));
        assert!(text.contains("persist_appends 0\n"));
        assert!(text.contains("recovered_subs 0\n"));
        assert!(text.contains("idle_reaped 0\n"));
        assert!(text.contains("oversized_lines 0\n"));
        assert!(text.contains("subs_reclaimed 0\n"));
        assert!(text.contains("conns_rejected 0\n"));
        assert!(text.contains("summary_epoch 1\n"));
        assert!(text.contains("kernel_probes 0\n"));

        let text = stats.render(&[3, 4], 2, (10, 4, 6), (4, 12, 1), none);
        assert!(text.contains("summary_epoch 4\n"));
        assert!(text.contains("summary_bits_set 12\n"));
        assert!(text.contains("summary_rebuilds 1\n"));
        assert!(text.contains("kernel_probes 10\n"));
        assert!(text.contains("kernel_prunes 4\n"));
        assert!(text.contains("kernel_hits 6\n"));
    }

    #[test]
    fn render_reports_event_loop_gauges() {
        let stats = ServerStats::default();
        let delivery = DeliveryGauges {
            replies_dropped: 2,
            connections_open: 9,
            epoll_wakeups: 100,
            outbound_queue_lines: 3,
            conns_rejected: 5,
            ..DeliveryGauges::default()
        };
        let text = stats.render(&[1], 0, (0, 0, 0), (1, 0, 0), delivery);
        assert!(text.contains("replies_dropped 2\n"));
        assert!(text.contains("conns_rejected 5\n"));
        assert!(text.contains("connections_open 9\n"));
        assert!(text.contains("epoll_wakeups 100\n"));
        assert!(text.contains("outbound_queue_lines 3\n"));
    }
}
