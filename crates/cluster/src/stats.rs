//! Router-side counters and the `STATS` snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

use apcm_server::DeliveryGauges;

/// Counters shared by every router thread. All relaxed: monitoring data,
/// not synchronization. Mirrors the spirit of `apcm_server::ServerStats`
/// but counts routing work, not matching work — the backends keep their
/// own engine counters.
#[derive(Default)]
pub struct ClusterStats {
    /// Client connections accepted over the router's lifetime.
    pub conns_total: AtomicU64,
    /// Currently open client connections.
    pub conns_active: AtomicU64,
    /// `SUB` commands successfully routed to a backend.
    pub subs_routed: AtomicU64,
    /// `UNSUB` commands successfully routed to a backend.
    pub unsubs_routed: AtomicU64,
    /// Ownership reclaims routed (`CLAIM`, or a `SUB` the backend answered
    /// `+OK claimed`).
    pub claims_routed: AtomicU64,
    /// Events accepted for fan-out.
    pub events_in: AtomicU64,
    /// Scatter-gather windows executed.
    pub windows: AtomicU64,
    /// Total (event, subscription) match pairs in merged rows.
    pub matches: AtomicU64,
    /// Windows served with one or more backends unreachable — the merged
    /// rows were flagged `partial`.
    pub cluster_degraded: AtomicU64,
    /// Backend requests that failed with an I/O error (each one marks the
    /// backend down until the health sweep reconnects it).
    pub backend_errors: AtomicU64,
    /// Successful backend reconnects by the health sweep.
    pub backend_reconnects: AtomicU64,
    /// Health probes that hit the per-probe read deadline: the node
    /// accepted the connection but stalled instead of answering `ROLE`.
    /// Counted separately from `backend_errors` because a stalling node
    /// is a distinct failure mode from a refused dial — and before the
    /// deadline existed, one such node wedged the whole sweep.
    pub backend_probe_timeouts: AtomicU64,
    /// `RESHARD ADD`/`REMOVE` migrations accepted.
    pub reshards_started: AtomicU64,
    /// Migrations driven to completion (ring swapped, state cleared).
    pub reshards_completed: AtomicU64,
    /// Per-leg ownership flips (moved ids re-aimed at the puller).
    pub reshard_flips: AtomicU64,
    /// Churn commands copied to the puller during a leg's double-write
    /// phase (the donor's ack stays authoritative).
    pub reshard_double_writes: AtomicU64,
    /// `RESHARD PULL` re-issues by the migration controller after the
    /// puller reported idle/disconnected (either side died mid-leg).
    pub reshard_pull_restarts: AtomicU64,
    /// Protocol errors returned to clients (including `-ERR backend ...
    /// unavailable` refusals for churn routed at a down backend).
    pub protocol_errors: AtomicU64,
    /// Lines rejected for exceeding the router's `max_line_bytes`.
    pub oversized_lines: AtomicU64,
    /// Partitions re-aimed at a promoted standby after their active node
    /// was marked down.
    pub failovers: AtomicU64,
    /// `PROMOTE` commands the router issued (failovers plus the sweep's
    /// designation reconciliation).
    pub promotions: AtomicU64,
    /// `DEMOTE` commands the router issued (returning ex-primaries folded
    /// back in as followers).
    pub demotions: AtomicU64,
    /// Full summary bitsets fetched from backends by the health sweep
    /// (epoch-unchanged round trips are not counted: nothing shipped).
    pub summary_refreshes: AtomicU64,
    /// Backends skipped by scatter because their cached summary proved no
    /// subscription there could match any event in the window.
    pub backends_pruned: AtomicU64,
    /// Scatter windows served by a read-eligible follower instead of the
    /// partition's primary.
    pub reads_follower_served: AtomicU64,
    /// Scatter windows that wanted a follower but found every live one
    /// below the churn-ack floor, falling back to the primary — the
    /// seq-floor guard refusing a potentially stale read.
    pub reads_floor_fallbacks: AtomicU64,
    /// Per-window backend sends actually performed by scatter.
    pub fanouts_sent: AtomicU64,
    /// Per-window backend sends a summary-blind scatter would have made
    /// (windows × partitions). `fanouts_sent / fanouts_possible` is the
    /// pruned fan-out ratio; 1.0 means pruning never skipped anything.
    pub fanouts_possible: AtomicU64,
}

impl ClusterStats {
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(counter: &AtomicU64, n: u64) {
        counter.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Renders the `STATS` body: `key value` lines, one per metric, plus
    /// the membership gauges passed in by the router. `backends` counts
    /// partitions (the wire-visible slots, unchanged by replication);
    /// `nodes` counts every server in the table. `delivery` carries the
    /// client-side delivery counters and the event loop's gauges.
    pub fn render(
        &self,
        backends: usize,
        backends_up: usize,
        nodes: usize,
        nodes_up: usize,
        delivery: DeliveryGauges,
    ) -> String {
        let mut out = String::new();
        let mut push = |key: &str, value: u64| {
            out.push_str(key);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        };
        push("conns_total", Self::get(&self.conns_total));
        push("conns_active", Self::get(&self.conns_active));
        push("connections_open", delivery.connections_open);
        push("epoll_wakeups", delivery.epoll_wakeups);
        push("outbound_queue_lines", delivery.outbound_queue_lines);
        push("subs_routed", Self::get(&self.subs_routed));
        push("unsubs_routed", Self::get(&self.unsubs_routed));
        push("claims_routed", Self::get(&self.claims_routed));
        push("events_in", Self::get(&self.events_in));
        push("windows", Self::get(&self.windows));
        push("matches", Self::get(&self.matches));
        push("cluster_degraded", Self::get(&self.cluster_degraded));
        push("backend_errors", Self::get(&self.backend_errors));
        push("backend_reconnects", Self::get(&self.backend_reconnects));
        push(
            "backend_probe_timeouts",
            Self::get(&self.backend_probe_timeouts),
        );
        push("reshards_started", Self::get(&self.reshards_started));
        push("reshards_completed", Self::get(&self.reshards_completed));
        push("reshard_flips", Self::get(&self.reshard_flips));
        push(
            "reshard_double_writes",
            Self::get(&self.reshard_double_writes),
        );
        push(
            "reshard_pull_restarts",
            Self::get(&self.reshard_pull_restarts),
        );
        push("replies_sent", delivery.replies_sent);
        push("replies_dropped", delivery.replies_dropped);
        push("protocol_errors", Self::get(&self.protocol_errors));
        push("oversized_lines", Self::get(&self.oversized_lines));
        push("failovers", Self::get(&self.failovers));
        push("promotions", Self::get(&self.promotions));
        push("demotions", Self::get(&self.demotions));
        push("summary_refreshes", Self::get(&self.summary_refreshes));
        push("backends_pruned", Self::get(&self.backends_pruned));
        push(
            "reads_follower_served",
            Self::get(&self.reads_follower_served),
        );
        push(
            "reads_floor_fallbacks",
            Self::get(&self.reads_floor_fallbacks),
        );
        push("fanouts_sent", Self::get(&self.fanouts_sent));
        push("fanouts_possible", Self::get(&self.fanouts_possible));
        push("backends", backends as u64);
        push("backends_up", backends_up as u64);
        push("nodes", nodes as u64);
        push("nodes_up", nodes_up as u64);
        let sent = Self::get(&self.fanouts_sent);
        let possible = Self::get(&self.fanouts_possible);
        // The one non-integer line: the fraction of possible backend sends
        // scatter actually made. 1.000 until pruning first skips a backend.
        let ratio = if possible == 0 {
            1.0
        } else {
            sent as f64 / possible as f64
        };
        out.push_str(&format!("pruned_fanout_ratio {ratio:.3}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_membership_gauges() {
        let stats = ClusterStats::default();
        ClusterStats::add(&stats.windows, 3);
        ClusterStats::add(&stats.cluster_degraded, 1);
        let text = stats.render(3, 2, 6, 5, DeliveryGauges::default());
        assert!(text.contains("windows 3\n"));
        assert!(text.contains("cluster_degraded 1\n"));
        assert!(text.contains("backends 3\n"));
        assert!(text.contains("backends_up 2\n"));
        assert!(text.contains("nodes 6\n"));
        assert!(text.contains("nodes_up 5\n"));
        assert!(text.contains("failovers 0\n"));
        assert!(text.contains("claims_routed 0\n"));
    }

    #[test]
    fn pruned_fanout_ratio_tracks_sent_over_possible() {
        let stats = ClusterStats::default();
        // No windows yet: degenerate ratio pins to 1.0 (no pruning seen).
        assert!(stats
            .render(1, 1, 1, 1, DeliveryGauges::default())
            .contains("pruned_fanout_ratio 1.000\n"));
        ClusterStats::add(&stats.fanouts_possible, 8);
        ClusterStats::add(&stats.fanouts_sent, 6);
        ClusterStats::add(&stats.backends_pruned, 2);
        let text = stats.render(1, 1, 1, 1, DeliveryGauges::default());
        assert!(text.contains("pruned_fanout_ratio 0.750\n"), "{text}");
        assert!(text.contains("backends_pruned 2\n"));
        assert!(text.contains("summary_refreshes 0\n"));
    }
}
