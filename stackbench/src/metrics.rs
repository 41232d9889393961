//! Every metric by name, unit and direction. `BENCHMARK.json` at the root
//! of the repository lists the same tables; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A client-observed metric, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "pub_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pub_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "churn_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The module measured.
    pub layer: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 39] = [
    layer("encoding", "encode_us_per_event", "us", Lower),
    layer("core", "core_us_per_event", "us", Lower),
    layer("core", "kernel_us_per_event", "us", Lower),
    layer("core", "pcm_kernel_us_per_event", "us", Lower),
    layer("core", "kernel_prune_ratio", "ratio", Higher),
    layer("core", "matches_per_event", "count", Lower),
    layer("core", "state_bytes_per_sub", "bytes", Lower),
    layer("server.shard", "shard_us_per_event", "us", Lower),
    layer("server.shard", "shard_skew", "ratio", Lower),
    layer("server.shard", "subscribe_us", "us", Lower),
    layer("server.ingest", "ingest_us_per_event", "us", Lower),
    layer("server.ingest", "window_fill", "ratio", Higher),
    layer("server.protocol", "parse_us_per_event", "us", Lower),
    layer("server.protocol", "render_us_per_event", "us", Lower),
    layer("server.protocol", "bytes_in_per_event", "bytes", Lower),
    layer("server.protocol", "bytes_out_per_event", "bytes", Lower),
    layer("server.broker", "broker_us_per_event", "us", Lower),
    layer("server.broker", "epoll_wakeups_per_event", "count", Lower),
    layer("server.broker", "delivery_ratio", "ratio", Higher),
    layer("server.broker", "replies_dropped", "count", Lower),
    layer("cluster.router", "router_us_per_event", "us", Lower),
    layer("cluster.router", "merge_us_per_event", "us", Lower),
    layer("cluster.router", "fanout_ratio", "ratio", Lower),
    layer("server.persist", "append_us_per_op", "us", Lower),
    layer("server.persist", "snapshot_ms", "ms", Lower),
    layer("server.persist", "recovery_ms", "ms", Lower),
    layer("server.persist", "snapshot_bytes_per_sub", "bytes", Lower),
    layer("server.replication", "repl_ack_us", "us", Lower),
    layer("server.replication", "repl_lag_records", "count", Lower),
    layer("server.replication", "follower_read_share", "ratio", Higher),
    layer("cluster.router", "self_us.cluster.router", "us", Lower),
    layer("server.broker", "self_us.server.broker", "us", Lower),
    layer("server.protocol", "self_us.server.protocol", "us", Lower),
    layer("server.ingest", "self_us.server.ingest", "us", Lower),
    layer("server.shard", "self_us.server.shard", "us", Lower),
    layer("core", "self_us.core", "us", Lower),
    layer("encoding", "self_us.encoding", "us", Lower),
    layer("stackbench", "waterfall_us_per_event", "us", Lower),
    layer("stackbench", "trace_overhead_pct", "%", Lower),
];
