//! The four named workloads. Names, shapes and `rate`s are frozen: later
//! changes cite them, so a different shape is a new workload, not an edit.

/// Which servers a workload starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `Server`, clients connect to it directly.
    Direct,
    /// `ClusterHandle::start` with this many unreplicated backends.
    Routed { backends: usize },
    /// `ClusterHandle::start_chained`: one partition, a primary plus this
    /// many followers, persistence on.
    Chained { followers: usize },
}

/// How the publisher frames events on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// `BATCH <n>` frames, one in flight.
    Batch(usize),
    /// Single `PUB` lines, at most this many events awaiting their `RESULT`.
    Pipelined(usize),
}

impl Frame {
    /// Events that may await their `RESULT` at once. A server drops rows
    /// for a connection with `conn_queue` (1024) lines queued, and every
    /// event is answered by two lines, an ack and a row.
    pub fn max_in_flight(self) -> u64 {
        match self {
            Frame::Batch(n) => (512 / n).max(1) as u64 * n as u64,
            Frame::Pipelined(n) => n as u64,
        }
    }

    /// Events per closed-loop step and per trace window.
    pub fn events(self) -> usize {
        match self {
            Frame::Batch(n) | Frame::Pipelined(n) => n,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Stable subscriptions loaded during set-up, ids `0..subs`.
    pub subs: usize,
    /// Attributes per event; `None` keeps the BE-Gen default (15).
    pub event_size: Option<usize>,
    /// Predicates per subscription, inclusive (BE-Gen default 3..=7).
    pub sub_preds: (usize, usize),
    pub topology: Topology,
    pub frame: Frame,
    /// Distinct events; the publisher cycles through them in order, so the
    /// event behind `RESULT <seq>` is `pool[seq % pool]`.
    pub pool: usize,
    /// Open-loop send rate of phase B in events/s: half of the seed
    /// commit's median `events_per_s`, two significant figures. Never
    /// re-derived at run time.
    pub rate: f64,
    /// Churn ids `subs..subs + churn_ids`, disjoint from the stable range.
    pub churn_ids: usize,
    /// `true`: the owner churns while the publisher runs phase A.
    /// `false`: it churns alone in phase C, after the publish phases.
    pub churn_beside_reads: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match-100k",
        why: "100k selective subscriptions on one direct server, BATCH 256: encoding and the compressed kernel are the largest costs, so kernel changes show here and wire changes should not",
        subs: 100_000,
        event_size: None,
        // With the default 3..=7 an event matches ~38 of 100k subscriptions
        // and rendering their EVENT lines is 9/10 of the cost; 5..=9 leaves
        // ~0.4 matches per event, so the kernel is what is measured.
        sub_preds: (5, 9),
        topology: Topology::Direct,
        frame: Frame::Batch(256),
        pool: 2048,
        rate: 7400.0,
        churn_ids: 5_000,
        churn_beside_reads: false,
    },
    Workload {
        name: "wire-2k",
        why: "2k subscriptions, 5-attribute events as pipelined PUB lines: parse, netio, ingest and reply rendering dominate, so wire changes show here and kernel changes should not",
        subs: 2_000,
        event_size: Some(5),
        sub_preds: (3, 7),
        topology: Topology::Direct,
        frame: Frame::Pipelined(256),
        pool: 8192,
        rate: 20000.0,
        churn_ids: 5_000,
        churn_beside_reads: false,
    },
    Workload {
        name: "routed-3x",
        why: "12k subscriptions ring-placed on 3 backends behind the router, BATCH 64: scatter/gather, per-backend round trips and merge over kernels of only ~4k each; the recorded case of routed below direct",
        subs: 12_000,
        event_size: None,
        sub_preds: (3, 7),
        topology: Topology::Routed { backends: 3 },
        frame: Frame::Batch(64),
        pool: 8192,
        rate: 2900.0,
        churn_ids: 5_000,
        churn_beside_reads: false,
    },
    Workload {
        name: "churn-repl",
        why: "20k stable subscriptions on a persistent primary+follower chain while the owner churns 5k other ids beside BATCH 64 reads: log append, replication ack and follower reads do the work",
        subs: 20_000,
        event_size: None,
        sub_preds: (3, 7),
        topology: Topology::Chained { followers: 1 },
        frame: Frame::Batch(64),
        pool: 8192,
        rate: 1800.0,
        churn_ids: 5_000,
        churn_beside_reads: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `--smoke`: corpora, churn range and pool divided so every workload
    /// finishes in a second or two; names and shapes stay.
    pub fn shrunk(&self, divisor: usize) -> Workload {
        Workload {
            subs: (self.subs / divisor).max(200),
            churn_ids: (self.churn_ids / divisor).max(50),
            pool: (self.pool / divisor / self.frame.events()).max(2) * self.frame.events(),
            ..self.clone()
        }
    }
}
