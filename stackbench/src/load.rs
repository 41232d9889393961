//! The end-to-end run of one workload: five segments, each on a stack of
//! its own — set-up, warm-up, phase A (closed loop), phase B (open loop at
//! the workload's fixed rate), the churn phase, tear-down. A reported value
//! is the median of its five segments.
//!
//! A fresh stack per segment because the servers' throughput settles on a
//! level that lasts as long as their threads do: segments of one stack
//! repeat one level, segments of five sample five.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::{Check, Owner, Publisher};
use crate::gen::Inputs;
use crate::stack::{Scratch, Stack};
use crate::stats::{percentile, reduce, Reduced};
use crate::workloads::{Topology, Workload};

/// Segments per run; a reported value is the median of these.
pub const SEGMENTS: usize = 5;

/// How `--seconds` is spent: each of the `SEGMENTS` segments gets a fifth
/// of it for its measured phases; set-up and warm-up come on top.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub closed: Duration,
    pub open: Duration,
    /// Zero where the churn runs beside phase A.
    pub churn: Duration,
}

impl Timing {
    pub fn split(seconds: f64, workload: &Workload) -> Timing {
        let part = |share: f64| Duration::from_secs_f64(seconds * share / SEGMENTS as f64);
        let (closed, churn) = if workload.churn_beside_reads {
            (0.6, 0.0)
        } else {
            (0.45, 0.15)
        };
        Timing {
            warmup: part(0.2),
            closed: part(closed),
            open: part(0.4),
            churn: part(churn),
        }
    }
}

/// A started stack with its two client connections.
pub struct Running {
    pub stack: Stack,
    pub owner: Owner,
    pub publisher: Publisher,
    pub setup_s: f64,
}

impl Running {
    /// Server start, every subscription over the wire, first correct row.
    pub fn set_up(
        topology: Topology,
        workload: &Workload,
        inputs: &Arc<Inputs>,
        scratch: &Scratch,
    ) -> io::Result<Running> {
        let t0 = Instant::now();
        let stack = Stack::start(&inputs.schema, topology, &scratch.fresh())?;
        let addr = stack.addr();
        let mut owner = Owner::connect(&addr, workload.churn_ids)?;
        owner.load(&inputs.sub_lines)?;
        let check = Check::exact(inputs, &owner.live);
        let mut publisher = Publisher::connect(&addr, inputs.clone(), workload.frame, check)?;
        publisher.closed_step()?;
        publisher.drain()?;
        if publisher.state().failed > 0 {
            return Err(io::Error::other("first RESULT rows differ from the oracle"));
        }
        Ok(Running {
            stack,
            owner,
            publisher,
            setup_s: t0.elapsed().as_secs_f64(),
        })
    }

    pub fn tear_down(self) {
        self.publisher.close();
        self.owner.close();
        self.stack.shutdown();
    }
}

/// Everything one end-to-end run reports.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub events_per_s: Reduced,
    pub pub_p50_us: Reduced,
    pub pub_p99_us: Reduced,
    pub churn_ops_per_s: Reduced,
    pub setup_s: Reduced,
    /// Phase B, per segment: share of sends issued > 1 ms after due.
    pub late_share: Vec<f64>,
    /// Phase B, per segment: latency samples behind the percentiles.
    pub samples: Vec<usize>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub gen_s: f64,
    pub wall_s: f64,
}

impl EndToEnd {
    /// The end-to-end metrics in `metrics::END_TO_END` order.
    pub fn metrics(&self) -> [&Reduced; 5] {
        [
            &self.events_per_s,
            &self.pub_p50_us,
            &self.pub_p99_us,
            &self.churn_ops_per_s,
            &self.setup_s,
        ]
    }
}

/// A start a moment from now, so that threads told the same start agree
/// on when the segment begins and ends.
fn soon() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

/// What one segment measured.
struct Segment {
    setup_s: f64,
    events_per_s: f64,
    latencies_us: Vec<f64>,
    late_share: f64,
    churn_ops_per_s: f64,
    attempted: u64,
    failed: u64,
}

fn segment(
    workload: &Workload,
    inputs: &Arc<Inputs>,
    timing: Timing,
    scratch: &Scratch,
) -> io::Result<Segment> {
    let Running {
        stack,
        mut owner,
        mut publisher,
        setup_s,
    } = Running::set_up(workload.topology, workload, inputs, scratch)?;
    publisher.closed_loop(Instant::now() + timing.warmup)?;

    // Phase A. On the churn workload the owner churns beside it, so rows
    // are held to the stable id range until the churn stops.
    let start = soon();
    let (events_per_s, beside) = if workload.churn_beside_reads {
        publisher.state().check = Check::StableOnly;
        let (closed, churn) = std::thread::scope(|scope| {
            let churner = scope.spawn(|| owner.churn(inputs, start, timing.closed));
            let closed = publisher.segment_closed(start, timing.closed);
            (closed, churner.join().expect("churn thread panicked"))
        });
        // Acked churn must be visible: from here rows must equal the
        // oracle over the stable corpus plus exactly the live slots.
        let settled = owner.settle(inputs)?;
        publisher.state().check = Check::exact(inputs, &owner.live);
        (closed?, Some((churn.0, churn.1 + settled, churn.2)))
    } else {
        (publisher.segment_closed(start, timing.closed)?, None)
    };

    // Phase B.
    let (latencies_us, late_share) = publisher.segment_open(soon(), timing.open, workload.rate)?;

    // Churn alone, then one more checked frame against what it left live.
    let (churn_ops_per_s, churn_attempted, churn_failed) = match beside {
        Some(churn) => churn,
        None => {
            let churn = owner.churn(inputs, soon(), timing.churn);
            publisher.state().check = Check::exact(inputs, &owner.live);
            publisher.closed_step()?;
            publisher.drain()?;
            churn
        }
    };

    let (sent, failed) = {
        let state = publisher.state();
        (state.sent, state.failed)
    };
    publisher.close();
    owner.close();
    stack.shutdown();
    Ok(Segment {
        setup_s,
        events_per_s,
        latencies_us,
        late_share,
        churn_ops_per_s,
        attempted: inputs.sub_lines.len() as u64 + sent + churn_attempted,
        failed: failed + churn_failed,
    })
}

pub fn run(
    workload: &Workload,
    inputs: &Arc<Inputs>,
    timing: Timing,
    scratch: &Scratch,
) -> io::Result<EndToEnd> {
    let wall = Instant::now();
    let segments = (0..SEGMENTS)
        .map(|_| segment(workload, inputs, timing, scratch))
        .collect::<io::Result<Vec<Segment>>>()?;
    let each =
        |value: fn(&Segment) -> f64| reduce(&segments.iter().map(value).collect::<Vec<f64>>());
    Ok(EndToEnd {
        events_per_s: each(|s| s.events_per_s),
        pub_p50_us: each(|s| percentile(&s.latencies_us, 0.50)),
        pub_p99_us: each(|s| percentile(&s.latencies_us, 0.99)),
        churn_ops_per_s: each(|s| s.churn_ops_per_s),
        setup_s: each(|s| s.setup_s),
        late_share: segments.iter().map(|s| s.late_share).collect(),
        samples: segments.iter().map(|s| s.latencies_us.len()).collect(),
        ops_attempted: segments.iter().map(|s| s.attempted).sum(),
        ops_failed: segments.iter().map(|s| s.failed).sum(),
        gen_s: inputs.gen_s,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}
