//! OSR-batched ingest pipeline.
//!
//! Publishers push events into a bounded channel (the backpressure
//! boundary: `send` blocks when the queue is full). A single matcher
//! thread drains the queue into an [`OsrBuffer`] window and matches it
//! through the sharded engine, handing the per-event match rows to a sink.
//! A window is matched when it is full, when the item that ends a
//! publisher's frame (a `PUB`, or a `BATCH`'s last event) arrives with the
//! queue empty behind it, or at most `flush_interval` after the oldest
//! buffered event. Windowing shares matching work across whatever is
//! queued; a publisher waiting on its own frame never waits for a timer.

use apcm_bexpr::Event;
use apcm_core::osr::OsrBuffer;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::ServerConfig;
use crate::shard::ShardedEngine;
use crate::stats::ServerStats;

/// One queued publish: the event plus enough routing context to deliver
/// its `RESULT` row back to the publisher.
#[derive(Debug)]
pub struct IngestItem {
    pub conn: u64,
    /// Publisher-scoped event sequence number.
    pub seq: u64,
    pub event: Event,
}

/// Where match results go. Implemented by the broker (delivery to client
/// queues) and by tests (capture).
pub trait ResultSink: Send + Sync + 'static {
    /// Called once per matched window, in window order; `items[i]`
    /// produced `rows[i]`.
    fn on_window(&self, items: &[IngestItem], rows: &[Vec<apcm_bexpr::SubId>]);
}

/// A queued item and whether it ends its publisher's frame.
type Queued = (IngestItem, bool);

/// A handle publishers use to enqueue events (blocking on a full queue).
#[derive(Clone)]
pub struct IngestSender {
    tx: Sender<Queued>,
}

impl IngestSender {
    /// Enqueues a one-event frame (the `PUB` rule).
    pub fn send(&self, item: IngestItem) -> Result<(), SendError<IngestItem>> {
        self.tx
            .send((item, true))
            .map_err(|SendError((item, _))| SendError(item))
    }

    /// Enqueues a frame's events in order, marking only the last as the
    /// frame end. On a closed pipeline the first unsent item comes back.
    pub fn send_frame(&self, items: Vec<IngestItem>) -> Result<(), SendError<IngestItem>> {
        let last = items.len().saturating_sub(1);
        for (i, item) in items.into_iter().enumerate() {
            self.tx
                .send((item, i == last))
                .map_err(|SendError((item, _))| SendError(item))?;
        }
        Ok(())
    }

    /// Events queued and not yet taken by the matcher (`STATS`).
    pub(crate) fn len(&self) -> usize {
        self.tx.len()
    }
}

pub struct IngestPipeline {
    tx: IngestSender,
    worker: Option<JoinHandle<()>>,
}

impl IngestPipeline {
    pub fn start(
        engine: Arc<ShardedEngine>,
        stats: Arc<ServerStats>,
        sink: Arc<dyn ResultSink>,
        config: &ServerConfig,
    ) -> Self {
        let (tx, rx) = bounded::<Queued>(config.ingest_queue);
        let window = config.window;
        let flush_interval = config.flush_interval;
        let worker = std::thread::Builder::new()
            .name("apcm-ingest".into())
            .spawn(move || run_matcher(rx, engine, stats, sink, window, flush_interval))
            .expect("spawning ingest thread");
        Self {
            tx: IngestSender { tx },
            worker: Some(worker),
        }
    }

    /// A handle publishers use to enqueue events (blocking on a full queue).
    pub fn sender(&self) -> IngestSender {
        self.tx.clone()
    }

    /// Current queue depth, for `STATS`.
    pub fn depth(&self) -> usize {
        self.tx.len()
    }

    /// Drops the pipeline's own sender and joins the matcher thread once
    /// every outstanding publisher handle is gone. Remaining queued events
    /// are flushed before the thread exits.
    pub fn shutdown(mut self) {
        drop(self.tx);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn run_matcher(
    rx: Receiver<Queued>,
    engine: Arc<ShardedEngine>,
    stats: Arc<ServerStats>,
    sink: Arc<dyn ResultSink>,
    window: usize,
    flush_interval: Duration,
) {
    // OsrBuffer hands windows back in arrival order (re-ordering is an
    // internal strategy of match_window), so `pending` — the routing
    // context — stays aligned 1:1 with every flushed window.
    let mut pending: Vec<IngestItem> = Vec::new();
    let mut buffer = OsrBuffer::new(window);
    // Set while anything is buffered: when the oldest buffered event's
    // wait runs out. An empty buffer blocks without a timeout.
    let mut deadline: Option<Instant> = None;
    loop {
        let received = match deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        let flushed = match received {
            Ok((item, frame_end)) => {
                let now = Instant::now();
                let due = *deadline.get_or_insert(now + flush_interval);
                let full = buffer.push(item.event.clone());
                pending.push(item);
                if full.is_some() {
                    full
                } else if frame_end && rx.is_empty() {
                    Some(buffer.flush())
                } else if now >= due {
                    ServerStats::add(&stats.windows_timed_out, 1);
                    Some(buffer.flush())
                } else {
                    None
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                ServerStats::add(&stats.windows_timed_out, 1);
                Some(buffer.flush())
            }
            Err(RecvTimeoutError::Disconnected) => {
                let events = buffer.flush();
                if !events.is_empty() {
                    process_window(&engine, &stats, &sink, &mut pending, events);
                }
                return;
            }
        };
        if let Some(events) = flushed {
            deadline = None;
            process_window(&engine, &stats, &sink, &mut pending, events);
        }
    }
}

/// Matches one flushed window and routes results back to their items.
fn process_window(
    engine: &ShardedEngine,
    stats: &ServerStats,
    sink: &Arc<dyn ResultSink>,
    pending: &mut Vec<IngestItem>,
    events: Vec<Event>,
) {
    let t0 = Instant::now();
    let rows = engine.match_window(&events);
    stats.latency.record(t0.elapsed());
    ServerStats::add(&stats.windows, 1);
    ServerStats::add(&stats.events_matched, events.len() as u64);
    ServerStats::add(
        &stats.matches,
        rows.iter().map(|r| r.len() as u64).sum::<u64>(),
    );

    let window_items: Vec<IngestItem> = pending.drain(..events.len()).collect();
    debug_assert!(window_items
        .iter()
        .zip(&events)
        .all(|(item, ev)| item.event == *ev));
    sink.on_window(&window_items, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcm_bexpr::{parser, Schema, SubId};
    use parking_lot::Mutex;

    /// Records every row, and each window's size and arrival time.
    #[derive(Default)]
    struct Capture {
        rows: Mutex<Vec<(u64, u64, Vec<SubId>)>>,
        windows: Mutex<Vec<(usize, Instant)>>,
    }

    impl ResultSink for Capture {
        fn on_window(&self, items: &[IngestItem], rows: &[Vec<SubId>]) {
            let mut out = self.rows.lock();
            for (item, row) in items.iter().zip(rows) {
                out.push((item.conn, item.seq, row.clone()));
            }
            self.windows.lock().push((items.len(), Instant::now()));
        }
    }

    impl Capture {
        /// Polls until `n` rows have arrived or `timeout` passes; returns
        /// how many arrived.
        fn wait_rows(&self, n: usize, timeout: Duration) -> usize {
            let deadline = Instant::now() + timeout;
            loop {
                let seen = self.rows.lock().len();
                if seen >= n || Instant::now() >= deadline {
                    return seen;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        fn window_sizes(&self) -> Vec<usize> {
            self.windows.lock().iter().map(|&(n, _)| n).collect()
        }

        /// Every row is the oracle's: `a0 = s % 4` matches the ids with
        /// `id % 4 == s % 4`.
        fn assert_rows_exact(&self, n: usize) {
            let rows = self.rows.lock();
            assert_eq!(rows.len(), n);
            for (conn, seq, row) in rows.iter() {
                assert_eq!(*conn, 1);
                let expect: Vec<SubId> = (0..8u32)
                    .filter(|id| (id % 4) as u64 == seq % 4)
                    .map(SubId)
                    .collect();
                assert_eq!(row, &expect, "seq {seq}");
            }
        }
    }

    fn schema() -> Schema {
        Schema::uniform(2, 8)
    }

    /// A pipeline over 8 subscriptions `a0 = id % 4` (ids 0..8).
    fn pipeline(
        window: usize,
        flush_interval: Duration,
    ) -> (IngestPipeline, Arc<Capture>, Arc<ServerStats>) {
        let schema = schema();
        let config = ServerConfig {
            shards: 2,
            window,
            flush_interval,
            ..ServerConfig::default()
        };
        let engine = Arc::new(ShardedEngine::new(&schema, &config).unwrap());
        for id in 0..8u32 {
            let text = format!("a0 = {}", id % 4);
            let sub = parser::parse_subscription_with_id(&schema, SubId(id), &text).unwrap();
            engine.subscribe(&sub).unwrap();
        }
        let stats = Arc::new(ServerStats::default());
        let capture = Arc::new(Capture::default());
        let pipeline = IngestPipeline::start(engine, stats.clone(), capture.clone(), &config);
        (pipeline, capture, stats)
    }

    fn item(seq: u64) -> IngestItem {
        let event = parser::parse_event(&schema(), &format!("a0 = {}", seq % 4)).unwrap();
        IngestItem {
            conn: 1,
            seq,
            event,
        }
    }

    /// Enqueues an item that does not end a frame, so only a full window,
    /// the oldest-event deadline or a disconnect can flush it.
    fn send_mid_frame(tx: &IngestSender, seq: u64) {
        tx.tx.send((item(seq), false)).unwrap();
    }

    #[test]
    fn frame_end_flushes_without_waiting_for_the_timer() {
        let (pipeline, capture, stats) = pipeline(128, Duration::from_secs(60));
        let tx = pipeline.sender();
        let t0 = Instant::now();
        tx.send_frame((0..3).map(item).collect()).unwrap();
        assert_eq!(capture.wait_rows(3, Duration::from_secs(5)), 3);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        capture.assert_rows_exact(3);
        assert_eq!(capture.window_sizes(), vec![3]);
        assert_eq!(ServerStats::get(&stats.windows_timed_out), 0);
        drop(tx);
        pipeline.shutdown();
    }

    #[test]
    fn flush_interval_counts_from_the_oldest_event() {
        let interval = Duration::from_millis(300);
        let (pipeline, capture, stats) = pipeline(128, interval);
        let tx = pipeline.sender();
        // A new event every half interval: a deadline that restarted per
        // event would never expire while they keep coming.
        let t0 = Instant::now();
        for seq in 0..8u64 {
            send_mid_frame(&tx, seq);
            std::thread::sleep(interval / 2);
        }
        let first = capture.windows.lock().first().map(|&(_, at)| at - t0);
        let first = first.expect("nothing flushed while events kept arriving");
        assert!(
            first <= interval * 3 / 2,
            "first flush {first:?} after the first event"
        );
        assert!(ServerStats::get(&stats.windows_timed_out) >= 1);
        drop(tx);
        pipeline.shutdown();
        capture.assert_rows_exact(8);
    }

    #[test]
    fn long_frame_fills_windows_then_flushes_the_rest() {
        let (pipeline, capture, stats) = pipeline(128, Duration::from_secs(60));
        let tx = pipeline.sender();
        tx.send_frame((0..300).map(item).collect()).unwrap();
        assert_eq!(capture.wait_rows(300, Duration::from_secs(5)), 300);
        assert_eq!(capture.window_sizes(), vec![128, 128, 44]);
        capture.assert_rows_exact(300);
        assert_eq!(ServerStats::get(&stats.matches), 600);
        assert_eq!(ServerStats::get(&stats.windows_timed_out), 0);
        drop(tx);
        pipeline.shutdown();
    }

    #[test]
    fn disconnect_drains_the_buffer() {
        let (pipeline, capture, stats) = pipeline(128, Duration::from_secs(60));
        let tx = pipeline.sender();
        for seq in 0..5u64 {
            send_mid_frame(&tx, seq);
        }
        drop(tx);
        pipeline.shutdown();
        capture.assert_rows_exact(5);
        assert_eq!(capture.window_sizes(), vec![5]);
        assert_eq!(ServerStats::get(&stats.windows_timed_out), 0);
    }
}
