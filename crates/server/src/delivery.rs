//! Outbound delivery over the netio event loop, shared by the broker and
//! the cluster router: the push path onto a connection's outbound queue,
//! the slow-consumer policy applied when that queue is full, the owners
//! map `EVENT` notifications are routed through, and the counters `STATS`
//! reports for all of it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use apcm_bexpr::{Event, Schema, SubId};
use apcm_netio::{ConnId, LoopHandle, SendOutcome};
use parking_lot::RwLock;

use crate::config::SlowConsumerPolicy;
use crate::protocol;

/// Delivery to one event loop's connections.
pub struct Delivery {
    policy: SlowConsumerPolicy,
    /// A `OnceLock` because delivery must exist (the broker's ingest
    /// pipeline sinks into it) before the loop, which reaches it through
    /// its service, can start.
    handle: OnceLock<Arc<LoopHandle>>,
    /// Which connection owns (receives `EVENT` notifications for) each id.
    pub owners: RwLock<HashMap<SubId, ConnId>>,
    /// Lines queued on client connections: replies, `RESULT` and `EVENT`.
    pub(crate) replies_sent: AtomicU64,
    /// `RESULT`/`EVENT` lines dropped because a consumer's queue was full.
    pub(crate) replies_dropped: AtomicU64,
    /// Connections force-closed by the slow-consumer policy.
    pub(crate) slow_disconnects: AtomicU64,
}

/// What `STATS` reports about delivery: a [`Delivery`]'s counters and its
/// event loop's gauges (zeros before the loop has started).
#[derive(Debug, Default, Clone, Copy)]
pub struct DeliveryGauges {
    pub replies_sent: u64,
    pub replies_dropped: u64,
    pub slow_disconnects: u64,
    pub connections_open: u64,
    pub epoll_wakeups: u64,
    pub outbound_queue_lines: u64,
    pub conns_rejected: u64,
}

impl Delivery {
    pub fn new(policy: SlowConsumerPolicy) -> Self {
        Delivery {
            policy,
            handle: OnceLock::new(),
            owners: RwLock::new(HashMap::new()),
            replies_sent: AtomicU64::new(0),
            replies_dropped: AtomicU64::new(0),
            slow_disconnects: AtomicU64::new(0),
        }
    }

    /// Publishes the loop's handle; later calls are no-ops. A service
    /// calls this from `on_open` as well as after `EventLoop::start`
    /// returns: a connection accepted in between may already need its
    /// replies routed.
    pub fn attach(&self, handle: &Arc<LoopHandle>) {
        let _ = self.handle.set(handle.clone());
    }

    /// The loop's handle, once attached.
    pub(crate) fn handle(&self) -> Option<&Arc<LoopHandle>> {
        self.handle.get()
    }

    /// Queues an asynchronous line (`RESULT`, `EVENT`) on a connection's
    /// bounded outbound queue, applying the slow-consumer policy when it
    /// is full. Unknown connections (already closed) discard silently.
    fn push_line(&self, conn: ConnId, line: String) {
        let Some(handle) = self.handle.get() else {
            return;
        };
        match handle.try_send(conn, line) {
            SendOutcome::Sent => {
                self.replies_sent.fetch_add(1, Ordering::Relaxed);
            }
            SendOutcome::Full => match self.policy {
                SlowConsumerPolicy::Drop => {
                    self.replies_dropped.fetch_add(1, Ordering::Relaxed);
                }
                SlowConsumerPolicy::Disconnect => {
                    self.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                    handle.kick(conn);
                }
            },
            SendOutcome::Gone => {}
        }
    }

    /// Queues a control reply (an ack or a request's answer) on the
    /// connection's uncapped path: replies are never dropped, and a loop
    /// worker never stalls on one connection's queue, which `EPOLLOUT`
    /// drains regardless.
    pub fn reply(&self, conn: ConnId, line: String) {
        if let Some(handle) = self.handle.get() {
            let _ = handle.send(conn, line);
            self.replies_sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Delivers one matched event: its `RESULT` row (flagged `partial`
    /// when some partition could not be matched) to the publishing
    /// connection, then an `EVENT` notification to each matched id's
    /// owner.
    pub fn deliver(
        &self,
        schema: &Schema,
        conn: ConnId,
        seq: u64,
        event: &Event,
        row: &[SubId],
        partial: bool,
    ) {
        self.push_line(conn, protocol::render_result_ext(seq, row, partial));
        for &id in row {
            let owner = self.owners.read().get(&id).copied();
            if let Some(owner) = owner {
                self.push_line(
                    owner,
                    protocol::render_event_notification(id, event, schema),
                );
            }
        }
    }

    /// A snapshot of the counters and loop gauges for `STATS`.
    pub fn gauges(&self) -> DeliveryGauges {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut gauges = DeliveryGauges {
            replies_sent: get(&self.replies_sent),
            replies_dropped: get(&self.replies_dropped),
            slow_disconnects: get(&self.slow_disconnects),
            ..DeliveryGauges::default()
        };
        if let Some(handle) = self.handle.get() {
            let m = handle.metrics();
            gauges.connections_open = get(&m.connections_open);
            gauges.epoll_wakeups = get(&m.epoll_wakeups);
            gauges.outbound_queue_lines = get(&m.outbound_queued_lines);
            gauges.conns_rejected = get(&m.conns_rejected);
        }
        gauges
    }
}
