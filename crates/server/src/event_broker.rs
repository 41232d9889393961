//! The broker's plug-in for the `apcm-netio` event loop.
//!
//! [`BrokerService`] adapts the per-line dispatcher
//! ([`crate::request::on_conn_line`]) to [`apcm_netio::Service`]: the
//! loop frames byte-capped lines and drives idle reaping; this adapter
//! supplies the protocol semantics, connection accounting, and the
//! maintenance tick. A connection that performs the `REPLICATE`
//! handshake gets a [`LoopFollower`] — the event-loop face of
//! [`FollowerConn`] — so replication broadcast enqueues frames on the
//! same bounded outbound queue as any other reply.

use std::sync::Arc;

use apcm_netio::{CloseReason, ConnId, Line, LoopHandle, SendOutcome, Service, Verdict};

use crate::framing::Framing;
use crate::replication::FollowerConn;
use crate::request::{on_conn_line, ConnCtx};
use crate::stats::ServerStats;

pub(crate) struct BrokerService {
    ctx: ConnCtx,
}

impl BrokerService {
    pub(crate) fn new(ctx: ConnCtx) -> Self {
        BrokerService { ctx }
    }
}

/// Replication feed outbound face for a loop-served connection.
struct LoopFollower {
    handle: Arc<LoopHandle>,
    conn: ConnId,
}

impl FollowerConn for LoopFollower {
    fn try_send(&self, line: String) -> bool {
        matches!(self.handle.try_send(self.conn, line), SendOutcome::Sent)
    }

    fn kick(&self) {
        self.handle.kick(self.conn);
    }
}

impl Service for BrokerService {
    type Session = Framing;

    fn on_open(&self, _conn: ConnId, handle: &Arc<LoopHandle>) -> Framing {
        self.ctx.hub.delivery.attach(handle);
        ServerStats::add(&self.ctx.hub.stats.conns_total, 1);
        ServerStats::add(&self.ctx.hub.stats.conns_active, 1);
        Framing::default()
    }

    fn on_line(&self, session: &mut Framing, conn: ConnId, line: Line<'_>) -> Verdict {
        let delivery = &self.ctx.hub.delivery;
        let mut reply = |text: String| delivery.reply(conn, text);
        let mut make_follower = || -> std::io::Result<Box<dyn FollowerConn>> {
            Ok(Box::new(LoopFollower {
                handle: delivery.handle().expect("on_open attached it").clone(),
                conn,
            }))
        };
        on_conn_line(
            &self.ctx,
            conn,
            session,
            line,
            &mut reply,
            &mut make_follower,
        )
    }

    fn on_close(&self, _session: &mut Framing, conn: ConnId, reason: CloseReason) {
        // If this connection was a replication feed, drop its follower
        // slot so the lag gauge stops tracking it.
        if let Some(p) = &self.ctx.persist {
            p.remove_follower(conn);
        }
        ServerStats::sub(&self.ctx.hub.stats.conns_active, 1);
        if reason == CloseReason::Idle {
            ServerStats::add(&self.ctx.hub.stats.idle_reaped, 1);
        }
    }

    /// The maintenance sweep; idle reaping is the loop's own timer
    /// wheel's job.
    fn on_tick(&self) {
        let report = self.ctx.engine.maintain();
        self.ctx.hub.stats.record_maintenance(&report);
        if let Some(p) = &self.ctx.persist {
            p.maintenance_tick();
        }
    }
}
