//! Primary/follower replication over the durable churn machinery.
//!
//! ## Wire protocol
//!
//! A follower dials its primary like any client and sends
//! `REPLICATE <from_seq> [reset]` — `from_seq` is the highest sequence it
//! has already applied. The primary answers with one of:
//!
//! ```text
//! +OK replicate log <backlog>             followed by that many log frames
//! +OK replicate colstore <b> <n> <seq>    followed by b BLOCK lines
//! +OK replicate truncate <seq> <crc8hex>  no body; follower rewinds
//! ```
//!
//! and then keeps the connection open, pushing every subsequent durable
//! churn record as one CRC-framed line — the *same* framing as
//! `churn.log`, so one parser serves the file and the wire. The log form
//! is used when `from_seq` falls inside the retained log
//! (`base_seq <= from_seq <= seq`). A follower *ahead* of the primary
//! (an unacked suffix left over from an old promotion) gets the
//! `truncate` form when the primary still retains its own head frame:
//! `<seq>` is the primary's current sequence and `<crc8hex>` the CRC
//! field of its frame at that sequence. The follower checks its own log
//! frame at `<seq>` against that CRC; on a match the histories agree up
//! to `<seq>`, so it rewinds locally — discarding only the divergent
//! suffix — and tails from there with zero transferred state. On a
//! mismatch (or if it cannot check) it redials with a trailing `reset`
//! token, which forces the wholesale bootstrap path. Anything else — the
//! follower predates the last rotation, the CRC probe fails, or `reset`
//! was sent — gets the `colstore` bootstrap: the full live catalog, which
//! the follower applies as a wholesale replacement of its local state.
//! Each `BLOCK <partition> <rows> <raw_len> <crc8hex> <base64>` line
//! carries one LZSS-compressed columnar block (the same prepare+compress
//! path the snapshot writer uses). The follower CRC-checks and decodes
//! every block; any damage drops the connection and the reconnect
//! refetches the whole bootstrap — nothing is skipped. There is no
//! capability negotiation: every node of a cluster runs one build.
//!
//! The follower reports progress on the same connection with
//! `REPLACK <applied_seq>`. Acks are *pipelined*: the follower applies
//! every record already buffered on its stream and acks once at the
//! drain boundary (or every `repl_ack_every` records, whichever comes
//! first), so a burst of N records costs one ack line instead of N. The
//! primary folds the minimum across followers into its
//! `repl_lag_records` gauge.
//!
//! ## Chains
//!
//! Replication composes hop-to-hop: a follower that has `REPLICATE`
//! streams open *against itself* re-broadcasts every record it applies
//! to its own followers (primary → f1 → f2 …). Each hop persists before
//! forwarding, so a chain of depth N survives N-1 failures without
//! losing acked churn. When a mid-chain node bootstraps or rewinds, it
//! kicks its own followers ([`ReplicationHub::kick_all`]) so they
//! re-handshake against its new history instead of silently skipping the
//! sequence jump.
//!
//! ## Roles
//!
//! A server's role is dynamic: `PROMOTE` turns a replica into a primary
//! (its puller stops; it starts accepting churn and serving `REPLICATE`),
//! and `DEMOTE <addr>` turns a primary into a follower of `addr` (it
//! refuses churn with `-ERR read-only replica` and starts pulling). The
//! generation counter lets an in-flight puller thread notice it is stale
//! and exit. `ROLE` reports the current role, sequence, and lag — the
//! cluster router's health sweep uses it as its liveness probe.

use parking_lot::{Mutex, RwLock};
use std::sync::atomic::Ordering;

use crate::persist::failpoint::{self, FailAction};
use crate::stats::ServerStats;

/// Outbound face of one follower connection: the broker's is the
/// connection's `LoopHandle` outbound queue, and unit tests substitute a
/// channel. Registration and broadcast never touch the socket directly —
/// only this trait.
pub trait FollowerConn: Send {
    /// Bounded enqueue of one frame line; `false` means the queue is
    /// full or the connection is gone (the follower is cut loose).
    fn try_send(&self, line: String) -> bool;
    /// Force-close the follower's connection (it reconnects and catches
    /// up from its acked sequence).
    fn kick(&self);
}

/// What this server currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    Primary,
    /// Following (pulling churn from) the primary at this address.
    Replica {
        primary: String,
    },
}

/// Dynamic role state shared by the broker's threads. The generation
/// bumps on every role change so a puller spawned for an old role can
/// detect staleness and exit without any channel plumbing.
pub struct RoleState {
    role: RwLock<Role>,
    generation: Mutex<u64>,
}

impl RoleState {
    pub fn new(role: Role) -> Self {
        Self {
            role: RwLock::new(role),
            generation: Mutex::new(0),
        }
    }

    pub fn role(&self) -> Role {
        self.role.read().clone()
    }

    pub fn is_replica(&self) -> bool {
        matches!(&*self.role.read(), Role::Replica { .. })
    }

    /// The address this server follows, when it is a replica.
    pub fn primary_addr(&self) -> Option<String> {
        match &*self.role.read() {
            Role::Primary => None,
            Role::Replica { primary } => Some(primary.clone()),
        }
    }

    pub fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// Replica → primary. Returns `true` when the role actually changed
    /// (idempotent on a primary).
    pub fn promote(&self) -> bool {
        let mut generation = self.generation.lock();
        let mut role = self.role.write();
        if *role == Role::Primary {
            return false;
        }
        *role = Role::Primary;
        *generation += 1;
        true
    }

    /// → follower of `primary`. Returns the new generation, which the
    /// freshly spawned puller thread checks against [`Self::generation`]
    /// to detect later role changes.
    pub fn demote(&self, primary: String) -> u64 {
        let mut generation = self.generation.lock();
        let mut role = self.role.write();
        *role = Role::Replica { primary };
        *generation += 1;
        *generation
    }
}

/// One live follower connection on a primary: frames are queued onto the
/// connection's outbound queue, flushed by the event loop.
struct Follower {
    /// Follower id — the broker connection id serving the stream.
    id: u64,
    conn: Box<dyn FollowerConn>,
    /// Highest sequence the follower has `REPLACK`ed.
    acked: u64,
}

/// Registry of live `REPLICATE` streams on a primary, and the broadcast
/// fan-out for freshly appended churn records. Registration and broadcast
/// both happen under the persister's inner lock, so followers observe
/// records in exactly append order with no gaps.
#[derive(Default)]
pub struct ReplicationHub {
    followers: Mutex<Vec<Follower>>,
}

impl ReplicationHub {
    /// Registers a follower stream. `acked` starts at the handshake's
    /// `from_seq` (pessimistic — `REPLACK`s refine it).
    pub fn register(&self, id: u64, conn: Box<dyn FollowerConn>, acked: u64) {
        self.followers.lock().push(Follower { id, conn, acked });
    }

    /// Drops a follower (its connection closed). Idempotent.
    pub fn remove(&self, id: u64) {
        self.followers.lock().retain(|f| f.id != id);
    }

    pub fn follower_count(&self) -> usize {
        self.followers.lock().len()
    }

    /// Whether broadcast would do any work (checked before re-rendering
    /// frames on the churn path).
    pub fn has_followers(&self) -> bool {
        !self.followers.lock().is_empty()
    }

    /// Records a follower's `REPLACK <seq>` and returns the new maximum
    /// lag (`current_seq` minus the slowest follower's acked sequence).
    pub fn ack(&self, id: u64, seq: u64, current_seq: u64) -> u64 {
        let mut followers = self.followers.lock();
        if let Some(f) = followers.iter_mut().find(|f| f.id == id) {
            f.acked = f.acked.max(seq);
        }
        Self::max_lag_locked(&followers, current_seq)
    }

    /// Maximum lag across live followers (0 with none).
    pub fn max_lag(&self, current_seq: u64) -> u64 {
        Self::max_lag_locked(&self.followers.lock(), current_seq)
    }

    /// Minimum acked sequence across live followers, or `current_seq`
    /// with none connected. `ROLE` reports this so the router's
    /// promotion floor can track what the chain has durably confirmed.
    pub fn min_acked(&self, current_seq: u64) -> u64 {
        self.followers
            .lock()
            .iter()
            .map(|f| f.acked)
            .min()
            .unwrap_or(current_seq)
    }

    /// Force-closes every follower stream. Called after a wholesale
    /// bootstrap or covered-suffix rewind rewrites this node's history:
    /// downstream followers must re-handshake (and themselves bootstrap,
    /// rewind, or tail) rather than silently skip the sequence jump.
    pub fn kick_all(&self, stats: &ServerStats) {
        let mut followers = self.followers.lock();
        for f in followers.drain(..) {
            f.conn.kick();
        }
        stats.repl_followers.store(0, Ordering::Relaxed);
        stats.repl_lag_records.store(0, Ordering::Relaxed);
    }

    fn max_lag_locked(followers: &[Follower], current_seq: u64) -> u64 {
        followers
            .iter()
            .map(|f| current_seq.saturating_sub(f.acked))
            .max()
            .unwrap_or(0)
    }

    /// Fans one freshly appended frame out to every follower. Called with
    /// the persister's inner lock held (appends are serialized), so the
    /// per-follower queues see records in append order.
    ///
    /// The `repl.stream.send` failpoint injects stream faults here:
    /// `Error` drops every follower connection mid-stream (they reconnect
    /// and catch up from their acked sequence), `TornWrite(n)` ships only
    /// the first `n` bytes of the frame — a torn frame the follower's CRC
    /// check rejects — then drops the connection, and `Stall(ms)` delays
    /// the send (visible as replication lag).
    pub fn broadcast(&self, frame: &str, seq: u64, stats: &ServerStats) {
        let mut followers = self.followers.lock();
        if followers.is_empty() {
            return;
        }
        let mut torn: Option<usize> = None;
        match failpoint::fire("repl.stream.send") {
            Some(FailAction::Error) => {
                for f in followers.drain(..) {
                    f.conn.kick();
                }
                stats.repl_followers.store(0, Ordering::Relaxed);
                return;
            }
            Some(FailAction::TornWrite(n)) => torn = Some(n.min(frame.len())),
            Some(FailAction::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            None => {}
        }
        if let Some(n) = torn {
            // Ship the torn prefix as its own line, then cut the streams:
            // followers see a CRC-bad frame (skip + count) and reconnect.
            for f in followers.drain(..) {
                let _ = f.conn.try_send(frame[..n].to_string());
                f.conn.kick();
            }
            stats.repl_followers.store(0, Ordering::Relaxed);
            return;
        }
        followers.retain(|f| {
            if f.conn.try_send(frame.to_string()) {
                ServerStats::add(&stats.repl_records_sent, 1);
                ServerStats::add(&stats.repl_bytes, frame.len() as u64 + 1);
                true
            } else {
                // A follower too slow to drain its queue is cut loose
                // rather than blocking churn; it reconnects and catches up
                // from its acked sequence.
                f.conn.kick();
                false
            }
        });
        stats
            .repl_followers
            .store(followers.len() as u64, Ordering::Relaxed);
        stats
            .repl_lag_records
            .store(Self::max_lag_locked(&followers, seq), Ordering::Relaxed);
    }
}

/// Queues one pre-rendered multi-line chunk (handshake header + backlog)
/// onto a follower connection's outbound queue as a single item, so
/// concurrently broadcast frames cannot interleave inside it.
pub fn send_chunk(conn: &dyn FollowerConn, chunk: String) -> Result<(), String> {
    if conn.try_send(chunk) {
        Ok(())
    } else {
        Err("replication backlog exceeds connection queue".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, Receiver, Sender};

    /// [`FollowerConn`] over a bounded channel the test drains. A kick
    /// needs no action here: the hub dropping the follower is what the
    /// tests observe.
    struct ChannelFollower {
        out: Sender<String>,
    }

    impl FollowerConn for ChannelFollower {
        fn try_send(&self, line: String) -> bool {
            self.out.try_send(line).is_ok()
        }

        fn kick(&self) {}
    }

    fn channel_follower(cap: usize) -> (Box<dyn FollowerConn>, Receiver<String>) {
        let (out, rx) = bounded(cap);
        (Box::new(ChannelFollower { out }), rx)
    }

    #[test]
    fn role_state_transitions_bump_generation() {
        let state = RoleState::new(Role::Primary);
        assert!(!state.is_replica());
        assert!(!state.promote()); // idempotent on a primary
        assert_eq!(state.generation(), 0);

        let g1 = state.demote("127.0.0.1:9".into());
        assert_eq!(g1, 1);
        assert!(state.is_replica());
        assert_eq!(state.primary_addr().as_deref(), Some("127.0.0.1:9"));

        assert!(state.promote());
        assert_eq!(state.generation(), 2);
        assert!(state.primary_addr().is_none());
    }

    #[test]
    fn broadcast_orders_and_tracks_lag() {
        let hub = ReplicationHub::default();
        let stats = ServerStats::default();
        let (conn, rx) = channel_follower(16);
        hub.register(7, conn, 0);
        assert_eq!(hub.follower_count(), 1);

        hub.broadcast("aaaa 1 U 5", 1, &stats);
        hub.broadcast("bbbb 2 U 6", 2, &stats);
        assert_eq!(rx.try_recv().unwrap(), "aaaa 1 U 5");
        assert_eq!(rx.try_recv().unwrap(), "bbbb 2 U 6");
        assert_eq!(hub.max_lag(2), 2);
        assert_eq!(hub.ack(7, 2, 2), 0);
        assert_eq!(ServerStats::get(&stats.repl_records_sent), 2);

        hub.remove(7);
        assert_eq!(hub.follower_count(), 0);
        assert_eq!(hub.max_lag(9), 0);
    }

    #[test]
    fn min_acked_tracks_slowest_follower_and_kick_all_clears() {
        let hub = ReplicationHub::default();
        let stats = ServerStats::default();
        assert_eq!(hub.min_acked(42), 42); // no followers -> own seq

        let (c1, _rx1) = channel_follower(16);
        hub.register(1, c1, 0);
        let (c2, _rx2) = channel_follower(16);
        hub.register(2, c2, 0);

        hub.ack(1, 10, 12);
        hub.ack(2, 7, 12);
        assert_eq!(hub.min_acked(12), 7);

        hub.kick_all(&stats);
        assert_eq!(hub.follower_count(), 0);
        assert_eq!(hub.min_acked(12), 12);
        assert_eq!(ServerStats::get(&stats.repl_followers), 0);
    }

    #[test]
    fn slow_follower_is_cut_loose_not_blocking() {
        let hub = ReplicationHub::default();
        let stats = ServerStats::default();
        let (conn, _rx) = channel_follower(1);
        hub.register(1, conn, 0);
        hub.broadcast("aaaa 1 U 1", 1, &stats);
        hub.broadcast("bbbb 2 U 2", 2, &stats); // queue full -> dropped
        assert_eq!(hub.follower_count(), 0);
    }

    #[test]
    fn torn_frame_failpoint_ships_prefix_then_disconnects() {
        let hub = ReplicationHub::default();
        let stats = ServerStats::default();
        let (conn, rx) = channel_follower(4);
        hub.register(1, conn, 0);
        failpoint::arm("repl.stream.send", FailAction::TornWrite(4), Some(1));
        hub.broadcast("deadbeef 1 U 1", 1, &stats);
        assert_eq!(rx.try_recv().unwrap(), "dead");
        assert_eq!(hub.follower_count(), 0);
        failpoint::reset();
    }
}
