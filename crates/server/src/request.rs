//! Per-connection protocol executor.
//!
//! The event-loop broker's `Service::on_line` funnels every framed line
//! through [`on_conn_line`], so the wire protocol — reply text, counter
//! bumps, ack-before-submit ordering — is defined here. `PUB` sequences
//! and `BATCH` payload accumulation are the shared [`Framing`] state
//! machine's, which the cluster router drives too.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use apcm_netio::{Line, Verdict};
use parking_lot::Mutex;

use crate::broker::{sub_fingerprint, Hub, ReplicaRunner, ReshardRunner};
use crate::framing::{Framed, Framing, FramingCounters, Publish};
use crate::ingest::{IngestItem, IngestSender};
use crate::persist::failpoint::{self, FailAction};
use crate::persist::{ChurnError, Persister};
use crate::protocol::{self, Request, ReshardCmd, RoleReport};
use crate::replication::{FollowerConn, Role, RoleState};
use crate::ring::RingScope;
use crate::shard::ShardedEngine;
use crate::stats::ServerStats;

/// Everything the dispatcher needs to execute requests for a connection.
/// One instance, owned by the event-loop service, serves every
/// connection.
pub(crate) struct ConnCtx {
    pub(crate) hub: Arc<Hub>,
    pub(crate) engine: Arc<ShardedEngine>,
    pub(crate) persist: Option<Arc<Persister>>,
    pub(crate) ingest: IngestSender,
    pub(crate) max_line_bytes: usize,
    pub(crate) role: Arc<RoleState>,
    /// Spawns replica puller threads on `DEMOTE`; `None` without
    /// persistence (replica mode requires it).
    pub(crate) runner: Option<Arc<ReplicaRunner>>,
    /// Drives `RESHARD PULL` migration streams; `None` without
    /// persistence (resharding requires a durable catalog).
    pub(crate) reshard: Option<Arc<ReshardRunner>>,
    /// Threads running offloaded blocking requests, joined at teardown
    /// with the replication pullers.
    pub(crate) helper_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ConnCtx {
    /// Runs a long-blocking request (`SNAPSHOT`'s compress + write) on a
    /// short-lived thread: a loop worker serves many connections, so
    /// stalling it would head-of-line block every connection pinned to
    /// it. The job's reply is queued on the connection's uncapped control
    /// path when it completes, exactly like an inline reply.
    fn offload(&self, conn_id: u64, job: impl FnOnce() -> String + Send + 'static) {
        let hub = self.hub.clone();
        let handle = std::thread::Builder::new()
            .name("apcm-blocking".into())
            .spawn(move || hub.delivery.reply(conn_id, job()))
            .expect("spawning blocking-request thread");
        self.helper_threads.lock().push(handle);
    }
}

/// The migration-era ring ownership filter: with a scope installed (by
/// `RESHARD PRUNE`), churn for an id the scope does not own is refused
/// with `-ERR not owner <id>` — the client retries, re-routing through
/// the router's refreshed view. Returns whether the request was refused.
fn refuse_unowned(ctx: &ConnCtx, id: apcm_bexpr::SubId, reply: &mut dyn FnMut(String)) -> bool {
    let refused = match &*ctx.hub.ownership.read() {
        Some(scope) => !scope.owns(id),
        None => false,
    };
    if refused {
        ServerStats::add(&ctx.hub.stats.not_owner_refusals, 1);
        reply(protocol::render_not_owner(id));
    }
    refused
}

/// Executes one framed line for a connection: frames it (or routes it
/// into an in-flight batch), performs the request, and emits replies via
/// `reply`. `make_follower` materializes this connection's outbound face
/// when a `REPLICATE` handshake turns it into a replication feed.
pub(crate) fn on_conn_line(
    ctx: &ConnCtx,
    conn_id: u64,
    framing: &mut Framing,
    line: Line<'_>,
    reply: &mut dyn FnMut(String),
    make_follower: &mut dyn FnMut() -> std::io::Result<Box<dyn FollowerConn>>,
) -> Verdict {
    let stats = &ctx.hub.stats;
    let counters = FramingCounters {
        oversized_lines: &stats.oversized_lines,
        protocol_errors: &stats.protocol_errors,
    };
    let line = match framing.feed(line, &ctx.hub.schema, ctx.max_line_bytes, counters, reply) {
        Framed::Request(line) => line,
        Framed::Publish(publish) => return submit(ctx, conn_id, publish, reply),
        Framed::Consumed => return Verdict::Continue,
    };
    let request = match protocol::parse_request(&ctx.hub.schema, line) {
        Ok(Some(req)) => req,
        Ok(None) => return Verdict::Continue,
        Err(msg) => {
            ServerStats::add(&stats.protocol_errors, 1);
            reply(format!("-ERR {msg}"));
            return Verdict::Continue;
        }
    };
    match request {
        Request::Sub { id, sub } => {
            if ctx.role.is_replica() {
                // Read-only: churn flows in over the REPLICATE stream
                // only, so the follower never diverges from its
                // primary. Matching (PUB/BATCH) stays available.
                reply(protocol::READ_ONLY_REPLICA_ERR.to_string());
                return Verdict::Continue;
            }
            if refuse_unowned(ctx, id, reply) {
                return Verdict::Continue;
            }
            // `Ok(Some(applied))` means the sub is live; a durable broker
            // additionally carries the appended record's log sequence,
            // which the ack reports (`+OK <id> seq <n>`) so a router can
            // anchor its promotion/read floor to a real sequence instead
            // of counting acks.
            let outcome: Result<Option<Option<u64>>, ChurnError> = match &ctx.persist {
                Some(p) => p.apply_sub(&ctx.engine, &sub).map(|s| s.map(Some)),
                None => ctx
                    .engine
                    .subscribe(&sub)
                    .map(|fresh| fresh.then_some(None))
                    .map_err(ChurnError::Engine),
            };
            match outcome {
                Ok(Some(seq)) => {
                    ctx.hub.delivery.owners.write().insert(id, conn_id);
                    ctx.hub.live.write().insert(id, sub_fingerprint(&sub));
                    ServerStats::add(&stats.subs_added, 1);
                    reply(protocol::render_churn_ack(id, seq));
                }
                Ok(None) => {
                    // Duplicate id. A byte-identical expression is a
                    // reconnect reclaiming its subscription: transfer
                    // ownership, no engine or durable churn. Anything
                    // else is the structured duplicate error.
                    let identical =
                        ctx.hub.live.read().get(&id).copied() == Some(sub_fingerprint(&sub));
                    if identical {
                        ctx.hub.delivery.owners.write().insert(id, conn_id);
                        ServerStats::add(&stats.subs_reclaimed, 1);
                        reply(format!("+OK claimed {}", id.0));
                    } else {
                        ServerStats::add(&stats.protocol_errors, 1);
                        reply(protocol::render_duplicate_error(id));
                    }
                }
                Err(e @ ChurnError::Engine(_)) => {
                    ServerStats::add(&stats.protocol_errors, 1);
                    reply(format!("-ERR {e}"));
                }
                Err(e @ ChurnError::Persist(_)) => {
                    // Counted as persist_errors by the persister, not
                    // as a protocol error — the request was valid.
                    reply(format!("-ERR {e}"));
                }
            }
        }
        Request::Unsub { id } => {
            if ctx.role.is_replica() {
                reply(protocol::READ_ONLY_REPLICA_ERR.to_string());
                return Verdict::Continue;
            }
            if refuse_unowned(ctx, id, reply) {
                return Verdict::Continue;
            }
            let outcome: Result<Option<Option<u64>>, ChurnError> = match &ctx.persist {
                Some(p) => p.apply_unsub(&ctx.engine, id).map(|s| s.map(Some)),
                None => Ok(ctx.engine.unsubscribe(id).then_some(None)),
            };
            match outcome {
                Ok(Some(seq)) => {
                    ctx.hub.delivery.owners.write().remove(&id);
                    ctx.hub.live.write().remove(&id);
                    ServerStats::add(&stats.subs_removed, 1);
                    reply(protocol::render_churn_ack(id, seq));
                }
                Ok(None) => {
                    ServerStats::add(&stats.protocol_errors, 1);
                    reply(format!("-ERR unknown subscription {}", id.0));
                }
                Err(e) => reply(format!("-ERR {e}")),
            }
        }
        Request::Claim { id } => {
            // Ownership transfer for a live id: the reclaim path after
            // a broker restart (recovered subscriptions have no owning
            // connection until someone claims them).
            if refuse_unowned(ctx, id, reply) {
                return Verdict::Continue;
            }
            if ctx.hub.live.read().contains_key(&id) {
                ctx.hub.delivery.owners.write().insert(id, conn_id);
                ServerStats::add(&stats.subs_reclaimed, 1);
                reply(format!("+OK claimed {}", id.0));
            } else {
                ServerStats::add(&stats.protocol_errors, 1);
                reply(format!("-ERR unknown subscription {}", id.0));
            }
        }
        Request::Pub { event } => return submit(ctx, conn_id, framing.publish(event), reply),
        Request::Batch { count } => framing.open_batch(count),
        Request::Stats => {
            let body = stats.render(
                &ctx.engine.per_shard_len(),
                ctx.ingest.len(),
                ctx.engine.kernel_counters(),
                (
                    ctx.engine.summary_epoch(),
                    ctx.engine.summary_bits_set() as u64,
                    ctx.engine.summary_rebuilds(),
                ),
                ctx.hub.delivery.gauges(),
            );
            // One queued string so async RESULT/EVENT lines cannot
            // interleave inside the multi-line response.
            reply(format!("+OK stats\n{body}."));
        }
        Request::Snapshot => match &ctx.persist {
            Some(p) => {
                let persist = p.clone();
                ctx.offload(conn_id, move || match persist.snapshot() {
                    Ok(outcome) => format!(
                        "+OK snapshot subs {} seq {} bytes {}",
                        outcome.subs, outcome.seq, outcome.bytes
                    ),
                    Err(e) => format!("-ERR snapshot failed: {e}"),
                });
            }
            None => {
                ServerStats::add(&stats.protocol_errors, 1);
                reply("-ERR persistence disabled".into());
            }
        },
        Request::Topology => {
            // A standalone server is its own (only) partition; the
            // multi-line backend report is the cluster router's.
            reply("+OK topology standalone".into());
        }
        Request::Summary { epoch } => {
            // Coarse predicate-space summary fetch (router pruning).
            // `unchanged` elides the bitset when the caller is current.
            match ctx.engine.summary_if_newer(epoch) {
                None => reply(protocol::render_summary_unchanged(epoch)),
                Some((epoch, bits)) => reply(protocol::render_summary_reply(epoch, &bits)),
            }
        }
        Request::Replicate {
            from_seq,
            ring,
            reset,
        } => match &ctx.persist {
            Some(p) => {
                let scope = match ring
                    .map(|spec| RingScope::parse(&spec.members_csv, &spec.keep_csv))
                    .transpose()
                {
                    Ok(scope) => scope,
                    Err(e) => {
                        ServerStats::add(&stats.protocol_errors, 1);
                        reply(format!("-ERR bad replicate ring: {e}"));
                        return Verdict::Continue;
                    }
                };
                let registered = make_follower().and_then(|conn| {
                    p.begin_stream(conn_id, from_seq, reset, scope.as_ref(), conn)
                });
                match registered {
                    // The handshake header + backlog chunk is already
                    // queued; the live tail flows via broadcast. This
                    // connection now doubles as a feed — REPLACKs keep
                    // arriving through this loop.
                    Ok(_start) => {
                        ServerStats::add(&ctx.hub.delivery.replies_sent, 1);
                    }
                    Err(e) => reply(format!("-ERR replicate failed: {e}")),
                }
            }
            None => {
                ServerStats::add(&stats.protocol_errors, 1);
                reply("-ERR persistence disabled".into());
            }
        },
        Request::ReplAck { seq } => {
            // The `repl.ack.delay` failpoint drives quorum-timeout and
            // slow-follower paths: `Stall(ms)` delays the ack before it
            // lands (visible as follower lag on the primary), anything
            // else drops it outright — the follower's next ack or
            // keepalive recovers the cursor.
            match failpoint::fire("repl.ack.delay") {
                Some(FailAction::Stall(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                Some(_) => return Verdict::Continue,
                None => {}
            }
            if let Some(p) = &ctx.persist {
                p.follower_ack(conn_id, seq);
            }
        }
        Request::Role => {
            let seq = ctx.persist.as_ref().map(|p| p.current_seq()).unwrap_or(0);
            let report = match ctx.role.role() {
                Role::Primary => RoleReport {
                    primary: true,
                    seq,
                    lag: ServerStats::get(&stats.repl_lag_records),
                    connected: ServerStats::get(&stats.repl_followers),
                    following: None,
                    // Chain-durable floor: the slowest connected
                    // follower's acked sequence (own seq with none).
                    acked: ctx
                        .persist
                        .as_ref()
                        .map(|p| p.followers_min_acked())
                        .unwrap_or(seq),
                },
                Role::Replica { primary } => RoleReport {
                    primary: false,
                    seq,
                    lag: 0,
                    connected: ServerStats::get(&stats.repl_connected),
                    following: Some(primary),
                    acked: seq,
                },
            };
            reply(protocol::render_role_report(&report));
        }
        Request::Promote => {
            if ctx.role.promote() {
                ServerStats::add(&stats.promotions, 1);
                stats.role_replica.store(0, Ordering::Relaxed);
                stats.repl_connected.store(0, Ordering::Relaxed);
            }
            let seq = ctx.persist.as_ref().map(|p| p.current_seq()).unwrap_or(0);
            reply(format!("+OK promoted seq {seq}"));
        }
        Request::Reshard(cmd) => match cmd {
            ReshardCmd::Add { .. } | ReshardCmd::Remove { .. } => {
                ServerStats::add(&stats.protocol_errors, 1);
                reply("-ERR RESHARD ADD/REMOVE target the cluster router, not a backend".into());
            }
            ReshardCmd::Status => match &ctx.reshard {
                Some(runner) => reply(runner.status_line()),
                None => reply("+OK reshard idle".into()),
            },
            ReshardCmd::Pull {
                source,
                scope,
                donor,
            } => {
                if ctx.role.is_replica() {
                    reply(protocol::READ_ONLY_REPLICA_ERR.to_string());
                    return Verdict::Continue;
                }
                let Some(runner) = &ctx.reshard else {
                    ServerStats::add(&stats.protocol_errors, 1);
                    reply("-ERR persistence required for resharding".into());
                    return Verdict::Continue;
                };
                let parsed =
                    RingScope::parse(&scope.members_csv, &scope.keep_csv).and_then(|scope| {
                        donor
                            .map(|d| RingScope::parse(&d.members_csv, &d.keep_csv))
                            .transpose()
                            .map(|donor| (scope, donor))
                    });
                match parsed {
                    Ok((scope, donor)) => {
                        let ack = format!("+OK reshard pulling {source}");
                        runner.start_pull(source, scope, donor);
                        reply(ack);
                    }
                    Err(e) => {
                        ServerStats::add(&stats.protocol_errors, 1);
                        reply(format!("-ERR bad reshard scope: {e}"));
                    }
                }
            }
            ReshardCmd::Cutoff => match &ctx.reshard {
                Some(runner) => {
                    runner.stop();
                    reply(format!(
                        "+OK reshard cutoff applied {}",
                        runner.cursor.load(Ordering::SeqCst)
                    ));
                }
                None => {
                    ServerStats::add(&stats.protocol_errors, 1);
                    reply("-ERR persistence required for resharding".into());
                }
            },
            ReshardCmd::Prune { scope } => {
                if ctx.role.is_replica() {
                    reply(protocol::READ_ONLY_REPLICA_ERR.to_string());
                    return Verdict::Continue;
                }
                let Some(p) = &ctx.persist else {
                    ServerStats::add(&stats.protocol_errors, 1);
                    reply("-ERR persistence required for resharding".into());
                    return Verdict::Continue;
                };
                match RingScope::parse(&scope.members_csv, &scope.keep_csv) {
                    Ok(parsed) => {
                        // Install the refusal filter *before* pruning:
                        // stale-routed churn for moved ids must start
                        // bouncing the moment the flip is decided, even
                        // while the unsub sweep is still running.
                        *ctx.hub.ownership.write() = Some(parsed.clone());
                        let mut pruned = 0u64;
                        let mut degraded = None;
                        for id in p.catalog_ids() {
                            if parsed.owns(id) {
                                continue;
                            }
                            match p.apply_unsub(&ctx.engine, id) {
                                Ok(Some(_)) => {
                                    ctx.hub.live.write().remove(&id);
                                    ctx.hub.delivery.owners.write().remove(&id);
                                    pruned += 1;
                                }
                                Ok(None) => {}
                                Err(e) => {
                                    degraded = Some(e);
                                    break;
                                }
                            }
                        }
                        ServerStats::add(&stats.reshard_pruned, pruned);
                        match degraded {
                            // The controller re-issues PRUNE with the
                            // same scope until it succeeds end-to-end.
                            Some(e) => reply(format!("-ERR reshard prune incomplete: {e}")),
                            None => reply(format!("+OK reshard pruned {pruned}")),
                        }
                    }
                    Err(e) => {
                        ServerStats::add(&stats.protocol_errors, 1);
                        reply(format!("-ERR bad reshard scope: {e}"));
                    }
                }
            }
        },
        Request::Demote { addr } => match &ctx.runner {
            Some(runner) => {
                let generation = ctx.role.demote(addr.clone());
                ServerStats::add(&stats.demotions, 1);
                stats.role_replica.store(1, Ordering::Relaxed);
                // A replica must not keep absorbing a migration pull:
                // its catalog now mirrors its primary's, nothing else.
                if let Some(reshard) = &ctx.reshard {
                    reshard.stop();
                }
                runner.clone().spawn(generation);
                reply(format!("+OK demoted following {addr}"));
            }
            None => {
                ServerStats::add(&stats.protocol_errors, 1);
                reply("-ERR persistence required for replica mode".into());
            }
        },
        Request::Ping => reply("+PONG".into()),
        Request::Quit => {
            reply("+OK bye".into());
            return Verdict::Close;
        }
    }
    Verdict::Continue
}

/// Acks a `PUB` or completed `BATCH` and submits its events as one
/// frame. The ack precedes the submit: the ingest pipeline matches a
/// window as soon as it fills or the frame's last event finds the queue
/// idle (and pushes its RESULT lines at once), and the wire contract
/// promises the ack comes first.
fn submit(ctx: &ConnCtx, conn_id: u64, publish: Publish, reply: &mut dyn FnMut(String)) -> Verdict {
    reply(publish.ack);
    ServerStats::add(&ctx.hub.stats.events_in, publish.events.len() as u64);
    let frame = publish
        .events
        .into_iter()
        .map(|(seq, event)| IngestItem {
            conn: conn_id,
            seq,
            event,
        })
        .collect();
    if ctx.ingest.send_frame(frame).is_err() {
        // Flush queued replies, then close.
        reply("-ERR server shutting down".into());
        return Verdict::Close;
    }
    Verdict::Continue
}
