//! Newline-delimited text protocol.
//!
//! Requests (one per line; verbs are case-insensitive, arguments reuse the
//! `bexpr` parser syntax):
//!
//! ```text
//! SUB <id> <expr>      subscribe, e.g. SUB 7 a0 = 3 AND a1 >= 5
//! UNSUB <id>           unsubscribe
//! CLAIM <id>           take over ownership (notifications) of a live id
//! PUB <event>          publish one event, e.g. PUB a0 = 3, a1 = 9
//! BATCH <n>            the next n lines are events, published as one batch
//! STATS                server counters
//! SNAPSHOT             force a durable snapshot + log rotation now
//! TOPOLOGY             cluster membership report (routers; servers answer
//!                      `+OK topology standalone`)
//! SUMMARY <epoch>      coarse predicate-space summary of this backend's
//!                      subscriptions (see `apcm-encoding`'s summary
//!                      module); answers `+OK summary unchanged <epoch>`
//!                      when the caller's epoch is current, else
//!                      `+OK summary <epoch> <nbits> <hex-words>`
//! PING                 liveness probe
//! QUIT                 close this connection
//! ```
//!
//! Replication / role management (see [`crate::replication`]):
//!
//! ```text
//! REPLICATE <from_seq> [ring <members> <keep>] [reset]
//!                      turn this connection into a churn-record stream
//!                      (follower handshake; requires persistence);
//!                      `ring <members> <keep>` scopes the colstore
//!                      *bootstrap* to the catalog subset the ring routes
//!                      to `keep` (the live tail still carries every
//!                      record — the receiver filters — so seqs stay
//!                      comparable). A trailing `reset` token forces a
//!                      wholesale bootstrap, disclaiming local history (a
//!                      follower whose divergent suffix could not be
//!                      truncated)
//! REPLACK <seq>        follower progress report on a REPLICATE stream
//! ROLE                 role + sequence/lag report (the health probe)
//! PROMOTE              replica -> primary (idempotent on a primary)
//! DEMOTE <addr>        become a follower of the primary at <addr>
//! ```
//!
//! A follower *ahead* of its primary (unacked ex-primary suffix) whose
//! shared prefix is verifiable is answered `+OK replicate truncate <seq>
//! <crc>` — rewind locally to `<seq>` (the primary's frame there carries
//! CRC `<crc>`), then tail — instead of a wholesale bootstrap.
//!
//! Elastic resharding (see `apcm-cluster`'s migration module): admin verbs
//! answered by the router, data-plane verbs by a backend server:
//!
//! ```text
//! RESHARD ADD <primary> [follower ...]  router: scale out onto a new backend
//! RESHARD REMOVE <partition>         router: drain + drop a partition
//! RESHARD STATUS                     router: migration progress report
//! RESHARD PULL <src> <members> <keep> [<dm> <dk>]
//!                                    backend: start pulling the ring
//!                                    subset `keep` from the primary <src>
//!                                    while staying a live primary; the
//!                                    optional `<dm> <dk>` pair is the
//!                                    donor's old-ring scope, bounding the
//!                                    bootstrap reconcile to ids this
//!                                    donor could ever have owned
//! RESHARD CUTOFF                     backend: stop the pull stream
//! RESHARD PRUNE <members> <keep>     backend: install the ownership
//!                                    filter (refuse churn for ids outside
//!                                    `keep` with `-ERR not owner <id>`)
//!                                    and durably unsub non-owned ids
//! RESHARD STATUS                     backend: pull progress report
//! ```
//!
//! Replies: `+OK ...` / `-ERR <message>` for commands, and asynchronous
//! lines pushed by the matcher:
//!
//! ```text
//! RESULT <seq> <n> [id,id,...] [partial]   match row for event <seq>
//! EVENT <id> <event>             notification to the subscriber owning <id>
//! ```
//!
//! The trailing `partial` token is emitted only by the cluster router, when
//! one or more backends were unreachable while the window was matched — the
//! row covers the surviving partitions only.
//!
//! `STATS` replies with `+OK stats`, `key value` lines, then `.` alone.
//!
//! A `SUB` whose id is already live answers the *structured* error
//! `-ERR duplicate <id>` (see [`render_duplicate_error`]) so routers and
//! clients can drive `CLAIM` automatically — unless the offered expression
//! is byte-identical to the live one, in which case the server treats it as
//! a claim and transfers ownership (`+OK claimed <id>`).

use apcm_bexpr::{parser, BexprError, Event, Schema, SubId, Subscription};
use apcm_encoding::FixedBitSet;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Sub {
        id: SubId,
        sub: Subscription,
    },
    Unsub {
        id: SubId,
    },
    /// Take over ownership of a live subscription (notifications resume on
    /// this connection). The reclaim path after a broker restart.
    Claim {
        id: SubId,
    },
    Pub {
        event: Event,
    },
    Batch {
        count: usize,
    },
    Stats,
    /// Force a snapshot + log rotation now (requires persistence).
    Snapshot,
    /// Cluster membership/health report (meaningful on a router).
    Topology,
    /// Coarse predicate-space summary fetch; `epoch` is the caller's cached
    /// epoch (0 for "none"), letting the backend elide an unchanged bitset.
    Summary {
        epoch: u64,
    },
    /// Follower handshake: stream churn records after this sequence.
    /// `ring` scopes the bootstrap catalog to a ring subset (see
    /// [`RingSpec`]). `reset` disclaims the follower's local history,
    /// forcing a wholesale bootstrap even when `from_seq` would allow a
    /// log tail or truncate answer.
    Replicate {
        from_seq: u64,
        ring: Option<RingSpec>,
        reset: bool,
    },
    /// Follower progress report on an established `REPLICATE` stream.
    ReplAck {
        seq: u64,
    },
    /// Role + sequence/lag report.
    Role,
    /// Replica -> primary transition.
    Promote,
    /// Become a follower of the primary at this address.
    Demote {
        addr: String,
    },
    /// Elastic-resharding verb (router admin or backend data plane).
    Reshard(ReshardCmd),
    Ping,
    Quit,
}

/// An unvalidated ring scope as it appears on the wire: a member csv
/// (`0,1,2`) plus a kept-member csv (`2`, or `-` for the empty set).
/// Validation (membership, non-empty ring) happens where the scope is
/// materialized into a `ring::RingScope`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSpec {
    pub members_csv: String,
    pub keep_csv: String,
}

/// The `RESHARD` sub-verbs. `Add`/`Remove`/`Status` are answered by the
/// cluster router; `Pull`/`Cutoff`/`Prune`/`Status` by a backend server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshardCmd {
    /// Router: scale out — register a new backend (primary plus an
    /// optional replication chain of followers) and migrate its ring
    /// share onto it.
    Add {
        primary: String,
        followers: Vec<String>,
    },
    /// Router: scale in — drain this partition's ring share onto the
    /// survivors, then drop it from membership.
    Remove { partition: u32 },
    /// Progress report (meaningful on both tiers).
    Status,
    /// Backend: start pulling the `scope` subset from the primary at
    /// `source` while continuing to serve as a live primary. `donor`
    /// (when present) is the donor's *old-ring* ownership: the puller's
    /// bootstrap reconcile deletes a locally-present id only when both
    /// scopes own it, so ids absorbed from *earlier* legs of the same
    /// migration — owned by `scope` but never by this donor — survive.
    Pull {
        source: String,
        scope: RingSpec,
        donor: Option<RingSpec>,
    },
    /// Backend: stop the pull stream (migration leg complete or aborted).
    Cutoff,
    /// Backend: install `scope` as the ownership filter and durably
    /// unsub every catalog id outside it.
    Prune { scope: RingSpec },
}

/// Parses one request line. `None` for blank lines and `#` comments.
pub fn parse_request(schema: &Schema, line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let request = match verb.to_ascii_uppercase().as_str() {
        "SUB" => {
            let (id_text, expr) = rest
                .split_once(char::is_whitespace)
                .ok_or("usage: SUB <id> <expr>")?;
            let id = parse_id(id_text)?;
            let sub = parser::parse_subscription_with_id(schema, id, expr.trim())
                .map_err(|e| bexpr_msg("expression", &e))?;
            Request::Sub { id, sub }
        }
        "UNSUB" => {
            if rest.is_empty() {
                return Err("usage: UNSUB <id>".into());
            }
            Request::Unsub {
                id: parse_id(rest)?,
            }
        }
        "CLAIM" => {
            if rest.is_empty() {
                return Err("usage: CLAIM <id>".into());
            }
            Request::Claim {
                id: parse_id(rest)?,
            }
        }
        "PUB" => {
            if rest.is_empty() {
                return Err("usage: PUB <event>".into());
            }
            let event = parser::parse_event(schema, rest).map_err(|e| bexpr_msg("event", &e))?;
            Request::Pub { event }
        }
        "BATCH" => {
            let count: usize = rest
                .parse()
                .map_err(|_| format!("bad batch size `{rest}`"))?;
            if count == 0 {
                return Err("batch size must be positive".into());
            }
            Request::Batch { count }
        }
        "STATS" => Request::Stats,
        "SNAPSHOT" => Request::Snapshot,
        "TOPOLOGY" => Request::Topology,
        "SUMMARY" => {
            let epoch: u64 = rest
                .parse()
                .map_err(|_| format!("bad summary epoch `{rest}`"))?;
            Request::Summary { epoch }
        }
        "REPLICATE" => {
            let mut parts = rest.split_whitespace();
            let from_seq: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad replicate seq `{rest}`"))?;
            let mut next = parts.next();
            let ring = match next {
                Some("ring") => {
                    let members_csv = parts
                        .next()
                        .ok_or("usage: REPLICATE <seq> ring <members> <keep>")?
                        .to_string();
                    let keep_csv = parts
                        .next()
                        .ok_or("usage: REPLICATE <seq> ring <members> <keep>")?
                        .to_string();
                    next = parts.next();
                    Some(RingSpec {
                        members_csv,
                        keep_csv,
                    })
                }
                _ => None,
            };
            let reset = match next {
                None => false,
                Some("reset") => {
                    next = parts.next();
                    true
                }
                Some(other) => return Err(format!("bad replicate token `{other}`")),
            };
            if next.is_some() || parts.next().is_some() {
                return Err(format!("bad replicate request `{rest}`"));
            }
            Request::Replicate {
                from_seq,
                ring,
                reset,
            }
        }
        "REPLACK" => {
            let seq: u64 = rest
                .parse()
                .map_err(|_| format!("bad replack seq `{rest}`"))?;
            Request::ReplAck { seq }
        }
        "ROLE" => Request::Role,
        "PROMOTE" => Request::Promote,
        "DEMOTE" => {
            if rest.is_empty() {
                return Err("usage: DEMOTE <primary-addr>".into());
            }
            Request::Demote {
                addr: rest.to_string(),
            }
        }
        "RESHARD" => Request::Reshard(parse_reshard(rest)?),
        "PING" => Request::Ping,
        "QUIT" => Request::Quit,
        other => return Err(format!("unknown verb `{other}`")),
    };
    Ok(Some(request))
}

fn parse_reshard(rest: &str) -> Result<ReshardCmd, String> {
    let (sub, args) = match rest.split_once(char::is_whitespace) {
        Some((s, a)) => (s, a.trim()),
        None => (rest, ""),
    };
    let mut parts = args.split_whitespace();
    let cmd = match sub.to_ascii_uppercase().as_str() {
        "ADD" => {
            let primary = parts
                .next()
                .ok_or("usage: RESHARD ADD <primary> [follower ...]")?
                .to_string();
            let followers: Vec<String> = parts.by_ref().map(str::to_string).collect();
            ReshardCmd::Add { primary, followers }
        }
        "REMOVE" => {
            let partition: u32 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("usage: RESHARD REMOVE <partition>")?;
            ReshardCmd::Remove { partition }
        }
        "STATUS" => ReshardCmd::Status,
        "PULL" => {
            const USAGE: &str =
                "usage: RESHARD PULL <source> <members> <keep> [<donor-members> <donor-keep>]";
            let source = parts.next().ok_or(USAGE)?.to_string();
            let members_csv = parts.next().ok_or(USAGE)?.to_string();
            let keep_csv = parts.next().ok_or(USAGE)?.to_string();
            let donor = match parts.next() {
                None => None,
                Some(donor_members) => Some(RingSpec {
                    members_csv: donor_members.to_string(),
                    keep_csv: parts.next().ok_or(USAGE)?.to_string(),
                }),
            };
            ReshardCmd::Pull {
                source,
                scope: RingSpec {
                    members_csv,
                    keep_csv,
                },
                donor,
            }
        }
        "CUTOFF" => ReshardCmd::Cutoff,
        "PRUNE" => {
            let members_csv = parts
                .next()
                .ok_or("usage: RESHARD PRUNE <members> <keep>")?
                .to_string();
            let keep_csv = parts
                .next()
                .ok_or("usage: RESHARD PRUNE <members> <keep>")?
                .to_string();
            ReshardCmd::Prune {
                scope: RingSpec {
                    members_csv,
                    keep_csv,
                },
            }
        }
        other => return Err(format!("unknown RESHARD sub-verb `{other}`")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing tokens in RESHARD request `{rest}`"));
    }
    Ok(cmd)
}

fn parse_id(text: &str) -> Result<SubId, String> {
    text.trim()
        .parse::<u32>()
        .map(SubId)
        .map_err(|_| format!("bad subscription id `{text}`"))
}

fn bexpr_msg(what: &str, err: &BexprError) -> String {
    format!("bad {what}: {err}")
}

/// Renders a `RESULT` line for event `seq` of a publish.
pub fn render_result(seq: u64, ids: &[SubId]) -> String {
    render_result_ext(seq, ids, false)
}

/// Renders a `RESULT` line, optionally flagged `partial` (cluster router:
/// one or more backends were unreachable for this window).
pub fn render_result_ext(seq: u64, ids: &[SubId], partial: bool) -> String {
    let mut out = format!("RESULT {seq} {}", ids.len());
    if !ids.is_empty() {
        out.push(' ');
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.0.to_string());
        }
    }
    if partial {
        out.push_str(" partial");
    }
    out
}

/// Parses a `RESULT` line back into `(seq, ids)` — used by the bundled
/// client and tests. Tolerates (and discards) a `partial` flag; use
/// [`parse_result_ext`] to observe it.
pub fn parse_result(line: &str) -> Result<(u64, Vec<SubId>), String> {
    parse_result_ext(line).map(|(seq, ids, _)| (seq, ids))
}

/// Parses a `RESULT` line into `(seq, ids, partial)`.
pub fn parse_result_ext(line: &str) -> Result<(u64, Vec<SubId>, bool), String> {
    let rest = line
        .strip_prefix("RESULT ")
        .ok_or_else(|| format!("not a RESULT line: `{line}`"))?;
    let mut parts = rest.split_whitespace();
    let seq: u64 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("RESULT missing seq")?;
    let count: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("RESULT missing count")?;
    let mut partial = false;
    let ids = match parts.next() {
        None if count == 0 => Vec::new(),
        Some("partial") if count == 0 => {
            partial = true;
            Vec::new()
        }
        Some(csv) => csv
            .split(',')
            .map(|t| t.parse::<u32>().map(SubId))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bad RESULT ids: {e}"))?,
        None => return Err("RESULT ids missing".into()),
    };
    match parts.next() {
        None => {}
        Some("partial") if !partial => partial = true,
        Some(extra) => return Err(format!("unexpected RESULT token `{extra}`")),
    }
    if ids.len() != count {
        return Err(format!("RESULT count {count} != {} ids", ids.len()));
    }
    Ok((seq, ids, partial))
}

/// The structured duplicate-subscription error: `-ERR duplicate <id>`.
/// Routers and clients match on this exact shape to drive `CLAIM`.
pub fn render_duplicate_error(id: SubId) -> String {
    format!("-ERR duplicate {}", id.0)
}

/// Renders a churn acknowledgment. A durable broker reports the appended
/// record's log sequence (`+OK <id> seq <n>`): a router that forwards
/// the churn folds that sequence into the partition's promotion/read
/// floor, making the floor an actual lower bound on the primary's log —
/// it covers the just-acked record even when the router (re)started
/// against a backend with pre-existing history, where an ack *count*
/// would undercount. A broker without persistence acks the bare
/// `+OK <id>` (no log, nothing to replicate, no floor to anchor).
pub fn render_churn_ack(id: SubId, seq: Option<u64>) -> String {
    match seq {
        Some(seq) => format!("+OK {} seq {seq}", id.0),
        None => format!("+OK {}", id.0),
    }
}

/// Extracts the durable log sequence from a [`render_churn_ack`] reply,
/// if it carries one. Deliberately strict — exactly `+OK <id> seq <n>` —
/// so it can never mistake another `+OK` shape (`+OK claimed <id>`,
/// `+OK <seq>` publish acks, `+OK promoted seq <n>`) for a churn ack.
pub fn parse_churn_ack_seq(reply: &str) -> Option<u64> {
    let mut it = reply.strip_prefix("+OK ")?.split(' ');
    it.next()?.parse::<u32>().ok()?;
    if it.next()? != "seq" {
        return None;
    }
    let seq = it.next()?.parse::<u64>().ok()?;
    it.next().is_none().then_some(seq)
}

/// Recognizes [`render_duplicate_error`] output, returning the id.
pub fn parse_duplicate_error(line: &str) -> Option<SubId> {
    line.strip_prefix("-ERR duplicate ")
        .and_then(|rest| rest.trim().parse::<u32>().ok())
        .map(SubId)
}

/// Renders an `EVENT` notification for a subscriber.
pub fn render_event_notification(id: SubId, event: &Event, schema: &Schema) -> String {
    format!("EVENT {} {}", id.0, event.display(schema))
}

/// How a primary answered `REPLICATE <from_seq>` (the line before the
/// frame stream starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicateStart {
    /// Log tail: this many backlog frames, then the live stream.
    Log { backlog: usize },
    /// Bootstrap: this many base64 colstore `BLOCK` lines carrying `subs`
    /// subscriptions, all at `seq`; the follower replaces its local state
    /// wholesale, then the live stream.
    Colstore {
        blocks: usize,
        subs: usize,
        seq: u64,
    },
    /// Covered-suffix rewind: the follower is *ahead* of the primary, but
    /// the primary's retained history ends at `seq` with a frame carrying
    /// CRC `crc`. If the follower's own frame at `seq` carries the same
    /// CRC, its suffix past `seq` is an unacknowledged divergence it can
    /// discard locally (truncate + local snapshot rewind) and then tail
    /// the live stream from `seq` — no bootstrap bytes on the wire. A
    /// follower that cannot verify the shared prefix redials with
    /// `reset` to force the wholesale bootstrap instead.
    Truncate { seq: u64, crc: u32 },
}

/// Renders the `+OK replicate truncate <seq> <crc>` handshake header.
pub fn render_replicate_truncate(seq: u64, crc: u32) -> String {
    format!("+OK replicate truncate {seq} {crc:08x}")
}

/// Parses a `+OK replicate ...` handshake header.
pub fn parse_replicate_header(line: &str) -> Result<ReplicateStart, String> {
    let rest = line
        .strip_prefix("+OK replicate ")
        .ok_or_else(|| format!("not a replicate header: `{line}`"))?;
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("log") => {
            let backlog: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("replicate log header missing backlog count")?;
            Ok(ReplicateStart::Log { backlog })
        }
        Some("colstore") => {
            let blocks: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("replicate colstore header missing block count")?;
            let subs: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("replicate colstore header missing sub count")?;
            let seq: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("replicate colstore header missing seq")?;
            Ok(ReplicateStart::Colstore { blocks, subs, seq })
        }
        Some("truncate") => {
            let seq: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("replicate truncate header missing seq")?;
            let crc = parts
                .next()
                .and_then(|t| u32::from_str_radix(t, 16).ok())
                .ok_or("replicate truncate header missing crc")?;
            Ok(ReplicateStart::Truncate { seq, crc })
        }
        other => Err(format!("unknown replicate mode {other:?}")),
    }
}

/// What a server reports about itself in reply to `ROLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleReport {
    /// `true` for a primary, `false` for a replica.
    pub primary: bool,
    /// Primary: the durable log sequence. Replica: the highest replicated
    /// sequence applied locally.
    pub seq: u64,
    /// Primary: slowest-follower lag in records (0 with no followers).
    /// Replica: 0 (its lag is judged against the primary's seq).
    pub lag: u64,
    /// Primary: live follower streams. Replica: 1 while its puller holds
    /// a connection to the primary, else 0.
    pub connected: u64,
    /// Primary: the lowest sequence any connected follower has
    /// acknowledged (equal to `seq` with no followers) — the quorum
    /// durability horizon of the chain hanging off this node. Replica:
    /// its own applied sequence (everything applied is acknowledged).
    pub acked: u64,
    /// The address a replica follows (`None` on a primary).
    pub following: Option<String>,
}

/// Renders the `+OK role ...` reply.
pub fn render_role_report(report: &RoleReport) -> String {
    if report.primary {
        format!(
            "+OK role primary seq {} followers {} lag {} acked {}",
            report.seq, report.connected, report.lag, report.acked
        )
    } else {
        format!(
            "+OK role replica of {} applied {} connected {}",
            report.following.as_deref().unwrap_or("-"),
            report.seq,
            report.connected
        )
    }
}

/// Parses a `+OK role ...` reply (with or without the leading `+`).
pub fn parse_role_report(line: &str) -> Result<RoleReport, String> {
    let line = line.strip_prefix('+').unwrap_or(line);
    let rest = line
        .strip_prefix("OK role ")
        .ok_or_else(|| format!("not a role reply: `{line}`"))?;
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("primary") => {
            let mut seq = 0u64;
            let mut followers = 0u64;
            let mut lag = 0u64;
            let mut acked = None;
            while let (Some(key), Some(value)) = (parts.next(), parts.next()) {
                let value: u64 = value
                    .parse()
                    .map_err(|_| format!("bad role value `{value}`"))?;
                match key {
                    "seq" => seq = value,
                    "followers" => followers = value,
                    "lag" => lag = value,
                    "acked" => acked = Some(value),
                    other => return Err(format!("unknown role field `{other}`")),
                }
            }
            Ok(RoleReport {
                primary: true,
                seq,
                lag,
                connected: followers,
                acked: acked.unwrap_or(seq),
                following: None,
            })
        }
        Some("replica") => {
            if parts.next() != Some("of") {
                return Err("replica role reply missing `of`".into());
            }
            let following = parts
                .next()
                .ok_or("replica role reply missing primary addr")?
                .to_string();
            let mut seq = 0u64;
            let mut connected = 0u64;
            while let (Some(key), Some(value)) = (parts.next(), parts.next()) {
                let value: u64 = value
                    .parse()
                    .map_err(|_| format!("bad role value `{value}`"))?;
                match key {
                    "applied" => seq = value,
                    "connected" => connected = value,
                    other => return Err(format!("unknown role field `{other}`")),
                }
            }
            Ok(RoleReport {
                primary: false,
                seq,
                lag: 0,
                connected,
                acked: seq,
                following: Some(following),
            })
        }
        other => Err(format!("unknown role kind {other:?}")),
    }
}

/// A backend's reply to `SUMMARY <epoch>`.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryReply {
    /// The caller's cached epoch is current; no bitset resent.
    Unchanged { epoch: u64 },
    /// A fresh `(epoch, bits)` summary snapshot.
    Summary { epoch: u64, bits: FixedBitSet },
}

/// Renders the `+OK summary unchanged <epoch>` reply.
pub fn render_summary_unchanged(epoch: u64) -> String {
    format!("+OK summary unchanged {epoch}")
}

/// Renders the `+OK summary <epoch> <nbits> <hex-words>` reply. The bitset
/// travels as big-endian-ordered hex words (lowest word first), which keeps
/// the whole reply on one line — 20 words for the default 20-dim schema.
pub fn render_summary_reply(epoch: u64, bits: &FixedBitSet) -> String {
    let mut out = format!("+OK summary {epoch} {}", bits.nbits());
    out.push(' ');
    for (i, word) in bits.words().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{word:x}"));
    }
    out
}

/// Parses either form of the summary reply (with or without the leading
/// `+`, as `BrokerClient::expect_ok` strips it).
pub fn parse_summary_reply(line: &str) -> Result<SummaryReply, String> {
    let line = line.strip_prefix('+').unwrap_or(line);
    let rest = line
        .strip_prefix("OK summary ")
        .ok_or_else(|| format!("not a summary reply: `{line}`"))?;
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("unchanged") => {
            let epoch: u64 = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("summary unchanged reply missing epoch")?;
            Ok(SummaryReply::Unchanged { epoch })
        }
        Some(epoch_text) => {
            let epoch: u64 = epoch_text
                .parse()
                .map_err(|_| format!("bad summary epoch `{epoch_text}`"))?;
            let nbits: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("summary reply missing nbits")?;
            let mut bits = FixedBitSet::new(nbits);
            let words_text = parts.next().ok_or("summary reply missing words")?;
            let words: Vec<u64> = words_text
                .split(',')
                .map(|t| u64::from_str_radix(t, 16))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("bad summary word: {e}"))?;
            if words.len() != bits.words().len() {
                return Err(format!(
                    "summary reply has {} words, expected {} for {nbits} bits",
                    words.len(),
                    bits.words().len()
                ));
            }
            bits.words_mut().copy_from_slice(&words);
            if parts.next().is_some() {
                return Err("trailing tokens in summary reply".into());
            }
            Ok(SummaryReply::Summary { epoch, bits })
        }
        None => Err("empty summary reply".into()),
    }
}

/// The router's structured refusal when *neither* node of a partition is
/// serviceable: `-ERR backend <i> unavailable`.
pub fn render_backend_unavailable(index: usize) -> String {
    format!("-ERR backend {index} unavailable")
}

/// Recognizes [`render_backend_unavailable`], returning the partition.
pub fn parse_backend_unavailable(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("-ERR backend ")?;
    let (index, tail) = rest.split_once(' ')?;
    if tail.trim() != "unavailable" {
        return None;
    }
    index.parse().ok()
}

/// The replica's refusal of client churn.
pub const READ_ONLY_REPLICA_ERR: &str = "-ERR read-only replica";

/// A backend's structured refusal of churn for an id outside its ring
/// ownership: `-ERR not owner <id>`. Seen in the instant between a
/// migration flip and a router thread refreshing its routing view —
/// retrying re-routes to the new owner.
pub fn render_not_owner(id: SubId) -> String {
    format!("-ERR not owner {}", id.0)
}

/// Recognizes [`render_not_owner`], returning the refused id.
pub fn parse_not_owner(line: &str) -> Option<SubId> {
    line.strip_prefix("-ERR not owner ")
        .and_then(|rest| rest.trim().parse::<u32>().ok())
        .map(SubId)
}

/// Whether a churn refusal is transient cluster state — a partition with
/// no serviceable node (failover may still fix it), a node answering
/// mid-role-flip, or an ex-owner answering mid-ownership-flip — and
/// therefore worth a client-side retry (each retry re-sends through the
/// router, which re-routes under its refreshed view).
pub fn is_retryable_churn_refusal(line: &str) -> bool {
    parse_backend_unavailable(line).is_some()
        || line.starts_with(READ_ONLY_REPLICA_ERR)
        || parse_not_owner(line).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(3, 16)
    }

    #[test]
    fn parses_all_verbs() {
        let schema = schema();
        let req = parse_request(&schema, "SUB 7 a0 = 3 AND a1 >= 5")
            .unwrap()
            .unwrap();
        match req {
            Request::Sub { id, sub } => {
                assert_eq!(id, SubId(7));
                assert_eq!(sub.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request(&schema, "unsub 9").unwrap().unwrap(),
            Request::Unsub { id: SubId(9) }
        );
        assert!(matches!(
            parse_request(&schema, "PUB a0 = 1, a1 = 2")
                .unwrap()
                .unwrap(),
            Request::Pub { .. }
        ));
        assert_eq!(
            parse_request(&schema, "BATCH 16").unwrap().unwrap(),
            Request::Batch { count: 16 }
        );
        assert_eq!(
            parse_request(&schema, "STATS").unwrap().unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(&schema, "snapshot").unwrap().unwrap(),
            Request::Snapshot
        );
        assert_eq!(
            parse_request(&schema, "CLAIM 12").unwrap().unwrap(),
            Request::Claim { id: SubId(12) }
        );
        assert_eq!(
            parse_request(&schema, "topology").unwrap().unwrap(),
            Request::Topology
        );
        assert_eq!(
            parse_request(&schema, "PING").unwrap().unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_request(&schema, "QUIT").unwrap().unwrap(),
            Request::Quit
        );
        assert_eq!(
            parse_request(&schema, "REPLICATE 42").unwrap().unwrap(),
            Request::Replicate {
                from_seq: 42,
                ring: None,
                reset: false
            }
        );
        assert_eq!(
            parse_request(&schema, "REPLICATE 42 reset")
                .unwrap()
                .unwrap(),
            Request::Replicate {
                from_seq: 42,
                ring: None,
                reset: true
            }
        );
        assert_eq!(
            parse_request(&schema, "REPLICATE 0 ring 0,1,2 2")
                .unwrap()
                .unwrap(),
            Request::Replicate {
                from_seq: 0,
                ring: Some(RingSpec {
                    members_csv: "0,1,2".into(),
                    keep_csv: "2".into()
                }),
                reset: false
            }
        );
        assert_eq!(
            parse_request(&schema, "REPLICATE 0 ring 0,1,2 2 reset")
                .unwrap()
                .unwrap(),
            Request::Replicate {
                from_seq: 0,
                ring: Some(RingSpec {
                    members_csv: "0,1,2".into(),
                    keep_csv: "2".into()
                }),
                reset: true
            }
        );
        // The one bootstrap form needs no capability token: `v2` is as
        // unknown as any other word.
        assert_eq!(
            parse_request(&schema, "REPLICATE 42 v2"),
            Err("bad replicate token `v2`".into())
        );
        assert!(parse_request(&schema, "REPLICATE 42 v2 reset").is_err());
        assert!(parse_request(&schema, "REPLICATE 42 v3").is_err());
        assert!(parse_request(&schema, "REPLICATE 42 x").is_err());
        assert!(parse_request(&schema, "REPLICATE 42 ring 0,1").is_err());
        assert!(parse_request(&schema, "REPLICATE 42 ring 0,1 1 x").is_err());
        assert!(parse_request(&schema, "REPLICATE 42 reset x").is_err());
        assert_eq!(
            parse_request(&schema, "replack 7").unwrap().unwrap(),
            Request::ReplAck { seq: 7 }
        );
        assert_eq!(
            parse_request(&schema, "ROLE").unwrap().unwrap(),
            Request::Role
        );
        assert_eq!(
            parse_request(&schema, "PROMOTE").unwrap().unwrap(),
            Request::Promote
        );
        assert_eq!(
            parse_request(&schema, "DEMOTE 127.0.0.1:7001")
                .unwrap()
                .unwrap(),
            Request::Demote {
                addr: "127.0.0.1:7001".into()
            }
        );
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        let schema = schema();
        assert_eq!(parse_request(&schema, "   ").unwrap(), None);
        assert_eq!(parse_request(&schema, "# hi").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_requests() {
        let schema = schema();
        for bad in [
            "SUB",
            "SUB x a0 = 1",
            "SUB 1 a9 = 1",
            "UNSUB",
            "UNSUB x",
            "CLAIM",
            "CLAIM x",
            "PUB",
            "PUB nonsense",
            "BATCH",
            "BATCH 0",
            "BATCH -3",
            "REPLICATE",
            "REPLICATE x",
            "REPLACK",
            "REPLACK x",
            "DEMOTE",
            "FROB 1",
            "RESHARD",
            "RESHARD FROB",
            "RESHARD ADD",
            "RESHARD REMOVE",
            "RESHARD REMOVE x",
            "RESHARD PULL 127.0.0.1:1 0,1",
            "RESHARD PRUNE 0,1",
            "RESHARD STATUS extra",
        ] {
            assert!(parse_request(&schema, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reshard_verbs_parse() {
        let schema = schema();
        assert_eq!(
            parse_request(&schema, "RESHARD ADD 127.0.0.1:7010")
                .unwrap()
                .unwrap(),
            Request::Reshard(ReshardCmd::Add {
                primary: "127.0.0.1:7010".into(),
                followers: Vec::new()
            })
        );
        assert_eq!(
            parse_request(&schema, "reshard add 127.0.0.1:7010 127.0.0.1:7011")
                .unwrap()
                .unwrap(),
            Request::Reshard(ReshardCmd::Add {
                primary: "127.0.0.1:7010".into(),
                followers: vec!["127.0.0.1:7011".into()]
            })
        );
        assert_eq!(
            parse_request(
                &schema,
                "RESHARD ADD 127.0.0.1:7010 127.0.0.1:7011 127.0.0.1:7012"
            )
            .unwrap()
            .unwrap(),
            Request::Reshard(ReshardCmd::Add {
                primary: "127.0.0.1:7010".into(),
                followers: vec!["127.0.0.1:7011".into(), "127.0.0.1:7012".into()]
            })
        );
        assert_eq!(
            parse_request(&schema, "RESHARD REMOVE 2").unwrap().unwrap(),
            Request::Reshard(ReshardCmd::Remove { partition: 2 })
        );
        assert_eq!(
            parse_request(&schema, "RESHARD STATUS").unwrap().unwrap(),
            Request::Reshard(ReshardCmd::Status)
        );
        assert_eq!(
            parse_request(&schema, "RESHARD PULL 127.0.0.1:7001 0,1,2 2")
                .unwrap()
                .unwrap(),
            Request::Reshard(ReshardCmd::Pull {
                source: "127.0.0.1:7001".into(),
                scope: RingSpec {
                    members_csv: "0,1,2".into(),
                    keep_csv: "2".into()
                },
                donor: None
            })
        );
        assert_eq!(
            parse_request(&schema, "RESHARD PULL 127.0.0.1:7001 0,1,2 2 0,1 0")
                .unwrap()
                .unwrap(),
            Request::Reshard(ReshardCmd::Pull {
                source: "127.0.0.1:7001".into(),
                scope: RingSpec {
                    members_csv: "0,1,2".into(),
                    keep_csv: "2".into()
                },
                donor: Some(RingSpec {
                    members_csv: "0,1".into(),
                    keep_csv: "0".into()
                })
            })
        );
        assert_eq!(
            parse_request(&schema, "RESHARD CUTOFF").unwrap().unwrap(),
            Request::Reshard(ReshardCmd::Cutoff)
        );
        assert_eq!(
            parse_request(&schema, "RESHARD PRUNE 0,1,2 0,1")
                .unwrap()
                .unwrap(),
            Request::Reshard(ReshardCmd::Prune {
                scope: RingSpec {
                    members_csv: "0,1,2".into(),
                    keep_csv: "0,1".into()
                }
            })
        );
    }

    #[test]
    fn not_owner_round_trips_and_is_retryable() {
        let line = render_not_owner(SubId(41));
        assert_eq!(line, "-ERR not owner 41");
        assert_eq!(parse_not_owner(&line), Some(SubId(41)));
        assert_eq!(parse_not_owner("-ERR not owner x"), None);
        assert_eq!(parse_not_owner("-ERR read-only replica"), None);
        assert!(is_retryable_churn_refusal(&line));
    }

    #[test]
    fn result_round_trips() {
        let ids = vec![SubId(1), SubId(5), SubId(9)];
        let line = render_result(42, &ids);
        assert_eq!(line, "RESULT 42 3 1,5,9");
        assert_eq!(parse_result(&line).unwrap(), (42, ids));

        let empty = render_result(7, &[]);
        assert_eq!(empty, "RESULT 7 0");
        assert_eq!(parse_result(&empty).unwrap(), (7, Vec::new()));
    }

    #[test]
    fn partial_results_round_trip() {
        let ids = vec![SubId(2), SubId(8)];
        let line = render_result_ext(5, &ids, true);
        assert_eq!(line, "RESULT 5 2 2,8 partial");
        assert_eq!(parse_result_ext(&line).unwrap(), (5, ids.clone(), true));
        // The legacy parser tolerates the flag.
        assert_eq!(parse_result(&line).unwrap(), (5, ids));

        let empty = render_result_ext(9, &[], true);
        assert_eq!(empty, "RESULT 9 0 partial");
        assert_eq!(parse_result_ext(&empty).unwrap(), (9, Vec::new(), true));

        let full = render_result_ext(3, &[SubId(1)], false);
        assert_eq!(parse_result_ext(&full).unwrap(), (3, vec![SubId(1)], false));
        assert!(parse_result_ext("RESULT 1 1 4 bogus").is_err());
    }

    #[test]
    fn duplicate_error_round_trips() {
        let line = render_duplicate_error(SubId(77));
        assert_eq!(line, "-ERR duplicate 77");
        assert_eq!(parse_duplicate_error(&line), Some(SubId(77)));
        assert_eq!(parse_duplicate_error("-ERR duplicate subscription 7"), None);
        assert_eq!(parse_duplicate_error("-ERR unknown subscription 7"), None);
    }

    #[test]
    fn churn_acks_round_trip_and_parse_strictly() {
        assert_eq!(render_churn_ack(SubId(7), Some(42)), "+OK 7 seq 42");
        assert_eq!(render_churn_ack(SubId(7), None), "+OK 7");
        assert_eq!(parse_churn_ack_seq("+OK 7 seq 42"), Some(42));
        assert_eq!(parse_churn_ack_seq("+OK 7"), None);
        // Never mistake another `+OK` shape for a durable churn ack:
        // publish acks, claims, promotion replies, trailing garbage.
        assert_eq!(parse_churn_ack_seq("+OK 42"), None);
        assert_eq!(parse_churn_ack_seq("+OK claimed 7"), None);
        assert_eq!(parse_churn_ack_seq("+OK promoted seq 5"), None);
        assert_eq!(parse_churn_ack_seq("+OK 7 seq 42 extra"), None);
        assert_eq!(parse_churn_ack_seq("+OK 7 seq x"), None);
        assert_eq!(parse_churn_ack_seq("-ERR duplicate 7"), None);
    }

    #[test]
    fn replicate_headers_parse() {
        assert_eq!(
            parse_replicate_header("+OK replicate log 12").unwrap(),
            ReplicateStart::Log { backlog: 12 }
        );
        assert_eq!(
            parse_replicate_header("+OK replicate colstore 3 40 97").unwrap(),
            ReplicateStart::Colstore {
                blocks: 3,
                subs: 40,
                seq: 97
            }
        );
        assert_eq!(
            parse_replicate_header("+OK replicate truncate 97 deadbeef").unwrap(),
            ReplicateStart::Truncate {
                seq: 97,
                crc: 0xdead_beef
            }
        );
        assert_eq!(
            render_replicate_truncate(97, 0xdead_beef),
            "+OK replicate truncate 97 deadbeef"
        );
        assert!(parse_replicate_header("+OK replicate").is_err());
        assert!(parse_replicate_header("+OK replicate log").is_err());
        assert!(parse_replicate_header("+OK replicate truncate 97").is_err());
        assert!(parse_replicate_header("+OK replicate truncate 97 zzz").is_err());
        assert!(parse_replicate_header("+OK replicate snapshot 40 97").is_err());
        assert!(parse_replicate_header("+OK replicate colstore 3 40").is_err());
        assert!(parse_replicate_header("-ERR persistence disabled").is_err());
    }

    #[test]
    fn role_reports_round_trip() {
        let primary = RoleReport {
            primary: true,
            seq: 88,
            lag: 3,
            connected: 1,
            following: None,
            acked: 85,
        };
        let line = render_role_report(&primary);
        assert_eq!(line, "+OK role primary seq 88 followers 1 lag 3 acked 85");
        assert_eq!(parse_role_report(&line).unwrap(), primary);
        // Pre-chain primaries omitted `acked`; it defaults to `seq`.
        let legacy = parse_role_report("+OK role primary seq 88 followers 1 lag 3").unwrap();
        assert_eq!(legacy.acked, 88);

        let replica = RoleReport {
            primary: false,
            seq: 85,
            lag: 0,
            connected: 1,
            following: Some("127.0.0.1:7001".into()),
            acked: 85,
        };
        let line = render_role_report(&replica);
        assert_eq!(
            line,
            "+OK role replica of 127.0.0.1:7001 applied 85 connected 1"
        );
        assert_eq!(parse_role_report(&line).unwrap(), replica);
        // The `+` is optional, as `BrokerClient::expect_ok` strips it.
        assert_eq!(
            parse_role_report("OK role primary seq 0 followers 0 lag 0")
                .unwrap()
                .seq,
            0
        );
        assert!(parse_role_report("+OK topology standalone").is_err());
    }

    #[test]
    fn backend_unavailable_round_trips_and_classifies() {
        let line = render_backend_unavailable(3);
        assert_eq!(line, "-ERR backend 3 unavailable");
        assert_eq!(parse_backend_unavailable(&line), Some(3));
        assert_eq!(
            parse_backend_unavailable("-ERR backend x unavailable"),
            None
        );
        assert_eq!(parse_backend_unavailable("-ERR backend 3 down"), None);
        assert!(is_retryable_churn_refusal(&line));
        assert!(is_retryable_churn_refusal(READ_ONLY_REPLICA_ERR));
        assert!(!is_retryable_churn_refusal("-ERR duplicate 7"));
    }

    #[test]
    fn summary_verb_parses() {
        let schema = schema();
        assert_eq!(
            parse_request(&schema, "SUMMARY 0").unwrap().unwrap(),
            Request::Summary { epoch: 0 }
        );
        assert_eq!(
            parse_request(&schema, "summary 42").unwrap().unwrap(),
            Request::Summary { epoch: 42 }
        );
        assert!(parse_request(&schema, "SUMMARY").is_err());
        assert!(parse_request(&schema, "SUMMARY x").is_err());
    }

    #[test]
    fn summary_replies_round_trip() {
        let unchanged = render_summary_unchanged(9);
        assert_eq!(unchanged, "+OK summary unchanged 9");
        assert_eq!(
            parse_summary_reply(&unchanged).unwrap(),
            SummaryReply::Unchanged { epoch: 9 }
        );

        let bits = FixedBitSet::from_indices(130, [0usize, 63, 64, 129]);
        let line = render_summary_reply(3, &bits);
        match parse_summary_reply(&line).unwrap() {
            SummaryReply::Summary {
                epoch,
                bits: parsed,
            } => {
                assert_eq!(epoch, 3);
                assert_eq!(parsed.nbits(), 130);
                assert_eq!(
                    parsed.ones().collect::<Vec<_>>(),
                    bits.ones().collect::<Vec<_>>()
                );
            }
            other => panic!("{other:?}"),
        }
        // Empty bitset round-trips too.
        let empty = FixedBitSet::new(64);
        let line = render_summary_reply(1, &empty);
        assert_eq!(
            parse_summary_reply(&line).unwrap(),
            SummaryReply::Summary {
                epoch: 1,
                bits: empty
            }
        );
        // The `+` is optional.
        assert!(parse_summary_reply("OK summary unchanged 2").is_ok());
        assert!(parse_summary_reply("+OK summary 1 64").is_err());
        assert!(parse_summary_reply("+OK summary 1 128 0").is_err());
        assert!(parse_summary_reply("+OK topology standalone").is_err());
    }

    #[test]
    fn event_notification_renders_through_schema() {
        let schema = schema();
        let ev = parser::parse_event(&schema, "a0 = 1, a2 = 5").unwrap();
        let line = render_event_notification(SubId(3), &ev, &schema);
        assert!(line.starts_with("EVENT 3 "));
        let body = line.strip_prefix("EVENT 3 ").unwrap();
        assert_eq!(parser::parse_event(&schema, body).unwrap(), ev);
    }
}
