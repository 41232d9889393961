//! apcm-server: a concurrent matching service over the A-PCM engines.
//!
//! The paper's matcher is a library; this crate turns it into a broker:
//!
//! * [`ShardedEngine`] hash-partitions the subscription space across N
//!   shards, each owning an [`apcm_core::ApcmMatcher`] with native live
//!   churn, fans event windows out across shards on scoped threads, and
//!   merges rows.
//! * [`IngestPipeline`] applies OSR at the service boundary: publishes
//!   flow through a bounded queue (backpressure) into
//!   [`apcm_core::osr::OsrBuffer`] windows matched by a dedicated thread.
//! * [`Server`] is a TCP broker (an `apcm-netio` epoll loop) speaking a
//!   newline-delimited text protocol (see [`protocol`]) with live
//!   `SUB`/`UNSUB`, batch publishing, per-connection slow-consumer policy,
//!   a background maintenance sweep, and [`ServerStats`] counters.
//! * [`persist`] makes the subscription set durable: a checksummed
//!   snapshot (block-columnar compressed colstore v2, with delta
//!   snapshots of dirty partitions) plus a CRC-framed append-only churn
//!   log, replayed at startup with torn-tail truncation and
//!   corrupt-record skipping.
//! * [`replication`] ships that churn log to follower servers live: a
//!   replica (`ServerConfig::replica_of`, or `DEMOTE` at runtime) pulls
//!   `REPLICATE <from_seq>` — log tail or colstore bootstrap — and
//!   applies each CRC-framed record to its own engine + persistence,
//!   refusing client churn until `PROMOTE` flips it back to primary.

pub mod broker;
pub mod client;
pub mod config;
pub mod delivery;
mod event_broker;
pub mod framing;
pub mod ingest;
pub mod persist;
pub mod protocol;
pub mod replication;
mod request;
pub mod ring;
pub mod shard;
pub mod stats;

pub use broker::Server;
pub use client::{is_timeout_error, BrokerClient, ConnectOptions};
pub use config::{FsyncPolicy, PersistConfig, ServerConfig, SlowConsumerPolicy};
pub use delivery::{Delivery, DeliveryGauges};
pub use framing::{Framed, Framing, FramingCounters, Publish};
pub use ingest::{IngestItem, IngestPipeline, IngestSender, ResultSink};
pub use persist::{Persister, RecoveryReport, SnapshotOutcome, StreamStart};
pub use protocol::{ReplicateStart, ReshardCmd, RingSpec, RoleReport};
pub use replication::{Role, RoleState};
pub use ring::{parse_member_csv, Ring, RingScope, VNODES_PER_MEMBER};
pub use shard::{route_partition, ShardedEngine};
pub use stats::ServerStats;
