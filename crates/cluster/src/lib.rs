//! apcm-cluster: a multi-node shard tier over `apcm-server`.
//!
//! One [`Router`] fronts N backend shard servers. Clients speak the same
//! newline text protocol they would to a standalone server, served the
//! same way (the broker's netio event loop, `Framing` and `Delivery`);
//! the router owns no subscriptions:
//!
//! * **Routing** — `SUB`/`UNSUB`/`CLAIM` go to exactly one backend,
//!   chosen by the consistent-hash virtual-node ring
//!   (`apcm_server::Ring`) shared with the backends' `RESHARD` scopes.
//!   The ring placement is a wire-visible contract, pinned by golden
//!   tests in both crates.
//! * **Scatter-gather** — `PUB`/`BATCH` windows fan to every live backend
//!   on scoped threads; rows are merged (sorted, deduplicated) and the
//!   router synthesizes `EVENT` notifications from the merged rows.
//! * **Membership** — a health thread `ROLE`-probes every node each
//!   sweep (the probe doubles as the liveness ping and reports role,
//!   sequence, and replication lag) and redials down nodes on the
//!   jittered exponential-backoff schedule of
//!   `apcm_server::ConnectOptions`. `TOPOLOGY` reports the table, one
//!   row per node with `role=primary|replica`, seq, and lag columns.
//! * **Replication & failover** — each partition may pair its primary
//!   with a replica ([`BackendSpec`]). When the active node is marked
//!   down, the sweep (or the routing paths, inline) promotes the standby
//!   — but only if its applied sequence has caught up to the partition's
//!   churn high-water mark, so acknowledged churn is never dropped. A
//!   returning ex-primary is demoted back into a follower. Churn is
//!   refused (`-ERR backend <i> unavailable`) only when *neither* node is
//!   serviceable; matching degrades to the surviving partitions with rows
//!   flagged `partial` and `cluster_degraded` counted.
//! * **Elastic resharding** — `RESHARD ADD`/`REMOVE` migrate ~1/N of the
//!   id space onto a joining backend (or off a leaving one) live: the
//!   [`migration`] controller drives per-leg catch-up over the
//!   replication stream, double-writes churn during the handoff, and
//!   flips ownership atomically with zero acked churn dropped.
//! * **[`ClusterHandle`]** — an in-process cluster (backends + router on
//!   loopback) with `kill_node`/`restart_node` fault injection for tests
//!   and benchmarks.

pub mod backend;
pub mod handle;
pub mod membership;
pub mod migration;
pub mod router;
pub mod stats;

pub use backend::BackendConn;
pub use handle::ClusterHandle;
pub use membership::{BackendSpec, Membership, Node, Partition};
pub use migration::{ActiveMigration, MigrationController, MigrationKind};
pub use router::{Router, RouterConfig};
pub use stats::ClusterStats;
