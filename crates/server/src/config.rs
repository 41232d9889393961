//! Server configuration: shard layout, ingest tuning, connection
//! policies, and durability.

use apcm_core::ApcmConfig;
use std::path::PathBuf;
use std::time::Duration;

/// What to do with a connection whose outbound queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// Drop the notification and count it (`replies_dropped`); the
    /// connection stays up. The default.
    Drop,
    /// Disconnect the consumer; a client that cannot keep up loses its
    /// session rather than wedging the matcher.
    Disconnect,
}

impl SlowConsumerPolicy {
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "drop" => Ok(Self::Drop),
            "disconnect" => Ok(Self::Disconnect),
            other => Err(format!(
                "unknown slow-consumer policy `{other}` (expected drop|disconnect)"
            )),
        }
    }
}

/// When appended churn records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append — an acknowledged SUB/UNSUB survives
    /// a machine crash, at per-op syscall cost.
    Always,
    /// Sync once per maintenance sweep. A process crash loses nothing (the
    /// kernel has the bytes); a machine crash can lose up to one sweep of
    /// churn. The default.
    Interval,
    /// Never force; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(Self::Always),
            "interval" => Ok(Self::Interval),
            "never" => Ok(Self::Never),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected always|interval|never)"
            )),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Interval => "interval",
            Self::Never => "never",
        }
    }
}

/// Durability settings. `ServerConfig::persist = Some(..)` turns the
/// broker's subscription set into durable state (see [`crate::persist`]).
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding `snapshot.apcm` and `churn.log` (created if
    /// missing).
    pub dir: PathBuf,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Background snapshot period; `None` disables age-triggered
    /// snapshots (size rotation and the `SNAPSHOT` command still work).
    pub snapshot_interval: Option<Duration>,
    /// Snapshot + rotate once the churn log exceeds this many bytes.
    pub rotate_log_bytes: u64,
    /// Initial retry delay after a failed append (doubles per failure).
    pub retry_backoff: Duration,
    /// Ceiling for the exponential backoff.
    pub max_retry_backoff: Duration,
    /// Age-triggered background snapshots may serialize
    /// just the partitions dirtied since the last chain element, up to
    /// this many deltas stacked on one full before the next full is
    /// forced. `0` disables delta snapshots.
    pub max_delta_chain: u32,
}

impl PersistConfig {
    /// Defaults for a given directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval,
            snapshot_interval: Some(Duration::from_secs(60)),
            rotate_log_bytes: 16 * 1024 * 1024,
            retry_backoff: Duration::from_millis(100),
            max_retry_backoff: Duration::from_secs(10),
            max_delta_chain: 4,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.rotate_log_bytes == 0 {
            return Err("rotate_log_bytes must be positive".into());
        }
        if self.retry_backoff.is_zero() || self.max_retry_backoff < self.retry_backoff {
            return Err("retry backoff must be positive and <= its ceiling".into());
        }
        Ok(())
    }
}

/// Tuning for the sharded matching service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of hash partitions of the subscription space; each shard
    /// runs its own A-PCM matcher.
    pub shards: usize,
    /// OSR ingest window: events are matched in windows of this many.
    pub window: usize,
    /// Capacity of the bounded ingest queue (events). Producers block when
    /// it is full — this is the backpressure boundary.
    pub ingest_queue: usize,
    /// Capacity of each connection's bounded outbound queue (lines).
    pub conn_queue: usize,
    /// Flush a partial ingest window at most this long after the oldest
    /// buffered event. Windows also flush when full, and when a frame's
    /// last event (a `PUB`, or a `BATCH`'s last) finds the queue idle, so
    /// this bound is reached only while the queue never goes idle and the
    /// window does not fill.
    pub flush_interval: Duration,
    /// Period of the background per-shard `maintain()` sweep.
    pub maintenance_interval: Duration,
    /// Policy for consumers whose outbound queue is full.
    pub slow_consumer: SlowConsumerPolicy,
    /// Hard cap on one protocol line; longer lines get `-ERR line too
    /// long` and are discarded without unbounded buffering.
    pub max_line_bytes: usize,
    /// Close connections with no inbound traffic for this long (the event
    /// loop's timer wheel reaps them); `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Durable subscription state; `None` keeps the pre-durability
    /// behavior (everything lost on restart).
    pub persist: Option<PersistConfig>,
    /// Start as a read-only replica following the primary at this address:
    /// client churn is refused (`-ERR read-only replica`) and a puller
    /// thread streams the primary's churn records into the local engine +
    /// persistence. Requires `persist`. `PROMOTE` flips the role at
    /// runtime.
    pub replica_of: Option<String>,
    /// A replica sends `REPLACK` after this many applied records (and on
    /// stream idle), bounding how stale the primary's lag gauge can be.
    pub repl_ack_every: u64,
    /// Admission cap: accepts beyond this many open client connections
    /// are answered `-ERR server busy` and closed (counted in
    /// `conns_rejected`). `None` disables the cap.
    pub max_conns: Option<usize>,
    /// Event-loop worker threads; `None` sizes from available cores
    /// (clamped to 2..=8).
    pub loop_workers: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            window: 128,
            ingest_queue: 4096,
            conn_queue: 1024,
            flush_interval: Duration::from_millis(5),
            maintenance_interval: Duration::from_millis(250),
            slow_consumer: SlowConsumerPolicy::Drop,
            max_line_bytes: 1024 * 1024,
            idle_timeout: None,
            persist: None,
            replica_of: None,
            repl_ack_every: 32,
            max_conns: None,
            loop_workers: None,
        }
    }
}

impl ServerConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.ingest_queue == 0 || self.conn_queue == 0 {
            return Err("queue capacities must be positive".into());
        }
        if self.max_line_bytes < 16 {
            return Err("max_line_bytes must be at least 16".into());
        }
        if let Some(persist) = &self.persist {
            persist.validate()?;
        }
        if self.replica_of.is_some() && self.persist.is_none() {
            return Err("replica mode requires persistence (the replicated churn \
                        log is applied through the local persister)"
                .into());
        }
        if self.repl_ack_every == 0 {
            return Err("repl_ack_every must be positive".into());
        }
        if self.max_conns == Some(0) {
            return Err("max_conns must be positive when set".into());
        }
        if self.loop_workers == Some(0) {
            return Err("loop_workers must be positive when set".into());
        }
        Ok(())
    }

    /// Matcher configuration for one shard: available cores are divided
    /// evenly across shards. With several shards the fan-out happens at
    /// the shard level, so each shard usually runs sequentially on its
    /// share; a single shard keeps the matcher's own pool.
    pub fn shard_engine_config(&self) -> ApcmConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let per_shard = (cores / self.shards).max(1);
        if per_shard <= 1 {
            ApcmConfig::sequential()
        } else {
            ApcmConfig::default().with_threads(per_shard)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServerConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_shards() {
        let config = ServerConfig {
            shards: 0,
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(
            FsyncPolicy::parse("interval").unwrap(),
            FsyncPolicy::Interval
        );
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn persist_config_validates() {
        let mut p = PersistConfig::new("/tmp/somewhere");
        p.validate().unwrap();
        p.rotate_log_bytes = 0;
        assert!(p.validate().is_err());
        let mut p = PersistConfig::new("/tmp/somewhere");
        p.max_retry_backoff = Duration::from_millis(1);
        assert!(p.validate().is_err());

        let config = ServerConfig {
            persist: Some(PersistConfig {
                rotate_log_bytes: 0,
                ..PersistConfig::new("/tmp/x")
            }),
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn replica_mode_requires_persistence() {
        let config = ServerConfig {
            replica_of: Some("127.0.0.1:7001".into()),
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
        let config = ServerConfig {
            replica_of: Some("127.0.0.1:7001".into()),
            persist: Some(PersistConfig::new("/tmp/x")),
            ..ServerConfig::default()
        };
        config.validate().unwrap();
        let config = ServerConfig {
            repl_ack_every: 0,
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_tiny_line_cap() {
        let config = ServerConfig {
            max_line_bytes: 4,
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn rejects_zero_conn_cap_and_workers() {
        let config = ServerConfig {
            max_conns: Some(0),
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
        let config = ServerConfig {
            loop_workers: Some(0),
            ..ServerConfig::default()
        };
        assert!(config.validate().is_err());
        let config = ServerConfig {
            max_conns: Some(64),
            loop_workers: Some(2),
            ..ServerConfig::default()
        };
        config.validate().unwrap();
    }
}
