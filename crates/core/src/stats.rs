//! Runtime statistics snapshots.

/// A point-in-time view of an [`crate::ApcmMatcher`]'s state and counters,
/// used by the harness tables and the adaptivity experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatcherStats {
    /// Indexed subscriptions (clustered + pending).
    pub subscriptions: usize,
    /// Total clusters.
    pub clusters: usize,
    /// Clusters in compressed representation.
    pub compressed_clusters: usize,
    /// Clusters in direct representation.
    pub direct_clusters: usize,
    /// Subscriptions awaiting the next maintenance fold.
    pub pending: usize,
    /// Predicate-space width in bits.
    pub width: usize,
    /// Heap bytes of stored bitmaps.
    pub heap_bytes: usize,
    /// Lifetime cluster probes across all workers.
    ///
    /// `probes`/`prunes`/`hits` are monotone totals aggregated lazily from
    /// per-worker counter cells ([`crate::CounterShards`]); maintenance
    /// resets only the per-cluster epoch counters that drive adaptivity,
    /// never these.
    pub probes: u64,
    /// Probes rejected by the shared-mask test (lifetime).
    pub prunes: u64,
    /// Member matches produced (lifetime).
    pub hits: u64,
    /// Maintenance passes executed (epoch-triggered or explicit).
    pub maintenance_runs: u64,
}

impl MatcherStats {
    /// Fraction of cluster probes pruned; 0 when nothing was probed.
    pub fn prune_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.prunes as f64 / self.probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_rate_handles_zero() {
        assert_eq!(MatcherStats::default().prune_rate(), 0.0);
        let s = MatcherStats {
            probes: 10,
            prunes: 4,
            ..Default::default()
        };
        assert!((s.prune_rate() - 0.4).abs() < 1e-12);
    }
}
