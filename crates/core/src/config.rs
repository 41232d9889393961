//! Engine configuration.

use crate::{AdaptiveConfig, ClusteringPolicy};

/// Full A-PCM configuration. [`ApcmConfig::default`] reflects the paper's
/// recommended operating point: compressed clusters, all cores, OSR on,
/// adaptivity on.
#[derive(Debug, Clone)]
pub struct ApcmConfig {
    /// Worker threads the matcher's scoped-thread pool fans out to; `None`
    /// uses all available cores, `Some(1)` matches on the caller's thread.
    pub threads: Option<usize>,
    /// How subscription bitmaps are grouped into clusters.
    pub clustering: ClusteringPolicy,
    /// Upper bound on members per cluster. Larger clusters amortize the
    /// shared-mask test over more members but dilute the shared mask.
    pub max_cluster_size: usize,
    /// OSR window: events buffered and reordered per batch. `1` disables
    /// re-ordering (every event is its own batch).
    pub batch_size: usize,
    /// Whether `match_batch` re-orders events within a window (OSR). Each
    /// batch is probed cluster-major whenever `batch_size > 1`, ordered or
    /// not.
    pub reorder: bool,
    /// Adaptive maintenance settings.
    pub adaptive: AdaptiveConfig,
}

impl Default for ApcmConfig {
    fn default() -> Self {
        Self {
            threads: None,
            clustering: ClusteringPolicy::default(),
            max_cluster_size: 64,
            batch_size: 256,
            reorder: true,
            adaptive: AdaptiveConfig::default(),
        }
    }
}

impl ApcmConfig {
    /// The paper's PCM baseline: compression and parallelism, no OSR, no
    /// adaptivity.
    pub fn pcm() -> Self {
        Self {
            batch_size: 1,
            reorder: false,
            adaptive: AdaptiveConfig::disabled(),
            ..Self::default()
        }
    }

    /// Fully sequential compressed matching (for the parallelism ablation):
    /// [`ApcmConfig::pcm`] on one thread.
    pub fn sequential() -> Self {
        Self::pcm().with_threads(1)
    }

    /// Sets the thread count (fluent).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the OSR batch size (fluent).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_cluster_size == 0 {
            return Err("max_cluster_size must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if let Some(0) = self.threads {
            return Err("threads must be positive when set".into());
        }
        self.adaptive.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(ApcmConfig::default().validate(), Ok(()));
        assert_eq!(ApcmConfig::pcm().validate(), Ok(()));
        assert_eq!(ApcmConfig::sequential().validate(), Ok(()));
    }

    #[test]
    fn presets_shape() {
        let pcm = ApcmConfig::pcm();
        assert_eq!(pcm.batch_size, 1);
        assert!(!pcm.adaptive.enabled);
        let seq = ApcmConfig::sequential();
        assert_eq!(seq.threads, Some(1));
        assert_eq!(seq.batch_size, 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = ApcmConfig {
            max_cluster_size: 0,
            ..ApcmConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ApcmConfig {
            batch_size: 0,
            ..ApcmConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ApcmConfig {
            threads: Some(0),
            ..ApcmConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fluent_setters() {
        let c = ApcmConfig::default().with_threads(4).with_batch_size(32);
        assert_eq!(c.threads, Some(4));
        assert_eq!(c.batch_size, 32);
    }
}
