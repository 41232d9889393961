//! PCM: parallel compressed matching (static engine).

use crate::{parallel::Pool, scratch, ApcmConfig, Cluster, ClusterIndex};
use apcm_bexpr::{BexprError, Event, Matcher, Schema, SubId, Subscription};
use apcm_encoding::PredicateSpace;

/// The paper's PCM configuration: compressed clusters swept in parallel,
/// no stream re-ordering, no adaptivity, static corpus.
///
/// [`crate::ApcmMatcher`] layers OSR, adaptivity, and dynamic maintenance on
/// the same kernel; PCM exists separately because the evaluation repeatedly
/// compares the two (e.g. experiments E3 and E10 isolate what OSR and
/// adaptivity add).
#[derive(Debug)]
pub struct PcmMatcher {
    space: PredicateSpace,
    index: ClusterIndex,
    pool: Pool,
    len: usize,
}

impl PcmMatcher {
    /// Encodes the corpus, clusters it, and readies the thread pool.
    pub fn build(
        schema: &Schema,
        subs: &[Subscription],
        config: &ApcmConfig,
    ) -> Result<Self, BexprError> {
        config.validate().expect("invalid ApcmConfig");
        let (space, encoded) = PredicateSpace::build(schema, subs)?;
        let selectivity = crate::clustering::selectivity_table(&space);
        let clusters = config
            .clustering
            .cluster(&encoded, config.max_cluster_size, &selectivity);
        let index = ClusterIndex::build(clusters, space.width(), &selectivity);
        let pool = Pool::new(config.threads);
        Ok(Self {
            space,
            index,
            pool,
            len: subs.len(),
        })
    }

    /// Encodes and matches one event (sorted, deduplicated ids).
    ///
    /// The pivot index narrows the cluster sweep to clusters whose pivot
    /// predicate the event satisfies; `pool` decides whether those
    /// candidates fan out across workers.
    fn match_on(&self, pool: &Pool, ev: &Event) -> Vec<SubId> {
        scratch::with_scratch(|s| {
            s.ensure_width(self.space.width());
            self.space.encode_event_into(ev, &mut s.ebits);
            pool.probe_event(
                &self.index,
                s.ebits.words(),
                &mut s.candidates,
                &mut s.counts,
                None,
                &mut s.row,
            );
            s.row.sort_unstable();
            s.row.dedup();
            s.row.as_slice().to_vec()
        })
    }

    /// The cluster set (read-only; exposed for the compression experiment).
    pub fn clusters(&self) -> &[Cluster] {
        self.index.clusters()
    }

    /// Heap bytes of all stored bitmaps (compression-ratio metric).
    pub fn heap_bytes(&self) -> usize {
        self.clusters().iter().map(Cluster::heap_bytes).sum()
    }
}

impl Matcher for PcmMatcher {
    fn match_event(&self, ev: &Event) -> Vec<SubId> {
        self.match_on(&self.pool, ev)
    }

    fn match_batch(&self, events: &[Event]) -> Vec<Vec<SubId>> {
        // Parallelize along the event axis — better locality than fanning
        // every single event across all cores. Each worker reuses its own
        // thread-local scratch across the events it processes.
        self.pool
            .map_indexed(events.len(), |i| self.match_on(&Pool::INLINE, &events[i]))
    }

    fn name(&self) -> &'static str {
        "PCM"
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcm_baselines::SequentialScan;
    use apcm_workload::{OperatorMix, WorkloadSpec};

    fn configs() -> Vec<ApcmConfig> {
        vec![
            ApcmConfig::sequential(),
            ApcmConfig::pcm().with_threads(4),
            ApcmConfig::pcm().with_threads(16),
            ApcmConfig {
                clustering: crate::ClusteringPolicy::GreedyLeader {
                    threshold: 0.3,
                    window: 16,
                },
                ..ApcmConfig::pcm()
            },
        ]
    }

    #[test]
    fn agrees_with_scan_across_configs() {
        let wl = WorkloadSpec::new(800)
            .seed(51)
            .planted_fraction(0.3)
            .build();
        let scan = SequentialScan::new(&wl.subs);
        let events = wl.events(40);
        for config in configs() {
            let pcm = PcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
            assert_eq!(pcm.len(), 800);
            for ev in &events {
                assert_eq!(
                    pcm.match_event(ev),
                    scan.match_event(ev),
                    "config {config:?}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_per_event_results() {
        let wl = WorkloadSpec::new(500)
            .seed(52)
            .planted_fraction(0.5)
            .build();
        let pcm = PcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::pcm()).unwrap();
        let events = wl.events(64);
        let rows = pcm.match_batch(&events);
        assert_eq!(rows.len(), events.len());
        for (ev, row) in events.iter().zip(rows.iter()) {
            assert_eq!(row, &pcm.match_event(ev));
        }
    }

    #[test]
    fn range_heavy_workload_agrees() {
        let wl = WorkloadSpec::new(400)
            .operators(OperatorMix::range_heavy())
            .planted_fraction(0.4)
            .seed(53)
            .build();
        let scan = SequentialScan::new(&wl.subs);
        let pcm = PcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::pcm()).unwrap();
        for ev in wl.events(40) {
            assert_eq!(pcm.match_event(&ev), scan.match_event(&ev));
        }
    }

    #[test]
    fn compression_saves_memory_on_similar_corpus() {
        // Low-dimensional equality corpus: heavy predicate sharing.
        let wl = WorkloadSpec::new(2000)
            .dims(6)
            .cardinality(8)
            .sub_preds(3, 5)
            .event_size(6)
            .operators(OperatorMix::equality_only())
            .seed(54)
            .build();
        let compressed = PcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::pcm()).unwrap();
        let direct_cfg = ApcmConfig {
            max_cluster_size: 1,
            ..ApcmConfig::pcm()
        };
        let direct = PcmMatcher::build(&wl.schema, &wl.subs, &direct_cfg).unwrap();
        assert!(
            compressed.clusters().len() < direct.clusters().len(),
            "clustering must group"
        );
        // Pruning statistics should show the shared mask doing work.
        let events = wl.events(200);
        let _ = compressed.match_batch(&events);
        let prunes: u64 = compressed
            .clusters()
            .iter()
            .map(|c| c.prunes.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        assert!(prunes > 0, "shared masks should prune");
    }

    #[test]
    fn empty_corpus() {
        let schema = apcm_bexpr::Schema::uniform(2, 10);
        let pcm = PcmMatcher::build(&schema, &[], &ApcmConfig::pcm()).unwrap();
        let ev = apcm_bexpr::parser::parse_event(&schema, "a0 = 1").unwrap();
        assert!(pcm.match_event(&ev).is_empty());
        assert!(pcm.is_empty());
        assert_eq!(pcm.heap_bytes(), 0);
    }
}
