//! The A-PCM matcher: compression + parallelism + OSR + adaptivity.

use crate::{
    adaptive::MaintenanceReport, osr, parallel::Pool, scratch, scratch::EncTable, ApcmConfig,
    Cluster, ClusterIndex, ClusterRepr, CounterShards, MatcherStats,
};
use apcm_bexpr::{BexprError, Event, Matcher, Schema, SubId, Subscription};
use apcm_encoding::{EncodedSub, PredicateSpace};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The full engine from the paper. See the crate docs for the mechanism
/// overview and [`crate::PcmMatcher`] for the static subset.
///
/// All methods take `&self`: matching holds a read lock, mutation
/// (subscribe / unsubscribe / maintenance) a write lock, so one matcher can
/// serve concurrent matching threads while subscriptions churn.
#[derive(Debug)]
pub struct ApcmMatcher {
    config: ApcmConfig,
    pool: Pool,
    inner: RwLock<Inner>,
    events_since_epoch: AtomicU64,
    maintenance_runs: AtomicU64,
    /// Lifetime probe/prune/hit totals, sharded per worker so the kernel
    /// never writes a shared cache line per probe.
    counters: CounterShards,
}

#[derive(Debug)]
struct Inner {
    space: PredicateSpace,
    index: ClusterIndex,
    /// Recently subscribed expressions, matched by direct scan until the
    /// next maintenance pass folds them into clusters.
    pending: Vec<EncodedSub>,
    /// Clustered subscription → cluster position, for O(1) unsubscribe.
    /// Rebuilt by every maintenance pass; pending entries are not listed.
    locator: HashMap<SubId, u32>,
    /// Cached static selectivity table; extended lazily when dynamic
    /// subscriptions grow the predicate space.
    static_selectivity: Vec<f64>,
}

impl ApcmMatcher {
    /// Builds the engine over a corpus.
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
        let locator = Inner::build_locator(&index);
        let pool = Pool::new(config.threads);
        Ok(Self {
            counters: CounterShards::new(pool.threads()),
            pool,
            config: config.clone(),
            inner: RwLock::new(Inner {
                space,
                index,
                pending: Vec::new(),
                locator,
                static_selectivity: selectivity,
            }),
            events_since_epoch: AtomicU64::new(0),
            maintenance_runs: AtomicU64::new(0),
        })
    }

    /// Registers a new subscription. Returns `false` (and changes nothing)
    /// if the id is already registered.
    ///
    /// New expressions are matched immediately via the pending buffer; the
    /// next maintenance pass folds them into compressed clusters.
    pub fn subscribe(&self, sub: &Subscription) -> Result<bool, BexprError> {
        let mut inner = self.inner.write();
        if inner.locator.contains_key(&sub.id()) || inner.pending.iter().any(|p| p.id == sub.id()) {
            return Ok(false);
        }
        let enc = inner.space.add_subscription(sub)?;
        inner.pending.push(enc);
        let overdue = inner.pending.len() > self.config.adaptive.max_pending;
        drop(inner);
        if overdue {
            self.maintain();
        }
        Ok(true)
    }

    /// Removes a subscription by id; returns whether it was present.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        let mut inner = self.inner.write();
        if let Some(pos) = inner.pending.iter().position(|p| p.id == id) {
            inner.pending.swap_remove(pos);
            return true;
        }
        let Some(ci) = inner.locator.remove(&id) else {
            return false;
        };
        let removed = inner.index.clusters_mut()[ci as usize].remove(id);
        debug_assert!(removed, "locator pointed at a cluster lacking the id");
        removed
    }

    /// Runs a maintenance pass now (also triggered automatically every
    /// `adaptive.epoch_events` matched events and on pending-buffer
    /// overflow).
    pub fn maintain(&self) -> MaintenanceReport {
        let epoch_events = self.events_since_epoch.swap(0, Ordering::Relaxed);
        let mut inner = self.inner.write();
        let report = inner.maintain(&self.config, epoch_events);
        self.maintenance_runs.fetch_add(1, Ordering::Relaxed);
        report
    }

    /// Snapshot of state and counters.
    pub fn stats(&self) -> MatcherStats {
        let inner = self.inner.read();
        let mut stats = MatcherStats {
            subscriptions: inner.len(),
            clusters: inner.index.len(),
            pending: inner.pending.len(),
            width: inner.space.width(),
            maintenance_runs: self.maintenance_runs.load(Ordering::Relaxed),
            ..Default::default()
        };
        for c in inner.index.clusters() {
            match &c.repr {
                ClusterRepr::Compressed { .. } => stats.compressed_clusters += 1,
                ClusterRepr::Direct { .. } => stats.direct_clusters += 1,
            }
            stats.heap_bytes += c.heap_bytes();
        }
        // Lifetime totals come from the sharded worker cells, not the
        // per-cluster atomics (those are epoch-scoped adaptivity inputs,
        // reset at every maintenance pass).
        (stats.probes, stats.prunes, stats.hits) = self.counters.totals();
        stats
    }

    /// The configuration the matcher runs with.
    pub fn config(&self) -> &ApcmConfig {
        &self.config
    }

    /// Matches a window of events in arrival order, applying OSR and
    /// cluster-major batch probing per the configuration. Equivalent to
    /// [`Matcher::match_batch`]; exposed with an explicit name for
    /// documentation purposes.
    pub fn match_window(&self, events: &[Event]) -> Vec<Vec<SubId>> {
        if events.is_empty() {
            return Vec::new();
        }
        let inner = self.inner.read();
        let n = events.len();
        let width = inner.space.width();

        // Encode the window into one flat word table — one buffer per
        // window (reused across windows via thread-local storage) instead of
        // one bitmap allocation per event — filled in parallel in
        // row-aligned chunks.
        let mut table = scratch::take_table();
        table.reset(n, width);
        let stride = table.stride();
        {
            let space = &inner.space;
            self.pool
                .for_each_chunk_mut(table.words_mut(), stride, |start, chunk| {
                    let first = start / stride;
                    for (r, row) in chunk.chunks_mut(stride).enumerate() {
                        space.encode_event_into_words(&events[first + r], row);
                    }
                });
        }

        let batch = self.config.batch_size.max(1).min(n);
        let order: Vec<usize> = if self.config.reorder && batch > 1 {
            osr::reorder_permutation_rows(&table)
        } else {
            (0..n).collect()
        };
        let n_windows = n.div_ceil(batch);

        let mut rows: Vec<(usize, Vec<SubId>)> = if n_windows > 1 {
            // Enough windows: parallelize across them.
            self.pool
                .map_indexed(n_windows, |w| {
                    let lo = w * batch;
                    let hi = (lo + batch).min(n);
                    inner.match_ordered_batch(&order[lo..hi], &table, &self.counters)
                })
                .into_iter()
                .flatten()
                .collect()
        } else {
            // Single window: parallelize the per-event sweep instead.
            inner.match_batch_cluster_parallel(&order, &table, &self.pool, &self.counters)
        };
        scratch::put_table(table);

        // Scatter back to arrival order: every original index appears
        // exactly once, so sorting by index is the whole permutation — no
        // placeholder rows allocated and reassigned.
        rows.sort_unstable_by_key(|&(idx, _)| idx);
        let results: Vec<Vec<SubId>> = rows.into_iter().map(|(_, row)| row).collect();

        let pending_overdue = inner.pending.len() > self.config.adaptive.max_pending;
        drop(inner);
        self.after_match(n as u64, pending_overdue);
        results
    }

    fn after_match(&self, n_events: u64, pending_overdue: bool) {
        let seen = self
            .events_since_epoch
            .fetch_add(n_events, Ordering::Relaxed)
            + n_events;
        let epoch_due = self.config.adaptive.enabled && seen >= self.config.adaptive.epoch_events;
        if epoch_due || pending_overdue {
            let epoch_events = self.events_since_epoch.swap(0, Ordering::Relaxed);
            // try_write: if a mutator already holds the lock, skip — the
            // next event batch will retry.
            if let Some(mut inner) = self.inner.try_write() {
                let _report = inner.maintain(&self.config, epoch_events);
                self.maintenance_runs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Inner {
    fn len(&self) -> usize {
        self.locator.len() + self.pending.len()
    }

    fn build_locator(index: &ClusterIndex) -> HashMap<SubId, u32> {
        let mut locator = HashMap::with_capacity(index.clusters().iter().map(Cluster::len).sum());
        for (i, cluster) in index.clusters().iter().enumerate() {
            for id in cluster.member_ids() {
                locator.insert(id, i as u32);
            }
        }
        locator
    }

    fn match_pending_words(&self, ewords: &[u64], out: &mut Vec<SubId>) {
        for p in &self.pending {
            if p.matches_words(ewords) {
                out.push(p.id);
            }
        }
    }

    /// Sequentially matches a reordered batch (identified by `order`
    /// indices). Candidate clusters are gathered per event through the
    /// pivot index, then probed **cluster-major**: all of a cluster's
    /// events are processed back-to-back so its shared mask and residuals
    /// stay cache-hot across the batch — the locality OSR's reordering sets
    /// up. The candidate list, probe schedule, and counter deltas all come
    /// from the worker's thread-local scratch; counters are flushed once at
    /// window end. Returns `(original index, sorted matches)` rows.
    fn match_ordered_batch(
        &self,
        order: &[usize],
        table: &EncTable,
        counters: &CounterShards,
    ) -> Vec<(usize, Vec<SubId>)> {
        scratch::with_scratch(|s| {
            s.counts.ensure(self.index.len());
            s.pairs.clear();
            for (j, &i) in order.iter().enumerate() {
                self.index.candidates_into(table.row(i), &mut s.candidates);
                for &idx in &s.candidates {
                    s.pairs.push((idx, j as u32));
                }
            }
            // Cluster-major; events within a cluster keep window order.
            s.pairs.sort_unstable();
            let mut outs: Vec<Vec<SubId>> = vec![Vec::new(); order.len()];
            for &(idx, j) in &s.pairs {
                let probe = self.index.probe_words(
                    idx,
                    table.row(order[j as usize]),
                    &mut outs[j as usize],
                );
                s.counts.count(idx, probe);
            }
            s.counts.flush(self.index.clusters(), Some(counters.cell()));
            order
                .iter()
                .zip(outs)
                .map(|(&idx, mut row)| {
                    self.match_pending_words(table.row(idx), &mut row);
                    row.sort_unstable();
                    row.dedup();
                    (idx, row)
                })
                .collect()
        })
    }

    /// Single-window path: fan the per-event work across the pool, each
    /// worker probing out of its own thread-local scratch.
    fn match_batch_cluster_parallel(
        &self,
        order: &[usize],
        table: &EncTable,
        pool: &Pool,
        counters: &CounterShards,
    ) -> Vec<(usize, Vec<SubId>)> {
        pool.map_indexed(order.len(), |j| {
            let idx = order[j];
            let ewords = table.row(idx);
            scratch::with_scratch(|s| {
                Pool::INLINE.probe_event(
                    &self.index,
                    ewords,
                    &mut s.candidates,
                    &mut s.counts,
                    Some(counters),
                    &mut s.row,
                );
                self.match_pending_words(ewords, &mut s.row);
                s.row.sort_unstable();
                s.row.dedup();
                (idx, s.row.as_slice().to_vec())
            })
        })
    }

    /// Maintenance: fold pending, re-cluster unhealthy clusters, drop empty
    /// ones, reset counters, re-key the index. See `crate::adaptive` for
    /// the rebuild policy.
    ///
    /// Adaptivity enters through the selectivity table: each cluster key's
    /// *observed* firing rate over the elapsed epoch (`probes /
    /// epoch_events`) overrides its static selectivity when hotter. Keys
    /// that drifted hot are therefore abandoned — both by the re-keying of
    /// kept clusters and by the pivot policy when re-clustering pooled
    /// members — in favor of predicates that are still cold in the current
    /// stream.
    fn maintain(&mut self, config: &ApcmConfig, epoch_events: u64) -> MaintenanceReport {
        let width = self.space.width();
        let mut report = MaintenanceReport {
            folded_pending: self.pending.len(),
            ..Default::default()
        };
        // Decide what would change before tearing anything down: a no-op
        // epoch (stationary workload, no churn) must not pay the index and
        // locator rebuilds, which are O(width + corpus).
        //
        // Unproductive clusters are pooled only when their access key fires
        // observably hotter than its design selectivity: on a stationary
        // stream the key is already as selective as the members allow, so
        // re-clustering would only churn.
        let adaptive = &config.adaptive;
        let will_rebuild: Vec<bool> = self
            .index
            .clusters()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if c.is_empty() {
                    return true;
                }
                if !(adaptive.enabled && adaptive.should_rebuild(c)) {
                    return false;
                }
                if epoch_events == 0 {
                    // Explicit maintain with no observations: trust the
                    // productivity signal alone.
                    return true;
                }
                match self.index.key_of(i as u32) {
                    None => true, // direct cluster: always worth retrying
                    Some(bit) => {
                        let observed =
                            c.probes.load(Ordering::Relaxed) as f64 / epoch_events as f64;
                        let design = self
                            .static_selectivity
                            .get(bit as usize)
                            .copied()
                            .unwrap_or(1.0);
                        observed > (adaptive.hot_key_factor * design).max(0.02)
                    }
                }
            })
            .collect();
        if self.pending.is_empty() && !will_rebuild.iter().any(|&b| b) {
            for cluster in self.index.clusters() {
                cluster.reset_stats();
            }
            return report;
        }

        if self.static_selectivity.len() < width {
            // Dynamic subscriptions grew the predicate space.
            self.static_selectivity = crate::clustering::selectivity_table(&self.space);
        }
        let mut selectivity = self.static_selectivity.clone();
        if config.adaptive.enabled && epoch_events > 0 {
            for (i, cluster) in self.index.clusters().iter().enumerate() {
                if let Some(bit) = self.index.key_of(i as u32) {
                    let rate = cluster.probes.load(Ordering::Relaxed) as f64 / epoch_events as f64;
                    let slot = &mut selectivity[bit as usize];
                    *slot = slot.max(rate.min(1.0));
                }
            }
        }

        let mut pool: Vec<EncodedSub> = std::mem::take(&mut self.pending);
        let old = std::mem::take(&mut self.index);
        let mut kept: Vec<Cluster> = Vec::with_capacity(old.len());
        for (cluster, rebuild) in old.into_clusters().into_iter().zip(will_rebuild) {
            if cluster.is_empty() {
                report.dropped_clusters += 1;
                continue;
            }
            if rebuild {
                report.rebuilt_clusters += 1;
                pool.extend(cluster.to_encoded());
                continue;
            }
            cluster.reset_stats();
            kept.push(cluster);
        }
        if !pool.is_empty() {
            kept.extend(
                config
                    .clustering
                    .cluster(&pool, config.max_cluster_size, &selectivity),
            );
        }
        self.index = ClusterIndex::build(kept, width, &selectivity);
        self.locator = Self::build_locator(&self.index);
        report
    }
}

impl Matcher for ApcmMatcher {
    fn match_event(&self, ev: &Event) -> Vec<SubId> {
        let inner = self.inner.read();
        let out = scratch::with_scratch(|s| {
            s.ensure_width(inner.space.width());
            inner.space.encode_event_into(ev, &mut s.ebits);
            self.pool.probe_event(
                &inner.index,
                s.ebits.words(),
                &mut s.candidates,
                &mut s.counts,
                Some(&self.counters),
                &mut s.row,
            );
            inner.match_pending_words(s.ebits.words(), &mut s.row);
            s.row.sort_unstable();
            s.row.dedup();
            s.row.as_slice().to_vec()
        });
        let pending_overdue = inner.pending.len() > self.config.adaptive.max_pending;
        drop(inner);
        self.after_match(1, pending_overdue);
        out
    }

    fn match_batch(&self, events: &[Event]) -> Vec<Vec<SubId>> {
        self.match_window(events)
    }

    fn name(&self) -> &'static str {
        "A-PCM"
    }

    fn len(&self) -> usize {
        self.inner.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcm_baselines::SequentialScan;
    use apcm_bexpr::parser;
    use apcm_workload::{DriftingStream, ValueDist, WorkloadSpec};

    fn small_epochs() -> ApcmConfig {
        ApcmConfig {
            adaptive: crate::AdaptiveConfig {
                epoch_events: 64,
                min_probes: 8,
                max_pending: 16,
                ..crate::AdaptiveConfig::default()
            },
            batch_size: 16,
            ..ApcmConfig::default()
        }
    }

    #[test]
    fn agrees_with_scan_per_event_and_batch() {
        let wl = WorkloadSpec::new(700)
            .seed(61)
            .planted_fraction(0.3)
            .build();
        let scan = SequentialScan::new(&wl.subs);
        let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::default()).unwrap();
        let events = wl.events(80);
        let rows = apcm.match_batch(&events);
        for (ev, row) in events.iter().zip(rows.iter()) {
            let expect = scan.match_event(ev);
            assert_eq!(row, &expect);
            assert_eq!(apcm.match_event(ev), expect);
        }
    }

    #[test]
    fn osr_reordering_preserves_result_order() {
        let wl = WorkloadSpec::new(300)
            .seed(62)
            .planted_fraction(0.6)
            .build();
        let with_osr = ApcmMatcher::build(
            &wl.schema,
            &wl.subs,
            &ApcmConfig {
                batch_size: 32,
                reorder: true,
                ..ApcmConfig::default()
            },
        )
        .unwrap();
        let without = ApcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::pcm()).unwrap();
        let events = wl.events(100);
        assert_eq!(with_osr.match_batch(&events), without.match_batch(&events));
    }

    #[test]
    fn subscribe_is_visible_immediately() {
        let schema = Schema::uniform(4, 100);
        let apcm = ApcmMatcher::build(&schema, &[], &ApcmConfig::default()).unwrap();
        let ev = parser::parse_event(&schema, "a0 = 5").unwrap();
        assert!(apcm.match_event(&ev).is_empty());

        let sub = parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 5").unwrap();
        assert!(apcm.subscribe(&sub).unwrap());
        assert_eq!(apcm.match_event(&ev), vec![SubId(1)]);
        assert_eq!(apcm.len(), 1);

        // Duplicate id is a no-op.
        assert!(!apcm.subscribe(&sub).unwrap());
        assert_eq!(apcm.len(), 1);
    }

    #[test]
    fn unsubscribe_from_pending_and_clusters() {
        let wl = WorkloadSpec::new(100).seed(63).build();
        let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &small_epochs()).unwrap();
        // From a cluster (built corpus).
        assert!(apcm.unsubscribe(wl.subs[0].id()));
        assert!(!apcm.unsubscribe(wl.subs[0].id()));
        // From pending (fresh subscribe).
        let sub = parser::parse_subscription_with_id(&wl.schema, SubId(5000), "a0 = 1").unwrap();
        apcm.subscribe(&sub).unwrap();
        assert!(apcm.unsubscribe(SubId(5000)));
        assert_eq!(apcm.len(), 99);

        // Post-removal matching agrees with a scan over the survivors.
        let remaining: Vec<Subscription> = wl.subs[1..].to_vec();
        let scan = SequentialScan::new(&remaining);
        for ev in wl.events(30) {
            assert_eq!(apcm.match_event(&ev), scan.match_event(&ev));
        }
    }

    #[test]
    fn maintenance_folds_pending_into_clusters() {
        let schema = Schema::uniform(4, 100);
        let apcm = ApcmMatcher::build(&schema, &[], &small_epochs()).unwrap();
        for i in 0..10u32 {
            let sub = parser::parse_subscription_with_id(
                &schema,
                SubId(i),
                &format!("a0 = {} AND a1 < 50", i % 3),
            )
            .unwrap();
            apcm.subscribe(&sub).unwrap();
        }
        assert_eq!(apcm.stats().pending, 10);
        let report = apcm.maintain();
        assert_eq!(report.folded_pending, 10);
        let stats = apcm.stats();
        assert_eq!(stats.pending, 0);
        assert!(stats.clusters > 0);
        assert_eq!(stats.subscriptions, 10);

        let ev = parser::parse_event(&schema, "a0 = 1, a1 = 10").unwrap();
        assert_eq!(apcm.match_event(&ev), vec![SubId(1), SubId(4), SubId(7)]);
    }

    #[test]
    fn pending_overflow_triggers_fold() {
        let schema = Schema::uniform(4, 100);
        let config = small_epochs(); // max_pending = 16
        let apcm = ApcmMatcher::build(&schema, &[], &config).unwrap();
        for i in 0..40u32 {
            let sub =
                parser::parse_subscription_with_id(&schema, SubId(i), &format!("a0 = {}", i % 5))
                    .unwrap();
            apcm.subscribe(&sub).unwrap();
        }
        let stats = apcm.stats();
        assert!(
            stats.pending <= config.adaptive.max_pending,
            "pending {} exceeds bound",
            stats.pending
        );
        assert!(stats.clusters > 0);
    }

    #[test]
    fn adaptive_epochs_run_under_stream_and_stay_correct() {
        let wl = WorkloadSpec::new(400)
            .values(ValueDist::Zipf(1.0))
            .planted_fraction(0.2)
            .seed(64)
            .build();
        let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &small_epochs()).unwrap();
        let scan = SequentialScan::new(&wl.subs);
        // Drifting stream: hot values move, forcing re-clustering decisions.
        let mut stream = DriftingStream::new(&wl, 100, 250, 65);
        for _ in 0..6 {
            let window: Vec<Event> = (&mut stream).take(100).collect();
            let rows = apcm.match_batch(&window);
            for (ev, row) in window.iter().zip(rows.iter()) {
                assert_eq!(row, &scan.match_event(ev), "drifted stream mismatch");
            }
        }
        assert!(
            apcm.stats().maintenance_runs > 0,
            "epochs should have triggered maintenance"
        );
    }

    #[test]
    fn stats_snapshot_consistency() {
        let wl = WorkloadSpec::new(200).seed(66).build();
        let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &ApcmConfig::default()).unwrap();
        let stats = apcm.stats();
        assert_eq!(stats.subscriptions, 200);
        assert_eq!(
            stats.clusters,
            stats.compressed_clusters + stats.direct_clusters
        );
        assert!(stats.width > 0);
        let _ = apcm.match_batch(&wl.events(32));
        assert!(apcm.stats().probes > 0);
    }

    #[test]
    fn sharded_counters_stay_exact_under_concurrent_matching() {
        let wl = WorkloadSpec::new(300)
            .seed(67)
            .planted_fraction(0.3)
            .build();
        // Adaptivity off: the cluster structure (and thus the probe counts
        // per event) stays fixed across runs.
        let config = ApcmConfig {
            adaptive: crate::AdaptiveConfig::disabled(),
            batch_size: 16,
            ..ApcmConfig::default()
        };
        let events = wl.events(64);

        // Reference totals from one single-threaded pass over the workload.
        let reference = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
        let _ = reference.match_batch(&events);
        for ev in &events[..8] {
            let _ = reference.match_event(ev);
        }
        let expect = reference.stats();
        assert!(expect.probes > 0 && expect.hits > 0);

        // T concurrent threads each run the identical workload: lifetime
        // totals must land exactly T times the reference — counter sharding
        // may defer visibility, never lose or double-count.
        const T: u64 = 4;
        let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..T {
                scope.spawn(|| {
                    let _ = apcm.match_batch(&events);
                    for ev in &events[..8] {
                        let _ = apcm.match_event(ev);
                    }
                });
            }
        });
        let got = apcm.stats();
        assert_eq!(got.probes, T * expect.probes);
        assert_eq!(got.prunes, T * expect.prunes);
        assert_eq!(got.hits, T * expect.hits);
    }

    #[test]
    fn empty_matcher_and_empty_batch() {
        let schema = Schema::uniform(2, 10);
        let apcm = ApcmMatcher::build(&schema, &[], &ApcmConfig::default()).unwrap();
        assert!(apcm.match_batch(&[]).is_empty());
        let ev = parser::parse_event(&schema, "a0 = 1").unwrap();
        assert!(apcm.match_event(&ev).is_empty());
        assert!(apcm.maintain().is_noop());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use apcm_baselines::SequentialScan;
    use apcm_workload::WorkloadSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// A-PCM agrees with brute force across random configurations.
        #[test]
        fn agrees_with_scan_random_configs(
            seed in 0u64..500,
            max_cluster in 1usize..128,
            batch in 1usize..64,
            reorder in proptest::bool::ANY,
            greedy in proptest::bool::ANY,
            threads in 1usize..5,
        ) {
            let wl = WorkloadSpec::new(250).seed(seed).planted_fraction(0.4).build();
            let config = ApcmConfig {
                max_cluster_size: max_cluster,
                batch_size: batch,
                reorder,
                clustering: if greedy {
                    crate::ClusteringPolicy::GreedyLeader { threshold: 0.25, window: 8 }
                } else {
                    crate::ClusteringPolicy::SortedSignature
                },
                ..ApcmConfig::default().with_threads(threads)
            };
            let apcm = ApcmMatcher::build(&wl.schema, &wl.subs, &config).unwrap();
            let scan = SequentialScan::new(&wl.subs);
            let events = wl.events(20);
            let rows = apcm.match_batch(&events);
            for (ev, row) in events.iter().zip(rows.iter()) {
                prop_assert_eq!(row, &scan.match_event(ev));
            }
        }
    }
}
