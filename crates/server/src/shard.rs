//! Hash-partitioned subscription space: N shards, each owning an
//! [`ApcmMatcher`], with window matching fanned out across shards and
//! merged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use apcm_bexpr::{BexprError, Event, Matcher, Schema, SubId, Subscription};
use apcm_core::{ApcmMatcher, MaintenanceReport};
use apcm_encoding::{FixedBitSet, SummarySpace};
use parking_lot::Mutex;

use crate::config::ServerConfig;

/// Stable Fibonacci-hash partition of a subscription id over `n` slots.
///
/// This is the single routing contract shared by the in-process
/// [`ShardedEngine`] and the multi-node cluster router (`apcm-cluster`):
/// both tiers MUST send a given id to the same partition index, otherwise
/// a router would churn one backend while the id lives on another. Any
/// change here is a wire-visible resharding of every deployed cluster —
/// treat it as a protocol break (see the pin test below and in
/// `apcm-cluster`).
pub fn route_partition(id: SubId, n: usize) -> usize {
    debug_assert!(n > 0, "cannot route over zero partitions");
    let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h % n as u64) as usize
}

/// Multiset of summary bits contributed by the live subscriptions:
/// per-bit witness counts, the derived bitset (count > 0), and the stored
/// cover of every live id so `unsubscribe` can decrement without re-deriving
/// predicates. The mutex is held only around the count/bit updates, not
/// across the engine mutation — churn on distinct shards stays parallel.
/// Updates happen after the engine call and before the churn call returns,
/// so by the time a `SUB` is acknowledged its bits are in the summary; the
/// only divergence from exactness is a benign superset (a cover surviving a
/// lost race or a failed bulk restore), which costs fan-out, never a match.
struct SummaryState {
    epoch: u64,
    counts: Vec<u32>,
    bits: FixedBitSet,
    covers: HashMap<SubId, Box<[u32]>>,
}

impl SummaryState {
    /// Registers a pre-derived witness cover for `id`; returns true if the
    /// set of populated bits changed (an epoch-visible change).
    fn add(&mut self, id: SubId, cover: Box<[u32]>) -> bool {
        let mut changed = false;
        for &b in cover.iter() {
            let c = &mut self.counts[b as usize];
            if *c == 0 {
                self.bits.insert(b as usize);
                changed = true;
            }
            *c += 1;
        }
        if let Some(old) = self.covers.insert(id, cover) {
            changed |= self.drop_cover(&old);
        }
        changed
    }

    /// Removes `id`'s stored cover; returns true if populated bits changed.
    fn remove(&mut self, id: SubId) -> bool {
        match self.covers.remove(&id) {
            Some(cover) => self.drop_cover(&cover),
            None => false,
        }
    }

    fn drop_cover(&mut self, cover: &[u32]) -> bool {
        let mut changed = false;
        for &b in cover {
            let c = &mut self.counts[b as usize];
            *c -= 1;
            if *c == 0 {
                self.bits.remove(b as usize);
                changed = true;
            }
        }
        changed
    }
}

/// A fleet of per-shard A-PCM matchers behind a single dynamic-matching
/// facade.
///
/// Subscriptions are routed to a shard by a Fibonacci hash of their id, so
/// routing is stable, stateless, and balanced for both dense and sparse id
/// spaces. Every shard sees every event window; a subscription lives in
/// exactly one shard, so merged rows need no deduplication.
///
/// The engine also maintains the backend's coarse predicate-space summary
/// (see [`SummarySpace`]): every churn path — client `SUB`/`UNSUB`, WAL
/// recovery, and replication bootstrap — flows through [`Self::subscribe`],
/// [`Self::unsubscribe`], or [`Self::bulk_restore`], so the summary is kept
/// exact incrementally and its epoch only advances when the populated bit
/// set actually changes.
pub struct ShardedEngine {
    shards: Vec<ApcmMatcher>,
    space: SummarySpace,
    summary: Mutex<SummaryState>,
    summary_rebuilds: AtomicU64,
}

impl ShardedEngine {
    pub fn new(schema: &Schema, config: &ServerConfig) -> Result<Self, BexprError> {
        let shard_config = config.shard_engine_config();
        let shards = (0..config.shards)
            .map(|_| ApcmMatcher::build(schema, &[], &shard_config))
            .collect::<Result<Vec<_>, _>>()?;
        let space = SummarySpace::new(schema);
        let nbits = space.nbits();
        Ok(Self {
            shards,
            space,
            summary: Mutex::new(SummaryState {
                epoch: 1,
                counts: vec![0; nbits],
                bits: FixedBitSet::new(nbits),
                covers: HashMap::new(),
            }),
            summary_rebuilds: AtomicU64::new(0),
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stable shard index for a subscription id (see [`route_partition`]).
    pub fn shard_of(&self, id: SubId) -> usize {
        route_partition(id, self.shards.len())
    }

    /// Routes to the owning shard. `Ok(false)` if the id is already live.
    pub fn subscribe(&self, sub: &Subscription) -> Result<bool, BexprError> {
        // Derive the witness cover before taking the summary lock so
        // concurrent churn on other shards only contends on the cheap
        // count updates, not predicate analysis or the engine call.
        let cover = self.space.sub_cover(sub).into_boxed_slice();
        let fresh = self.shards[self.shard_of(sub.id())].subscribe(sub)?;
        if fresh {
            let mut summary = self.summary.lock();
            if summary.add(sub.id(), cover) {
                summary.epoch += 1;
            }
        }
        Ok(fresh)
    }

    /// Routes to the owning shard; `false` if the id was unknown.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        let removed = self.shards[self.shard_of(id)].unsubscribe(id);
        if removed {
            let mut summary = self.summary.lock();
            if summary.remove(id) {
                summary.epoch += 1;
            }
        }
        removed
    }

    /// Loads a recovered subscription set: groups the borrowed
    /// subscriptions by owning shard, then subscribes each group on its own
    /// scoped thread (the same partition-level fan-out as matching).
    /// Restored subscriptions land in each matcher's pending buffer, so the
    /// restore ends with one maintenance pass that folds them into
    /// clusters. Returns how many subscriptions were added; ids already
    /// live are skipped.
    pub fn bulk_restore(&self, subs: &[Subscription]) -> Result<usize, BexprError> {
        if subs.is_empty() {
            return Ok(0);
        }
        let mut summary = self.summary.lock();
        let mut groups: Vec<Vec<&Subscription>> = vec![Vec::new(); self.shards.len()];
        for sub in subs {
            groups[self.shard_of(sub.id())].push(sub);
        }
        let (added, failed) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .zip(&groups)
                .filter(|(_, group)| !group.is_empty())
                .map(|(shard, group)| {
                    scope.spawn(move || {
                        let mut added = 0usize;
                        for &sub in group {
                            if shard.subscribe(sub)? {
                                added += 1;
                            }
                        }
                        Ok::<_, BexprError>(added)
                    })
                })
                .collect();
            let mut added = 0usize;
            let mut failed = None;
            for handle in handles {
                match handle.join().unwrap() {
                    Ok(n) => added += n,
                    Err(e) => failed = Some(e),
                }
            }
            (added, failed)
        });
        // Fold covers before any error propagates: a failed shard may have
        // applied a prefix of its group, and those subscriptions must be
        // represented in the summary (with the epoch advanced) or a router
        // holding the old epoch would keep reading "unchanged" and prune a
        // backend that holds matching subs. On the error path this over-
        // approximates — covers may name ids the engine never admitted —
        // which only costs fan-out, never a dropped match. On the success
        // path the covers map mirrors the catalog exactly, so "absent from
        // the map" is "fresh in the engine".
        let mut changed = false;
        let mut fresh = false;
        for sub in subs {
            if !summary.covers.contains_key(&sub.id()) {
                fresh = true;
                let cover = self.space.sub_cover(sub).into_boxed_slice();
                changed |= summary.add(sub.id(), cover);
            }
        }
        if changed {
            summary.epoch += 1;
        }
        if fresh {
            self.summary_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        drop(summary);
        if let Some(e) = failed {
            return Err(e);
        }
        self.maintain();
        Ok(added)
    }

    /// Matches a window against every shard and merges per-event rows.
    ///
    /// With more than one populated shard the fan-out uses scoped threads —
    /// one per shard, the paper's parallel fan-out at the partition level.
    pub fn match_window(&self, events: &[Event]) -> Vec<Vec<SubId>> {
        if events.is_empty() {
            return Vec::new();
        }
        let active: Vec<&ApcmMatcher> = self.shards.iter().filter(|s| !s.is_empty()).collect();
        let per_shard: Vec<Vec<Vec<SubId>>> = match active.len() {
            0 => return vec![Vec::new(); events.len()],
            1 => vec![active[0].match_window(events)],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = active
                    .iter()
                    .map(|&shard| scope.spawn(move || shard.match_window(events)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            }),
        };
        let mut merged = vec![Vec::new(); events.len()];
        for rows in per_shard {
            for (slot, mut row) in merged.iter_mut().zip(rows) {
                if slot.is_empty() {
                    *slot = row;
                } else {
                    slot.append(&mut row);
                }
            }
        }
        // Each id lives in one shard, so concatenation has no duplicates;
        // sorting restores the ascending contract after the merge.
        for row in &mut merged {
            row.sort_unstable();
        }
        merged
    }

    /// Runs one maintenance pass on every shard, aggregating the reports.
    pub fn maintain(&self) -> MaintenanceReport {
        let mut total = MaintenanceReport::default();
        for shard in &self.shards {
            let report = shard.maintain();
            total.folded_pending += report.folded_pending;
            total.rebuilt_clusters += report.rebuilt_clusters;
            total.dropped_clusters += report.dropped_clusters;
        }
        total
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Live subscription count per shard (for `STATS`).
    pub fn per_shard_len(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The schema-derived summary bit-space this backend encodes into.
    pub fn summary_space(&self) -> &SummarySpace {
        &self.space
    }

    /// Current summary epoch. Starts at 1 and advances only when the set of
    /// populated summary bits changes (pure count changes are invisible).
    pub fn summary_epoch(&self) -> u64 {
        self.summary.lock().epoch
    }

    /// Consistent `(epoch, bits)` snapshot of the backend summary.
    pub fn summary_snapshot(&self) -> (u64, FixedBitSet) {
        let state = self.summary.lock();
        (state.epoch, state.bits.clone())
    }

    /// Snapshot for the `SUMMARY <epoch>` verb: `None` when the caller's
    /// cached epoch is already current (nothing to resend).
    pub fn summary_if_newer(&self, than: u64) -> Option<(u64, FixedBitSet)> {
        let state = self.summary.lock();
        (state.epoch != than).then(|| (state.epoch, state.bits.clone()))
    }

    /// Number of populated summary bits (for `STATS`).
    pub fn summary_bits_set(&self) -> usize {
        self.summary.lock().bits.count_ones()
    }

    /// How many bulk restores recomputed summary covers (for `STATS`).
    pub fn summary_rebuilds(&self) -> u64 {
        self.summary_rebuilds.load(Ordering::Relaxed)
    }

    /// Lifetime kernel counters `(probes, prunes, hits)` summed across
    /// shards. `ApcmMatcher::stats` walks every cluster, so this is for
    /// `STATS`, not for per-window use.
    pub fn kernel_counters(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let stats = s.stats();
            (
                acc.0 + stats.probes,
                acc.1 + stats.prunes,
                acc.2 + stats.hits,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcm_bexpr::parser;

    fn setup(shards: usize) -> (Schema, ShardedEngine) {
        let schema = Schema::uniform(4, 32);
        let config = ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        let sharded = ShardedEngine::new(&schema, &config).unwrap();
        (schema, sharded)
    }

    /// Pins the routing contract to literal values: a change to
    /// [`route_partition`] breaks this test before it silently resharded
    /// every cluster. The same pins are asserted from `apcm-cluster`.
    #[test]
    fn route_partition_is_pinned() {
        let ids = [0u32, 1, 2, 3, 7, 42, 1000, 123_456_789];
        let expect3 = [0, 0, 2, 0, 2, 1, 2, 2];
        let expect4 = [0, 1, 2, 0, 2, 2, 1, 0];
        let expect8 = [0, 1, 2, 4, 2, 6, 1, 4];
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(route_partition(SubId(id), 3), expect3[i], "id {id} n=3");
            assert_eq!(route_partition(SubId(id), 4), expect4[i], "id {id} n=4");
            assert_eq!(route_partition(SubId(id), 8), expect8[i], "id {id} n=8");
        }
    }

    #[test]
    fn shard_of_equals_route_partition() {
        let (_, engine) = setup(5);
        for id in 0..2000 {
            assert_eq!(engine.shard_of(SubId(id)), route_partition(SubId(id), 5));
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let (_, engine) = setup(4);
        for id in 0..1000 {
            let s = engine.shard_of(SubId(id));
            assert!(s < 4);
            assert_eq!(s, engine.shard_of(SubId(id)));
        }
    }

    #[test]
    fn routing_spreads_dense_ids() {
        let (_, engine) = setup(4);
        let mut counts = [0usize; 4];
        for id in 0..1024 {
            counts[engine.shard_of(SubId(id))] += 1;
        }
        for &c in &counts {
            assert!(c > 128, "unbalanced shard assignment: {counts:?}");
        }
    }

    #[test]
    fn sharded_match_merges_sorted_rows() {
        let (schema, engine) = setup(3);
        for id in 0..64u32 {
            let text = format!("a0 <= {}", id % 8);
            let sub = parser::parse_subscription_with_id(&schema, SubId(id), &text).unwrap();
            assert!(engine.subscribe(&sub).unwrap());
        }
        assert_eq!(engine.len(), 64);
        assert_eq!(engine.per_shard_len().iter().sum::<usize>(), 64);

        let ev = parser::parse_event(&schema, "a0 = 3, a1 = 0, a2 = 0, a3 = 0").unwrap();
        let rows = engine.match_window(std::slice::from_ref(&ev));
        // a0 <= k matches a0 = 3 iff k >= 3 -> ids with id % 8 in 3..8.
        let expect: Vec<SubId> = (0..64u32).filter(|id| id % 8 >= 3).map(SubId).collect();
        assert_eq!(rows[0], expect);

        assert!(engine.unsubscribe(SubId(3)));
        assert!(!engine.unsubscribe(SubId(3)));
        assert_eq!(engine.len(), 63);
        let rows = engine.match_window(&[ev]);
        let expect: Vec<SubId> = expect.into_iter().filter(|&id| id != SubId(3)).collect();
        assert_eq!(rows[0], expect);
    }

    #[test]
    fn bulk_restore_matches_incremental_subscribe() {
        let (schema, incremental) = setup(3);
        let (_, restored) = setup(3);
        let subs: Vec<Subscription> = (0..50u32)
            .map(|id| {
                let text = format!("a0 <= {}", id % 8);
                parser::parse_subscription_with_id(&schema, SubId(id), &text).unwrap()
            })
            .collect();
        for sub in &subs {
            incremental.subscribe(sub).unwrap();
        }
        assert_eq!(restored.bulk_restore(&subs).unwrap(), 50);
        assert_eq!(restored.len(), 50);
        // Duplicate restore is a no-op.
        assert_eq!(restored.bulk_restore(&subs).unwrap(), 0);
        assert_eq!(restored.len(), 50);

        let window: Vec<Event> = (0..8)
            .map(|v| parser::parse_event(&schema, &format!("a0 = {v}, a1 = 0")).unwrap())
            .collect();
        let oracle: Vec<Vec<SubId>> = window
            .iter()
            .map(|ev| {
                subs.iter()
                    .filter(|s| s.matches(ev))
                    .map(|s| s.id())
                    .collect()
            })
            .collect();
        assert_eq!(restored.match_window(&window), oracle);
        assert_eq!(incremental.match_window(&window), oracle);
    }

    #[test]
    fn summary_tracks_churn_exactly() {
        let (schema, engine) = setup(3);
        let (epoch0, bits0) = engine.summary_snapshot();
        assert_eq!(epoch0, 1);
        assert!(bits0.is_empty());

        // Two subs with the same witness bucket: one epoch bump on the
        // first, none on the second (bit membership unchanged).
        let s1 = parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 5").unwrap();
        let s2 = parser::parse_subscription_with_id(&schema, SubId(2), "a0 = 5").unwrap();
        assert!(engine.subscribe(&s1).unwrap());
        let (e1, b1) = engine.summary_snapshot();
        assert_eq!(e1, 2);
        assert_eq!(b1.count_ones(), 1);
        assert!(engine.subscribe(&s2).unwrap());
        assert_eq!(engine.summary_epoch(), 2, "same bucket: no epoch bump");

        // Duplicate subscribe is a no-op for the summary too.
        assert!(!engine.subscribe(&s1).unwrap());
        assert_eq!(engine.summary_epoch(), 2);

        // Removing one holder keeps the bit; removing the last clears it.
        assert!(engine.unsubscribe(SubId(1)));
        assert_eq!(engine.summary_epoch(), 2);
        assert_eq!(engine.summary_bits_set(), 1);
        assert!(engine.unsubscribe(SubId(2)));
        let (e2, b2) = engine.summary_snapshot();
        assert_eq!(e2, 3);
        assert!(b2.is_empty());

        // Unknown id: no change.
        assert!(!engine.unsubscribe(SubId(99)));
        assert_eq!(engine.summary_epoch(), 3);
    }

    #[test]
    fn summary_if_newer_elides_unchanged() {
        let (schema, engine) = setup(2);
        let s = parser::parse_subscription_with_id(&schema, SubId(7), "a1 >= 20").unwrap();
        engine.subscribe(&s).unwrap();
        let (epoch, bits) = engine.summary_snapshot();
        assert!(engine.summary_if_newer(epoch).is_none());
        let (e2, b2) = engine.summary_if_newer(epoch - 1).unwrap();
        assert_eq!(e2, epoch);
        assert_eq!(
            b2.ones().collect::<Vec<_>>(),
            bits.ones().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bulk_restore_rebuilds_summary() {
        let (schema, engine) = setup(3);
        let subs: Vec<Subscription> = (0..20u32)
            .map(|id| {
                let text = format!("a0 = {}", id % 4);
                parser::parse_subscription_with_id(&schema, SubId(id), &text).unwrap()
            })
            .collect();
        assert_eq!(engine.bulk_restore(&subs).unwrap(), 20);
        assert_eq!(engine.summary_rebuilds(), 1);
        assert_eq!(engine.summary_bits_set(), 4);
        let epoch = engine.summary_epoch();
        // Duplicate restore: no fresh ids, no rebuild, no epoch movement.
        assert_eq!(engine.bulk_restore(&subs).unwrap(), 0);
        assert_eq!(engine.summary_rebuilds(), 1);
        assert_eq!(engine.summary_epoch(), epoch);
    }

    #[test]
    fn partial_bulk_restore_still_records_summary_bits() {
        let (schema, engine) = setup(3);
        // Parsed under a wider domain so it builds fine but is rejected by
        // the matcher's schema mid-restore, failing one shard's group
        // after the other shards already admitted theirs.
        let wide = Schema::uniform(4, 64);
        let bad = parser::parse_subscription_with_id(&wide, SubId(42), "a0 = 50").unwrap();
        let mut subs: Vec<Subscription> = vec![bad];
        subs.extend((0..12u32).map(|id| {
            let text = format!("a0 = {}", id % 4);
            parser::parse_subscription_with_id(&schema, SubId(id), &text).unwrap()
        }));
        assert!(
            engine.bulk_restore(&subs).is_err(),
            "out-of-domain sub must fail the restore"
        );
        assert!(!engine.is_empty(), "partial restore left no subscriptions");
        // The admitted subs must already be represented in the summary and
        // the epoch advanced past the seed — a router caching epoch 1 must
        // refresh instead of reading "unchanged" and pruning a backend
        // that holds matching subscriptions.
        assert!(engine.summary_epoch() > 1);
        assert!(engine.summary_bits_set() >= 4);
        assert!(engine.summary_if_newer(1).is_some());
    }

    #[test]
    fn maintain_aggregates_across_shards() {
        let (schema, engine) = setup(2);
        for id in 0..10u32 {
            let sub = parser::parse_subscription_with_id(&schema, SubId(id), "a0 >= 0").unwrap();
            engine.subscribe(&sub).unwrap();
        }
        let report = engine.maintain();
        assert_eq!(report.folded_pending, 10);
        assert!(engine.maintain().is_noop());
    }
}
