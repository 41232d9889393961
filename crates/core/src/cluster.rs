//! Compressed subscription clusters — the "C" in PCM.

use apcm_bexpr::SubId;
use apcm_encoding::{arena, EncodedSub, FixedBitSet, MemberArena, SparseBits};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of probing one cluster with one event: whether the shared mask
/// rejected the whole cluster, and how many members matched. The kernel
/// returns this instead of touching shared atomics so concurrent workers can
/// batch counter updates in thread-local cells (see `crate::scratch`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probe {
    /// The shared-mask test failed; no member was swept.
    pub pruned: bool,
    /// Members appended to the output row.
    pub hits: u32,
}

/// Cluster payload: compressed (shared mask + residuals) or direct (full
/// encodings, no shared test). The adaptive controller switches
/// representations when compression stops paying.
///
/// The shared mask is stored **sparse**: it is the intersection of
/// subscription `required` sets, so its population is bounded by the
/// smallest expression size (a handful of bits), and testing it costs
/// `O(|shared|)` indexed probes into the dense event bitmap — independent
/// of the predicate-space width. This is where compressed matching beats
/// scanning: the shared predicates of a whole cluster are evaluated once,
/// in a few probes.
///
/// Members live in a [`MemberArena`]: ids in one SoA slice, residual and
/// blocked bits packed into a single contiguous `u32` arena addressed by
/// `(offset, len)` spans. A member sweep is a linear walk over two flat
/// buffers instead of two `Box<[u32]>` dereferences per member.
#[derive(Debug, Clone)]
pub enum ClusterRepr {
    /// Intersection-factored storage with whole-cluster pruning.
    Compressed {
        /// AND of every member's `required` set; `shared ⊆ event` is
        /// necessary for any member to match, so a failed test skips the
        /// whole cluster.
        shared: SparseBits,
        /// Per-member leftovers (`required \ shared` in the residual span).
        members: MemberArena,
    },
    /// Plain storage: every member keeps its full encoding (the full
    /// `required` set sits in the residual span). Chosen when members share
    /// no required bits (empty mask ⇒ the shared test never prunes and only
    /// costs time).
    Direct {
        /// Full member encodings.
        members: MemberArena,
    },
}

/// A cluster plus its runtime counters.
///
/// The counters are epoch-scoped inputs to the adaptive controller. The
/// matching kernel itself ([`Cluster::match_words`]) never touches them;
/// workers accumulate per-probe outcomes thread-locally and flush them here
/// in one `fetch_add` per touched cluster per window (see
/// `crate::scratch::ProbeCounts`).
#[derive(Debug)]
pub struct Cluster {
    /// Storage representation.
    pub repr: ClusterRepr,
    /// Events whose bitmap was tested against this cluster.
    pub probes: AtomicU64,
    /// Probes rejected by the shared-mask test (compressed only).
    pub prunes: AtomicU64,
    /// Matches produced.
    pub hits: AtomicU64,
}

impl Cluster {
    /// Builds the compressed representation of `members`, factoring out the
    /// intersection of their `required` sets. Falls back to
    /// [`ClusterRepr::Direct`] when the intersection is empty (no
    /// compression possible) — unless the cluster is a singleton, where the
    /// "shared mask" is the whole required set, which is still the cheapest
    /// test order.
    pub fn compressed(members: &[EncodedSub]) -> Self {
        assert!(!members.is_empty(), "a cluster needs members");
        let mut shared = members[0].required.clone();
        for m in &members[1..] {
            shared = shared.intersect(&m.required);
            if shared.is_empty() {
                break;
            }
        }
        if shared.is_empty() && members.len() > 1 {
            return Self::direct(members);
        }
        let residuals: Vec<SparseBits> = members
            .iter()
            .map(|m| m.required.difference(&shared))
            .collect();
        let bit_cap: usize = members
            .iter()
            .zip(&residuals)
            .map(|(m, r)| r.len() + m.blocked.len())
            .sum();
        let mut arena = MemberArena::with_capacity(members.len(), bit_cap);
        for (m, res) in members.iter().zip(&residuals) {
            arena.push(m.id.0, res.ids(), m.blocked.ids());
        }
        Self::new(ClusterRepr::Compressed {
            shared,
            members: arena,
        })
    }

    /// Builds the direct (uncompressed) representation.
    pub fn direct(members: &[EncodedSub]) -> Self {
        assert!(!members.is_empty(), "a cluster needs members");
        let bit_cap: usize = members
            .iter()
            .map(|m| m.required.len() + m.blocked.len())
            .sum();
        let mut arena = MemberArena::with_capacity(members.len(), bit_cap);
        for m in members {
            arena.push(m.id.0, m.required.ids(), m.blocked.ids());
        }
        Self::new(ClusterRepr::Direct { members: arena })
    }

    fn new(repr: ClusterRepr) -> Self {
        Self {
            repr,
            probes: AtomicU64::new(0),
            prunes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    #[inline]
    fn members(&self) -> &MemberArena {
        match &self.repr {
            ClusterRepr::Compressed { members, .. } => members,
            ClusterRepr::Direct { members } => members,
        }
    }

    /// Number of member subscriptions.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// Whether the cluster has no members (possible after removals; the
    /// next maintenance sweep drops it).
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// The matching kernel: appends every member whose required bits are
    /// contained in the event row and whose blocked bits are absent from it.
    /// Pure — no atomics, no allocation beyond `out` growth; the returned
    /// [`Probe`] carries the counter deltas for the caller to accumulate.
    #[inline]
    pub fn match_words(&self, ewords: &[u64], out: &mut Vec<SubId>) -> Probe {
        let members = match &self.repr {
            ClusterRepr::Compressed { shared, members } => {
                if !arena::contains_all(ewords, shared.ids()) {
                    return Probe {
                        pruned: true,
                        hits: 0,
                    };
                }
                members
            }
            ClusterRepr::Direct { members } => members,
        };
        let mut hits = 0u32;
        for (id, residual, blocked) in members.iter() {
            if arena::contains_all(ewords, residual) && arena::disjoint(ewords, blocked) {
                out.push(SubId(id));
                hits += 1;
            }
        }
        Probe {
            pruned: false,
            hits,
        }
    }

    /// Counting convenience over [`Cluster::match_words`] for callers
    /// probing one cluster at a time outside the batched scratch path.
    #[inline]
    pub fn match_into(&self, ebits: &FixedBitSet, out: &mut Vec<SubId>) {
        let probe = self.match_words(ebits.words(), out);
        self.record(probe);
    }

    /// Folds one probe outcome into the cluster counters.
    #[inline]
    pub fn record(&self, probe: Probe) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        if probe.pruned {
            self.prunes.fetch_add(1, Ordering::Relaxed);
        }
        if probe.hits > 0 {
            self.hits
                .fetch_add(u64::from(probe.hits), Ordering::Relaxed);
        }
    }

    /// Folds a batch of probe outcomes into the cluster counters — one
    /// `fetch_add` per non-zero counter, the flush half of the thread-local
    /// accumulation scheme.
    #[inline]
    pub fn add_counts(&self, probes: u64, prunes: u64, hits: u64) {
        if probes > 0 {
            self.probes.fetch_add(probes, Ordering::Relaxed);
        }
        if prunes > 0 {
            self.prunes.fetch_add(prunes, Ordering::Relaxed);
        }
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
    }

    /// Reconstructs every member's full encoding (used by re-clustering).
    pub fn to_encoded(&self) -> Vec<EncodedSub> {
        match &self.repr {
            ClusterRepr::Compressed { shared, members } => members
                .iter()
                .map(|(id, residual, blocked)| EncodedSub {
                    id: SubId(id),
                    required: SparseBits::new(residual.to_vec()).union(shared),
                    blocked: SparseBits::new(blocked.to_vec()),
                })
                .collect(),
            ClusterRepr::Direct { members } => members
                .iter()
                .map(|(id, required, blocked)| EncodedSub {
                    id: SubId(id),
                    required: SparseBits::new(required.to_vec()),
                    blocked: SparseBits::new(blocked.to_vec()),
                })
                .collect(),
        }
    }

    /// Iterates member subscription ids without materializing encodings.
    pub fn member_ids(&self) -> impl Iterator<Item = SubId> + '_ {
        self.members().ids().iter().map(|&id| SubId(id))
    }

    /// Removes a member by id; returns whether it was present.
    ///
    /// Shrinking a compressed cluster keeps the shared mask valid (the
    /// intersection over a superset is contained in every remaining member);
    /// the mask is re-tightened at the next maintenance rebuild.
    pub fn remove(&mut self, id: SubId) -> bool {
        let members = match &mut self.repr {
            ClusterRepr::Compressed { members, .. } => members,
            ClusterRepr::Direct { members } => members,
        };
        match members.position(id.0) {
            Some(pos) => {
                members.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Heap bytes of the stored bitmaps (compression-ratio experiment).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            ClusterRepr::Compressed { shared, members } => {
                shared.heap_bytes() + members.heap_bytes()
            }
            ClusterRepr::Direct { members } => members.heap_bytes(),
        }
    }

    /// Observed prune rate: fraction of probes rejected by the shared mask.
    pub fn prune_rate(&self) -> f64 {
        let probes = self.probes.load(Ordering::Relaxed);
        if probes == 0 {
            return 0.0;
        }
        self.prunes.load(Ordering::Relaxed) as f64 / probes as f64
    }

    /// Resets the runtime counters (start of an adaptive epoch).
    pub fn reset_stats(&self) {
        self.probes.store(0, Ordering::Relaxed);
        self.prunes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) fn enc_for_test(id: u32, required: &[u32], blocked: &[u32]) -> EncodedSub {
    EncodedSub {
        id: SubId(id),
        required: SparseBits::new(required.to_vec()),
        blocked: SparseBits::new(blocked.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(id: u32, bits: &[u32]) -> EncodedSub {
        enc_for_test(id, bits, &[])
    }

    fn ev(width: usize, bits: &[usize]) -> FixedBitSet {
        FixedBitSet::from_indices(width, bits.iter().copied())
    }

    #[test]
    fn compression_factors_intersection() {
        let members = [enc(0, &[1, 2, 3]), enc(1, &[1, 2, 4]), enc(2, &[1, 2])];
        let c = Cluster::compressed(&members);
        match &c.repr {
            ClusterRepr::Compressed { shared, members } => {
                assert_eq!(shared.ids(), &[1, 2]);
                assert_eq!(members.member(0).1, &[3]);
                assert_eq!(members.member(1).1, &[4]);
                assert!(members.member(2).1.is_empty());
            }
            _ => panic!("expected compressed"),
        }
    }

    #[test]
    fn empty_intersection_falls_back_to_direct() {
        let members = [enc(0, &[1]), enc(1, &[2])];
        let c = Cluster::compressed(&members);
        assert!(matches!(c.repr, ClusterRepr::Direct { .. }));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn singleton_stays_compressed() {
        let c = Cluster::compressed(&[enc(7, &[3, 4])]);
        match &c.repr {
            ClusterRepr::Compressed { shared, members } => {
                assert_eq!(shared.len(), 2);
                assert!(members.member(0).1.is_empty());
            }
            _ => panic!("singleton should compress to shared-only"),
        }
    }

    #[test]
    fn match_kernel_compressed() {
        let members = [enc(0, &[1, 2, 3]), enc(1, &[1, 2, 4])];
        let c = Cluster::compressed(&members);
        let mut out = Vec::new();

        c.match_into(&ev(10, &[1, 2, 3]), &mut out);
        assert_eq!(out, vec![SubId(0)]);

        out.clear();
        c.match_into(&ev(10, &[1, 2, 3, 4]), &mut out);
        assert_eq!(out, vec![SubId(0), SubId(1)]);

        out.clear();
        // Shared mask fails → pruned, no member checks.
        c.match_into(&ev(10, &[1, 3, 4]), &mut out);
        assert!(out.is_empty());
        assert_eq!(c.prunes.load(Ordering::Relaxed), 1);
        assert_eq!(c.probes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn probe_outcomes_reported_without_counting() {
        let members = [enc(0, &[1, 2, 3]), enc(1, &[1, 2, 4])];
        let c = Cluster::compressed(&members);
        let mut out = Vec::new();
        let hit = c.match_words(ev(10, &[1, 2, 3, 4]).words(), &mut out);
        assert_eq!(
            hit,
            Probe {
                pruned: false,
                hits: 2
            }
        );
        let pruned = c.match_words(ev(10, &[3, 4]).words(), &mut out);
        assert_eq!(
            pruned,
            Probe {
                pruned: true,
                hits: 0
            }
        );
        // The pure kernel leaves the counters alone …
        assert_eq!(c.probes.load(Ordering::Relaxed), 0);
        // … and a batched flush lands them exactly.
        c.add_counts(2, 1, 2);
        assert_eq!(c.probes.load(Ordering::Relaxed), 2);
        assert_eq!(c.prunes.load(Ordering::Relaxed), 1);
        assert_eq!(c.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn blocked_bits_veto_members() {
        // Member 0 requires {1} and blocks {5}; member 1 requires {1} only.
        let members = [enc_for_test(0, &[1], &[5]), enc(1, &[1])];
        let c = Cluster::compressed(&members);
        let mut out = Vec::new();
        c.match_into(&ev(10, &[1]), &mut out);
        assert_eq!(out, vec![SubId(0), SubId(1)]);
        out.clear();
        c.match_into(&ev(10, &[1, 5]), &mut out);
        assert_eq!(out, vec![SubId(1)], "bit 5 blocks member 0");
    }

    #[test]
    fn match_kernel_direct() {
        let members = [enc(0, &[1]), enc_for_test(1, &[2], &[3])];
        let c = Cluster::direct(&members);
        let mut out = Vec::new();
        c.match_into(&ev(10, &[2]), &mut out);
        assert_eq!(out, vec![SubId(1)]);
        out.clear();
        c.match_into(&ev(10, &[2, 3]), &mut out);
        assert!(out.is_empty(), "blocked in direct representation too");
        assert_eq!(c.prunes.load(Ordering::Relaxed), 0, "direct never prunes");
    }

    #[test]
    fn to_encoded_round_trips() {
        let members = [
            enc_for_test(3, &[1, 2, 3], &[9]),
            enc_for_test(4, &[1, 2, 7], &[]),
        ];
        let c = Cluster::compressed(&members);
        let back = c.to_encoded();
        assert_eq!(back, members.to_vec());
        let d = Cluster::direct(&members);
        assert_eq!(d.to_encoded(), members.to_vec());
    }

    #[test]
    fn remove_member_keeps_mask_sound() {
        let members = [enc(0, &[1, 2, 3]), enc(1, &[1, 2, 4])];
        let mut c = Cluster::compressed(&members);
        assert!(c.remove(SubId(0)));
        assert!(!c.remove(SubId(0)));
        assert_eq!(c.len(), 1);
        // Remaining member still matches exactly its own bitmap.
        let mut out = Vec::new();
        c.match_into(&ev(10, &[1, 2, 4]), &mut out);
        assert_eq!(out, vec![SubId(1)]);
        out.clear();
        c.match_into(&ev(10, &[1, 2]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stats_reset() {
        let c = Cluster::compressed(&[enc(0, &[5])]);
        let mut out = Vec::new();
        c.match_into(&ev(10, &[5]), &mut out);
        c.match_into(&ev(10, &[1]), &mut out);
        assert!(c.prune_rate() > 0.0);
        c.reset_stats();
        assert_eq!(c.prune_rate(), 0.0);
        assert_eq!(c.probes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn heap_accounting_smaller_when_compressed() {
        // 32 members sharing 6 of their 8 bits: compression must beat
        // direct storage.
        let members: Vec<EncodedSub> = (0..32)
            .map(|i| enc(i, &[0, 1, 2, 3, 4, 5, 100 + i, 200 + i]))
            .collect();
        let c = Cluster::compressed(&members);
        let d = Cluster::direct(&members);
        assert!(
            c.heap_bytes() < d.heap_bytes(),
            "compressed {} vs direct {}",
            c.heap_bytes(),
            d.heap_bytes()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// Compressed and direct representations produce identical matches
        /// for any member set and any event.
        #[test]
        fn representations_agree(
            member_bits in proptest::collection::vec(
                (
                    proptest::collection::btree_set(0u32..48, 1..8),
                    proptest::collection::btree_set(48u32..64, 0..3),
                ),
                1..12,
            ),
            event_bits in proptest::collection::btree_set(0usize..64, 0..32),
        ) {
            let members: Vec<EncodedSub> = member_bits
                .iter()
                .enumerate()
                .map(|(i, (req, blk))| EncodedSub {
                    id: SubId(i as u32),
                    required: SparseBits::new(req.iter().copied().collect()),
                    blocked: SparseBits::new(blk.iter().copied().collect()),
                })
                .collect();
            let ebits = FixedBitSet::from_indices(64, event_bits.iter().copied());
            let compressed = Cluster::compressed(&members);
            let direct = Cluster::direct(&members);
            let mut a = Vec::new();
            let mut b = Vec::new();
            compressed.match_into(&ebits, &mut a);
            direct.match_into(&ebits, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(&a, &b);
            // Both agree with the reference predicate.
            let mut expect: Vec<SubId> = members
                .iter()
                .filter(|m| m.matches_bitmap(&ebits))
                .map(|m| m.id)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(a, expect);
        }

        /// The arena-backed kernel agrees with a `BTreeSet`-model oracle:
        /// a member matches iff `required ⊆ event` and `blocked ∩ event = ∅`
        /// over the raw id sets — including empty residuals (members whose
        /// `required` equals the shared mask) and blocked-only vetoes, and
        /// still after removing a member mid-life.
        #[test]
        fn arena_kernel_agrees_with_set_model(
            // A common core many members share, so empty residuals occur.
            core in proptest::collection::btree_set(0u32..16, 1..4),
            extras in proptest::collection::vec(
                (
                    proptest::collection::btree_set(16u32..48, 0..5),
                    proptest::collection::btree_set(48u32..64, 0..3),
                ),
                1..10,
            ),
            event_bits in proptest::collection::btree_set(0usize..64, 0..40),
            removed in 0usize..64,
        ) {
            let members: Vec<(BTreeSet<u32>, BTreeSet<u32>)> = extras
                .iter()
                .map(|(req, blk)| {
                    let req: BTreeSet<u32> = core.union(req).copied().collect();
                    (req, blk.clone())
                })
                .collect();
            let encoded: Vec<EncodedSub> = members
                .iter()
                .enumerate()
                .map(|(i, (req, blk))| EncodedSub {
                    id: SubId(i as u32),
                    required: SparseBits::new(req.iter().copied().collect()),
                    blocked: SparseBits::new(blk.iter().copied().collect()),
                })
                .collect();
            let event: BTreeSet<u32> = event_bits.iter().map(|&i| i as u32).collect();
            let ewords = FixedBitSet::from_indices(64, event_bits.iter().copied());

            let oracle = |skip: Option<usize>| -> Vec<SubId> {
                members
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| Some(i) != skip)
                    .filter(|(_, (req, blk))| {
                        req.is_subset(&event) && blk.is_disjoint(&event)
                    })
                    .map(|(i, _)| SubId(i as u32))
                    .collect()
            };

            for mut cluster in [Cluster::compressed(&encoded), Cluster::direct(&encoded)] {
                let mut got = Vec::new();
                let probe = cluster.match_words(ewords.words(), &mut got);
                got.sort_unstable();
                prop_assert_eq!(&got, &oracle(None));
                prop_assert_eq!(probe.hits as usize, got.len());
                if probe.pruned {
                    prop_assert!(got.is_empty());
                }

                // Removal keeps the surviving members' semantics exact.
                let victim = removed % encoded.len();
                cluster.remove(SubId(victim as u32));
                let mut after = Vec::new();
                cluster.match_words(ewords.words(), &mut after);
                after.sort_unstable();
                prop_assert_eq!(after, oracle(Some(victim)));
            }
        }
    }
}
