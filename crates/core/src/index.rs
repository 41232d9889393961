//! Pivot-indexed cluster set: access pruning before cluster probing.
//!
//! Every member of a compressed cluster contains every bit of the cluster's
//! shared mask, so the cluster can only produce matches when the event
//! bitmap has the cluster's *pivot* (its first shared bit). Indexing
//! clusters by pivot turns the per-event sweep over **all** clusters into a
//! sweep over the clusters whose pivot predicate the event actually
//! satisfies — the same access-predicate idea BE-Tree applies spatially,
//! fused here with the compressed bitmap representation.
//!
//! Clusters with an empty shared mask (direct representation) have no sound
//! pivot and stay on an always-probed list; the pivot-aware clustering
//! policy makes these rare.

use crate::{Cluster, Probe};
use apcm_bexpr::SubId;
use apcm_encoding::FixedBitSet;

/// The cluster container used by both PCM and A-PCM matchers.
#[derive(Debug, Default)]
pub struct ClusterIndex {
    clusters: Vec<Cluster>,
    /// The access-key bit chosen for each cluster (None = always probed).
    keys: Vec<Option<u32>>,
    /// `by_pivot[bit]` → indexes of clusters whose pivot is `bit`.
    by_pivot: Vec<Vec<u32>>,
    /// Bits that are some cluster's pivot; candidate gathering intersects
    /// the event bitmap with this mask word-wise instead of testing every
    /// set event bit against the (mostly empty) `by_pivot` table.
    pivot_mask: FixedBitSet,
    /// Clusters without a pivot (direct representation): always probed.
    unpivoted: Vec<u32>,
}

impl ClusterIndex {
    /// Builds the index over `clusters` for a predicate space of `width`
    /// bits.
    ///
    /// Each cluster is keyed under its most *selective* shared bit per
    /// `selectivity` (see `clustering::selectivity_table`) — any shared bit
    /// is a sound key (every member requires it), but the rarest-fired one
    /// minimizes how often the cluster is probed. Ties break toward the
    /// higher bit id, which prefers predicate bits over the low-id presence
    /// bits. Pass an empty table to key purely by highest shared bit.
    pub fn build(clusters: Vec<Cluster>, width: usize, selectivity: &[f64]) -> Self {
        let sel = |bit: u32| -> f64 { selectivity.get(bit as usize).copied().unwrap_or(1.0) };
        let mut by_pivot: Vec<Vec<u32>> = vec![Vec::new(); width];
        let mut pivot_mask = FixedBitSet::new(width);
        let mut unpivoted = Vec::new();
        let mut keys = Vec::with_capacity(clusters.len());
        for (i, cluster) in clusters.iter().enumerate() {
            let key = cluster.shared_bits().and_then(|bits| {
                bits.iter().copied().min_by(|&a, &b| {
                    sel(a)
                        .partial_cmp(&sel(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.cmp(&a))
                })
            });
            match key {
                Some(bit) if (bit as usize) < width => {
                    by_pivot[bit as usize].push(i as u32);
                    pivot_mask.insert(bit as usize);
                    keys.push(Some(bit));
                }
                _ => {
                    unpivoted.push(i as u32);
                    keys.push(None);
                }
            }
        }
        Self {
            clusters,
            keys,
            by_pivot,
            pivot_mask,
            unpivoted,
        }
    }

    /// The access-key bit cluster `idx` is indexed under, if any.
    pub fn key_of(&self, idx: u32) -> Option<u32> {
        self.keys.get(idx as usize).copied().flatten()
    }

    /// The stored clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Mutable access for member removal; structure (pivots) is unchanged
    /// by removals, so the index stays valid.
    pub fn clusters_mut(&mut self) -> &mut [Cluster] {
        &mut self.clusters
    }

    /// Consumes the index, returning the clusters (for re-clustering).
    pub fn into_clusters(self) -> Vec<Cluster> {
        self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the index holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Gathers into `out` (cleared first) the index of every cluster that
    /// could match an event whose encoded word row is `ewords`: pivot hits
    /// plus the always-probed list. Each cluster appears at most once (a
    /// cluster has exactly one pivot). Reusing `out` across events keeps the
    /// gather allocation-free on the hot path.
    pub fn candidates_into(&self, ewords: &[u64], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.unpivoted);
        // Word-wise sweep over `ewords ∩ pivot_mask`: only satisfied bits
        // that actually are pivots reach the posting-list lookup.
        let n = ewords.len().min(self.pivot_mask.words().len());
        for (w, (&ew, &mw)) in ewords[..n]
            .iter()
            .zip(self.pivot_mask.words()[..n].iter())
            .enumerate()
        {
            let mut word = ew & mw;
            while word != 0 {
                let bit = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                out.extend_from_slice(&self.by_pivot[bit]);
            }
        }
    }

    /// Allocating convenience over [`ClusterIndex::candidates_into`].
    pub fn candidates(&self, ebits: &FixedBitSet) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.unpivoted.len() + 16);
        self.candidates_into(ebits.words(), &mut out);
        out
    }

    /// Probes candidate cluster `idx` against the raw event row, returning
    /// the counter deltas for the caller's thread-local accumulator.
    #[inline]
    pub fn probe_words(&self, idx: u32, ewords: &[u64], out: &mut Vec<SubId>) -> Probe {
        self.clusters[idx as usize].match_words(ewords, out)
    }

    /// Probes candidate cluster `idx` against `ebits`, counting directly on
    /// the cluster's atomics (the unbatched convenience path).
    #[inline]
    pub fn probe(&self, idx: u32, ebits: &FixedBitSet, out: &mut Vec<SubId>) {
        self.clusters[idx as usize].match_into(ebits, out);
    }

    /// Sequential full match of one encoded event (candidates + probes).
    pub fn match_into(&self, ebits: &FixedBitSet, out: &mut Vec<SubId>) {
        for idx in self.candidates(ebits) {
            self.probe(idx, ebits, out);
        }
    }
}

impl Cluster {
    /// The cluster's shared bits — each is a sound access key (every member
    /// requires every shared bit). `None` for direct clusters.
    pub fn shared_bits(&self) -> Option<&[u32]> {
        match &self.repr {
            crate::ClusterRepr::Compressed { shared, .. } => Some(shared.ids()),
            crate::ClusterRepr::Direct { .. } => None,
        }
    }

    /// The cluster's default pivot: the first shared bit. The
    /// [`ClusterIndex`] refines this choice with selectivity information.
    pub fn pivot(&self) -> Option<u32> {
        self.shared_bits().and_then(|bits| bits.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcm_encoding::EncodedSub;

    fn enc(id: u32, bits: &[u32]) -> EncodedSub {
        crate::cluster::enc_for_test(id, bits, &[])
    }

    fn ev(width: usize, bits: &[usize]) -> FixedBitSet {
        FixedBitSet::from_indices(width, bits.iter().copied())
    }

    fn build_index() -> ClusterIndex {
        let clusters = vec![
            Cluster::compressed(&[enc(0, &[2, 5]), enc(1, &[2, 7])]), // pivot 2
            Cluster::compressed(&[enc(2, &[3, 9])]),                  // pivot 3
            Cluster::direct(&[enc(3, &[1]), enc(4, &[4])]),           // no pivot
        ];
        ClusterIndex::build(clusters, 16, &[])
    }

    #[test]
    fn pivot_extraction() {
        let c = Cluster::compressed(&[enc(0, &[4, 9]), enc(1, &[4, 5])]);
        assert_eq!(c.pivot(), Some(4));
        let d = Cluster::direct(&[enc(0, &[1]), enc(1, &[2])]);
        assert_eq!(d.pivot(), None);
    }

    #[test]
    fn candidates_respect_pivots() {
        // With an empty selectivity table, ties break to the HIGHEST shared
        // bit: cluster 0 (shared {2}) keys on 2, cluster 1 (shared {3, 9})
        // keys on 9.
        let index = build_index();
        // Event with bit 2 → cluster 0 + unpivoted cluster 2.
        let mut c = index.candidates(&ev(16, &[2]));
        c.sort_unstable();
        assert_eq!(c, vec![0, 2]);
        // Event with bits 2 and 9 → all three.
        let mut c = index.candidates(&ev(16, &[2, 9]));
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2]);
        // Event with no key bits → only the unpivoted cluster.
        assert_eq!(index.candidates(&ev(16, &[1, 4])), vec![2]);
    }

    #[test]
    fn selectivity_table_steers_keys() {
        // Cluster shared {3, 9}: with bit 3 far more selective than 9, the
        // index must key on 3.
        let clusters = vec![Cluster::compressed(&[enc(0, &[3, 9])])];
        let mut table = vec![1.0f64; 16];
        table[3] = 0.001;
        table[9] = 0.9;
        let index = ClusterIndex::build(clusters, 16, &table);
        assert_eq!(index.candidates(&ev(16, &[3])), vec![0]);
        assert!(index.candidates(&ev(16, &[9])).is_empty());
    }

    #[test]
    fn match_equals_exhaustive_probing() {
        let index = build_index();
        for bits in [
            vec![],
            vec![1usize],
            vec![2, 5],
            vec![2, 7],
            vec![3, 9],
            vec![1, 2, 3, 4, 5, 7, 9],
        ] {
            let e = ev(16, &bits);
            let mut via_index = Vec::new();
            index.match_into(&e, &mut via_index);
            via_index.sort_unstable();
            let mut exhaustive = Vec::new();
            for c in index.clusters() {
                c.match_into(&e, &mut exhaustive);
            }
            exhaustive.sort_unstable();
            assert_eq!(via_index, exhaustive, "bits {bits:?}");
        }
    }

    #[test]
    fn empty_index() {
        let index = ClusterIndex::build(Vec::new(), 8, &[]);
        assert!(index.is_empty());
        assert!(index.candidates(&ev(8, &[1])).is_empty());
    }

    #[test]
    fn pivot_beyond_width_goes_unpivoted() {
        // A cluster whose pivot lies beyond the declared width must still be
        // probed (never silently dropped).
        let clusters = vec![Cluster::compressed(&[enc(0, &[40])])];
        let index = ClusterIndex::build(clusters, 8, &[]);
        let mut out = Vec::new();
        index.match_into(&ev(64, &[40]), &mut out);
        assert_eq!(out, vec![SubId(0)]);
    }
}
