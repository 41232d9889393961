//! Thread-local match scratch: zero-alloc steady state for the hot path.
//!
//! Matching an event needs a handful of working buffers — the encoded event
//! bitmap, the candidate cluster list, the result row, the per-window
//! `(cluster, event)` probe schedule, and the probe-counter deltas. Instead
//! of allocating them per event, every worker thread keeps one
//! [`MatchScratch`] (and one [`EncTable`] for window encoding) in
//! thread-local storage and reuses it across events: after warm-up the
//! steady-state match path performs no heap allocation beyond the caller's
//! result vectors.
//!
//! Access is strictly take/put ([`with_scratch`] moves the scratch out of
//! the slot for the duration of the closure): if a nested call ever occurs,
//! the inner scope simply sees a fresh empty scratch instead of panicking
//! on a re-borrow.

use crate::cluster::{Cluster, Probe};
use crate::counters::CounterCell;
use apcm_bexpr::SubId;
use apcm_encoding::FixedBitSet;
use std::cell::Cell;

/// Per-cluster counter deltas accumulated by one worker over one window.
///
/// Kernel probes bump plain (non-atomic) `u32`s here; [`ProbeCounts::flush`]
/// folds every touched cluster's delta into the cluster's epoch counters and
/// the worker's [`CounterCell`] with one `fetch_add` per counter — the
/// contention-free half of the counter design.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// Cluster indexes with a non-zero delta, in first-touch order.
    touched: Vec<u32>,
    /// Dense per-cluster deltas; `probes == 0` marks an untouched slot.
    probes: Vec<u32>,
    prunes: Vec<u32>,
    hits: Vec<u32>,
}

impl ProbeCounts {
    /// Grows the dense delta arrays to cover `clusters` slots.
    pub fn ensure(&mut self, clusters: usize) {
        if self.probes.len() < clusters {
            self.probes.resize(clusters, 0);
            self.prunes.resize(clusters, 0);
            self.hits.resize(clusters, 0);
        }
    }

    /// Accumulates one probe outcome for cluster `idx`.
    #[inline]
    pub fn count(&mut self, idx: u32, probe: Probe) {
        let i = idx as usize;
        if self.probes[i] == 0 {
            self.touched.push(idx);
        }
        self.probes[i] += 1;
        self.prunes[i] += u32::from(probe.pruned);
        self.hits[i] += probe.hits;
    }

    /// Flushes every touched cluster's delta into the cluster epoch
    /// counters, and the window totals into `cell` (when the matcher shards
    /// its lifetime stats). Leaves the scratch clean for the next window.
    pub fn flush(&mut self, clusters: &[Cluster], cell: Option<&CounterCell>) {
        let mut totals = (0u64, 0u64, 0u64);
        for &idx in &self.touched {
            let i = idx as usize;
            let (p, r, h) = (
                u64::from(self.probes[i]),
                u64::from(self.prunes[i]),
                u64::from(self.hits[i]),
            );
            self.probes[i] = 0;
            self.prunes[i] = 0;
            self.hits[i] = 0;
            clusters[i].add_counts(p, r, h);
            totals.0 += p;
            totals.1 += r;
            totals.2 += h;
        }
        self.touched.clear();
        if let Some(cell) = cell {
            cell.add(totals.0, totals.1, totals.2);
        }
    }
}

/// Reusable per-thread buffers for the match kernel.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Encoded-event bitmap for single-event paths.
    pub ebits: FixedBitSet,
    /// Candidate cluster indexes from the pivot sweep.
    pub candidates: Vec<u32>,
    /// Result row under construction.
    pub row: Vec<SubId>,
    /// Cluster-major `(cluster, position)` probe schedule for OSR windows.
    pub pairs: Vec<(u32, u32)>,
    /// Per-cluster counter deltas.
    pub counts: ProbeCounts,
}

impl MatchScratch {
    /// Ensures `ebits` spans at least `width` bits (predicate spaces grow
    /// under subscription churn).
    pub fn ensure_width(&mut self, width: usize) {
        if self.ebits.nbits() < width {
            self.ebits = FixedBitSet::new(width);
        }
    }
}

/// One window's encoded events as a flat word table: row `i` holds event
/// `i`'s bitmap in `stride` words. One buffer per window instead of one
/// `FixedBitSet` per event.
#[derive(Debug, Default)]
pub struct EncTable {
    words: Vec<u64>,
    stride: usize,
    rows: usize,
}

impl EncTable {
    /// Resizes (and zeroes) the table for `rows` events of `width` bits.
    pub fn reset(&mut self, rows: usize, width: usize) {
        self.stride = width.div_ceil(64).max(1);
        self.rows = rows;
        self.words.clear();
        self.words.resize(rows * self.stride, 0);
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of event rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Event `i`'s encoded word row.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// The whole table, for parallel row-chunked filling.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

thread_local! {
    static SCRATCH: Cell<MatchScratch> = Cell::new(MatchScratch::default());
    static TABLE: Cell<EncTable> = Cell::new(EncTable::default());
}

/// Runs `f` with the calling thread's [`MatchScratch`]. The scratch is moved
/// out of the thread-local slot for the duration of `f`, so a nested call
/// gets a fresh (empty) scratch rather than a re-borrow panic.
pub fn with_scratch<R>(f: impl FnOnce(&mut MatchScratch) -> R) -> R {
    SCRATCH.with(|slot| {
        let mut scratch = slot.take();
        let result = f(&mut scratch);
        slot.set(scratch);
        result
    })
}

/// Takes the calling thread's [`EncTable`] out of its slot. Pair with
/// [`put_table`]; take/put (rather than a closure borrow) lets the table
/// live across pool fan-out calls whose workers use their own scratch.
pub fn take_table() -> EncTable {
    TABLE.with(|slot| slot.take())
}

/// Returns a table taken with [`take_table`], preserving its capacity for
/// the next window.
pub fn put_table(table: EncTable) {
    TABLE.with(|slot| slot.set(table));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::enc_for_test;

    #[test]
    fn probe_counts_flush_exactly_once() {
        let clusters = vec![
            Cluster::compressed(&[enc_for_test(0, &[1], &[])]),
            Cluster::compressed(&[enc_for_test(1, &[2], &[])]),
        ];
        let mut counts = ProbeCounts::default();
        counts.ensure(clusters.len());
        counts.count(
            0,
            Probe {
                pruned: false,
                hits: 1,
            },
        );
        counts.count(
            0,
            Probe {
                pruned: true,
                hits: 0,
            },
        );
        counts.count(
            1,
            Probe {
                pruned: false,
                hits: 3,
            },
        );
        counts.flush(&clusters, None);

        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(clusters[0].probes.load(Relaxed), 2);
        assert_eq!(clusters[0].prunes.load(Relaxed), 1);
        assert_eq!(clusters[0].hits.load(Relaxed), 1);
        assert_eq!(clusters[1].probes.load(Relaxed), 1);
        assert_eq!(clusters[1].hits.load(Relaxed), 3);

        // A second flush with no new counts is a no-op.
        counts.flush(&clusters, None);
        assert_eq!(clusters[0].probes.load(Relaxed), 2);
    }

    #[test]
    fn nested_with_scratch_gets_fresh_buffers() {
        with_scratch(|outer| {
            outer.candidates.push(7);
            with_scratch(|inner| {
                assert!(inner.candidates.is_empty());
                inner.candidates.push(9);
            });
            assert_eq!(outer.candidates, vec![7]);
        });
    }

    #[test]
    fn enc_table_rows_are_disjoint() {
        let mut t = EncTable::default();
        t.reset(3, 130);
        assert_eq!(t.stride(), 3);
        assert_eq!(t.rows(), 3);
        t.words_mut()[3] = 0xdead;
        assert_eq!(t.row(0), &[0, 0, 0]);
        assert_eq!(t.row(1), &[0xdead, 0, 0]);
        // Reset zeroes previous contents.
        t.reset(2, 64);
        assert_eq!(t.row(0), &[0]);
        assert_eq!(t.row(1), &[0]);
    }
}
