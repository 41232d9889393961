//! Sharded matcher-lifetime counters.
//!
//! Every matching worker used to `fetch_add` the same per-cluster
//! atomics once per probe, so concurrent matching threads ping-ponged the
//! cluster cache lines. The matcher now keeps its lifetime totals in a small
//! array of cache-line-padded [`CounterCell`]s: each worker thread hashes to
//! one cell and flushes its thread-local deltas there once per window, and
//! `Matcher::stats` sums the cells lazily. Totals are exact — every flush
//! lands in exactly one cell — only *when* a delta becomes visible is
//! deferred to the end of the window that produced it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One cache line of counters. The padding keeps two workers flushing to
/// neighboring cells from sharing a line (no false sharing).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CounterCell {
    probes: AtomicU64,
    prunes: AtomicU64,
    hits: AtomicU64,
}

impl CounterCell {
    /// Adds a flushed batch of deltas to this cell.
    #[inline]
    pub fn add(&self, probes: u64, prunes: u64, hits: u64) {
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
}

/// Process-wide worker numbering: each thread draws a dense id once and
/// keeps it for life, so a thread always flushes to the same cell.
static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER_ID: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

/// A power-of-two array of [`CounterCell`]s indexed by worker id.
#[derive(Debug)]
pub struct CounterShards {
    cells: Box<[CounterCell]>,
}

impl CounterShards {
    /// Builds shards for roughly `workers` concurrent threads (rounded up to
    /// a power of two so cell selection is a mask, capped to keep the lazy
    /// aggregation cheap).
    pub fn new(workers: usize) -> Self {
        let n = workers.max(1).next_power_of_two().min(64);
        Self {
            cells: (0..n).map(|_| CounterCell::default()).collect(),
        }
    }

    /// The calling thread's cell.
    #[inline]
    pub fn cell(&self) -> &CounterCell {
        let id = WORKER_ID.with(|id| *id);
        &self.cells[id & (self.cells.len() - 1)]
    }

    /// Sums every cell: `(probes, prunes, hits)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64);
        for cell in self.cells.iter() {
            t.0 += cell.probes.load(Ordering::Relaxed);
            t.1 += cell.prunes.load(Ordering::Relaxed);
            t.2 += cell.hits.load(Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(CounterShards::new(0).cells.len(), 1);
        assert_eq!(CounterShards::new(1).cells.len(), 1);
        assert_eq!(CounterShards::new(3).cells.len(), 4);
        assert_eq!(CounterShards::new(1000).cells.len(), 64);
    }

    #[test]
    fn totals_sum_all_cells_exactly() {
        let shards = CounterShards::new(4);
        shards.cell().add(5, 2, 1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| shards.cell().add(10, 3, 2));
            }
        });
        assert_eq!(shards.totals(), (5 + 80, 2 + 24, 1 + 16));
    }

    #[test]
    fn zero_deltas_skip_the_rmw() {
        let shards = CounterShards::new(1);
        shards.cell().add(0, 0, 0);
        assert_eq!(shards.totals(), (0, 0, 0));
    }
}
