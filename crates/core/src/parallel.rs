//! Parallel execution layer.
//!
//! Clusters are independent, and so are the events of a batch, so matching
//! parallelizes along either axis. [`Pool`] is the one place that decision
//! is made: a thread count over `std::thread::scope`, which splits the work
//! into one contiguous, order-preserving chunk per worker. With one thread,
//! or at most one item, the work runs on the calling thread and nothing is
//! spawned — the path every sequentially configured matcher (each server
//! shard, for one) takes.

use crate::scratch::{self, ProbeCounts};
use crate::{ClusterIndex, CounterShards};
use apcm_bexpr::SubId;
use std::ops::Range;

/// Fewest candidate clusters one event fans out across the pool for; below
/// this, spawning workers costs more than probing inline.
const EVENT_FAN_OUT_MIN: usize = 64;

/// A worker count for matching fan-out.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A one-thread pool: everything runs on the caller's thread. Batch
    /// paths that already split across events probe each event with it.
    pub(crate) const INLINE: Pool = Pool { threads: 1 };

    /// Builds the pool; `threads = None` uses all available parallelism.
    pub fn new(threads: Option<usize>) -> Self {
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self {
            threads: threads.max(1),
        }
    }

    /// Worker threads this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n` into one contiguous range per worker, runs `f` on each
    /// and concatenates the outputs in range order.
    fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        let workers = match self.threads.min(n) {
            0 => return Vec::new(),
            1 => return f(0..n),
            workers => workers,
        };
        let chunk = n.div_ceil(workers);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|lo| scope.spawn(move || f(lo..(lo + chunk).min(n))))
                .collect();
            let mut parts = handles
                .into_iter()
                .map(|h| h.join().expect("matching worker panicked"));
            let mut out = parts.next().unwrap_or_default();
            for part in parts {
                out.extend(part);
            }
            out
        })
    }

    /// Parallel ordered map: `out[i] = f(i)` for `i in 0..n`.
    ///
    /// Index order is preserved in the result, so batch matching keeps
    /// event order without a post-pass.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, |range| range.map(&f).collect())
    }

    /// Parallel flat-map: applies `f` to one contiguous chunk of `items`
    /// per worker and concatenates the results in chunk order.
    pub fn flat_map_chunks<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&[I]) -> Vec<T> + Sync,
    {
        self.run(items.len(), |range| f(&items[range]))
    }

    /// Splits `data` into per-worker contiguous chunks — each a multiple of
    /// `align` elements — and runs `f(chunk_start, chunk)` on each in
    /// parallel. Used to fill one flat output buffer (e.g. a window's
    /// encoded-event table, `align` = words per row) without per-item
    /// allocation.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], align: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        let align = align.max(1);
        debug_assert_eq!(n % align, 0, "buffer must be whole rows");
        if n == 0 {
            return;
        }
        let rows = n / align;
        let workers = self.threads.min(rows);
        if workers <= 1 {
            f(0, data);
            return;
        }
        let chunk = rows.div_ceil(workers) * align;
        std::thread::scope(|scope| {
            let f = &f;
            for (c, part) in data.chunks_mut(chunk).enumerate() {
                scope.spawn(move || f(c * chunk, part));
            }
        });
    }

    /// Matches one encoded event row against `index`: gathers its candidate
    /// clusters into `candidates`, probes each, and writes the matches
    /// (unsorted) into `row`. Probe outcomes are accumulated in `counts` —
    /// worker-local ones when the candidates fan out across the pool — and
    /// flushed once into the clusters and, when given, `counters`.
    pub(crate) fn probe_event(
        &self,
        index: &ClusterIndex,
        ewords: &[u64],
        candidates: &mut Vec<u32>,
        counts: &mut ProbeCounts,
        counters: Option<&CounterShards>,
        row: &mut Vec<SubId>,
    ) {
        index.candidates_into(ewords, candidates);
        row.clear();
        if candidates.len() >= EVENT_FAN_OUT_MIN && self.threads > 1 {
            let found = self.flat_map_chunks(candidates, |idxs| {
                scratch::with_scratch(|ws| {
                    let mut local = Vec::new();
                    probe_all(index, ewords, idxs, &mut ws.counts, counters, &mut local);
                    local
                })
            });
            row.extend(found);
        } else {
            probe_all(index, ewords, candidates, counts, counters, row);
        }
    }
}

/// Probes `idxs` in order on the calling thread, then flushes the counts.
fn probe_all(
    index: &ClusterIndex,
    ewords: &[u64],
    idxs: &[u32],
    counts: &mut ProbeCounts,
    counters: Option<&CounterShards>,
    out: &mut Vec<SubId>,
) {
    counts.ensure(index.len());
    for &idx in idxs {
        let probe = index.probe_words(idx, ewords, out);
        counts.count(idx, probe);
    }
    counts.flush(index.clusters(), counters.map(CounterShards::cell));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{current, ThreadId};

    fn pools() -> Vec<Pool> {
        [1, 3, 16].map(|t| Pool::new(Some(t))).into()
    }

    #[test]
    fn map_indexed_preserves_order() {
        for pool in pools() {
            let out = pool.map_indexed(100, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "{pool:?}");
        }
    }

    #[test]
    fn map_indexed_empty() {
        for pool in pools() {
            assert!(pool.map_indexed(0, |i| i).is_empty());
        }
    }

    #[test]
    fn flat_map_chunks_concatenates_in_order() {
        let items: Vec<u32> = (0..97).collect();
        for pool in pools() {
            let out = pool.flat_map_chunks(&items, |chunk| chunk.to_vec());
            assert_eq!(out, items, "{pool:?}");
            assert!(pool
                .flat_map_chunks(&[] as &[u32], |c| c.to_vec())
                .is_empty());
        }
    }

    #[test]
    fn threads_default_and_floor() {
        assert_eq!(Pool::new(Some(8)).threads(), 8);
        assert_eq!(Pool::new(Some(0)).threads(), 1);
        assert!(Pool::new(None).threads() >= 1);
        assert_eq!(Pool::INLINE.threads(), 1);
    }

    #[test]
    fn for_each_chunk_mut_covers_every_row_once() {
        for pool in pools() {
            let mut data = vec![0u32; 7 * 3]; // 7 rows of 3
            pool.for_each_chunk_mut(&mut data, 3, |start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot += (start + i) as u32 + 1;
                }
            });
            let expect: Vec<u32> = (1..=21).collect();
            assert_eq!(data, expect, "{pool:?}");
            // Empty buffer is a no-op.
            pool.for_each_chunk_mut(&mut [] as &mut [u32], 3, |_, _| panic!("no chunks"));
        }
    }

    #[test]
    fn more_threads_than_items() {
        let pool = Pool::new(Some(16));
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    /// Runs every entry point over `items` items and returns the threads
    /// each call of `f` ran on.
    fn threads_used(pool: &Pool, items: usize) -> Vec<ThreadId> {
        let mut seen = pool.map_indexed(items, |_| current().id());
        let data: Vec<usize> = (0..items).collect();
        seen.extend(pool.flat_map_chunks(&data, |_| vec![current().id()]));
        let mut rows = vec![0u8; items];
        let ids = std::sync::Mutex::new(Vec::new());
        pool.for_each_chunk_mut(&mut rows, 1, |_, _| {
            ids.lock().unwrap().push(current().id())
        });
        seen.extend(ids.into_inner().unwrap());
        seen
    }

    #[test]
    fn one_thread_or_one_item_runs_on_the_caller() {
        let me = current().id();
        let inline = Pool::new(Some(1));
        let seen = threads_used(&inline, 50);
        assert_eq!(seen.len(), 50 + 1 + 1);
        assert!(seen.iter().all(|&t| t == me), "one-thread pool spawned");
        for pool in pools() {
            let seen = threads_used(&pool, 1);
            assert_eq!(seen.len(), 3, "{pool:?}");
            assert!(
                seen.iter().all(|&t| t == me),
                "{pool:?} spawned for one item"
            );
        }
        // Several items on several threads do leave the caller.
        let seen = threads_used(&Pool::new(Some(3)), 9);
        assert!(seen.iter().all(|&t| t != me));
    }
}
