//! OSR: online event stream re-ordering.
//!
//! Events arrive in arbitrary order, but nearby-in-content events exercise
//! the same clusters. OSR buffers a window, reorders it so that similar
//! events are adjacent, and lets the matcher process the window in
//! *batches*: per batch, candidate clusters are probed cluster-major, so a
//! cluster's shared mask and residuals stay hot in cache across the batch's
//! events.
//!
//! Re-ordering is content-based and cheap: events are sorted by the word
//! prefix of their satisfied-predicate bitmaps, so events sharing their
//! low-id (typically most popular) predicates become neighbors. Matching
//! results are always reported in the **original arrival order** — OSR is an
//! internal execution strategy, not a semantic change.

use apcm_bexpr::Event;

/// Computes the processing order for a window's flat encoded-event word
/// table (the matcher's per-window [`crate::EncTable`]): row indices sorted
/// by bitmap content, lexicographic over words, original index as the
/// tiebreak for determinism.
pub fn reorder_permutation_rows(table: &crate::EncTable) -> Vec<usize> {
    let mut order: Vec<usize> = (0..table.rows()).collect();
    order.sort_by(|&a, &b| table.row(a).cmp(table.row(b)).then(a.cmp(&b)));
    order
}

/// A fixed-capacity buffer that hands out full windows for batch matching.
///
/// Streaming applications push events as they arrive; every `capacity`-th
/// push returns the full window to run through
/// [`crate::ApcmMatcher::match_window`]. [`OsrBuffer::flush`] drains a
/// partial window at stream end (or on a latency deadline — the buffer
/// itself imposes no timing policy).
#[derive(Debug)]
pub struct OsrBuffer {
    capacity: usize,
    buf: Vec<Event>,
}

impl OsrBuffer {
    /// A buffer holding up to `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "OSR window capacity must be positive");
        Self {
            capacity,
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Adds an event; returns the full window when it reaches capacity.
    pub fn push(&mut self, ev: Event) -> Option<Vec<Event>> {
        self.buf.push(ev);
        if self.buf.len() == self.capacity {
            Some(std::mem::replace(
                &mut self.buf,
                Vec::with_capacity(self.capacity),
            ))
        } else {
            None
        }
    }

    /// Drains whatever is buffered (possibly empty).
    pub fn flush(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.buf)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncTable;
    use apcm_bexpr::AttrId;

    /// A table with one row per entry of `rows`, each holding the listed
    /// bits of a `width`-bit space.
    fn table(width: usize, rows: &[&[usize]]) -> EncTable {
        let mut t = EncTable::default();
        t.reset(rows.len(), width);
        let stride = t.stride();
        for (r, bits) in rows.iter().enumerate() {
            for &b in bits.iter() {
                t.words_mut()[r * stride + b / 64] |= 1 << (b % 64);
            }
        }
        t
    }

    #[test]
    fn permutation_is_a_permutation() {
        let t = table(128, &[&[5, 9], &[1, 2], &[5, 9], &[]]);
        let mut perm = reorder_permutation_rows(&t);
        assert_eq!(perm.len(), 4);
        perm.sort_unstable();
        assert_eq!(perm, vec![0, 1, 2, 3]);
    }

    #[test]
    fn identical_events_become_adjacent() {
        let t = table(128, &[&[5, 9], &[1, 2], &[5, 9], &[1, 2]]);
        let perm = reorder_permutation_rows(&t);
        // The two [1,2] events and the two [5,9] events end up adjacent.
        assert_eq!(t.row(perm[0]), t.row(perm[1]));
        assert_eq!(t.row(perm[2]), t.row(perm[3]));
    }

    #[test]
    fn permutation_deterministic_with_ties() {
        let t = table(64, &[&[1], &[1], &[1]]);
        assert_eq!(reorder_permutation_rows(&t), vec![0, 1, 2]);
    }

    #[test]
    fn buffer_windows_and_flush() {
        let ev = |v| Event::new(vec![(AttrId(0), v)]).unwrap();
        let mut buf = OsrBuffer::new(3);
        assert!(buf.push(ev(1)).is_none());
        assert!(buf.push(ev(2)).is_none());
        let window = buf.push(ev(3)).expect("third push fills the window");
        assert_eq!(window.len(), 3);
        assert!(buf.is_empty());

        assert!(buf.push(ev(4)).is_none());
        let rest = buf.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(buf.len(), 0);
        assert!(buf.flush().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = OsrBuffer::new(0);
    }
}
