//! K-way merge kernels for the reduce-side shuffle.
//!
//! Two implementations of the same contract live here:
//!
//! * [`GroupStream`] — the production path: a binary-heap (tournament)
//!   merge over the map-side sorted runs — one per map task without a
//!   spill threshold, `m × (seals per task)` with one (the spiller
//!   flattens them in (map task, seal) order) — that yields reduce
//!   *groups* incrementally. Only the current group (one maximal run
//!   of keys equal under the grouping comparator) is buffered and the
//!   merged run as a whole is never materialized, eliminating the
//!   second `O(task input)` copy the old materialize-then-scan path
//!   allocated: the merge machinery itself holds only
//!   `O(largest group + m)` records. (The input runs' inline tuple
//!   storage stays owned by the stream's iterators until the task
//!   ends, but heap payloads — strings, `Arc`s — are moved out and
//!   released group by group.)
//! * [`merge_sorted_runs`] — the reference path: materializes the
//!   fully merged run with a left-biased binary merge tree. It is kept
//!   (and exported) purely as the equivalence oracle for tests and
//!   benches; the engine no longer calls it.
//!
//! # Determinism contract
//!
//! Both paths are byte-identical to concatenating the runs in input
//! order and stable-sorting: within a run, emission order is
//! preserved, and ties between runs break toward the lower run index.
//! With runs handed over in (map task, seal order) — the engine's
//! shuffle layout — that left bias composes to (map task, seal,
//! emission-within-seal), which equals plain (map task, emission)
//! order because a seal contains only records emitted before the next
//! seal's. The heap orders run heads by `(key, run index)`, keys
//! compared by their `Ord`, so after a pop the same run wins again
//! while its head stays equal — exactly the drain order of a stable
//! sort.

use std::cmp::Ordering;

use crate::comparator::KeyCmp;

/// Run source of a [`GroupStream`] built over *borrowed* runs: each
/// record is cloned lazily as the merge delivers it.
pub type ClonedRunIter<'r, K, V> = std::iter::Cloned<std::slice::Iter<'r, (K, V)>>;

/// Streaming k-way merge that yields one reduce group at a time.
///
/// [`GroupStream::new`] moves the runs into per-run iterators; records
/// are moved out as they are consumed, so heap-allocated key/value
/// payloads (strings, `Arc`s) are released group by group rather than
/// living for the whole task. [`GroupStream::over`] instead borrows
/// the runs and clones each record lazily on delivery — for callers
/// (like a retryable reduce attempt) that must leave the runs intact
/// without paying for a second full copy up front.
pub struct GroupStream<K, V, I = std::vec::IntoIter<(K, V)>>
where
    I: Iterator<Item = (K, V)>,
{
    iters: Vec<I>,
    /// Head element of each not-yet-exhausted run (`None` once drained).
    heads: Vec<Option<(K, V)>>,
    /// Min-heap of run indices, ordered by `(head key, run index)`.
    heap: Vec<usize>,
    /// High-water mark of (caller's group buffer + buffered heads),
    /// sampled after every record move inside [`GroupStream::next_group`]
    /// — mid-group states included, so runs exhausting while a group
    /// is assembled cannot hide a transient peak.
    peak_resident: usize,
}

impl<K: Ord, V> GroupStream<K, V> {
    /// Builds the stream over owned `runs`, each already sorted by key;
    /// records are moved out as they are consumed.
    pub fn new(runs: Vec<Vec<(K, V)>>) -> Self {
        Self::from_iters(runs.into_iter().map(Vec::into_iter).collect())
    }
}

impl<'r, K: Ord + Clone, V: Clone> GroupStream<K, V, ClonedRunIter<'r, K, V>> {
    /// Builds the stream over *borrowed* `runs`, cloning each record
    /// lazily as the merge delivers it. The runs stay intact for a
    /// later re-execution; the stream's own residency stays
    /// `O(largest group + runs)` cloned records, never a second full
    /// copy.
    pub fn over(runs: &'r [Vec<(K, V)>]) -> Self {
        Self::from_iters(runs.iter().map(|run| run.iter().cloned()).collect())
    }
}

impl<K: Ord, V, I> GroupStream<K, V, I>
where
    I: Iterator<Item = (K, V)>,
{
    fn from_iters(mut iters: Vec<I>) -> Self {
        let heads: Vec<Option<(K, V)>> = iters.iter_mut().map(Iterator::next).collect();
        let heap: Vec<usize> = (0..heads.len()).filter(|&i| heads[i].is_some()).collect();
        let mut stream = Self {
            iters,
            heads,
            heap,
            peak_resident: 0,
        };
        if stream.heap.len() > 1 {
            for pos in (0..stream.heap.len() / 2).rev() {
                stream.sift_down(pos);
            }
        }
        stream
    }

    /// True iff run `a`'s head must be delivered before run `b`'s:
    /// strictly smaller key, or equal keys with the lower run index
    /// (the left bias that keeps the merge stable).
    fn wins(&self, a: usize, b: usize) -> bool {
        let ka = &self.heads[a].as_ref().expect("heap entry has a head").0;
        let kb = &self.heads[b].as_ref().expect("heap entry has a head").0;
        match ka.cmp(kb) {
            Ordering::Less => true,
            Ordering::Equal => a < b,
            Ordering::Greater => false,
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len() && self.wins(self.heap[right], self.heap[left]) {
                best = right;
            }
            if self.wins(self.heap[best], self.heap[pos]) {
                self.heap.swap(pos, best);
                pos = best;
            } else {
                return;
            }
        }
    }

    /// Removes and returns the globally next record, refilling the
    /// winning run's head from its iterator.
    fn pop(&mut self) -> Option<(K, V)> {
        let &run = self.heap.first()?;
        let item = self.heads[run].take().expect("heap entry has a head");
        self.heads[run] = self.iters[run].next();
        if self.heads[run].is_some() {
            self.sift_down(0);
        } else {
            self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
        }
        Some(item)
    }

    /// Key of the next record to be delivered, if any.
    fn peek_key(&self) -> Option<&K> {
        let &run = self.heap.first()?;
        Some(&self.heads[run].as_ref().expect("heap entry has a head").0)
    }

    /// Fills `buf` with the next reduce group — the maximal run of
    /// records whose keys compare `Equal` to the group's *first* key
    /// under `group_cmp` — reusing `buf`'s allocation. Returns `false`
    /// when the merge is exhausted (`buf` is left empty).
    pub fn next_group(&mut self, group_cmp: &KeyCmp<K>, buf: &mut Vec<(K, V)>) -> bool {
        buf.clear();
        match self.pop() {
            None => return false,
            Some(first) => buf.push(first),
        }
        self.peak_resident = self.peak_resident.max(buf.len() + self.heap.len());
        loop {
            let boundary = match self.peek_key() {
                None => true,
                Some(key) => group_cmp(key, &buf[0].0) != Ordering::Equal,
            };
            if boundary {
                return true;
            }
            let item = self.pop().expect("peeked element exists");
            buf.push(item);
            self.peak_resident = self.peak_resident.max(buf.len() + self.heap.len());
        }
    }

    /// Number of run heads currently buffered inside the merge
    /// (`<= m`); together with the caller's group buffer this is every
    /// record the streaming reduce path holds at once.
    pub fn buffered_heads(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of records resident in the streaming machinery
    /// so far: the group buffer being filled plus all buffered run
    /// heads, sampled after every record delivered by
    /// [`GroupStream::next_group`]. Bounded by `largest group + m`.
    pub fn peak_resident_records(&self) -> usize {
        self.peak_resident
    }
}

/// Reference materialized merge: stable left-biased binary merge tree,
/// `O(N log k)` comparisons, producing the whole merged run at once.
///
/// Retained as the byte-equivalence oracle for the streaming path (the
/// engine itself streams via [`GroupStream`]).
pub fn merge_sorted_runs<K: Ord, V>(mut runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(left) = it.next() {
            match it.next() {
                Some(right) => next.push(merge_two(left, right)),
                None => next.push(left),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Stable two-way merge; ties take from `left` (the earlier map task).
fn merge_two<K: Ord, V>(left: Vec<(K, V)>, right: Vec<(K, V)>) -> Vec<(K, V)> {
    if left.is_empty() {
        return right;
    }
    if right.is_empty() {
        return left;
    }
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut li = left.into_iter().peekable();
    let mut ri = right.into_iter().peekable();
    loop {
        match (li.peek(), ri.peek()) {
            (Some(l), Some(r)) => {
                // Strictly-less on the right is the only way right
                // wins — equality stays left-biased for stability.
                if r.0 < l.0 {
                    out.push(ri.next().expect("peeked"));
                } else {
                    out.push(li.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(li);
                return out;
            }
            (None, _) => {
                out.extend(ri);
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{by_projection, natural_order};

    /// Drains a stream into (groups, peak buffered heads).
    fn collect_groups<K: Ord + Clone, V: Clone>(
        runs: Vec<Vec<(K, V)>>,
        group_cmp: &KeyCmp<K>,
    ) -> Vec<Vec<(K, V)>> {
        let mut stream = GroupStream::new(runs);
        let mut buf = Vec::new();
        let mut groups = Vec::new();
        while stream.next_group(group_cmp, &mut buf) {
            groups.push(buf.clone());
        }
        assert!(buf.is_empty(), "exhausted stream leaves the buffer empty");
        groups
    }

    /// Reference grouping: materialized merge + boundary scan, the
    /// engine's pre-streaming implementation.
    fn reference_groups<K, V>(runs: Vec<Vec<(K, V)>>, group_cmp: &KeyCmp<K>) -> Vec<Vec<(K, V)>>
    where
        K: Ord + Clone,
        V: Clone,
    {
        let run = merge_sorted_runs(runs);
        let mut groups = Vec::new();
        let mut lo = 0usize;
        while lo < run.len() {
            let mut hi = lo + 1;
            while hi < run.len() && group_cmp(&run[hi].0, &run[lo].0) == Ordering::Equal {
                hi += 1;
            }
            groups.push(run[lo..hi].to_vec());
            lo = hi;
        }
        groups
    }

    fn tagged_runs() -> Vec<Vec<(u32, (usize, usize))>> {
        // Values tag (run, position) so stability violations show up
        // in the comparison, not just ordering violations.
        vec![
            vec![(1, (0, 0)), (3, (0, 1)), (3, (0, 2)), (9, (0, 3))],
            vec![],
            vec![(0, (2, 0)), (3, (2, 1)), (9, (2, 2))],
            vec![(3, (3, 0)), (4, (3, 1))],
            vec![(2, (4, 0))],
        ]
    }

    #[test]
    fn merge_sorted_runs_equals_concat_then_stable_sort() {
        let runs = tagged_runs();
        let mut expected: Vec<(u32, (usize, usize))> = runs.concat();
        expected.sort_by_key(|r| r.0);
        assert_eq!(merge_sorted_runs(runs), expected);
    }

    #[test]
    fn merge_sorted_runs_degenerate_shapes() {
        assert!(merge_sorted_runs::<u8, ()>(vec![]).is_empty());
        assert!(merge_sorted_runs::<u8, ()>(vec![vec![], vec![]]).is_empty());
        let single = vec![vec![(1u8, ()), (2, ())]];
        assert_eq!(merge_sorted_runs(single), vec![(1, ()), (2, ())]);
    }

    #[test]
    fn streaming_groups_equal_materialized_reference() {
        let group_cmp = natural_order::<u32>();
        let streamed = collect_groups(tagged_runs(), &group_cmp);
        let reference = reference_groups(tagged_runs(), &group_cmp);
        assert_eq!(streamed, reference);
        // Spot-check the left bias directly: the three equal keys `3`
        // must drain run 0 first, then runs 2 and 3.
        let g3 = streamed.iter().find(|g| g[0].0 == 3).unwrap();
        let tags: Vec<(usize, usize)> = g3.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![(0, 1), (0, 2), (2, 1), (3, 0)]);
    }

    #[test]
    fn streaming_matches_reference_under_coarse_grouping() {
        // Sort by (block, seq), group by block only — the PairRange
        // secondary-sort shape. Group boundaries must fall exactly
        // where the reference scan puts them.
        let group_cmp = by_projection(|k: &(u32, u32)| k.0);
        let runs = vec![
            vec![((1, 0), "a"), ((1, 2), "b"), ((2, 0), "c")],
            vec![((1, 1), "d"), ((2, 1), "e"), ((3, 0), "f")],
            vec![((1, 2), "g")],
        ];
        let streamed = collect_groups(runs.clone(), &group_cmp);
        let reference = reference_groups(runs, &group_cmp);
        assert_eq!(streamed, reference);
        assert_eq!(streamed.len(), 3, "three blocks -> three groups");
        assert_eq!(streamed[0].len(), 4, "block 1 spans all three runs");
    }

    #[test]
    fn streaming_matches_reference_on_adversarial_shapes() {
        let group_cmp = natural_order::<u32>();
        let cases: Vec<Vec<Vec<(u32, usize)>>> = vec![
            vec![],
            vec![vec![], vec![], vec![]],
            vec![vec![(5, 0)]],
            // All runs one identical key: pure stability test.
            vec![vec![(7, 0), (7, 1)], vec![(7, 2)], vec![(7, 3), (7, 4)]],
            // Interleaved and disjoint ranges.
            vec![
                (0..20).map(|k| (k * 2, 0)).collect(),
                (0..20).map(|k| (k * 2 + 1, 1)).collect(),
                (10..15).map(|k| (k, 2)).collect(),
            ],
        ];
        for (i, runs) in cases.into_iter().enumerate() {
            let streamed = collect_groups(runs.clone(), &group_cmp);
            let reference = reference_groups(runs, &group_cmp);
            assert_eq!(streamed, reference, "case {i}");
        }
    }

    #[test]
    fn peak_resident_tracks_group_plus_heads_high_water() {
        // All runs share one key, forming a single group of 4. Every
        // record delivered moves from a run head into the buffer (with
        // the head refilled when the run continues), so the resident
        // high-water mark is `group + surviving heads` — here exactly
        // the group size, since all runs drain into it — and a later
        // exhausted call must not disturb it.
        let group_cmp = natural_order::<u32>();
        let runs: Vec<Vec<(u32, usize)>> = vec![vec![(1, 0), (1, 1)], vec![(1, 2)], vec![(1, 3)]];
        let mut stream = GroupStream::new(runs);
        let mut buf = Vec::new();
        assert!(stream.next_group(&group_cmp, &mut buf));
        assert_eq!(buf.len(), 4);
        assert_eq!(stream.peak_resident_records(), 4);
        assert!(!stream.next_group(&group_cmp, &mut buf));
        assert_eq!(stream.peak_resident_records(), 4, "exhaustion adds nothing");

        // Two groups: while group [1, 1] assembles, run 1's head (2)
        // stays buffered, so the peak is 2 + 1 = 3 even though the
        // second group leaves only one record resident.
        let runs: Vec<Vec<(u32, usize)>> = vec![vec![(1, 0), (1, 1)], vec![(2, 2)]];
        let mut stream = GroupStream::new(runs);
        let mut buf = Vec::new();
        while stream.next_group(&group_cmp, &mut buf) {}
        assert_eq!(stream.peak_resident_records(), 3);
    }

    #[test]
    fn borrowed_stream_matches_owned_and_leaves_runs_intact() {
        // `over` must deliver exactly the groups `new` does while the
        // source runs survive a full drain untouched — the property a
        // retryable reduce attempt depends on.
        let group_cmp = natural_order::<u32>();
        let runs = tagged_runs();
        let owned = collect_groups(runs.clone(), &group_cmp);
        let mut stream = GroupStream::over(&runs);
        let mut buf = Vec::new();
        let mut borrowed = Vec::new();
        while stream.next_group(&group_cmp, &mut buf) {
            borrowed.push(buf.clone());
        }
        assert_eq!(borrowed, owned);
        assert_eq!(runs, tagged_runs(), "borrowed runs survive the drain");
    }

    #[test]
    fn buffered_heads_never_exceed_run_count() {
        let group_cmp = natural_order::<u32>();
        let runs = tagged_runs();
        let m = runs.len();
        let mut stream = GroupStream::new(runs);
        assert!(stream.buffered_heads() <= m);
        let mut buf = Vec::new();
        while stream.next_group(&group_cmp, &mut buf) {
            assert!(stream.buffered_heads() <= m);
        }
        assert_eq!(stream.buffered_heads(), 0, "exhausted stream holds nothing");
    }
}
