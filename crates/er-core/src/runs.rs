//! K-way merge of sorted runs — the coordinator's side of a job whose
//! reduce tasks each emit a run ascending by key.
//!
//! Its consumer, a match stage's [`crate::MatchResult`], folds the
//! values of equal keys, keeping a pair's best score. Merging
//! the runs costs `O(n log r)` comparisons and no sort buffer, where
//! re-sorting their concatenation would cost a second `n`-sized
//! buffer.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One run's next record, ordered for a min-heap by `(key, run)`: the
/// least key first, ties to the earlier run.
struct Head<K, V> {
    key: K,
    run: usize,
    value: V,
}

impl<K: Ord, V> Ord for Head<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.key, other.run).cmp(&(&self.key, self.run))
    }
}

impl<K: Ord, V> PartialOrd for Head<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> PartialEq for Head<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, V> Eq for Head<K, V> {}

/// Merges `runs`, each ascending by key, into one strictly ascending
/// run. The records of a key reach `fold(kept, next)` in the order of
/// the runs' concatenation — run by run, each run in its own order —
/// so the result equals stable-sorting that concatenation and folding
/// each key's records left to right.
///
/// A run out of order is not detected here; it leaves a descent in the
/// output. A run's buffer is freed as soon as it is drained.
pub fn merge_runs<K: Ord, V>(
    runs: Vec<Vec<(K, V)>>,
    mut fold: impl FnMut(&mut V, V),
) -> Vec<(K, V)> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut runs: Vec<std::vec::IntoIter<(K, V)>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: BinaryHeap<Head<K, V>> = runs
        .iter_mut()
        .enumerate()
        .filter_map(|(run, records)| {
            let (key, value) = records.next()?;
            Some(Head { key, run, value })
        })
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let run = head.run;
        let Head { key, value, .. } = match runs[run].next() {
            Some((key, value)) => std::mem::replace(&mut *head, Head { key, run, value }),
            None => {
                runs[run] = Vec::new().into_iter();
                PeekMut::pop(head)
            }
        };
        match merged.last_mut() {
            Some((last, kept)) if *last == key => fold(kept, value),
            _ => merged.push((key, value)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_runs_and_folds_equal_keys_in_run_order() {
        let run = |records: &[(u32, &str)]| -> Vec<(u32, String)> {
            records.iter().map(|&(k, v)| (k, v.to_string())).collect()
        };
        let runs = vec![
            run(&[(1, "a"), (3, "b")]),
            run(&[]),
            run(&[(1, "c"), (2, "d"), (3, "e"), (3, "f")]),
        ];
        let merged = merge_runs(runs, |kept, next| kept.push_str(&next));
        assert_eq!(merged, run(&[(1, "ac"), (2, "d"), (3, "bef")]));
    }

    #[test]
    fn nothing_merges_to_nothing() {
        let fold = |_: &mut u8, _| unreachable!("no key repeats");
        assert!(merge_runs(Vec::<Vec<(u32, u8)>>::new(), fold).is_empty());
        assert!(merge_runs(vec![Vec::<(u32, u8)>::new(); 3], fold).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The merge equals a stable sort of the runs' concatenation
        /// followed by a left-to-right fold of each key's records.
        #[test]
        fn merge_equals_a_stable_sort_and_fold(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..100), 0..10),
                0..6,
            ),
        ) {
            let runs: Vec<Vec<(u32, Vec<u32>)>> = runs
                .into_iter()
                .map(|mut run| {
                    run.sort_by_key(|&(key, _)| key);
                    run.into_iter().map(|(key, value)| (key, vec![value])).collect()
                })
                .collect();
            let mut expected: Vec<(u32, Vec<u32>)> = runs.iter().flatten().cloned().collect();
            expected.sort_by_key(|(key, _)| *key);
            expected.dedup_by(|(key, next), (kept_key, kept)| {
                let equal = key == kept_key;
                if equal {
                    kept.append(next);
                }
                equal
            });
            let merged = merge_runs(runs, |kept, mut next| kept.append(&mut next));
            prop_assert_eq!(merged, expected);
        }
    }
}
