//! Optional per-map-task combiner.
//!
//! The paper's footnote 2 suggests "a combine function that aggregates
//! the frequencies of the blocking keys per map task" as a BDM-job
//! optimization; this module provides exactly that machinery.
//!
//! Semantics follow Hadoop's contract: the combiner runs over the map
//! task's local output, on groups of keys that compare equal under the
//! job's *sort* comparator, and must be an associative + commutative
//! reduction of values for a fixed key. The engine applies it once per
//! **seal** — once per map task without a spill threshold, once per
//! spill with one (exactly Hadoop's "zero or more applications per
//! spill" contract; any number of applications must be legal, and our
//! tests assert idempotence of a second application for the shipped
//! combiners plus result equality across spill thresholds).
//!
//! Like Hadoop's spill combiner, the engine combines *per partition
//! bucket*: map output is partitioned first, each sealed bucket is
//! stable-sorted once, and [`combine_sorted_run`] then reduces
//! adjacent equal-key groups in a single pass — the bucket sort the
//! shuffle needs anyway doubles as the combiner's grouping sort, so
//! each record is sorted exactly once.

use std::sync::Arc;

/// Reduces all values of one locally sorted key group to fewer values.
///
/// `combine(key, values)` returns the replacement values (commonly a
/// single element).
pub type Combiner<K, V> = Arc<dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync>;

/// A combiner that sums `u64` values per key — the word-count /
/// BDM-frequency combiner.
pub fn sum_u64_combiner<K>() -> Combiner<K, u64> {
    Arc::new(|_k: &K, values: Vec<u64>| vec![values.into_iter().sum()])
}

/// Reduces a run already sorted under `sort_cmp` in one pass: adjacent
/// equal-key groups are replaced by the combiner's output, keyed by the
/// group's first key. The result is still sorted under `sort_cmp`
/// (group keys appear in the input's sorted order), so a combined
/// bucket remains a valid shuffle run.
pub fn combine_sorted_run<K: Clone, V>(
    sorted: Vec<(K, V)>,
    sort_cmp: &crate::comparator::KeyCmp<K>,
    combiner: &Combiner<K, V>,
) -> Vec<(K, V)> {
    if sorted.is_empty() {
        return sorted;
    }
    let mut result: Vec<(K, V)> = Vec::with_capacity(sorted.len());
    let mut iter = sorted.into_iter();
    let (first_k, first_v) = iter.next().expect("non-empty");
    let mut group_key = first_k;
    let mut group_vals = vec![first_v];
    for (k, v) in iter {
        if sort_cmp(&k, &group_key) == std::cmp::Ordering::Equal {
            group_vals.push(v);
        } else {
            let combined = combiner(&group_key, std::mem::take(&mut group_vals));
            result.extend(combined.into_iter().map(|v| (group_key.clone(), v)));
            group_key = k;
            group_vals.push(v);
        }
    }
    let combined = combiner(&group_key, group_vals);
    result.extend(combined.into_iter().map(|v| (group_key.clone(), v)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::natural_order;

    #[test]
    fn sum_combiner_aggregates_per_key() {
        let sorted = vec![("a", 1u64), ("b", 2), ("b", 3), ("b", 4), ("c", 5)];
        let combined = combine_sorted_run(sorted, &natural_order(), &sum_u64_combiner());
        assert_eq!(combined, vec![("a", 1), ("b", 9), ("c", 5)]);
    }

    #[test]
    fn combining_twice_is_idempotent() {
        let sorted = vec![("x", 1u64), ("x", 1), ("y", 7)];
        let once = combine_sorted_run(sorted, &natural_order(), &sum_u64_combiner());
        let twice = combine_sorted_run(once.clone(), &natural_order(), &sum_u64_combiner());
        assert_eq!(once, twice);
    }

    #[test]
    fn combine_sorted_run_is_single_pass_and_stays_sorted() {
        let sorted = vec![("a", 2u64), ("a", 4), ("b", 1), ("b", 3), ("c", 5)];
        let combined = combine_sorted_run(sorted, &natural_order(), &sum_u64_combiner());
        assert_eq!(combined, vec![("a", 6), ("b", 4), ("c", 5)]);
        assert!(
            combined.windows(2).all(|w| w[0].0 <= w[1].0),
            "combined bucket must remain a valid sorted run"
        );
    }

    #[test]
    fn empty_output_passes_through() {
        let sorted: Vec<(u8, u64)> = vec![];
        let combined = combine_sorted_run(sorted, &natural_order(), &sum_u64_combiner());
        assert!(combined.is_empty());
    }
}
