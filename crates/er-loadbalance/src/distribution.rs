//! Key-distribution plumbing shared by the counting jobs.
//!
//! Two preprocessing jobs in this workspace measure a key
//! distribution before redistributing work: the BDM job
//! ([`crate::bdm_job`], Algorithm 3 — exact counts per
//! `(blocking key, partition)`) and er-sn's sort-key distribution job
//! (exact counts per sort key, feeding a
//! [`er_core::sortkey::RangePartitioner`]). This module holds the
//! merge that turns count-job reduce outputs — one sorted run per
//! reduce task — into one sorted histogram. The sort-key job's reduce
//! side is [`mr_engine::reducer::SumReducer`], the engine-level
//! count-sum reducer; the BDM job has its own
//! ([`crate::bdm_job::BdmReducer`]), which sees a whole block per call
//! and drops the blocks without a pair.

use er_core::runs::merge_runs;

/// Folds count-job outputs — one run of `(key, count)` records per
/// reduce task — into a single ascending histogram, the input shape
/// [`er_core::sortkey::RangePartitioner::from_counts`] expects. Keys
/// that recur (across runs, or adjacently within one, as when a count
/// job runs without a final aggregation) are summed.
///
/// Each run must be ascending by key, as a count job's reduce task
/// emits it: the runs are k-way merged ([`merge_runs`]), never
/// re-sorted. A run out of order surfaces as a descent in the
/// histogram, which `from_counts` rejects.
pub fn key_histogram<K: Ord>(runs: Vec<Vec<(K, u64)>>) -> Vec<(K, u64)> {
    merge_runs(runs, |sum, count| *sum += count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_sorts_and_merges_duplicate_keys() {
        let histogram = key_histogram(vec![
            vec![("b", 2u64), ("c", 4)],
            vec![],
            vec![("a", 1), ("b", 3), ("b", 1)],
        ]);
        assert_eq!(histogram, vec![("a", 1), ("b", 6), ("c", 4)]);
    }

    #[test]
    fn histogram_of_nothing_is_empty() {
        assert!(key_histogram(Vec::<Vec<(u32, u64)>>::new()).is_empty());
        assert!(key_histogram(vec![Vec::<(u32, u64)>::new(); 3]).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Merging the per-task runs equals the map fold it replaces:
        /// keys shared between runs (and repeated within one) are
        /// summed, empty runs contribute nothing.
        #[test]
        fn merged_runs_equal_a_map_fold(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u32..20, 1u64..5), 0..12),
                0..6,
            ),
        ) {
            let runs: Vec<Vec<(u32, u64)>> = runs
                .into_iter()
                .map(|mut run| {
                    run.sort_by_key(|&(key, _)| key);
                    run
                })
                .collect();
            let mut folded: BTreeMap<u32, u64> = BTreeMap::new();
            for &(key, count) in runs.iter().flatten() {
                *folded.entry(key).or_insert(0) += count;
            }
            let merged = key_histogram(runs);
            prop_assert_eq!(merged, folded.into_iter().collect::<Vec<_>>());
        }
    }
}
