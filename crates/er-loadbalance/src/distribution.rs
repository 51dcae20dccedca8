//! Key-distribution plumbing shared by the counting jobs.
//!
//! Two preprocessing jobs in this workspace measure a key
//! distribution before redistributing work: the BDM job
//! ([`crate::bdm_job`], Algorithm 3 — exact counts per
//! `(blocking key, partition)`) and er-sn's sort-key distribution job
//! (exact counts per sort key, feeding a
//! [`er_core::sortkey::RangePartitioner`]). This module holds the fold
//! that turns count-job reduce outputs into a sorted histogram. The
//! sort-key job's reduce side is [`mr_engine::reducer::SumReducer`],
//! the engine-level count-sum reducer; the BDM job has its own
//! ([`crate::bdm_job::BdmReducer`]), which sees a whole block per call
//! and drops the blocks without a pair.

use std::collections::BTreeMap;

/// Folds count-job output records (`(key, count)` pairs scattered
/// across reduce tasks) into a single ascending histogram — the input
/// shape [`er_core::sortkey::RangePartitioner::from_counts`] expects.
/// Duplicate keys (possible when a count job runs without a final
/// aggregation, or when folding several jobs' outputs) are summed.
pub fn key_histogram<K: Ord>(records: impl IntoIterator<Item = (K, u64)>) -> Vec<(K, u64)> {
    let mut histogram: BTreeMap<K, u64> = BTreeMap::new();
    for (key, count) in records {
        *histogram.entry(key).or_insert(0) += count;
    }
    histogram.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_sorts_and_merges_duplicate_keys() {
        let histogram = key_histogram(vec![("b", 2u64), ("a", 1), ("b", 3), ("c", 4)]);
        assert_eq!(histogram, vec![("a", 1), ("b", 5), ("c", 4)]);
    }

    #[test]
    fn histogram_of_nothing_is_empty() {
        assert!(key_histogram(Vec::<(u32, u64)>::new()).is_empty());
    }
}
