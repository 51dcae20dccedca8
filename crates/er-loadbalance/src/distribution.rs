//! Key-distribution plumbing shared by the counting jobs.
//!
//! Two preprocessing jobs in this workspace measure a key
//! distribution before redistributing work: the BDM job
//! ([`crate::bdm_job`], Algorithm 3 — exact counts per
//! `(blocking key, partition)`) and er-sn's sort-key sampling job
//! (sampled counts per sort key, feeding a
//! [`er_core::sortkey::RangePartitioner`]). This module is their
//! common home: the deterministic sampler the map side uses and the
//! fold that turns count-job reduce outputs into a sorted histogram.
//! The sampling job's reduce side is [`mr_engine::reducer::SumReducer`],
//! the engine-level count-sum reducer; the BDM job has its own
//! ([`crate::bdm_job::BdmReducer`]), which sees a whole block per call
//! and drops the blocks without a pair.

use std::collections::BTreeMap;

/// Deterministic 1-in-`stride` systematic sampler.
///
/// Sampling for a range partitioner must be a pure function of the
/// input (not of thread scheduling or a shared RNG), or the
/// engine-wide determinism contract — identical output at every
/// parallelism — breaks at the first sampled boundary. Each map task
/// owns one `StrideSampler` and admits every `stride`-th record it is
/// offered, starting with the first; per-task record order is fixed by
/// the input partition, so the sample is reproducible by construction.
#[derive(Debug, Clone)]
pub struct StrideSampler {
    stride: usize,
    seen: usize,
}

impl StrideSampler {
    /// A sampler admitting every `stride`-th record.
    ///
    /// # Panics
    /// If `stride` is zero.
    pub fn every(stride: usize) -> Self {
        assert!(stride > 0, "a sampling stride must be positive");
        Self { stride, seen: 0 }
    }

    /// A sampler approximating the given admission `rate` in `(0, 1]`:
    /// the stride is `round(1/rate)`, clamped to at least 1.
    ///
    /// # Panics
    /// If `rate` is not within `(0, 1]`.
    pub fn with_rate(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sample rate must be in (0, 1], got {rate}"
        );
        Self::every(((1.0 / rate).round() as usize).max(1))
    }

    /// The stride between admitted records.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Offers one record; returns `true` when it is sampled.
    pub fn admit(&mut self) -> bool {
        let sampled = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        sampled
    }

    /// Records offered so far.
    pub fn offered(&self) -> usize {
        self.seen
    }
}

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
    fn stride_sampler_admits_every_nth_starting_with_the_first() {
        let mut s = StrideSampler::every(3);
        let admitted: Vec<bool> = (0..7).map(|_| s.admit()).collect();
        assert_eq!(admitted, vec![true, false, false, true, false, false, true]);
        assert_eq!(s.offered(), 7);
        assert_eq!(s.stride(), 3);
    }

    #[test]
    fn rate_one_admits_everything() {
        let mut s = StrideSampler::with_rate(1.0);
        assert_eq!(s.stride(), 1);
        assert!((0..5).all(|_| s.admit()));
    }

    #[test]
    fn rate_maps_to_rounded_stride() {
        assert_eq!(StrideSampler::with_rate(0.1).stride(), 10);
        assert_eq!(StrideSampler::with_rate(0.33).stride(), 3);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_stride_rejected() {
        let _ = StrideSampler::every(0);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = StrideSampler::with_rate(1.5);
    }

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
