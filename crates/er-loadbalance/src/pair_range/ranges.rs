//! Pair ranges: mapping global pair indexes to reduce tasks.
//!
//! The paper states two subtly different formulas. Equation (2) says
//! `k = ⌊r·p/P⌋`; Algorithm 2's `rangeIndex` computes
//! `⌊p / ⌈P/r⌉⌋`, which matches the prose ("the first r−1 reduce
//! tasks process ⌈P/r⌉ pairs each") and the worked example. Both are
//! implemented; [`RangePolicy::CeilDiv`] (the listing's formula) is
//! the default; the proportional formula balances the tail better when
//! `r ∤ P`.

/// Which of the paper's two range formulas to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangePolicy {
    /// Algorithm 2: `range(p) = ⌊p / ⌈P/r⌉⌋` — equal-width ranges,
    /// remainder absorbed by the last task.
    CeilDiv,
    /// Equation (2): `range(p) = ⌊r·p / P⌋` — proportional split, the
    /// imbalance never exceeds one pair.
    Proportional,
}

/// Maps pair indexes to range (== reduce task) indexes.
#[derive(Debug, Clone, Copy)]
pub struct RangeIndexer {
    total_pairs: u64,
    num_ranges: u64,
    /// `max(⌈P/r⌉, 1)`, the `CeilDiv` range width.
    width: u64,
    policy: RangePolicy,
}

impl RangeIndexer {
    /// Creates the indexer for `P` pairs and `r` ranges.
    pub fn new(total_pairs: u64, num_ranges: usize, policy: RangePolicy) -> Self {
        assert!(num_ranges > 0, "need at least one range");
        let num_ranges = num_ranges as u64;
        Self {
            total_pairs,
            num_ranges,
            width: total_pairs.div_ceil(num_ranges).max(1),
            policy,
        }
    }

    /// The range containing pair index `p` (`p < P`).
    pub fn range_of(&self, p: u64) -> u64 {
        debug_assert!(
            p < self.total_pairs,
            "pair index {p} out of range (P = {})",
            self.total_pairs
        );
        match self.policy {
            RangePolicy::CeilDiv => p / self.width,
            RangePolicy::Proportional => {
                ((p as u128 * self.num_ranges as u128) / self.total_pairs as u128) as u64
            }
        }
    }

    /// Number of pairs in range `k` (analytic, no enumeration).
    pub fn range_size(&self, k: u64) -> u64 {
        if self.total_pairs == 0 {
            return 0;
        }
        match self.policy {
            RangePolicy::CeilDiv => {
                let start = k * self.width;
                if start >= self.total_pairs {
                    0
                } else {
                    self.width.min(self.total_pairs - start)
                }
            }
            RangePolicy::Proportional => self.range_start(k + 1) - self.range_start(k),
        }
    }

    /// First pair index belonging to range `k` (== total for `k = r`).
    pub fn range_start(&self, k: u64) -> u64 {
        if k >= self.num_ranges {
            return self.total_pairs;
        }
        match self.policy {
            RangePolicy::CeilDiv => (k * self.width).min(self.total_pairs),
            RangePolicy::Proportional => {
                // Smallest p with ⌊r·p/P⌋ >= k  <=>  p >= ⌈k·P/r⌉.
                ((k as u128 * self.total_pairs as u128).div_ceil(self.num_ranges as u128)) as u64
            }
        }
    }

    /// The pair indexes of range `k`, as `start..end`: `range_of(p) ==
    /// k` exactly for the `p` inside.
    pub fn span(&self, k: u64) -> std::ops::Range<u64> {
        self.range_start(k)..self.range_start(k + 1)
    }

    /// Width of the narrowest range that has a range after it: two
    /// pair indexes at most this far apart cannot have a whole range
    /// between them, two indexes further apart cannot share a range.
    /// (`CeilDiv` ranges are all `⌈P/r⌉` wide up to the last non-empty
    /// one; `Proportional` ranges are `⌊P/r⌋` or `⌈P/r⌉` wide.)
    pub fn min_width(&self) -> u64 {
        match self.policy {
            RangePolicy::CeilDiv => self.width,
            RangePolicy::Proportional => self.total_pairs / self.num_ranges,
        }
    }

    /// Total pairs `P`.
    pub fn total_pairs(&self) -> u64 {
        self.total_pairs
    }

    /// Number of ranges `r`.
    pub fn num_ranges(&self) -> u64 {
        self.num_ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn running_example_ranges() {
        // P = 20, r = 3: ranges [0,6], [7,13], [14,19] (paper Fig. 6).
        let idx = RangeIndexer::new(20, 3, RangePolicy::CeilDiv);
        assert_eq!(idx.range_of(0), 0);
        assert_eq!(idx.range_of(6), 0);
        assert_eq!(idx.range_of(7), 1);
        assert_eq!(idx.range_of(13), 1);
        assert_eq!(idx.range_of(14), 2);
        assert_eq!(idx.range_of(19), 2);
        assert_eq!(idx.range_size(0), 7);
        assert_eq!(idx.range_size(1), 7);
        assert_eq!(idx.range_size(2), 6);
    }

    #[test]
    fn two_source_example_ranges() {
        // Appendix I: "the resulting 12 pairs are divided into three
        // ranges of size 4".
        let idx = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
        assert_eq!(idx.range_size(0), 4);
        assert_eq!(idx.range_size(1), 4);
        assert_eq!(idx.range_size(2), 4);
        assert_eq!(idx.range_of(6), 1);
        assert_eq!(idx.range_of(8), 2);
    }

    #[test]
    fn proportional_never_exceeds_one_pair_imbalance() {
        for (p, r) in [(20u64, 3usize), (10, 4), (7, 7), (100, 13), (5, 8)] {
            let idx = RangeIndexer::new(p, r, RangePolicy::Proportional);
            let sizes: Vec<u64> = (0..r as u64).map(|k| idx.range_size(k)).collect();
            assert_eq!(sizes.iter().sum::<u64>(), p);
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "P={p} r={r}: sizes {sizes:?}");
        }
    }

    #[test]
    fn ceil_div_can_starve_trailing_ranges() {
        // P=10, r=4: widths 3,3,3,1 — the listing's formula leaves the
        // tail under-filled.
        let idx = RangeIndexer::new(10, 4, RangePolicy::CeilDiv);
        let sizes: Vec<u64> = (0..4).map(|k| idx.range_size(k)).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn more_ranges_than_pairs() {
        let idx = RangeIndexer::new(3, 10, RangePolicy::CeilDiv);
        let sizes: Vec<u64> = (0..10).map(|k| idx.range_size(k)).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 3);
        for p in 0..3 {
            assert!(idx.range_of(p) < 10);
        }
    }

    #[test]
    fn zero_pairs_is_fine() {
        let idx = RangeIndexer::new(0, 4, RangePolicy::CeilDiv);
        assert_eq!(idx.range_size(0), 0);
        assert_eq!(idx.range_start(4), 0);
    }

    proptest! {
        #[test]
        fn sizes_partition_the_index_space(
            p in 1u64..100_000,
            r in 1usize..200,
            policy in prop_oneof![Just(RangePolicy::CeilDiv), Just(RangePolicy::Proportional)],
        ) {
            let idx = RangeIndexer::new(p, r, policy);
            let total: u64 = (0..r as u64).map(|k| idx.range_size(k)).collect::<Vec<_>>().iter().sum();
            prop_assert_eq!(total, p);
        }

        #[test]
        fn range_of_is_consistent_with_starts(
            p in 1u64..50_000,
            r in 1usize..100,
            seed in 0u64..10_000,
            policy in prop_oneof![Just(RangePolicy::CeilDiv), Just(RangePolicy::Proportional)],
        ) {
            let idx = RangeIndexer::new(p, r, policy);
            let pair = seed % p;
            let k = idx.range_of(pair);
            prop_assert!(idx.range_start(k) <= pair);
            prop_assert!(pair < idx.range_start(k + 1));
        }

        #[test]
        fn range_of_is_monotone(
            p in 2u64..50_000,
            r in 1usize..100,
            seed in 0u64..10_000,
        ) {
            let idx = RangeIndexer::new(p, r, RangePolicy::CeilDiv);
            let a = seed % (p - 1);
            prop_assert!(idx.range_of(a) <= idx.range_of(a + 1));
        }
    }
}
