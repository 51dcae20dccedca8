//! Key ranges of the Sorted Neighborhood job.
//!
//! A Sorted Neighborhood job shuffles no entity: each reduce task owns
//! one contiguous range of global ranks, [`SnRanges`], and reads its
//! slice from the map tasks' sorted runs ([`crate::runs`]);
//! concatenating reduce tasks in index order reproduces the global
//! order.

use std::ops::Range;

use mr_engine::partitioner::FnPartitioner;

/// The key ranges of a Sorted Neighborhood run: `r` contiguous ranges
/// of global positions, cut so that each holds an equal share of the
/// window pairs.
///
/// A window pair belongs to the range of its later entity, and the
/// entity at position `j` is the later entity of `min(j, w − 1)`
/// pairs — PairRange's even split of the pair index space, applied to
/// SN's band of pairs. The cuts are therefore a function of `(n, w, r)`
/// alone: no key histogram, no key text. Each range holds `C(n) / r`
/// pairs give or take `w − 1`, however the sort keys tie, where
/// `C(k) = Σ_{j<k} min(j, w − 1)`. Ranges may be thin or empty when
/// there are fewer than `w − 1` window pairs per range; RepSN is exact
/// on any layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnRanges {
    /// `starts[q]`: the first position of range `q + 1`,
    /// non-decreasing and at most `n`.
    starts: Vec<u64>,
    /// `n`, the end of the last range.
    entities: u64,
}

impl SnRanges {
    /// Cuts positions `0..entities` into `ranges` ranges of equal
    /// window-pair load under window `window`: the start of range `q`
    /// is the smallest `k` with `C(k) ≥ ⌈C(n) · q / r⌉`.
    ///
    /// # Panics
    /// If `window < 2` or `ranges` is zero.
    pub fn new(entities: u64, window: usize, ranges: usize) -> Self {
        assert!(window >= 2, "a sliding window must span at least 2 slots");
        assert!(ranges > 0, "at least one partition is required");
        let reach = u64::try_from(window - 1).unwrap_or(u64::MAX).min(entities);
        let total = pairs_before(entities, reach);
        let r = ranges as u128;
        let starts = (1..ranges as u128)
            .map(|q| {
                // ⌈total · q / r⌉, without forming total · q.
                let target = total / r * q + (total % r * q).div_ceil(r);
                let (mut lo, mut hi) = (0, entities);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if pairs_before(mid, reach) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            })
            .collect();
        Self { starts, entities }
    }

    /// The positions of range `q`.
    ///
    /// # Panics
    /// If `q` is not below the number of ranges.
    pub fn range(&self, q: usize) -> Range<u64> {
        let start = if q == 0 { 0 } else { self.starts[q - 1] };
        let end = self.starts.get(q).copied().unwrap_or(self.entities);
        start..end
    }
}

/// `C(k) = Σ_{j<k} min(j, reach)`: the window pairs whose later entity
/// lies before position `k`. Exact in `u128` for every `u64` position.
fn pairs_before(k: u64, reach: u64) -> u128 {
    let (k, reach) = (u128::from(k), u128::from(reach));
    if k <= reach {
        k * k.saturating_sub(1) / 2
    } else {
        reach * (reach + 1) / 2 + (k - 1 - reach) * reach
    }
}

/// Partitioner of the SN job's trigger records, keyed by key
/// range: range `q` goes to reduce task `q`.
pub(crate) fn range_partitioner() -> FnPartitioner<u32> {
    FnPartitioner::new(|&range: &u32, r: usize| range as usize % r)
}

/// The one block every Sorted Neighborhood window compares under: an
/// SN map task interns each entity with the key list `[SN_BLOCK]`.
pub const SN_BLOCK: u32 = 0;

#[cfg(test)]
mod tests {
    use super::*;
    use mr_engine::partitioner::Partitioner;

    /// Every range's span, in range order.
    fn spans(ranges: &SnRanges, r: usize) -> Vec<Range<u64>> {
        (0..r).map(|q| ranges.range(q)).collect()
    }

    /// Range `q`'s window pairs lie within `reach ≤ w − 1` of
    /// `C(n) / r`: `|load · r − C(n)| ≤ reach · r`.
    fn assert_even(load: u128, total: u128, reach: u64, r: usize) {
        let (r, reach) = (r as u128, u128::from(reach));
        assert!(
            load * r <= total + reach * r && total <= load * r + reach * r,
            "load {load} against {total} / {r}"
        );
    }

    /// Every cut over `n ≤ 40` entities, windows `2..=n + 2` and
    /// `usize::MAX`, `r ≤ 8`: the ranges tile `[0, n)` in order, and
    /// each holds `C(s_{q+1}) − C(s_q)`
    /// window pairs (counted one by one), within `w − 1` of `C(n) / r`.
    #[test]
    fn ranges_cut_the_window_pairs_evenly() {
        for n in 0..=40u64 {
            for w in (2..=n as usize + 2).chain([usize::MAX]) {
                let reach = (w as u64 - 1).min(n);
                let pairs_at = |j: u64| u128::from(j.min(reach));
                let total: u128 = (0..n).map(pairs_at).sum();
                assert_eq!(pairs_before(n, reach), total, "n {n}, w {w}");
                for r in 1..=8 {
                    let ranges = SnRanges::new(n, w, r);
                    let spans = spans(&ranges, r);
                    assert_eq!((spans[0].start, spans[r - 1].end), (0, n));
                    for (q, span) in spans.iter().enumerate() {
                        let (start, end) = (span.start, span.end);
                        assert!(start <= end, "n {n}, w {w}, r {r}: {:?}", ranges);
                        if q > 0 {
                            assert_eq!(spans[q - 1].end, start, "n {n}, w {w}, r {r}");
                        }
                        let load: u128 = (start..end).map(pairs_at).sum();
                        let closed = pairs_before(end, reach) - pairs_before(start, reach);
                        assert_eq!(load, closed, "n {n}, w {w}, r {r}, range {q}");
                        assert_even(load, total, reach, r);
                    }
                }
            }
        }
    }

    /// `n = u32::MAX` under an unbounded window: `C(n)` nears `2^63`,
    /// and the quantile targets stay exact (no entity is allocated).
    #[test]
    fn ranges_over_u32_max_entities_do_not_overflow() {
        let n = u64::from(u32::MAX);
        let total = pairs_before(n, n);
        assert_eq!(total, u128::from(n) * u128::from(n - 1) / 2);
        for r in 1..=64 {
            let ranges = SnRanges::new(n, usize::MAX, r);
            let spans = spans(&ranges, r);
            for span in &spans {
                assert!(span.start <= span.end, "r {r}: {:?}", ranges);
                let load = pairs_before(span.end, n) - pairs_before(span.start, n);
                assert_even(load, total, n, r);
            }
            assert_eq!((spans[0].start, spans[r - 1].end), (0, n));
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_ranges_rejected() {
        let _ = SnRanges::new(4, 3, 0);
    }

    #[test]
    fn sn_partitioner_routes_on_partition_component() {
        let p = range_partitioner();
        assert_eq!(p.partition(&2, 4), 2, "range q to reduce task q");
        assert_eq!(p.partition(&2, 2), 0, "wraps when r shrank");
    }
}
