//! Pair-enumeration arithmetic (paper Section V and Appendix I).
//!
//! PairRange assigns every comparison pair a global index. Within one
//! block the enumeration is *column-wise* over the strict upper
//! triangle of the `N×N` comparison matrix (one-source case) or over
//! all cells of the `|Φ_R| × |Φ_S|` rectangle (two-source case). Blocks
//! are laid out consecutively via per-block offsets.
//!
//! All arithmetic is `u64`; a dataset with 1.4 M entities in one block
//! would already produce ~10¹² pairs, far beyond `u32`.

/// Number of comparisons within a block of `n` entities: `n(n−1)/2`.
pub fn triangle_pairs(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// Cell index of pair `(x, y)` (`x < y`) in the column-wise enumeration
/// of the strict upper triangle of an `n×n` matrix:
///
/// `c(x, y, N) = x·(2N − x − 3)/2 + y − 1`
///
/// Column 0 holds indexes `0..N−2` for pairs `(0,1)..(0,N−1)`, column 1
/// continues from there, and so on — matching the paper's Figure 6.
pub fn triangle_cell_index(x: u64, y: u64, n: u64) -> u64 {
    debug_assert!(x < y, "triangle cells require x < y (got {x}, {y})");
    debug_assert!(y < n, "y={y} out of block of size {n}");
    // x·(2n−x−3) is always even: if x is odd, 2n−x−3 is even.
    x * (2 * n - x - 3) / 2 + y - 1
}

/// Inverse of [`triangle_cell_index`]: maps a cell index back to its
/// `(x, y)` pair. `O(log n)` via binary search on the column start
/// offsets. Used by tests (bijectivity) and the analytic workload
/// model (range boundary pairs).
pub fn triangle_cell_from_index(index: u64, n: u64) -> (u64, u64) {
    debug_assert!(index < triangle_pairs(n), "index {index} out of range");
    // Column x starts at c(x, x+1, n); find the largest x with
    // start(x) <= index.
    let start = |x: u64| triangle_cell_index(x, x + 1, n);
    let mut lo = 0u64;
    let mut hi = n - 2;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if start(mid) <= index {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let x = lo;
    let y = x + 1 + (index - start(x));
    (x, y)
}

/// Cell index of the pair `(x, y)` in the two-source enumeration of a
/// `|Φ_R| × |Φ_S|` rectangle: `c(x, y, N_S) = x·N_S + y` where `x`
/// indexes `R`-entities and `y` indexes `S`-entities (Appendix I).
pub fn rect_cell_index(x: u64, y: u64, n_s: u64) -> u64 {
    debug_assert!(y < n_s, "y={y} out of S-side of size {n_s}");
    x * n_s + y
}

/// Inverse of [`rect_cell_index`].
pub fn rect_cell_from_index(index: u64, n_s: u64) -> (u64, u64) {
    debug_assert!(n_s > 0);
    (index / n_s, index % n_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn triangle_counts() {
        assert_eq!(triangle_pairs(0), 0);
        assert_eq!(triangle_pairs(1), 0);
        assert_eq!(triangle_pairs(2), 1);
        assert_eq!(triangle_pairs(5), 10);
        assert_eq!(triangle_pairs(100), 4950);
    }

    #[test]
    fn paper_figure6_examples() {
        // "the index for pair (2,3) of block Φ0 equals 5" — Φ0 has 4
        // entities in the running example.
        assert_eq!(triangle_cell_index(2, 3, 4), 5);
        // Entity M (index 2) in block Φ3 of size 5: pmin = c(0,2) = 1,
        // pairs (1,2)=4, (2,3)=7, (2,4)=8 relative to the block.
        assert_eq!(triangle_cell_index(0, 2, 5), 1);
        assert_eq!(triangle_cell_index(1, 2, 5), 4);
        assert_eq!(triangle_cell_index(2, 3, 5), 7);
        assert_eq!(triangle_cell_index(2, 4, 5), 8);
    }

    #[test]
    fn column_zero_is_the_first_run() {
        let n = 6;
        for y in 1..n {
            assert_eq!(triangle_cell_index(0, y, n), y - 1);
        }
    }

    #[test]
    fn enumeration_is_a_bijection_small_n() {
        for n in 2..=12u64 {
            let mut seen = vec![false; triangle_pairs(n) as usize];
            for x in 0..n {
                for y in (x + 1)..n {
                    let idx = triangle_cell_index(x, y, n) as usize;
                    assert!(!seen[idx], "index {idx} hit twice (n={n})");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "gaps in enumeration for n={n}");
        }
    }

    #[test]
    fn inverse_round_trips_small_n() {
        for n in 2..=12u64 {
            for idx in 0..triangle_pairs(n) {
                let (x, y) = triangle_cell_from_index(idx, n);
                assert!(x < y && y < n);
                assert_eq!(triangle_cell_index(x, y, n), idx);
            }
        }
    }

    #[test]
    fn rect_enumeration_covers_all_cells() {
        let (nr, ns) = (3u64, 4u64);
        let mut seen = vec![false; (nr * ns) as usize];
        for x in 0..nr {
            for y in 0..ns {
                let idx = rect_cell_index(x, y, ns) as usize;
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn monotone_in_both_coordinates() {
        // The PairRange reducer's early `break` depends on pair indexes
        // growing with the buffer coordinate for a fixed stream entity.
        let n = 9;
        for y in 1..n {
            for x in 1..y {
                assert!(
                    triangle_cell_index(x, y, n) > triangle_cell_index(x - 1, y, n),
                    "not monotone in x at ({x},{y})"
                );
            }
        }
        for x in 0..n - 1 {
            for y in (x + 2)..n {
                assert!(triangle_cell_index(x, y, n) > triangle_cell_index(x, y - 1, n));
            }
        }
    }

    proptest! {
        #[test]
        fn round_trip_random(n in 2u64..2000, seed in 0u64..1_000_000) {
            let total = triangle_pairs(n);
            let idx = seed % total;
            let (x, y) = triangle_cell_from_index(idx, n);
            prop_assert!(x < y && y < n);
            prop_assert_eq!(triangle_cell_index(x, y, n), idx);
        }

        #[test]
        fn rect_round_trip(ns in 1u64..5000, x in 0u64..3000, y_seed in 0u64..5000) {
            let y = y_seed % ns;
            let idx = rect_cell_index(x, y, ns);
            prop_assert_eq!(rect_cell_from_index(idx, ns), (x, y));
        }
    }
}
