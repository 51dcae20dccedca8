//! Global entity and pair enumeration (paper Section V, Figure 6).
//!
//! Entity indexes: each map task enumerates the entities of its
//! partition per block; the BDM supplies the count of same-block
//! entities in *preceding* partitions as the starting offset, so local
//! enumeration yields globally consistent indexes without any
//! communication.
//!
//! Pair indexes: `p_i(x, y) = c(x, y, |Φ_i|) + o(i)` with the
//! column-wise triangle cell index `c` from [`er_core::pairs`] and the
//! block offset `o` from the BDM
//! ([`BlockDistributionMatrix::pair_index`]).

use crate::bdm::BlockDistributionMatrix;

/// Per-map-task entity index tracker (Algorithm 2, lines 4–8 & 26).
#[derive(Debug, Clone)]
pub struct EntityIndexer {
    next_index: Vec<u64>,
}

impl EntityIndexer {
    /// Initializes the tracker for a map task reading `partition`:
    /// each block's counter starts at the number of its entities in
    /// earlier partitions.
    pub fn for_partition(bdm: &BlockDistributionMatrix, partition: usize) -> Self {
        let next_index = (0..bdm.num_blocks())
            .map(|k| bdm.entity_index_offset(k, partition))
            .collect();
        Self { next_index }
    }

    /// Claims the next entity index of block `k`.
    pub fn next(&mut self, k: usize) -> u64 {
        let idx = self.next_index[k];
        self.next_index[k] += 1;
        idx
    }

    /// Peeks without claiming (for tests).
    pub fn peek(&self, k: usize) -> u64 {
        self.next_index[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;

    #[test]
    fn entity_m_gets_index_2() {
        // M is the first z-entity (block 3) of partition 1; two
        // z-entities live in partition 0 (paper: "M is the third
        // entity of Φ3 and is thus assigned entity index 2").
        let bdm = running_example_bdm();
        let mut indexer = EntityIndexer::for_partition(&bdm, 1);
        assert_eq!(indexer.next(3), 2); // M
        assert_eq!(indexer.next(3), 3); // N
        assert_eq!(indexer.next(3), 4); // O
    }

    #[test]
    fn partition_zero_starts_at_zero() {
        let bdm = running_example_bdm();
        let mut indexer = EntityIndexer::for_partition(&bdm, 0);
        for k in 0..4 {
            assert_eq!(indexer.peek(k), 0);
        }
        assert_eq!(indexer.next(0), 0); // A
        assert_eq!(indexer.next(0), 1); // B
    }

    #[test]
    fn figure6_pair_indexes() {
        let bdm = running_example_bdm();
        // Block Φ0 (w, size 4): "the index for pair (2,3) equals 5".
        assert_eq!(bdm.pair_index(0, 2, 3), 5);
        // Block Φ1 (x, size 2): its single pair is #6.
        assert_eq!(bdm.pair_index(1, 0, 1), 6);
        // Block Φ2 (y, size 3): pairs 7..=9.
        assert_eq!(bdm.pair_index(2, 0, 1), 7);
        assert_eq!(bdm.pair_index(2, 1, 2), 9);
        // Block Φ3 (z, size 5): M (index 2) takes part in pairs 11,
        // 14, 17, 18 (paper Section V).
        assert_eq!(bdm.pair_index(3, 0, 2), 11);
        assert_eq!(bdm.pair_index(3, 1, 2), 14);
        assert_eq!(bdm.pair_index(3, 2, 3), 17);
        assert_eq!(bdm.pair_index(3, 2, 4), 18);
        // pmin/pmax of M: 11 and 18 (paper).
    }

    #[test]
    fn pair_enumeration_is_a_bijection_over_all_blocks() {
        let bdm = running_example_bdm();
        let mut seen = vec![false; bdm.total_pairs() as usize];
        for k in 0..bdm.num_blocks() {
            let n = bdm.size(k);
            for x in 0..n {
                for y in (x + 1)..n {
                    let p = bdm.pair_index(k, x, y) as usize;
                    assert!(!seen[p], "pair index {p} assigned twice");
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "pair index space has gaps");
    }
}
