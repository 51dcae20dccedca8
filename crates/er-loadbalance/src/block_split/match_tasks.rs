//! Match-task creation (Algorithm 1, lines 6–21).

use crate::bdm::BlockDistributionMatrix;

/// One unit of reduce-side work: an unsplit block (`i == j == 0`,
/// written `k.*`), a sub-block matched against itself (`i == j`,
/// written `k.i`), or the Cartesian product of two sub-blocks
/// (`i > j`, written `k.i×j`). Two-source matching (Appendix I-A) has
/// only the first and the last kind, the last between an R and an S
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchTask {
    /// Block index in the BDM.
    pub block: usize,
    /// Larger coordinate (input partition); 0 for unsplit blocks.
    pub i: usize,
    /// Smaller coordinate; 0 for unsplit blocks.
    pub j: usize,
    /// Number of pair comparisons this task performs.
    pub comparisons: u64,
}

impl MatchTask {
    /// True for an unsplit block's single task (`k.*`).
    ///
    /// Note the encoding overlap with sub-block task `k.0` (both are
    /// `(k, 0, 0)`, exactly as in the paper's pseudo-code): a block is
    /// either split or unsplit, so the interpretation is always
    /// unambiguous within a block.
    pub fn is_unsplit(&self) -> bool {
        self.i == 0 && self.j == 0
    }
}

/// Is block `k` small enough to stay unsplit? Exact integer test of
/// the paper's `comps ≤ P/r` using cross-multiplication.
pub fn fits_average(comparisons: u64, total_pairs: u64, r: usize) -> bool {
    (comparisons as u128) * (r as u128) <= total_pairs as u128
}

/// Creates all match tasks of a BDM (Algorithm 1 lines 6–21): small
/// blocks become one task, large blocks split into sub-block tasks
/// `k.i` and Cartesian tasks `k.i×j` over their non-empty input
/// partitions — whichever of them the BDM's pair geometry has
/// ([`BlockDistributionMatrix::sub_block_pairs`]).
pub fn create_match_tasks(bdm: &BlockDistributionMatrix, r: usize) -> Vec<MatchTask> {
    let m = bdm.num_partitions();
    let total = bdm.total_pairs();
    let mut tasks = Vec::new();
    for k in 0..bdm.num_blocks() {
        let comps = bdm.pairs_in_block(k);
        if fits_average(comps, total, r) {
            // Zero-pair blocks produce no work; the map phase drops
            // their entities (Algorithm 1 line 33 "if comps > 0").
            if comps > 0 {
                tasks.push(MatchTask {
                    block: k,
                    i: 0,
                    j: 0,
                    comparisons: comps,
                });
            }
        } else {
            for i in 0..m {
                for j in 0..=i {
                    if let Some(comparisons) = bdm.sub_block_pairs(k, i, j) {
                        tasks.push(MatchTask {
                            block: k,
                            i,
                            j,
                            comparisons,
                        });
                    }
                }
            }
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;

    #[test]
    fn running_example_splits_only_block_z() {
        // P = 20, r = 3 -> average 6.67. Only z (10 pairs) splits.
        let tasks = create_match_tasks(&running_example_bdm(), 3);
        // Blocks w, x, y stay whole: exactly one task each, carrying
        // the block's full pair count. (Task (k,0,0) alone does not
        // identify an unsplit block — a split block's sub-block 0 has
        // the same encoding, exactly as in the paper's pseudo-code.)
        let bdm = running_example_bdm();
        for k in [0usize, 1, 2] {
            let block_tasks: Vec<&MatchTask> = tasks.iter().filter(|t| t.block == k).collect();
            assert_eq!(block_tasks.len(), 1, "block {k} stays whole");
            assert!(block_tasks[0].is_unsplit());
            assert_eq!(block_tasks[0].comparisons, bdm.pairs_in_block(k));
        }
        let split: Vec<(usize, usize, usize, u64)> = tasks
            .iter()
            .filter(|t| t.block == 3)
            .map(|t| (t.block, t.i, t.j, t.comparisons))
            .collect();
        // Φ3.0 (2 entities -> 1 pair), Φ3.1 (3 -> 3), Φ3.0×1 (2·3 = 6).
        assert_eq!(split, vec![(3, 0, 0, 1), (3, 1, 0, 6), (3, 1, 1, 3)]);
    }

    #[test]
    fn running_example_task_sizes_match_figure5() {
        let tasks = create_match_tasks(&running_example_bdm(), 3);
        let total: u64 = tasks.iter().map(|t| t.comparisons).sum();
        assert_eq!(total, 20, "splitting preserves the pair count");
        let sizes: Vec<u64> = tasks.iter().map(|t| t.comparisons).collect();
        assert_eq!(sizes, vec![6, 1, 3, 1, 6, 3]); // w, x, y, 3.0, 3.0x1, 3.1
    }

    #[test]
    fn everything_fits_with_one_reduce_task() {
        let tasks = create_match_tasks(&running_example_bdm(), 1);
        assert!(tasks.iter().all(|t| t.is_unsplit()));
        assert_eq!(tasks.len(), 4);
    }

    #[test]
    fn huge_r_splits_every_multi_partition_block() {
        let tasks = create_match_tasks(&running_example_bdm(), 100);
        // All four blocks exceed P/r = 0.2 pairs, so all split into
        // multiple tasks (both partitions are populated everywhere).
        for k in 0..4 {
            assert!(
                tasks.iter().filter(|t| t.block == k).count() > 1,
                "block {k} must be split at r=100"
            );
        }
        // Block x has one entity per partition: sub-block tasks have
        // 0 comparisons but the cross task covers the single pair.
        let x_tasks: Vec<&MatchTask> = tasks.iter().filter(|t| t.block == 1).collect();
        let x_total: u64 = x_tasks.iter().map(|t| t.comparisons).sum();
        assert_eq!(x_total, 1);
        let total: u64 = tasks.iter().map(|t| t.comparisons).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn empty_partitions_produce_no_tasks() {
        // Block confined to partition 1 of 3: splitting yields exactly
        // one sub-block task.
        let bdm = crate::bdm::BlockDistributionMatrix::from_counts(3, vec![("a".into(), 1, 5)]);
        let tasks = create_match_tasks(&bdm, 10);
        assert_eq!(tasks.len(), 1);
        assert_eq!((tasks[0].i, tasks[0].j, tasks[0].comparisons), (1, 1, 10));
    }

    #[test]
    fn fits_average_is_exact() {
        assert!(fits_average(6, 20, 3)); // 18 <= 20
        assert!(!fits_average(7, 20, 3)); // 21 > 20
        assert!(fits_average(0, 0, 5));
        assert!(fits_average(u64::MAX / 2, u64::MAX, 2));
    }
}
