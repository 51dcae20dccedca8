//! Analytic workload model: per-task workloads straight from the BDM.
//!
//! The paper-scale experiments (Figures 9–14) need per-reduce-task
//! comparison counts and map-output sizes for datasets whose *pair*
//! counts reach 10¹¹ — far beyond what any in-process execution could
//! evaluate. All three strategies are deterministic functions of the
//! BDM — its pair geometry included, so a source-tagged BDM yields the
//! linkage workloads — and those quantities can be computed exactly
//! without running a single comparison:
//!
//! * **Basic** — each block's pairs land on `hash(key) mod r` (the
//!   same hash the engine's partitioner uses, so analysis and real
//!   execution agree bucket for bucket). Basic ships every entity,
//!   those alone in their block too: the matrix keeps no row for them
//!   but their keys' hashes, which is all the placement reads;
//! * **BlockSplit** — the greedy assignment *is* the workload;
//! * **PairRange** — range sizes are closed-form; per-entity range
//!   memberships (map output / reduce input) come from the mapper's
//!   own [`for_each_relevant_interval`], one call per entity, so the
//!   model and the executed map phase cannot disagree.
//!
//! Equivalence with executed counters is asserted by
//! `tests/analysis_matches_execution.rs`.

use er_core::SourceId;
use mr_engine::partitioner::HashPartitioner;

use crate::bdm::BlockDistributionMatrix;
use crate::block_split::match_tasks::fits_average;
use crate::block_split::{create_match_tasks, TaskAssignment};
use crate::pair_range::mapper::for_each_relevant_interval;
use crate::pair_range::ranges::{RangeIndexer, RangePolicy};
use crate::StrategyKind;

/// Exact per-task workloads of one strategy at `(m, r)` as induced by
/// a BDM.
#[derive(Debug, Clone)]
pub struct StrategyWorkload {
    /// The analyzed strategy.
    pub strategy: StrategyKind,
    /// Number of map tasks (the BDM's partition count).
    pub m: usize,
    /// Number of reduce tasks.
    pub r: usize,
    /// Key-value pairs the map phase emits (Figure 12's metric).
    pub map_output_records: u64,
    /// Comparisons per reduce task.
    pub reduce_comparisons: Vec<u64>,
    /// Key-value pairs received per reduce task.
    pub reduce_input_records: Vec<u64>,
}

impl StrategyWorkload {
    /// Total comparisons (equals the BDM's pair count for every
    /// strategy — splitting never drops or duplicates pairs).
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_comparisons.iter().sum()
    }

    /// Largest per-task comparison load — the quantity that bounds the
    /// reduce phase's makespan.
    pub fn max_comparisons(&self) -> u64 {
        self.reduce_comparisons.iter().copied().max().unwrap_or(0)
    }

    /// Max/mean comparison load.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_comparisons();
        if total == 0 || self.reduce_comparisons.is_empty() {
            return 1.0;
        }
        self.max_comparisons() as f64 / (total as f64 / self.reduce_comparisons.len() as f64)
    }
}

/// Analyzes `strategy` over `bdm` for `r` reduce tasks.
pub fn analyze(
    bdm: &BlockDistributionMatrix,
    strategy: StrategyKind,
    r: usize,
    policy: RangePolicy,
) -> StrategyWorkload {
    match strategy {
        StrategyKind::Basic => analyze_basic(bdm, r),
        StrategyKind::BlockSplit => analyze_block_split(bdm, r),
        StrategyKind::PairRange => analyze_pair_range(bdm, r, policy),
    }
}

fn analyze_basic(bdm: &BlockDistributionMatrix, r: usize) -> StrategyWorkload {
    let mut comparisons = vec![0u64; r];
    let mut inputs = vec![0u64; r];
    let mut map_output = 0u64;
    for k in 0..bdm.num_blocks() {
        let bucket = HashPartitioner::bucket(bdm.key(k), r);
        comparisons[bucket] += bdm.pairs_in_block(k);
        inputs[bucket] += bdm.size(k);
        map_output += bdm.size(k);
    }
    for &hash in bdm.pruned_key_hashes() {
        inputs[HashPartitioner::bucket_of_hash(hash, r)] += 1;
        map_output += 1;
    }
    StrategyWorkload {
        strategy: StrategyKind::Basic,
        m: bdm.num_partitions(),
        r,
        map_output_records: map_output,
        reduce_comparisons: comparisons,
        reduce_input_records: inputs,
    }
}

fn analyze_block_split(bdm: &BlockDistributionMatrix, r: usize) -> StrategyWorkload {
    let tasks = create_match_tasks(bdm, r);
    let assignment = TaskAssignment::greedy(tasks.clone(), r);
    let mut inputs = vec![0u64; r];
    for t in &tasks {
        let k = t.block;
        // `(k, 0, 0)` is `k.*` or a split block's `k.0`: ask the
        // workload criterion which, as the mapper does.
        let records = if fits_average(bdm.pairs_in_block(k), bdm.total_pairs(), r) {
            bdm.size(k)
        } else if t.i == t.j {
            bdm.size_in(k, t.i)
        } else {
            bdm.size_in(k, t.i) + bdm.size_in(k, t.j)
        };
        let rt = assignment
            .reduce_task_for(k, t.i, t.j)
            .expect("every task is assigned");
        inputs[rt] += records;
    }
    StrategyWorkload {
        strategy: StrategyKind::BlockSplit,
        m: bdm.num_partitions(),
        r,
        // An entity is emitted once per match task that takes it —
        // its block's one task, or its sub-block's existing pairings.
        map_output_records: inputs.iter().sum(),
        reduce_comparisons: assignment.loads().to_vec(),
        reduce_input_records: inputs,
    }
}

fn analyze_pair_range(
    bdm: &BlockDistributionMatrix,
    r: usize,
    policy: RangePolicy,
) -> StrategyWorkload {
    let ranges = RangeIndexer::new(bdm.total_pairs(), r, policy);
    let comparisons: Vec<u64> = (0..r as u64).map(|t| ranges.range_size(t)).collect();

    // Memberships arrive as intervals of ranges; a difference array
    // tallies each in O(1), whatever its length.
    let mut membership_diff = vec![0i64; r + 1];
    let mut map_output = 0u64;
    for k in 0..bdm.num_blocks() {
        // One source is all R.
        let (nr, ns) = bdm.side_sizes(k).unwrap_or((bdm.size(k), 0));
        for (source, n) in [(SourceId::R, nr), (SourceId::S, ns)] {
            for x in 0..n {
                for_each_relevant_interval(bdm, &ranges, k, source, x, |first, last| {
                    membership_diff[first as usize] += 1;
                    membership_diff[last as usize + 1] -= 1;
                    map_output += last - first + 1;
                });
            }
        }
    }
    let mut inputs = Vec::with_capacity(r);
    let mut acc = 0i64;
    for d in membership_diff.iter().take(r) {
        acc += d;
        inputs.push(acc as u64);
    }
    StrategyWorkload {
        strategy: StrategyKind::PairRange,
        m: bdm.num_partitions(),
        r,
        map_output_records: map_output,
        reduce_comparisons: comparisons,
        reduce_input_records: inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::pair_range::mapper::relevant_ranges;

    #[test]
    fn basic_keeps_blocks_whole() {
        let bdm = running_example_bdm();
        let w = analyze(&bdm, StrategyKind::Basic, 3, RangePolicy::CeilDiv);
        assert_eq!(w.total_comparisons(), 20);
        assert_eq!(w.map_output_records, 14);
        // Every bucket's load is a sum of whole-block pair counts
        // (subsets of {6, 1, 3, 10}).
        for &load in &w.reduce_comparisons {
            assert!(load <= 20);
        }
    }

    #[test]
    fn block_split_analysis_matches_figure5() {
        let bdm = running_example_bdm();
        let w = analyze(&bdm, StrategyKind::BlockSplit, 3, RangePolicy::CeilDiv);
        let mut loads = w.reduce_comparisons.clone();
        loads.sort_unstable();
        assert_eq!(loads, vec![6, 7, 7]);
        assert_eq!(w.map_output_records, 19, "paper: 19 KV pairs");
        assert_eq!(w.total_comparisons(), 20);
    }

    #[test]
    fn pair_range_analysis_matches_figure7() {
        let bdm = running_example_bdm();
        let w = analyze(&bdm, StrategyKind::PairRange, 3, RangePolicy::CeilDiv);
        assert_eq!(w.reduce_comparisons, vec![7, 7, 6]);
        assert_eq!(w.map_output_records, 18, "Figure 7 dataflow");
        // Range 0: blocks w+x (6 entities); range 1: y + all of z (8);
        // range 2: z without F (4).
        assert_eq!(w.reduce_input_records, vec![6, 8, 4]);
    }

    #[test]
    fn memberships_equal_the_mappers_ranges_at_every_r() {
        // Small r puts whole blocks into one range, large r leaves
        // gaps between an entity's hit ranges.
        let bdm = running_example_bdm();
        for r in 1..=25 {
            let w = analyze(&bdm, StrategyKind::PairRange, r, RangePolicy::CeilDiv);
            // Reference: per-entity memberships via relevant_ranges.
            let ranges = RangeIndexer::new(bdm.total_pairs(), r, RangePolicy::CeilDiv);
            let mut expect_output = 0u64;
            let mut expect_inputs = vec![0u64; r];
            for k in 0..bdm.num_blocks() {
                for x in 0..bdm.size(k) {
                    let hits = relevant_ranges(&bdm, &ranges, k, SourceId::R, x);
                    expect_output += hits.len() as u64;
                    for t in hits {
                        expect_inputs[t as usize] += 1;
                    }
                }
            }
            assert_eq!(w.map_output_records, expect_output, "r={r}");
            assert_eq!(w.reduce_input_records, expect_inputs, "r={r}");
        }
    }

    #[test]
    fn all_strategies_conserve_pairs() {
        let bdm = running_example_bdm();
        for r in [1usize, 2, 3, 7, 19, 40] {
            for strategy in [
                StrategyKind::Basic,
                StrategyKind::BlockSplit,
                StrategyKind::PairRange,
            ] {
                let w = analyze(&bdm, strategy, r, RangePolicy::CeilDiv);
                assert_eq!(
                    w.total_comparisons(),
                    20,
                    "{strategy} with r={r} lost or duplicated pairs"
                );
            }
        }
    }

    #[test]
    fn pair_range_is_near_perfectly_balanced() {
        let bdm = running_example_bdm();
        for r in [2usize, 3, 4, 5] {
            let w = analyze(&bdm, StrategyKind::PairRange, r, RangePolicy::Proportional);
            let max = w.max_comparisons();
            let min = w.reduce_comparisons.iter().copied().min().unwrap();
            assert!(max - min <= 1, "r={r}: {:?}", w.reduce_comparisons);
        }
    }
}
