//! The paper's figure shapes (Figs. 9–12, and the reduce-task axis of
//! Figs. 10, 13 and 14) as exact counts. `analyze()` is exact for all
//! three strategies — `tests/analysis_matches_execution.rs` pins it to
//! executed runs — so every shape is an assertion over per-reduce-task
//! comparison loads and map-output records: no timings, no cost model.
//!
//! The yardstick is `⌈P/r⌉`, the largest reduce load any distribution
//! of `P` pairs over `r` tasks must have (Fan et al.'s pair-distribution
//! lower bound, PAPERS.md 1401.0355).

use dedupe_mr::prelude::*;
use er_datagen::dataset::key_sequence;
use er_datagen::ds1_spec;
use er_datagen::skew::exponential_block_sizes;
use er_datagen::vocab::block_prefix;
use er_loadbalance::analysis::{analyze, StrategyWorkload};
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SEED: u64 = 2012;
/// Map tasks of every figure (paper §VI).
const M: usize = 20;

/// The BDM of `keys` read by `m` map tasks from contiguous input splits.
fn bdm(keys: &[BlockKey], m: usize) -> BlockDistributionMatrix {
    let splits: Vec<Vec<BlockKey>> =
        partition_evenly(keys.iter().map(|key| (key.clone(), ())).collect(), m)
            .into_iter()
            .map(|split| split.into_iter().map(|(key, ())| key).collect())
            .collect();
    BlockDistributionMatrix::from_key_partitions(&splits)
}

/// `[Basic, BlockSplit, PairRange]` over `bdm` at `r` reduce tasks.
fn workloads(bdm: &BlockDistributionMatrix, r: usize) -> [StrategyWorkload; 3] {
    [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ]
    .map(|strategy| analyze(bdm, strategy, r, RangePolicy::CeilDiv))
}

/// `⌈P/r⌉`: the smallest maximum reduce load of any assignment.
fn lower_bound(bdm: &BlockDistributionMatrix, r: usize) -> u64 {
    bdm.total_pairs().div_ceil(r as u64)
}

fn ds1_keys() -> Vec<BlockKey> {
    key_sequence(&ds1_spec(SEED))
}

/// Fig. 9's workload: 114 000 entities over 100 blocks of size
/// `∝ e^(−s·k)`, in a seeded random order.
fn skewed_keys(s: f64) -> Vec<BlockKey> {
    let sizes = exponential_block_sizes(114_000, 100, s);
    let mut keys: Vec<BlockKey> = sizes
        .iter()
        .enumerate()
        .flat_map(|(k, &size)| std::iter::repeat_n(BlockKey::new(block_prefix(k)), size))
        .collect();
    keys.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(SEED));
    keys
}

#[test]
fn fig09_balanced_strategies_stay_at_the_bound_while_basic_grows_with_skew() {
    const R: usize = 100;
    let (mut basic_gaps, mut block_split_gaps) = (Vec::new(), Vec::new());
    for step in 0..=5 {
        let s = f64::from(step) * 0.2;
        let b = bdm(&skewed_keys(s), M);
        let bound = lower_bound(&b, R);
        let [basic, block_split, pair_range] = workloads(&b, R);
        for w in [&basic, &block_split, &pair_range] {
            assert_eq!(
                w.total_comparisons(),
                b.total_pairs(),
                "{} at s = {s}",
                w.strategy
            );
        }
        assert_eq!(pair_range.max_comparisons(), bound, "PairRange at s = {s}");
        // At s = 1 the dominant block's 20 × 20 sub-block tasks are each
        // about half the bound, so the greedy packing overshoots by a
        // few per cent (measured 1.067).
        let block_split_gap = block_split.max_comparisons() as f64 / bound as f64;
        assert!(
            block_split_gap <= 1.1,
            "BlockSplit {block_split_gap:.4}x the bound at s = {s}"
        );
        block_split_gaps.push(block_split_gap);
        basic_gaps.push(basic.max_comparisons() as f64 / bound as f64);
    }
    println!("max / ⌈P/r⌉ for s = 0, 0.2, …, 1.0:");
    println!("  BlockSplit {block_split_gaps:.3?}");
    println!("  Basic      {basic_gaps:.1?}");
    assert!(
        basic_gaps.windows(2).all(|g| g[1] > g[0]),
        "Basic's gap to the bound must rise strictly with skew: {basic_gaps:?}"
    );
}

/// The reduce-task axis of Figs. 10, 13 and 14.
const REDUCE_TASKS: [usize; 8] = [20, 40, 60, 80, 100, 120, 140, 160];

#[test]
fn fig10_balanced_strategies_beat_basic_on_ds1() {
    let b = bdm(&ds1_keys(), M);
    for r in REDUCE_TASKS {
        let bound = lower_bound(&b, r);
        let [basic, block_split, pair_range] = workloads(&b, r);
        assert_eq!(pair_range.max_comparisons(), bound, "PairRange at r = {r}");
        let block_split_gap = block_split.max_comparisons() as f64 / bound as f64;
        println!("r = {r:>3}: BlockSplit max / ⌈P/r⌉ = {block_split_gap:.2}");
        assert!(
            block_split_gap <= 1.5,
            "BlockSplit {block_split_gap:.2}x the bound at r = {r}"
        );
        for balanced in [&block_split, &pair_range] {
            assert!(
                basic.max_comparisons() > 3 * balanced.max_comparisons(),
                "Basic max {} should exceed 3x {} max {} at r = {r}",
                basic.max_comparisons(),
                balanced.strategy,
                balanced.max_comparisons()
            );
        }
    }
}

#[test]
fn fig13_basic_plateaus_while_balanced_strategies_scale() {
    let b = bdm(&ds1_keys(), M);
    let largest_block = (0..b.num_blocks())
        .map(|k| b.pairs_in_block(k))
        .max()
        .expect("DS1 has blocks");
    let max_loads: Vec<[u64; 3]> = REDUCE_TASKS
        .iter()
        .map(|&r| workloads(&b, r).map(|w| w.max_comparisons()))
        .collect();
    for (&r, [basic, _, _]) in REDUCE_TASKS.iter().zip(&max_loads) {
        // Basic keeps the largest block whole on one task, however many
        // tasks there are: more reduce tasks cannot shorten its reduce
        // phase.
        assert!(
            *basic >= largest_block,
            "Basic at r = {r}: {basic} < largest block {largest_block}"
        );
    }
    // The largest reduce load at the fewest tasks over that at the most.
    let (first, last) = (max_loads[0], max_loads[max_loads.len() - 1]);
    let [basic, block_split, pair_range] = [0, 1, 2].map(|i| first[i] as f64 / last[i] as f64);
    println!("max load at r = 20 / at r = 160:");
    println!("  Basic {basic:.2}, BlockSplit {block_split:.2}, PairRange {pair_range:.2}");
    assert!(basic < 2.0, "Basic shrank {basic:.2}x — should plateau");
    assert!(
        block_split > 4.0,
        "BlockSplit shrank only {block_split:.2}x"
    );
    assert!(pair_range > 4.0, "PairRange shrank only {pair_range:.2}x");
}

#[test]
fn fig11_sorted_input_hurts_block_split_only() {
    const R: usize = 100;
    let unsorted = ds1_keys();
    let mut sorted = unsorted.clone();
    sorted.sort();
    let [_, bs_unsorted, pr_unsorted] = workloads(&bdm(&unsorted, M), R);
    let [_, bs_sorted, pr_sorted] = workloads(&bdm(&sorted, M), R);
    // Sorted input confines each block to few partitions, so BlockSplit
    // has fewer sub-blocks to split the dominant block into.
    assert_eq!(bs_unsorted.max_comparisons(), 643_456);
    assert_eq!(bs_sorted.max_comparisons(), 25_992_000);
    // PairRange enumerates pairs, not partitions: input order is moot.
    assert_eq!(pr_unsorted.max_comparisons(), 565_313);
    assert_eq!(pr_sorted.max_comparisons(), 565_313);
    assert_eq!(pr_unsorted.map_output_records, 746_855);
    assert_eq!(pr_sorted.map_output_records, 746_855);
}

#[test]
fn fig12_map_output_shapes() {
    let keys = key_sequence(&ds1_spec(SEED).scaled(0.25));
    let b = bdm(&keys, M);
    let mut block_split_outputs = Vec::new();
    let mut pair_range_outputs = Vec::new();
    for r in [20usize, 60, 100, 160] {
        let [basic, block_split, pair_range] = workloads(&b, r);
        assert_eq!(
            basic.map_output_records,
            keys.len() as u64,
            "Basic never replicates"
        );
        block_split_outputs.push(block_split.map_output_records);
        pair_range_outputs.push(pair_range.map_output_records);
    }
    assert!(
        pair_range_outputs.windows(2).all(|w| w[1] > w[0]),
        "PairRange output grows with r: {pair_range_outputs:?}"
    );
    assert!(
        block_split_outputs.windows(2).all(|w| w[1] >= w[0]),
        "BlockSplit output is a non-decreasing step function: {block_split_outputs:?}"
    );
    assert!(pair_range_outputs.last() > block_split_outputs.last());
}
