//! Fast shape checks on the simulated paper experiments — the CI-grade
//! versions of the figure benches' PASS lines.

use cluster_sim::CostModel;
use dedupe_mr::prelude::*;
use er_datagen::dataset::key_sequence;
use er_datagen::ds1_spec;
use er_loadbalance::analysis::analyze;

fn bdm(keys: &[BlockKey], m: usize) -> BlockDistributionMatrix {
    let len = keys.len();
    let base = len / m;
    let extra = len % m;
    let mut partitions: Vec<Vec<BlockKey>> = Vec::with_capacity(m);
    let mut offset = 0;
    for i in 0..m {
        let take = base + usize::from(i < extra);
        partitions.push(keys[offset..offset + take].to_vec());
        offset += take;
    }
    BlockDistributionMatrix::from_key_partitions(&partitions)
}

fn simulate(
    bdm: &BlockDistributionMatrix,
    strategy: StrategyKind,
    nodes: usize,
    r: usize,
    cost: &CostModel,
) -> f64 {
    // The blocks of the matrix and the entities alone in theirs.
    let entities = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum::<u64>() + bdm.pruned_entities();
    let w = analyze(bdm, strategy, r, RangePolicy::CeilDiv);
    let reduce_tasks: Vec<(u64, u64)> = w
        .reduce_input_records
        .iter()
        .zip(&w.reduce_comparisons)
        .map(|(&kv, &c)| (kv, c))
        .collect();
    let matching = cluster_sim::SimJob::matching(
        strategy.to_string(),
        cost,
        bdm.num_partitions(),
        entities,
        w.map_output_records,
        &reduce_tasks,
    );
    let cluster = cluster_sim::ClusterConfig::paper(nodes);
    match strategy {
        StrategyKind::Basic => cluster_sim::simulate_jobs(&[matching], &cluster, cost).total_ms,
        _ => {
            let bdm_job = cluster_sim::SimJob::bdm(cost, bdm.num_partitions(), r, entities);
            cluster_sim::simulate_jobs(&[bdm_job, matching], &cluster, cost).total_ms
        }
    }
}

#[test]
fn balanced_strategies_beat_basic_on_the_skewed_dataset() {
    let keys = key_sequence(&ds1_spec(2012));
    let b = bdm(&keys, 20);
    let cost = CostModel::default();
    let basic = simulate(&b, StrategyKind::Basic, 10, 100, &cost);
    let bs = simulate(&b, StrategyKind::BlockSplit, 10, 100, &cost);
    let pr = simulate(&b, StrategyKind::PairRange, 10, 100, &cost);
    assert!(
        basic > 3.0 * bs,
        "Basic {basic:.0}ms should trail BlockSplit {bs:.0}ms by >3x"
    );
    assert!(basic > 3.0 * pr);
}

#[test]
fn basic_plateaus_with_more_nodes_while_balanced_scale() {
    let keys = key_sequence(&ds1_spec(2012));
    let cost = CostModel::default();
    let t = |s: StrategyKind, n: usize| {
        let b = bdm(&keys, 2 * n);
        simulate(&b, s, n, 10 * n, &cost)
    };
    let basic_speedup = t(StrategyKind::Basic, 2) / t(StrategyKind::Basic, 20);
    let bs_speedup = t(StrategyKind::BlockSplit, 2) / t(StrategyKind::BlockSplit, 20);
    assert!(
        basic_speedup < 2.0,
        "Basic sped up {basic_speedup:.1}x from 2 to 20 nodes — should plateau"
    );
    assert!(
        bs_speedup > 4.0,
        "BlockSplit sped up only {bs_speedup:.1}x from 2 to 20 nodes"
    );
}

#[test]
fn sorted_input_hurts_block_split_only() {
    let keys = key_sequence(&ds1_spec(2012));
    let mut sorted = keys.clone();
    sorted.sort();
    let cost = CostModel::default();
    let unsorted_bdm = bdm(&keys, 20);
    let sorted_bdm = bdm(&sorted, 20);
    let bs_u = simulate(&unsorted_bdm, StrategyKind::BlockSplit, 10, 100, &cost);
    let bs_s = simulate(&sorted_bdm, StrategyKind::BlockSplit, 10, 100, &cost);
    let pr_u = simulate(&unsorted_bdm, StrategyKind::PairRange, 10, 100, &cost);
    let pr_s = simulate(&sorted_bdm, StrategyKind::PairRange, 10, 100, &cost);
    assert!(
        bs_s > bs_u * 1.3,
        "sorted input should slow BlockSplit: {bs_u:.0} -> {bs_s:.0}"
    );
    assert!(
        (pr_s / pr_u - 1.0).abs() < 0.05,
        "PairRange should not care: {pr_u:.0} -> {pr_s:.0}"
    );
}

#[test]
fn map_output_shapes_match_figure_12() {
    let keys = key_sequence(&ds1_spec(2012).scaled(0.25));
    let b = bdm(&keys, 20);
    let entities: u64 = keys.len() as u64;
    let mut bs_outputs = Vec::new();
    let mut pr_outputs = Vec::new();
    for r in [20usize, 60, 100, 160] {
        let basic = analyze(&b, StrategyKind::Basic, r, RangePolicy::CeilDiv);
        assert_eq!(basic.map_output_records, entities, "Basic never replicates");
        bs_outputs.push(
            analyze(&b, StrategyKind::BlockSplit, r, RangePolicy::CeilDiv).map_output_records,
        );
        pr_outputs
            .push(analyze(&b, StrategyKind::PairRange, r, RangePolicy::CeilDiv).map_output_records);
    }
    assert!(
        pr_outputs.windows(2).all(|w| w[1] > w[0]),
        "PairRange output grows with r: {pr_outputs:?}"
    );
    assert!(
        bs_outputs.windows(2).all(|w| w[1] >= w[0]),
        "BlockSplit output is a non-decreasing step function: {bs_outputs:?}"
    );
    assert!(pr_outputs.last().unwrap() > bs_outputs.last().unwrap());
}
