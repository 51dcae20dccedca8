//! Shared experiment plumbing.

use cluster_sim::{simulate_jobs, ClusterConfig, CostModel, SimJob, SimOutcome};
use er_core::blocking::BlockKey;
use er_loadbalance::analysis::analyze;
use er_loadbalance::bdm::BlockDistributionMatrix;
use er_loadbalance::pair_range::ranges::RangePolicy;
use er_loadbalance::StrategyKind;

/// Seed used by all figure benches — results are fully reproducible.
pub const PAPER_SEED: u64 = 2012;

/// Splits a blocking-key sequence into `m` contiguous partitions and
/// builds the BDM — the analytic equivalent of running Algorithm 3.
pub fn bdm_from_keys(keys: &[BlockKey], m: usize) -> BlockDistributionMatrix {
    assert!(m > 0);
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

/// A lexicographically sorted copy of a key sequence — the paper's
/// Figure 11 adversarial input ("sorted by title" groups each block's
/// entities contiguously, confining blocks to few partitions).
pub fn sorted_keys(keys: &[BlockKey]) -> Vec<BlockKey> {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted
}

/// Cost model shared by one bench run (calibrate once, reuse).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentCost {
    /// The calibrated model.
    pub model: CostModel,
}

impl ExperimentCost {
    /// Calibrates the pair cost on this machine.
    pub fn calibrated() -> Self {
        Self {
            model: CostModel::calibrated(),
        }
    }
}

/// Simulates one full ER run (BDM job for the balanced strategies +
/// matching job) on an `n`-node paper cluster; returns total seconds.
pub fn simulate_strategy(
    bdm: &BlockDistributionMatrix,
    strategy: StrategyKind,
    nodes: usize,
    r: usize,
    cost: &ExperimentCost,
) -> SimOutcome {
    let m = bdm.num_partitions();
    // The blocks of the matrix and the entities alone in theirs.
    let entities = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum::<u64>() + bdm.pruned_entities();
    let workload = analyze(bdm, strategy, r, RangePolicy::CeilDiv);
    let reduce_tasks: Vec<(u64, u64)> = workload
        .reduce_input_records
        .iter()
        .zip(&workload.reduce_comparisons)
        .map(|(&kv, &c)| (kv, c))
        .collect();
    let matching = SimJob::matching(
        strategy.to_string(),
        &cost.model,
        m,
        entities,
        workload.map_output_records,
        &reduce_tasks,
    );
    let cluster = ClusterConfig::paper(nodes);
    match strategy {
        StrategyKind::Basic => simulate_jobs(&[matching], &cluster, &cost.model),
        _ => {
            let bdm_job = SimJob::bdm(&cost.model, m, r, entities);
            simulate_jobs(&[bdm_job, matching], &cluster, &cost.model)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::skew::exponential_block_sizes;
    use er_datagen::vocab::block_prefix;

    fn keys(n: usize, b: usize, s: f64) -> Vec<BlockKey> {
        let sizes = exponential_block_sizes(n, b, s);
        let mut keys = Vec::with_capacity(n);
        for (k, &size) in sizes.iter().enumerate() {
            let key = BlockKey::new(block_prefix(k));
            keys.extend(std::iter::repeat_with(|| key.clone()).take(size));
        }
        // Deterministic interleave so blocks span partitions.
        let mut out = Vec::with_capacity(n);
        let stride = 17usize;
        for start in 0..stride {
            let mut i = start;
            while i < keys.len() {
                out.push(keys[i].clone());
                i += stride;
            }
        }
        out
    }

    #[test]
    fn bdm_from_keys_counts_everything() {
        let ks = keys(1000, 10, 0.5);
        let bdm = bdm_from_keys(&ks, 4);
        let total: u64 = (0..bdm.num_blocks()).map(|k| bdm.size(k)).sum();
        assert_eq!(total, 1000);
        assert_eq!(bdm.num_partitions(), 4);
    }

    #[test]
    fn skewed_basic_is_slower_than_balanced_strategies() {
        let ks = keys(20_000, 100, 1.0);
        let bdm = bdm_from_keys(&ks, 20);
        let cost = ExperimentCost {
            model: CostModel::default(),
        };
        let basic = simulate_strategy(&bdm, StrategyKind::Basic, 10, 100, &cost);
        let bs = simulate_strategy(&bdm, StrategyKind::BlockSplit, 10, 100, &cost);
        let pr = simulate_strategy(&bdm, StrategyKind::PairRange, 10, 100, &cost);
        assert!(
            basic.total_ms > bs.total_ms && basic.total_ms > pr.total_ms,
            "basic {:.0} bs {:.0} pr {:.0}",
            basic.total_ms,
            bs.total_ms,
            pr.total_ms
        );
    }

    #[test]
    fn sorted_keys_confine_blocks_to_few_partitions() {
        let ks = keys(1000, 10, 0.5);
        let sorted = sorted_keys(&ks);
        let bdm = bdm_from_keys(&sorted, 8);
        // The largest block occupies ceil(size / partition_size)
        // contiguous partitions, far fewer than all 8.
        let k0 = (0..bdm.num_blocks()).max_by_key(|&k| bdm.size(k)).unwrap();
        let occupied = (0..8).filter(|&p| bdm.size_in(k0, p) > 0).count();
        let shuffled_bdm = bdm_from_keys(&ks, 8);
        let occupied_shuffled = (0..8).filter(|&p| shuffled_bdm.size_in(k0, p) > 0).count();
        assert!(occupied <= occupied_shuffled);
        assert_eq!(occupied_shuffled, 8, "interleaved keys span all partitions");
    }
}
