//! The analytic workload model must agree *exactly* with executed
//! counters — it is the foundation of every paper-scale experiment.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use er_loadbalance::analysis::analyze;

fn dataset_input(m: usize) -> (Partitions<(), Ent>, usize) {
    let ds = generate_products(&ds1_spec(31).scaled(0.01));
    let n = ds.len();
    (
        partition_evenly(
            ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
            m,
        ),
        n,
    )
}

#[test]
fn analysis_equals_execution_for_every_strategy() {
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_count_only(true),
    );
    for (m, r) in [(3usize, 5usize), (5, 16), (8, 40)] {
        let (input, _) = dataset_input(m);
        let resolver = Resolver::new(&runtime).with_reduce_tasks(r);
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let outcome = resolver
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            let match_metrics = outcome.details.match_metrics().expect("one matching job");
            // Basic computes no BDM: derive one from the input for the
            // analysis side.
            let bdm = match outcome.details.bdm() {
                Some(b) => Arc::clone(b),
                None => {
                    let keys: Vec<Vec<BlockKey>> = input
                        .iter()
                        .map(|part| {
                            part.iter()
                                .filter_map(|(_, e)| PrefixBlocking::title3().key(e))
                                .collect()
                        })
                        .collect();
                    Arc::new(BlockDistributionMatrix::from_key_partitions(&keys))
                }
            };
            let workload = analyze(&bdm, strategy, r, RangePolicy::CeilDiv);

            assert_eq!(
                Some(workload.reduce_comparisons),
                outcome.reduce_loads(),
                "{strategy} m={m} r={r}: per-task comparisons diverge"
            );
            assert_eq!(
                workload.map_output_records,
                match_metrics.map_output_records(),
                "{strategy} m={m} r={r}: map output diverges"
            );
            let executed_inputs: Vec<u64> = match_metrics
                .reduce_tasks
                .iter()
                .map(|t| t.records_in)
                .collect();
            assert_eq!(
                workload.reduce_input_records, executed_inputs,
                "{strategy} m={m} r={r}: reduce inputs diverge"
            );
        }
    }
}

#[test]
fn analysis_conserves_total_pairs() {
    let (input, _) = dataset_input(4);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(8)
            .with_count_only(true),
    );
    let outcome = Resolver::new(&runtime)
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            input,
        )
        .unwrap();
    let bdm = outcome.details.bdm().expect("BlockSplit computes a BDM");
    for r in [1usize, 2, 7, 33, 129] {
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let w = analyze(bdm, strategy, r, RangePolicy::CeilDiv);
            assert_eq!(
                w.total_comparisons(),
                bdm.total_pairs(),
                "{strategy} r={r} lost pairs"
            );
        }
    }
}
