//! The analytic workload model must agree *exactly* with executed
//! counters — it is the foundation of every paper-scale experiment.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use er_loadbalance::analysis::analyze;
use mr_engine::counters::REDUCE_INPUT_RECORDS;

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
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
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
                .map(|t| t.counter(REDUCE_INPUT_RECORDS))
                .collect();
            assert_eq!(
                workload.reduce_input_records, executed_inputs,
                "{strategy} m={m} r={r}: reduce inputs diverge"
            );
        }
    }
}

/// The executed linkage of `input` under every strategy against what
/// `analyze` predicts from the source-tagged BDM.
fn assert_linkage_prediction_is_exact(
    resolver: &Resolver<'_>,
    blocking: &dyn BlockingFunction,
    input: &Partitions<(), Ent>,
    sources: &[SourceId],
    r: usize,
) {
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let scenario = Scenario::Linkage {
            strategy,
            sources: sources.to_vec(),
        };
        let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
        let match_metrics = outcome.details.match_metrics().expect("one matching job");
        // Basic computes no BDM: count one from the input.
        let bdm = match outcome.details.bdm() {
            Some(b) => Arc::clone(b),
            None => {
                let keys: Vec<Vec<BlockKey>> = input
                    .iter()
                    .map(|part| part.iter().filter_map(|(_, e)| blocking.key(e)).collect())
                    .collect();
                let bdm = BlockDistributionMatrix::from_key_partitions(&keys);
                Arc::new(bdm.with_sources(sources.to_vec()))
            }
        };
        assert_eq!(
            bdm.sources(),
            Some(sources),
            "{strategy}: the BDM is tagged"
        );
        let workload = analyze(&bdm, strategy, r, RangePolicy::CeilDiv);
        assert_eq!(
            Some(workload.reduce_comparisons),
            outcome.reduce_loads(),
            "{strategy} r={r}: per-task comparisons diverge"
        );
        assert_eq!(
            workload.map_output_records,
            match_metrics.map_output_records(),
            "{strategy} r={r}: map output diverges"
        );
        let executed_inputs: Vec<u64> = match_metrics
            .reduce_tasks
            .iter()
            .map(|t| t.counter(REDUCE_INPUT_RECORDS))
            .collect();
        assert_eq!(
            workload.reduce_input_records, executed_inputs,
            "{strategy} r={r}: reduce inputs diverge"
        );
    }
}

#[test]
fn analysis_equals_execution_for_linkage() {
    use er_loadbalance::{appendix_example, running_example};
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    // The appendix example: 12 pairs, r = 3.
    let blocking = running_example::blocking();
    let resolver = Resolver::new(&runtime)
        .with_blocking(Arc::clone(&blocking))
        .with_reduce_tasks(3);
    let input = appendix_example::entity_partitions();
    let sources = appendix_example::partition_sources();
    assert_linkage_prediction_is_exact(&resolver, blocking.as_ref(), &input, &sources, 3);
    let predicted = |strategy| {
        let w = analyze(&appendix_example::bdm(), strategy, 3, RangePolicy::CeilDiv);
        (w.map_output_records, w.total_comparisons())
    };
    assert_eq!(predicted(StrategyKind::Basic), (13, 12));
    assert_eq!(predicted(StrategyKind::BlockSplit), (14, 12));
    assert_eq!(predicted(StrategyKind::PairRange), (15, 12));

    // A generated corpus, odd ids re-labelled as source S, with the
    // sources' partitions interleaved.
    let ds = generate_products(&ds1_spec(32).scaled(0.01));
    let (mut r_side, mut s_side) = (Vec::new(), Vec::new());
    for e in ds.entities {
        if e.id().0 % 2 == 0 {
            r_side.push(Arc::new(e) as Ent);
        } else {
            s_side
                .push(Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent);
        }
    }
    let (parts, tags) = two_source_input(r_side, s_side, 3);
    let order = [3usize, 0, 4, 1, 2, 5];
    let input: Partitions<(), Ent> = order.iter().map(|&p| parts[p].clone()).collect();
    let sources: Vec<SourceId> = order.iter().map(|&p| tags[p]).collect();
    let blocking = PrefixBlocking::title3();
    for r in [1usize, 5, 16, 40] {
        let resolver = Resolver::new(&runtime).with_reduce_tasks(r);
        assert_linkage_prediction_is_exact(&resolver, &blocking, &input, &sources, r);
    }
}

#[test]
fn analysis_conserves_total_pairs() {
    let (input, _) = dataset_input(4);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(8),
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
