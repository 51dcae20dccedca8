//! Every concrete number of the paper's running example (Figures 3–7)
//! and two-source appendix (Figures 15–17), checked end to end through
//! the public facade.

use dedupe_mr::prelude::*;
use er_loadbalance::appendix_example;
use er_loadbalance::running_example;
use mr_engine::counters::REDUCE_INPUT_RECORDS;

/// The example's runtime: one worker, `r = 3`.
fn example_runtime() -> Runtime {
    Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(3),
    )
}

fn example_session(runtime: &Runtime) -> Resolver<'_> {
    Resolver::new(runtime).with_blocking(running_example::blocking())
}

fn run_example(strategy: StrategyKind) -> Outcome {
    example_session(&example_runtime())
        .resolve(
            &Scenario::Dedup { strategy },
            running_example::entity_partitions(),
        )
        .unwrap()
}

fn match_metrics(outcome: &Outcome) -> &mr_engine::metrics::JobMetrics {
    outcome.details.match_metrics().expect("one matching job")
}

#[test]
fn bdm_matches_figure_4() {
    let outcome = run_example(StrategyKind::BlockSplit);
    let bdm = outcome.details.bdm().expect("BDM computed");
    // b = 4 blocks over m = 2 partitions; row [z, 1, 3] from Figure 4.
    assert_eq!(bdm.num_blocks(), 4);
    assert_eq!(bdm.num_partitions(), 2);
    assert_eq!(bdm.size_in(3, 1), 3);
    // Block sizes 4, 2, 3, 5; pair offsets 0, 6, 7, 10; P = 20.
    assert_eq!(
        (bdm.size(0), bdm.size(1), bdm.size(2), bdm.size(3)),
        (4, 2, 3, 5)
    );
    assert_eq!(bdm.total_pairs(), 20);
    assert_eq!(bdm.pair_offset(3), 10);
}

#[test]
fn block_split_matches_figure_5() {
    let outcome = run_example(StrategyKind::BlockSplit);
    // 19 map output KV pairs (14 entities + 5 replicas of block z).
    assert_eq!(match_metrics(&outcome).map_output_records(), 19);
    // Reduce loads 7 / 7 / 6 ("between six and seven comparisons").
    let mut loads = outcome.reduce_loads().expect("one matching job");
    loads.sort_unstable();
    assert_eq!(loads, vec![6, 7, 7]);
    assert_eq!(outcome.total_comparisons(), 20);
}

#[test]
fn pair_range_matches_figures_6_and_7() {
    let outcome = run_example(StrategyKind::PairRange);
    // Ranges [0,6], [7,13], [14,19] -> loads 7, 7, 6 in task order.
    assert_eq!(outcome.reduce_loads(), Some(vec![7, 7, 6]));
    // Figure 7's dataflow: 18 emitted KV pairs (range 0: 6 entities,
    // range 1: 8, range 2: 4).
    assert_eq!(match_metrics(&outcome).map_output_records(), 18);
    let inputs: Vec<u64> = match_metrics(&outcome)
        .reduce_tasks
        .iter()
        .map(|t| t.counter(REDUCE_INPUT_RECORDS))
        .collect();
    assert_eq!(inputs, vec![6, 8, 4]);
}

#[test]
fn basic_computes_the_same_20_pairs_without_balancing() {
    let outcome = run_example(StrategyKind::Basic);
    assert_eq!(outcome.total_comparisons(), 20);
    assert_eq!(match_metrics(&outcome).map_output_records(), 14);
    assert!(
        outcome.details.bdm().is_none(),
        "Basic runs without the BDM job"
    );
}

#[test]
fn appendix_example_matches_figures_15_to_17() {
    let runtime = example_runtime();
    for strategy in [StrategyKind::BlockSplit, StrategyKind::PairRange] {
        let outcome = example_session(&runtime)
            .resolve(
                &Scenario::Linkage {
                    strategy,
                    sources: appendix_example::partition_sources(),
                },
                appendix_example::entity_partitions(),
            )
            .unwrap();
        assert_eq!(outcome.total_comparisons(), 12, "{strategy}: 12 pairs");
        assert_eq!(
            outcome.reduce_loads(),
            Some(vec![4, 4, 4]),
            "{strategy}: three ranges/tasks of 4"
        );
    }
}

#[test]
fn all_strategies_find_the_same_matches_with_real_similarity() {
    // Run with actual edit-distance matching (threshold lowered so the
    // single-letter example titles produce matches).
    let matcher = std::sync::Arc::new(Matcher::new(
        vec![MatchRule::new(
            "title",
            std::sync::Arc::new(er_core::similarity::JaroWinkler::default()),
        )],
        0.5,
    ));
    let runtime = example_runtime();
    let resolver = example_session(&runtime).with_matcher(matcher);
    let mut reference: Option<std::collections::BTreeSet<MatchPair>> = None;
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let outcome = resolver
            .resolve(
                &Scenario::Dedup { strategy },
                running_example::entity_partitions(),
            )
            .unwrap();
        let pairs = outcome.result.pair_set();
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(r, &pairs, "{strategy} differs"),
        }
    }
    assert!(
        !reference.unwrap().is_empty(),
        "the lowered threshold must produce at least one match"
    );
}
