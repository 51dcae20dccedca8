//! Property: all three strategies produce exactly the match result of
//! the naive per-block all-pairs reference — on arbitrary datasets,
//! partitionings and reduce-task counts. Load balancing relocates
//! comparisons; it must never add, drop or duplicate one.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use proptest::prelude::*;

/// Random entity: short titles over a tiny alphabet so blocks collide
/// and similarities span the threshold.
fn entity_strategy() -> impl Strategy<Value = (String, String)> {
    let prefix = prop_oneof!["aa", "ab", "ba", "zz"];
    let suffix = proptest::string::string_regex("[abc]{0,6}").unwrap();
    (prefix, suffix)
}

fn build_entities(specs: Vec<(String, String)>) -> Vec<Ent> {
    specs
        .into_iter()
        .enumerate()
        .map(|(id, (prefix, suffix))| {
            Arc::new(Entity::new(
                id as u64,
                [("title", format!("{prefix}{suffix}").as_str())],
            ))
        })
        .collect()
}

fn matcher() -> Arc<Matcher> {
    Arc::new(Matcher::new(
        vec![MatchRule::new(
            "title",
            Arc::new(er_core::similarity::NormalizedLevenshtein),
        )],
        0.6,
    ))
}

/// A session over 2-letter title-prefix blocks with `r` reduce tasks.
fn session(runtime: &Runtime, r: usize) -> Resolver<'_> {
    Resolver::new(runtime)
        .with_blocking(Arc::new(PrefixBlocking::new("title", 2)))
        .with_matcher(matcher())
        .with_reduce_tasks(r)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn strategies_equal_naive_reference(
        specs in proptest::collection::vec(entity_strategy(), 2..40),
        m in 1usize..5,
        r in 1usize..9,
    ) {
        let entities = build_entities(specs);
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        let resolver = session(&runtime, r);
        let reference = naive_reference(&entities, &resolver.er_config(StrategyKind::Basic));
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let input = partition_evenly(
                entities.iter().map(|e| ((), Arc::clone(e))).collect(),
                m,
            );
            let outcome = resolver.resolve(&Scenario::Dedup { strategy }, input).unwrap();
            prop_assert_eq!(
                outcome.result.pair_set(),
                reference.pair_set(),
                "{} with m={} r={} diverged from the reference",
                strategy, m, r
            );
        }
    }

    #[test]
    fn comparison_count_is_exactly_the_block_pair_sum(
        specs in proptest::collection::vec(entity_strategy(), 2..40),
        m in 1usize..5,
        r in 1usize..9,
    ) {
        let entities = build_entities(specs);
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let resolver = session(&runtime, r);
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let input = partition_evenly(
                entities.iter().map(|e| ((), Arc::clone(e))).collect(),
                m,
            );
            let outcome = resolver.resolve(&Scenario::Dedup { strategy }, input).unwrap();
            // Expected: sum of C(block size, 2) over blocks.
            let mut counts = std::collections::BTreeMap::new();
            let blocking = PrefixBlocking::new("title", 2);
            for e in &entities {
                if let Some(k) = blocking.key(e) {
                    *counts.entry(k).or_insert(0u64) += 1;
                }
            }
            let expected: u64 = counts.values().map(|&c| c * (c - 1) / 2).sum();
            prop_assert_eq!(
                outcome.total_comparisons(), expected,
                "{} with m={} r={} computed a different pair count",
                strategy, m, r
            );
        }
    }

    #[test]
    fn range_policy_does_not_change_results(
        specs in proptest::collection::vec(entity_strategy(), 2..30),
        r in 1usize..9,
    ) {
        use er_loadbalance::bdm_job::compute_bdm;
        use er_loadbalance::compare::PairComparer;
        use er_loadbalance::pair_range::pair_range_job;

        let entities = build_entities(specs);
        let input = || partition_evenly(
            entities.iter().map(|e| ((), Arc::clone(e))).collect(),
            2,
        );
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let scenario = Scenario::Dedup { strategy: StrategyKind::PairRange };
        // The session runs `CeilDiv`; each policy's job, run directly
        // over the same BDM, must find the same pairs.
        let session_pairs = session(&runtime, r)
            .resolve(&scenario, input())
            .unwrap()
            .result
            .pair_set();
        let blocking = Arc::new(PrefixBlocking::new("title", 2));
        for policy in [RangePolicy::CeilDiv, RangePolicy::Proportional] {
            let (bdm, annotated, _) = compute_bdm(input(), blocking.clone(), r, 1, true).unwrap();
            let job = pair_range_job(Arc::new(bdm), PairComparer::new(matcher()), policy, r);
            let out = job.run_on(&WorkerPool::new(1), annotated).unwrap();
            let pairs: std::collections::BTreeSet<MatchPair> =
                out.reduce_outputs.into_iter().flatten().map(|(pair, _)| pair).collect();
            prop_assert_eq!(&pairs, &session_pairs, "{:?}", policy);
        }
    }
}
