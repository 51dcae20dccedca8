//! Two-source strategies must agree with a naive cross-source
//! reference on arbitrary inputs.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use proptest::prelude::*;

fn entity_strategy() -> impl Strategy<Value = (String, String)> {
    let prefix = prop_oneof!["aa", "ab", "zz"];
    let suffix = proptest::string::string_regex("[ab]{0,5}").unwrap();
    (prefix, suffix)
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

fn naive_cross_source(
    r_entities: &[Ent],
    s_entities: &[Ent],
    blocking: &dyn BlockingFunction,
    matcher: &Matcher,
) -> std::collections::BTreeSet<MatchPair> {
    let mut result = std::collections::BTreeSet::new();
    for a in r_entities {
        for b in s_entities {
            let (Some(ka), Some(kb)) = (blocking.key(a), blocking.key(b)) else {
                continue;
            };
            if ka == kb && matcher.matches(a, b).is_some() {
                result.insert(MatchPair::new(a.entity_ref(), b.entity_ref()));
            }
        }
    }
    result
}

/// A session over 2-letter title-prefix blocks with `r` reduce tasks.
fn session(runtime: &Runtime, r: usize) -> Resolver<'_> {
    Resolver::new(runtime)
        .with_blocking(Arc::new(PrefixBlocking::new("title", 2)))
        .with_matcher(matcher())
        .with_reduce_tasks(r)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn linkage_equals_naive_cross_source(
        r_specs in proptest::collection::vec(entity_strategy(), 1..20),
        s_specs in proptest::collection::vec(entity_strategy(), 1..20),
        r in 1usize..7,
    ) {
        let r_entities: Vec<Ent> = r_specs
            .iter()
            .enumerate()
            .map(|(id, (p, s))| {
                Arc::new(Entity::new(id as u64, [("title", format!("{p}{s}").as_str())]))
            })
            .collect();
        let s_entities: Vec<Ent> = s_specs
            .iter()
            .enumerate()
            .map(|(id, (p, s))| {
                Arc::new(Entity::with_source(
                    SourceId::S,
                    id as u64,
                    [("title", format!("{p}{s}").as_str())],
                ))
            })
            .collect();

        // R in up to 2 partitions, S in up to 2 partitions.
        let mut input: Partitions<(), Ent> = Vec::new();
        let mut sources = Vec::new();
        for chunk in r_entities.chunks(r_entities.len().div_ceil(2)) {
            input.push(chunk.iter().map(|e| ((), Arc::clone(e))).collect());
            sources.push(SourceId::R);
        }
        for chunk in s_entities.chunks(s_entities.len().div_ceil(2)) {
            input.push(chunk.iter().map(|e| ((), Arc::clone(e))).collect());
            sources.push(SourceId::S);
        }

        let blocking = PrefixBlocking::new("title", 2);
        let reference = naive_cross_source(&r_entities, &s_entities, &blocking, &matcher());

        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        let resolver = session(&runtime, r);
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let scenario = Scenario::Linkage { strategy, sources: sources.clone() };
            let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
            prop_assert_eq!(
                outcome.result.pair_set(),
                reference.clone(),
                "{} with r={} diverged",
                strategy, r
            );
        }
    }

    #[test]
    fn cross_pair_counts_match_the_block_products(
        r_specs in proptest::collection::vec(entity_strategy(), 1..16),
        s_specs in proptest::collection::vec(entity_strategy(), 1..16),
        r in 1usize..7,
    ) {
        let blocking = PrefixBlocking::new("title", 2);
        let mk = |specs: &[(String, String)], source: SourceId| -> Vec<Ent> {
            specs.iter().enumerate().map(|(id, (p, s))| {
                Arc::new(Entity::with_source(source, id as u64,
                    [("title", format!("{p}{s}").as_str())]))
            }).collect()
        };
        let r_entities = mk(&r_specs, SourceId::R);
        let s_entities = mk(&s_specs, SourceId::S);
        let mut expected = 0u64;
        let mut count = std::collections::BTreeMap::new();
        for e in &r_entities {
            if let Some(k) = blocking.key(e) {
                count.entry(k).or_insert((0u64, 0u64)).0 += 1;
            }
        }
        for e in &s_entities {
            if let Some(k) = blocking.key(e) {
                count.entry(k).or_insert((0u64, 0u64)).1 += 1;
            }
        }
        for (_, (nr, ns)) in count {
            expected += nr * ns;
        }

        let input: Partitions<(), Ent> = vec![
            r_entities.iter().map(|e| ((), Arc::clone(e))).collect(),
            s_entities.iter().map(|e| ((), Arc::clone(e))).collect(),
        ];
        let sources = vec![SourceId::R, SourceId::S];
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let resolver = session(&runtime, r).with_count_only(true);
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let scenario = Scenario::Linkage { strategy, sources: sources.clone() };
            let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
            prop_assert_eq!(outcome.total_comparisons(), expected, "{}", strategy);
        }
    }
}
