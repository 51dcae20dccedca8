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
        let resolver = session(&runtime, r);
        for strategy in [StrategyKind::Basic, StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let scenario = Scenario::Linkage { strategy, sources: sources.clone() };
            let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
            prop_assert_eq!(outcome.total_comparisons(), expected, "{}", strategy);
        }
    }
}

// ---------------------------------------------------------------------
// Hostile linkage inputs the seeded corpora never produce. Every case
// goes through all three strategies and is held against the naive
// cross-source walk: same pairs, bit-identical scores, exactly the
// cross pairs that share a block compared (once each), and no pair of
// one source in the output.
// ---------------------------------------------------------------------

const R: SourceId = SourceId::R;
const S: SourceId = SourceId::S;

/// `(pair, score bits)` of a match result, in pair order.
type Scored = Vec<(MatchPair, u64)>;

fn entity(source: SourceId, id: u64, title: &str, brand: &str) -> Ent {
    Arc::new(Entity::with_source(
        source,
        id,
        [("title", title), ("brand", brand)],
    ))
}

/// Splits the partitions of a tagged input into its R and S entities.
fn sides(input: &Partitions<(), Ent>, sources: &[SourceId]) -> (Vec<Ent>, Vec<Ent>) {
    let side = |wanted: SourceId| -> Vec<Ent> {
        input
            .iter()
            .zip(sources)
            .filter(|(_, &tag)| tag == wanted)
            .flat_map(|(part, _)| part.iter().map(|(_, e)| Arc::clone(e)))
            .collect()
    };
    (side(SourceId::R), side(SourceId::S))
}

/// The naive reference of a tagged input: every `(r, s)` sharing at
/// least one blocking key, scored once. Returns the matches and the
/// number of pairs evaluated.
fn naive_scored(
    input: &Partitions<(), Ent>,
    sources: &[SourceId],
    blocking: &dyn BlockingFunction,
    matcher: &Matcher,
) -> (Scored, u64) {
    let (r_entities, s_entities) = sides(input, sources);
    let mut scored = Scored::new();
    let mut compared = 0u64;
    for a in &r_entities {
        let a_keys = blocking.keys(a);
        for b in &s_entities {
            if !blocking.keys(b).iter().any(|k| a_keys.contains(k)) {
                continue;
            }
            compared += 1;
            if let Some(score) = matcher.matches(a, b) {
                scored.push((
                    MatchPair::new(a.entity_ref(), b.entity_ref()),
                    score.to_bits(),
                ));
            }
        }
    }
    scored.sort();
    (scored, compared)
}

/// Resolves `input` as a linkage under every strategy on `resolver`
/// and checks each outcome against [`naive_scored`].
fn assert_linkage_matches_naive(
    resolver: &Resolver<'_>,
    blocking: Arc<dyn BlockingFunction>,
    input: &Partitions<(), Ent>,
    sources: &[SourceId],
    what: &str,
) {
    let resolver = resolver.clone().with_blocking(Arc::clone(&blocking));
    let (expected, compared) = naive_scored(input, sources, blocking.as_ref(), &matcher());
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
        let scored: Scored = outcome
            .result
            .iter()
            .map(|(pair, score)| (pair, score.to_bits()))
            .collect();
        assert_eq!(scored, expected, "{what}: {strategy} pairs and scores");
        assert_eq!(
            outcome.total_comparisons(),
            compared,
            "{what}: {strategy} compares each cross pair of a shared block once"
        );
        assert!(
            scored
                .iter()
                .all(|(pair, _)| pair.lo().source != pair.hi().source),
            "{what}: {strategy} emitted a same-source pair"
        );
    }
}

/// `titles` as one partition of `source`, ids counting from `first_id`.
fn partition(source: SourceId, first_id: u64, titles: &[&str]) -> Vec<((), Ent)> {
    titles
        .iter()
        .zip(first_id..)
        .map(|(title, id)| ((), entity(source, id, title, "")))
        .collect()
}

fn prefix2() -> Arc<dyn BlockingFunction> {
    Arc::new(PrefixBlocking::new("title", 2))
}

#[test]
fn an_empty_side_links_nothing() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = session(&runtime, 3);
    let some = ["aaab", "aaba", "abab", "zzaa"];
    // A tagged but empty partition on either side, and no partition
    // of a side at all.
    for (what, input, sources) in [
        (
            "empty R partition",
            vec![partition(R, 0, &[]), partition(S, 0, &some)],
            vec![R, S],
        ),
        (
            "empty S partition",
            vec![partition(R, 0, &some), partition(S, 0, &[])],
            vec![R, S],
        ),
        (
            "no R partition",
            vec![partition(S, 0, &some), partition(S, 10, &some)],
            vec![S, S],
        ),
        (
            "no S partition",
            vec![partition(R, 0, &some), partition(R, 10, &some)],
            vec![R, R],
        ),
    ] {
        assert_linkage_matches_naive(&resolver, prefix2(), &input, &sources, what);
        let outcome = resolver
            .resolve(
                &Scenario::Linkage {
                    strategy: StrategyKind::PairRange,
                    sources: sources.clone(),
                },
                input,
            )
            .unwrap();
        assert_eq!(outcome.total_comparisons(), 0, "{what}");
        assert!(outcome.result.is_empty(), "{what}");
    }
}

#[test]
fn a_single_entity_per_side() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
    for r in [1usize, 2, 5] {
        let resolver = session(&runtime, r);
        // Same block (one pair, a match), then different blocks.
        for (what, s_title) in [("shared block", "aaab"), ("disjoint blocks", "zzab")] {
            let input = vec![partition(R, 0, &["aaaa"]), partition(S, 0, &[s_title])];
            assert_linkage_matches_naive(&resolver, prefix2(), &input, &[R, S], what);
        }
    }
}

/// Twelve R and nine S titles, every one in block `aa`.
fn one_block() -> (Vec<String>, Vec<String>) {
    let r = (0..12).map(|i| format!("aa{:04b}", i)).collect();
    let s = (0..9).map(|i| format!("aa{:04b}", 15 - i)).collect();
    (r, s)
}

fn titled(source: SourceId, first_id: u64, titles: &[String]) -> Vec<((), Ent)> {
    let titles: Vec<&str> = titles.iter().map(String::as_str).collect();
    partition(source, first_id, &titles)
}

#[test]
fn every_entity_in_one_block() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let (r_titles, s_titles) = one_block();
    let input = vec![
        titled(R, 0, &r_titles[..5]),
        titled(R, 5, &r_titles[5..]),
        titled(S, 0, &s_titles[..2]),
        titled(S, 2, &s_titles[2..]),
    ];
    for r in [1usize, 4, 7] {
        assert_linkage_matches_naive(
            &session(&runtime, r),
            prefix2(),
            &input,
            &[R, R, S, S],
            &format!("one block, r={r}"),
        );
    }
}

#[test]
fn more_reduce_tasks_than_cross_pairs() {
    // Blocks aa (2 × 1), ab (1 × 2), zz (1 × 0): four cross pairs for
    // nine and for forty reduce tasks.
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let input = vec![
        partition(R, 0, &["aaaa", "aaab", "abab", "zzzz"]),
        partition(S, 0, &["aaaa", "abab", "abaa"]),
    ];
    for r in [9usize, 40] {
        let resolver = session(&runtime, r);
        assert_linkage_matches_naive(&resolver, prefix2(), &input, &[R, S], &format!("r={r}"));
    }
}

#[test]
fn interleaved_source_partitions() {
    // S, R, S, R — the R partitions are neither first nor adjacent.
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let (r_titles, s_titles) = one_block();
    let mut input = vec![
        titled(S, 0, &s_titles[..4]),
        titled(R, 0, &r_titles[..7]),
        titled(S, 4, &s_titles[4..]),
        titled(R, 7, &r_titles[7..]),
    ];
    // A few entities of other blocks so unsplit and split blocks mix.
    input[0].extend(partition(S, 100, &["abab", "zzaa"]));
    input[1].extend(partition(R, 100, &["abaa", "abbb"]));
    input[3].extend(partition(R, 200, &["zzab"]));
    for r in [1usize, 3, 6, 30] {
        assert_linkage_matches_naive(
            &session(&runtime, r),
            prefix2(),
            &input,
            &[S, R, S, R],
            &format!("interleaved, r={r}"),
        );
    }
}

#[test]
fn multi_key_blocking_compares_each_cross_pair_once() {
    // Two passes: title prefix and brand. Pairs sharing both keys must
    // be compared in their smallest common block only.
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let blocking: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
        Arc::new(PrefixBlocking::new("title", 2)),
        Arc::new(AttributeBlocking::new("brand")),
    ]));
    let brands = ["acme", "bolt", "acme", ""];
    let side = |source: SourceId, first_id: u64, titles: &[&str]| -> Vec<((), Ent)> {
        titles
            .iter()
            .zip(first_id..)
            .map(|(title, id)| {
                let brand = brands[id as usize % brands.len()];
                ((), entity(source, id, title, brand))
            })
            .collect()
    };
    let input = vec![
        side(R, 0, &["aaaa", "aaab", "abab", "zzab", "aabb"]),
        side(S, 0, &["aaaa", "abaa", "zzbb"]),
        side(S, 3, &["aaba", "abab", "aabb", "zzab"]),
    ];
    for r in [1usize, 3, 8] {
        assert_linkage_matches_naive(
            &session(&runtime, r),
            Arc::clone(&blocking),
            &input,
            &[R, S, S],
            &format!("multi-key, r={r}"),
        );
    }
}

#[test]
fn parallelism_and_spill_threshold_leave_the_linkage_untouched() {
    let (r_titles, s_titles) = one_block();
    let mut input = vec![
        titled(R, 0, &r_titles[..6]),
        titled(S, 0, &s_titles[..5]),
        titled(R, 6, &r_titles[6..]),
        titled(S, 5, &s_titles[5..]),
    ];
    input[0].extend(partition(R, 100, &["abab", "abaa", "zzaa"]));
    input[3].extend(partition(S, 100, &["abab", "zzab", "zzaa"]));
    for parallelism in [1usize, 2, 8] {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        for spill in [None, Some(1)] {
            assert_linkage_matches_naive(
                &session(&runtime, 4).with_spill_threshold(spill),
                prefix2(),
                &input,
                &[R, S, R, S],
                &format!("parallelism {parallelism}, spill {spill:?}"),
            );
        }
    }
}
