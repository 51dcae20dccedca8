//! The er-sn acceptance suite: JobSN and RepSN must produce pair sets
//! exactly equal to the single-machine sliding-window oracle —
//! including cross-boundary pairs, with no replica × replica
//! duplicates — on er-datagen corpora, byte-identical across
//! parallelism ∈ {1, 2, 4, 8}, identical across partition counts and
//! across the two strategies.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use er_sn::{oracle_comparisons, NULL_SORT_KEYS, PARTITION_ENTITIES};

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// A DS1-shaped product corpus at laptop scale, pre-partitioned into
/// `m` map inputs.
fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(2012).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

fn runtime(parallelism: usize) -> Runtime {
    Runtime::new(RuntimeConfig::new().with_parallelism(parallelism))
}

/// The suite's base session: window 5 over 4 key ranges.
fn base_session(runtime: &Runtime) -> Resolver<'_> {
    Resolver::new(runtime).with_window(5).with_reduce_tasks(4)
}

fn run_sn(
    resolver: &Resolver<'_>,
    strategy: SnStrategy,
    input: &Partitions<(), Ent>,
) -> Result<Outcome, ResolveError> {
    resolver.resolve(&Scenario::sorted_neighborhood(strategy), input.clone())
}

fn corpus_entities(input: &Partitions<(), Ent>) -> usize {
    input.iter().map(Vec::len).sum()
}

#[test]
fn both_strategies_equal_the_oracle_on_a_product_corpus() {
    let input = corpus(3);
    let n = corpus_entities(&input);
    let runtime = runtime(1);
    let resolver = base_session(&runtime);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let config = resolver.sn_config(strategy);
        let oracle = sn_oracle(&input, &config);
        let outcome = run_sn(&resolver, strategy, &input).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "{strategy} diverged from the sliding-window oracle"
        );
        assert!(
            !outcome.result.is_empty(),
            "the corpus contains injected near-duplicates"
        );
        // Exactly one comparison per window pair: cross-boundary pairs
        // are covered and nothing (replica x replica, double stitch)
        // is compared twice.
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(n, config.window),
            "{strategy} comparison count"
        );
    }
}

#[test]
fn output_is_byte_identical_across_parallelism() {
    let input = corpus(4);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let mut reference: Option<Vec<(er_core::MatchPair, u64)>> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = runtime(parallelism);
            let outcome = run_sn(&base_session(&runtime), strategy, &input).unwrap();
            // Compare scores bit-for-bit, not approximately.
            let bits: Vec<(er_core::MatchPair, u64)> = outcome
                .result
                .iter()
                .map(|(pair, score)| (pair, score.to_bits()))
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(
                    r, &bits,
                    "{strategy} changed its output at parallelism {parallelism}"
                ),
            }
        }
    }
}

#[test]
fn pair_set_is_invariant_under_the_partition_count() {
    let input = corpus(3);
    let n = corpus_entities(&input);
    let runtime = runtime(1);
    let base = base_session(&runtime);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let oracle = sn_oracle(&input, &base.sn_config(strategy));
        for partitions in [1usize, 2, 4, 8] {
            let resolver = base.clone().with_reduce_tasks(partitions);
            let outcome = run_sn(&resolver, strategy, &input).unwrap();
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{strategy} with {partitions} partitions"
            );
            assert_eq!(outcome.total_comparisons(), oracle_comparisons(n, 5));
        }
    }
}

#[test]
fn cross_boundary_duplicates_are_found() {
    // Two near-duplicate titles that straddle a range boundary by
    // construction: keys "mmm a" and "mmm b" sort adjacently; with two
    // ranges and a 50/50 sample split they land in different ranges.
    let titles = [
        "aaa product one",
        "bbb product two",
        "ccc product three",
        "mmm same item x",
        "mmm same item y", // the cross-boundary pair
        "qqq product four",
        "rrr product five",
        "zzz product six",
    ];
    let input: Partitions<(), Ent> = vec![titles
        .iter()
        .enumerate()
        .map(|(i, t)| ((), Arc::new(Entity::new(i as u64, [("title", *t)]))))
        .collect()];
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(2).with_reduce_tasks(2);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let config = resolver.sn_config(strategy);
        let outcome = run_sn(&resolver, strategy, &input).unwrap();
        // The boundary falls between the two "mmm" entities (4 keys on
        // each side), so this match only exists if boundary handling
        // works.
        let sizes = outcome
            .details
            .match_metrics()
            .expect("one matching job")
            .per_reduce_counter(PARTITION_ENTITIES);
        assert_eq!(sizes, vec![4, 4], "{strategy}: boundary placement");
        let pair = er_core::MatchPair::new(
            Entity::new(3, [("t", "")]).entity_ref(),
            Entity::new(4, [("t", "")]).entity_ref(),
        );
        assert!(
            outcome.result.contains(&pair),
            "{strategy} missed the cross-boundary duplicate"
        );
        assert_eq!(
            outcome.result.pair_set(),
            sn_oracle(&input, &config).pair_set()
        );
    }
}

#[test]
fn null_sort_keys_are_routed_not_dropped() {
    // Entities 10 and 11 have no title: they collate at the front
    // under the empty key and match each other through the window.
    let mut records: Vec<((), Ent)> = ["aab thing", "aac thing", "prq other"]
        .iter()
        .enumerate()
        .map(|(i, t)| ((), Arc::new(Entity::new(i as u64, [("title", *t)])) as Ent))
        .collect();
    records.push(((), Arc::new(Entity::new(10, [("brand", "same brand")]))));
    records.push(((), Arc::new(Entity::new(11, [("brand", "same brand")]))));
    let input = vec![records];
    // Match on brand too, so the keyless pair can actually score.
    let matcher = Arc::new(Matcher::new(
        vec![
            MatchRule::new(
                "title",
                Arc::new(er_core::similarity::NormalizedLevenshtein),
            ),
            MatchRule::new(
                "brand",
                Arc::new(er_core::similarity::NormalizedLevenshtein),
            ),
        ],
        0.45,
    ));
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime)
        .with_window(2)
        .with_reduce_tasks(2)
        .with_matcher(matcher);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let config = resolver.sn_config(strategy);
        let outcome = run_sn(&resolver, strategy, &input).unwrap();
        let ScenarioDetails::Sorted { sample_metrics, .. } = &outcome.details else {
            panic!("a single-pass SN outcome carries sorted details");
        };
        assert_eq!(
            sample_metrics.counters.get(NULL_SORT_KEYS),
            2,
            "{strategy}: keyless entities counted"
        );
        let keyless_pair = er_core::MatchPair::new(
            Entity::new(10, [("t", "")]).entity_ref(),
            Entity::new(11, [("t", "")]).entity_ref(),
        );
        assert!(
            outcome.result.contains(&keyless_pair),
            "{strategy}: keyless duplicates must meet in the window"
        );
        assert_eq!(
            outcome.result.pair_set(),
            sn_oracle(&input, &config).pair_set()
        );
    }
}

#[test]
fn both_strategies_cover_thin_and_empty_ranges() {
    // All-duplicate sort keys: every entity shares one key, so with 4
    // requested ranges three are empty (trailing). 4 distinct keys
    // over 4 ranges give 1-entity ranges, below w - 1 = 2, so window
    // pairs span two boundaries. Both strategies stay exact on both.
    let same: Partitions<(), Ent> = vec![(0..6u64)
        .map(|i| {
            (
                (),
                Arc::new(Entity::new(i, [("title", "same title")])) as Ent,
            )
        })
        .collect()];
    let spread: Partitions<(), Ent> = vec![["aa", "bb", "cc", "dd"]
        .iter()
        .enumerate()
        .map(|(i, t)| ((), Arc::new(Entity::new(i as u64, [("title", *t)])) as Ent))
        .collect()];
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(3).with_reduce_tasks(4);
    for input in [&same, &spread] {
        let n = corpus_entities(input);
        for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
            let outcome = run_sn(&resolver, strategy, input).unwrap();
            assert_eq!(
                outcome.result.pair_set(),
                sn_oracle(input, &resolver.sn_config(strategy)).pair_set(),
                "{strategy} over {n} entities"
            );
            assert_eq!(
                outcome.total_comparisons(),
                oracle_comparisons(n, 3),
                "{strategy} over {n} entities"
            );
        }
    }
}

#[test]
fn a_window_past_usize_max_half_covers_every_pair() {
    // `2 · (w − 1)` overflows here; the window must still simply span
    // the whole input.
    let input: Partitions<(), Ent> = vec![(0..10u64)
        .map(|i| {
            let title = format!("canon eos 5d mark {i}");
            (
                (),
                Arc::new(Entity::new(i, [("title", title.as_str())])) as Ent,
            )
        })
        .collect()];
    let runtime = runtime(1);
    let wide = Resolver::new(&runtime).with_window(usize::MAX);
    for (ranges, strategy) in [
        (1, SnStrategy::JobSn),
        (1, SnStrategy::RepSn),
        (3, SnStrategy::JobSn),
        (3, SnStrategy::RepSn),
    ] {
        let resolver = wide.clone().with_reduce_tasks(ranges);
        let outcome = run_sn(&resolver, strategy, &input).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            sn_oracle(&input, &resolver.sn_config(strategy)).pair_set(),
            "{strategy} over {ranges} ranges"
        );
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(10, usize::MAX),
            "{strategy} over {ranges} ranges"
        );
    }
}

#[test]
fn window_job_streams_ranges_instead_of_materializing_them() {
    // Grouping == sorting for the window jobs: the reduce side
    // buffers one key run + the w-1 ring, never the whole range. The
    // engine's resident gauges must stay far below task input.
    let input = corpus(4);
    let runtime = runtime(1);
    let resolver = base_session(&runtime);
    for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
        let outcome = run_sn(&resolver, strategy, &input).unwrap();
        let m = outcome.details.match_metrics().expect("one matching job");
        assert!(
            m.peak_resident_fraction() < 0.5,
            "{strategy}: resident/input = {:.3} — the range is being materialized",
            m.peak_resident_fraction()
        );
    }
}

#[test]
fn window_growth_only_adds_pairs() {
    let input = corpus(2);
    let runtime = runtime(1);
    let mut previous: Option<std::collections::BTreeSet<er_core::MatchPair>> = None;
    for window in [2usize, 4, 8] {
        let resolver = base_session(&runtime).with_window(window);
        let outcome = run_sn(&resolver, SnStrategy::JobSn, &input).unwrap();
        let pairs = outcome.result.pair_set();
        if let Some(prev) = &previous {
            assert!(
                prev.is_subset(&pairs),
                "window {window} lost pairs a smaller window found"
            );
        }
        previous = Some(pairs);
    }
}

/// The skew probe of ROADMAP direction 9, pinned as a baseline: the
/// DS1 corpus at 2 % over 8 map tasks, with a share of the entities
/// given one identical title that sorts first, in the middle (among
/// the titles that start with `c`, so its heavy task is neither the
/// first nor the last) or last, under `w = 10` and 8 key ranges. Key
/// ranges are cut at distinct sort keys, so the tie lands on one task
/// and the ranges it spans stay empty. Splitting ranges in rank space
/// (direction 9) is expected to flatten these vectors; until then they
/// are what both strategies do, exactly.
#[test]
fn skew_probe_per_task_comparisons_are_pinned() {
    let ds = generate_products(&ds1_spec(2012).scaled(0.02));
    let n = ds.entities.len();
    assert_eq!(n, 2280);
    let runtime = runtime(2);
    let resolver = Resolver::new(&runtime).with_window(10).with_reduce_tasks(8);
    // (tie share in tenths, tied title, JobSN loads, RepSN loads);
    // JobSN's stitch comparisons are not in its loads.
    let cases: [(usize, &str, [u64; 8], [u64; 8]); 7] = [
        (
            0,
            "",
            [2520; 8],
            [2520, 2565, 2565, 2565, 2565, 2565, 2565, 2565],
        ),
        (
            2,
            "0 tied listing",
            [4059, 981, 2520, 2520, 2520, 2520, 2520, 2520],
            [4059, 1026, 2565, 2565, 2565, 2565, 2565, 2565],
        ),
        (
            2,
            "c tied listing",
            [2520, 2520, 2520, 5427, 0, 2178, 2520, 2520],
            [2520, 2565, 2565, 5472, 0, 2223, 2565, 2565],
        ),
        (
            2,
            "~ tied listing",
            [2520, 2520, 2520, 2520, 2520, 2520, 5085, 0],
            [2520, 2565, 2565, 2565, 2565, 2565, 5130, 0],
        ),
        (
            5,
            "0 tied listing",
            [10215, 0, 0, 0, 2520, 2520, 2520, 2520],
            [10215, 0, 0, 0, 2565, 2565, 2565, 2565],
        ),
        (
            5,
            "c tied listing",
            [2520, 2520, 10845, 0, 0, 0, 1890, 2520],
            [2520, 2565, 10890, 0, 0, 0, 1935, 2565],
        ),
        (
            5,
            "~ tied listing",
            [2520, 2520, 2520, 2520, 10215, 0, 0, 0],
            [2520, 2565, 2565, 2565, 10260, 0, 0, 0],
        ),
    ];
    for (tenths, tie, jobsn_loads, repsn_loads) in cases {
        let entities: Vec<((), Ent)> = ds
            .entities
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let entity = if i % 10 < tenths {
                    let attributes = e
                        .attributes()
                        .map(|(name, value)| (name, if name == "title" { tie } else { value }));
                    Entity::new(e.id().0, attributes)
                } else {
                    e.clone()
                };
                ((), Arc::new(entity) as Ent)
            })
            .collect();
        let input = partition_evenly(entities, 8);
        let oracle = sn_oracle(&input, &resolver.sn_config(SnStrategy::RepSn));
        for (strategy, loads) in [
            (SnStrategy::JobSn, jobsn_loads),
            (SnStrategy::RepSn, repsn_loads),
        ] {
            let outcome = run_sn(&resolver, strategy, &input).unwrap();
            let label = format!("{strategy}, {} % tied as {tie:?}", tenths * 10);
            assert_eq!(outcome.result.pair_set(), oracle.pair_set(), "{label}");
            assert_eq!(
                outcome.total_comparisons(),
                oracle_comparisons(n, 10),
                "{label}"
            );
            assert_eq!(outcome.reduce_loads().unwrap(), loads, "{label}");
        }
    }
}
