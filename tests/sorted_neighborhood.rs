//! The er-sn acceptance suite: RepSN must produce pair sets exactly
//! equal to the single-machine sliding-window oracle — including
//! cross-boundary pairs, with no replica × replica duplicates — on
//! er-datagen corpora, byte-identical across parallelism ∈ {1, 2, 4,
//! 8} and identical across partition counts.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use er_sn::{oracle_comparisons, SnRanges, NULL_SORT_KEYS};

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

fn run_sn(resolver: &Resolver<'_>, input: &Partitions<(), Ent>) -> Result<Outcome, ResolveError> {
    resolver.resolve(
        &Scenario::sorted_neighborhood(SnStrategy::RepSn),
        input.clone(),
    )
}

/// The number of entities in each of the `r` key ranges that cut `n`
/// entities under window `w`.
fn range_sizes(n: usize, w: usize, r: usize) -> Vec<u64> {
    let ranges = SnRanges::new(n as u64, w, r);
    (0..r)
        .map(|q| ranges.range(q).end - ranges.range(q).start)
        .collect()
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
    let config = resolver.sn_config(SnStrategy::RepSn);
    let oracle = sn_oracle(&input, &config);
    let outcome = run_sn(&resolver, &input).unwrap();
    assert_eq!(
        outcome.result.pair_set(),
        oracle.pair_set(),
        "diverged from the sliding-window oracle"
    );
    assert!(
        !outcome.result.is_empty(),
        "the corpus contains injected near-duplicates"
    );
    // Exactly one comparison per window pair: cross-boundary pairs are
    // covered and nothing (replica x replica) is compared twice.
    assert_eq!(
        outcome.total_comparisons(),
        oracle_comparisons(n, config.window)
    );
}

#[test]
fn output_is_byte_identical_across_parallelism() {
    let input = corpus(4);
    let mut reference: Option<Vec<(er_core::MatchPair, u64)>> = None;
    for parallelism in PARALLELISM_LEVELS {
        let runtime = runtime(parallelism);
        let outcome = run_sn(&base_session(&runtime), &input).unwrap();
        // Compare scores bit-for-bit, not approximately.
        let bits: Vec<(er_core::MatchPair, u64)> = outcome
            .result
            .iter()
            .map(|(pair, score)| (pair, score.to_bits()))
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "output changed at parallelism {parallelism}"),
        }
    }
}

#[test]
fn pair_set_is_invariant_under_the_partition_count() {
    let input = corpus(3);
    let n = corpus_entities(&input);
    let runtime = runtime(1);
    let base = base_session(&runtime);
    let oracle = sn_oracle(&input, &base.sn_config(SnStrategy::RepSn));
    for partitions in [1usize, 2, 4, 8] {
        let resolver = base.clone().with_reduce_tasks(partitions);
        let outcome = run_sn(&resolver, &input).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            oracle.pair_set(),
            "{partitions} partitions"
        );
        assert_eq!(outcome.total_comparisons(), oracle_comparisons(n, 5));
    }
}

#[test]
fn cross_boundary_duplicates_are_found() {
    // Two near-duplicate titles that straddle a range boundary by
    // construction: keys "mmm … x" and "mmm … y" sort adjacently, at
    // positions 4 and 5. Under w = 2 the 8 entities hold 7 window
    // pairs, one per position past the first, so two ranges split
    // them 4 | 3 and the second range starts at position 5.
    let titles = [
        "aaa product one",
        "bbb product two",
        "ccc product three",
        "ddd product four",
        "mmm same item x",
        "mmm same item y", // the cross-boundary pair
        "qqq product five",
        "rrr product six",
    ];
    let input: Partitions<(), Ent> = vec![titles
        .iter()
        .enumerate()
        .map(|(i, t)| ((), Arc::new(Entity::new(i as u64, [("title", *t)]))))
        .collect()];
    let runtime = runtime(1);
    let resolver = Resolver::new(&runtime).with_window(2).with_reduce_tasks(2);
    // The boundary falls between the two "mmm" entities, so this match
    // only exists if boundary handling works.
    assert_eq!(range_sizes(8, 2, 2), [5, 3], "boundary placement");
    let outcome = run_sn(&resolver, &input).unwrap();
    let pair = er_core::MatchPair::new(
        Entity::new(4, [("t", "")]).entity_ref(),
        Entity::new(5, [("t", "")]).entity_ref(),
    );
    assert!(
        outcome.result.contains(&pair),
        "missed the cross-boundary duplicate"
    );
    let config = resolver.sn_config(SnStrategy::RepSn);
    assert_eq!(
        outcome.result.pair_set(),
        sn_oracle(&input, &config).pair_set()
    );
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
    let outcome = run_sn(&resolver, &input).unwrap();
    let ScenarioDetails::Sorted { match_metrics, .. } = &outcome.details else {
        panic!("a single-pass SN outcome carries sorted details");
    };
    assert_eq!(
        match_metrics.counters.get(NULL_SORT_KEYS),
        2,
        "keyless entities counted"
    );
    let keyless_pair = er_core::MatchPair::new(
        Entity::new(10, [("t", "")]).entity_ref(),
        Entity::new(11, [("t", "")]).entity_ref(),
    );
    assert!(
        outcome.result.contains(&keyless_pair),
        "keyless duplicates must meet in the window"
    );
    let config = resolver.sn_config(SnStrategy::RepSn);
    assert_eq!(
        outcome.result.pair_set(),
        sn_oracle(&input, &config).pair_set()
    );
}

#[test]
fn both_strategies_cover_thin_and_empty_ranges() {
    // 4 ranges at w = 3 are cut at window-pair quantiles: 6 entities
    // hold 9 pairs, cut into ranges of 3, 1, 1 and 1 entities — thinner
    // than w - 1 = 2, so window pairs span two boundaries, and the tie
    // of one shared title straddles all of them. 4 entities hold only
    // 5 pairs, cut into 3, 0, 1 and 0 entities: two ranges stay empty.
    // RepSN stays exact on both, each later range reading its w - 1
    // replicas.
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
    for (input, sizes, loads) in [
        (&same, [3, 1, 1, 1], [3, 2, 2, 2]),
        (&spread, [3, 0, 1, 0], [3, 0, 2, 0]),
    ] {
        let n = corpus_entities(input);
        assert_eq!(range_sizes(n, 3, 4), sizes, "{n} entities");
        let outcome = run_sn(&resolver, input).unwrap();
        let match_metrics = outcome.details.match_metrics().expect("one matching job");
        assert_eq!(
            match_metrics.counters.get(er_sn::REPLICAS),
            6,
            "{n} entities"
        );
        assert_eq!(outcome.reduce_loads().unwrap(), loads, "{n} entities");
        assert_eq!(
            outcome.result.pair_set(),
            sn_oracle(input, &resolver.sn_config(SnStrategy::RepSn)).pair_set(),
            "{n} entities"
        );
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(n, 3),
            "{n} entities"
        );
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
    for ranges in [1, 3] {
        let resolver = wide.clone().with_reduce_tasks(ranges);
        let outcome = run_sn(&resolver, &input).unwrap();
        assert_eq!(
            outcome.result.pair_set(),
            sn_oracle(&input, &resolver.sn_config(SnStrategy::RepSn)).pair_set(),
            "{ranges} ranges"
        );
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(10, usize::MAX),
            "{ranges} ranges"
        );
    }
}

#[test]
fn window_job_streams_ranges_instead_of_materializing_them() {
    // The window job shuffles no entity: each reduce task reads one
    // trigger record and merges its range lazily out of the map tasks'
    // sorted runs, so the engine never holds a range — its resident
    // gauge is one record per task — and the window keeps w - 1.
    let input = corpus(4);
    let runtime = runtime(1);
    let resolver = base_session(&runtime);
    let outcome = run_sn(&resolver, &input).unwrap();
    let m = outcome.details.match_metrics().expect("one matching job");
    let inputs = m.per_reduce_counter(mr_engine::counters::REDUCE_INPUT_RECORDS);
    assert_eq!(
        inputs,
        vec![1; m.reduce_tasks.len()],
        "one trigger per task"
    );
    assert!(
        m.peak_resident_records() <= 1,
        "{} records resident — the range is being shuffled",
        m.peak_resident_records()
    );
}

#[test]
fn window_growth_only_adds_pairs() {
    let input = corpus(2);
    let runtime = runtime(1);
    let mut previous: Option<std::collections::BTreeSet<er_core::MatchPair>> = None;
    for window in [2usize, 4, 8] {
        let resolver = base_session(&runtime).with_window(window);
        let outcome = run_sn(&resolver, &input).unwrap();
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

/// The skew probe of ROADMAP direction 9: the DS1 corpus at 2 % over
/// 8 map tasks, with a share of the entities (0, 20 or 50 %) given one
/// identical title that sorts first, in the middle (among the titles
/// that start with `c`) or last, under `w = 10` and 8 key ranges. The
/// ranges are cut at window-pair quantiles over positions, from
/// `(n, w, r)` alone, so a tie straddles ranges like any other run of
/// positions: every case loads the tasks alike — each range's window
/// pairs, within `w − 1` of the mean — and max/mean stays ≤ 1.05 where
/// cutting at distinct keys read 4.0× at a 50 % tie.
#[test]
fn skew_probe_per_task_comparisons_are_pinned() {
    let ds = generate_products(&ds1_spec(2012).scaled(0.02));
    let n = ds.entities.len();
    assert_eq!(n, 2280);
    let runtime = runtime(2);
    let resolver = Resolver::new(&runtime).with_window(10).with_reduce_tasks(8);
    let loads = [2565, 2556, 2565, 2556, 2556, 2565, 2556, 2556];
    // (tie share in tenths, tied title)
    let cases: [(usize, &str); 7] = [
        (0, ""),
        (2, "0 tied listing"),
        (2, "c tied listing"),
        (2, "~ tied listing"),
        (5, "0 tied listing"),
        (5, "c tied listing"),
        (5, "~ tied listing"),
    ];
    for (tenths, tie) in cases {
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
        let outcome = run_sn(&resolver, &input).unwrap();
        let label = format!("{} % tied as {tie:?}", tenths * 10);
        assert_eq!(outcome.result.pair_set(), oracle.pair_set(), "{label}");
        assert_eq!(
            outcome.total_comparisons(),
            oracle_comparisons(n, 10),
            "{label}"
        );
        let loads_seen = outcome.reduce_loads().unwrap();
        assert_eq!(loads_seen, loads, "{label}");
        let max = *loads_seen.iter().max().unwrap() as f64;
        let mean = loads_seen.iter().sum::<u64>() as f64 / loads_seen.len() as f64;
        assert!(max / mean <= 1.05, "{label}: max/mean {:.3}", max / mean);
    }
}
