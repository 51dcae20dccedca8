//! The two memory guards, end to end:
//!
//! * **reduce side** — BlockSplit's split-policy cap: blocks larger
//!   than the cap split even when their workload fits the average,
//!   bounding the entities any reduce group must buffer;
//! * **map side** — the shuffle spill threshold: map tasks seal their
//!   in-memory buckets into immutable sorted runs every `t` open
//!   records, so peak map residency is `O(t)` regardless of input
//!   size, with byte-identical output at any threshold.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_loadbalance::block_split::{create_match_tasks_with_policy, SplitPolicy};
use mr_engine::metrics::JobMetrics;

const BLOCK_SPLIT: Scenario = Scenario::Dedup {
    strategy: StrategyKind::BlockSplit,
};

fn one_big_block(n: usize, m: usize) -> Partitions<(), Ent> {
    let entities: Vec<Ent> = (0..n)
        .map(|id| {
            Arc::new(Entity::new(
                id as u64,
                [("title", format!("aaa item {id:05}").as_str())],
            ))
        })
        .collect();
    partition_round_robin(entities.into_iter().map(|e| ((), e)).collect(), m)
}

#[test]
fn capped_run_produces_identical_matches() {
    let input = one_big_block(60, 4);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(1),
    );
    let plain = Resolver::new(&runtime);
    let capped = plain.clone().with_memory_cap(20);
    let a = plain.resolve(&BLOCK_SPLIT, input.clone()).unwrap();
    let b = capped.resolve(&BLOCK_SPLIT, input).unwrap();
    assert_eq!(a.result.pair_set(), b.result.pair_set());
    assert_eq!(a.total_comparisons(), b.total_comparisons());
}

#[test]
fn cap_bounds_reduce_group_buffering() {
    // r = 1: the paper's policy keeps the 60-entity block whole (one
    // reduce group buffers all 60); a 20-entity cap splits it into
    // sub-blocks of ~15 (round-robin over 4 partitions), so no group
    // buffers more than two sub-blocks.
    let n = 60u64;
    let m = 4usize;
    let input = one_big_block(n as usize, m);

    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(1)
            .with_count_only(true),
    );
    let plain = Resolver::new(&runtime)
        .resolve(&BLOCK_SPLIT, one_big_block(n as usize, m))
        .unwrap();
    let max_group_plain = plain
        .details
        .match_metrics()
        .expect("one matching job")
        .reduce_tasks
        .iter()
        .map(|t| t.records_in)
        .max()
        .unwrap();
    assert_eq!(max_group_plain, n, "uncapped: the whole block in one task");

    let capped = Resolver::new(&runtime)
        .with_memory_cap(20)
        .resolve(&BLOCK_SPLIT, input)
        .unwrap();
    // All match tasks share reduce task 0 (r = 1), but each *group*
    // (match task) holds at most two sub-blocks of 15.
    let groups = capped
        .details
        .match_metrics()
        .expect("one matching job")
        .reduce_tasks
        .iter()
        .map(|t| t.counter("mr.reduce.input.groups"))
        .sum::<u64>();
    assert!(groups > 1, "the cap must create multiple match tasks");
    assert_eq!(capped.total_comparisons(), n * (n - 1) / 2);
}

#[test]
fn cap_takes_effect_when_linking_two_sources() {
    // The linkage twin of the two cases above, for blocking and for
    // LSH: with r = 1 the block of 40 R and 20 S entities fits the
    // average and stays whole; a 20-entity cap splits it into R × S
    // partition pairings — same pairs, same 800 comparisons.
    let side = |source: SourceId, n: u64| -> Vec<Ent> {
        (0..n)
            .map(|id| {
                let title = format!("aaa item {:05}", id % 25);
                Arc::new(Entity::with_source(source, id, [("title", title.as_str())]))
            })
            .collect()
    };
    let (input, sources) = two_source_input(side(SourceId::R, 40), side(SourceId::S, 20), 2);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(1),
    );
    let groups = |outcome: &Outcome| -> u64 {
        let match_metrics = outcome.details.match_metrics().expect("one matching job");
        match_metrics.counters.get("mr.reduce.input.groups")
    };
    let params = LshParams { bands: 1, rows: 1 };
    for scenario in [
        Scenario::Linkage {
            strategy: StrategyKind::BlockSplit,
            sources: sources.clone(),
        },
        Scenario::lsh_linkage(Some(params), sources.clone()),
    ] {
        let plain = Resolver::new(&runtime);
        let whole = plain.resolve(&scenario, input.clone()).unwrap();
        let capped = plain
            .with_memory_cap(20)
            .resolve(&scenario, input.clone())
            .unwrap();
        assert!(
            groups(&capped) > groups(&whole),
            "{scenario}: the cap must split a block the paper policy keeps whole \
             ({} vs {} match tasks)",
            groups(&capped),
            groups(&whole)
        );
        assert_eq!(result_bits(&capped.result), result_bits(&whole.result));
        assert!(!whole.result.is_empty(), "{scenario}: equal titles link");
        assert_eq!(capped.total_comparisons(), whole.total_comparisons());
    }
    let blocked = Resolver::new(&runtime)
        .with_memory_cap(20)
        .with_count_only(true)
        .resolve(
            &Scenario::Linkage {
                strategy: StrategyKind::BlockSplit,
                sources,
            },
            input,
        )
        .unwrap();
    assert_eq!(blocked.total_comparisons(), 40 * 20);
    assert_eq!(groups(&blocked), 4, "2 R partitions × 2 S partitions");
}

/// A DS1-shaped corpus of exactly `n` entities with real titles (so
/// full scoring runs).
fn spill_corpus(n: usize, m: usize) -> Partitions<(), Ent> {
    let mut spec = er_datagen::ds1_spec(42).scaled(n as f64 / 114_000.0);
    spec.n_entities = n;
    let ds = er_datagen::generate_products(&spec);
    partition_round_robin(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

#[test]
fn spill_threshold_bounds_map_and_reduce_resident_records() {
    // Acceptance gate of the out-of-core map side: on a corpus at
    // least 4x the spill threshold, the peak resident record gauges
    // (map buckets + reduce merge window) must stay a small fraction
    // of the input, and the output must not change at all.
    let n = 200usize;
    let threshold = 25usize; // n/m = 100 records per map task >= 4x this
    let m = 2usize;
    let input = spill_corpus(n, m);

    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(3),
    );
    let plain = Resolver::new(&runtime);
    let spilling = plain.clone().with_spill_threshold(Some(threshold));
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };

    let reference = plain.resolve(&scenario, input.clone()).unwrap();
    assert_eq!(
        reference.workflow.spilled_runs(),
        0,
        "no threshold, no spills"
    );

    let spilled = spilling.resolve(&scenario, input).unwrap();
    assert!(
        spilled.workflow.spilled_runs() > 0,
        "a 4x-threshold corpus must actually spill"
    );
    // Map side: every map task's resident bucket set stays at the
    // threshold; multi-key blocking may hold the final record's few
    // replicas on top.
    let map_peak = spilled.workflow.map_peak_resident_records();
    assert!(
        map_peak <= threshold as u64 + 4,
        "map peak {map_peak} must be bounded by the spill threshold {threshold}"
    );
    // Whole-run residency (worst map task + worst reduce merge
    // window) stays well under the input size: the run is out-of-core
    // on both sides.
    let reduce_peak: u64 = spilled
        .workflow
        .stages
        .iter()
        .map(JobMetrics::peak_resident_records)
        .max()
        .unwrap_or(0);
    assert!(
        map_peak + reduce_peak < (n as u64) / 2,
        "resident set {map_peak} + {reduce_peak} must stay below half the {n}-record input"
    );
    // And spilling must be invisible in the output.
    assert_eq!(
        result_bits(&spilled.result),
        result_bits(&reference.result),
        "spilling changed the match output"
    );
    // The combiner now runs per sealed run, so *post-combine* record
    // counts may legitimately differ; everything upstream of the
    // combiner and everything semantic must not.
    for counter in [
        "er.comparisons",
        "mr.map.input.records",
        "mr.map.output.records.precombine",
        "mr.map.side.records",
        "mr.reduce.output.records",
    ] {
        assert_eq!(
            spilled.workflow.counters.get(counter),
            reference.workflow.counters.get(counter),
            "spilling changed `{counter}`"
        );
    }
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

#[test]
fn output_is_byte_identical_across_spill_thresholds_and_parallelism() {
    // threshold in {1 (spill every record), default (never), "infinity"
    // (threshold > input, zero seals)} x parallelism {1, 2, 4, 8}: one
    // reference, eleven runs, zero drift.
    let input = spill_corpus(120, 3);
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    let thresholds = [Some(1), None, Some(usize::MAX)];

    let mut reference: Option<Vec<(MatchPair, u64)>> = None;
    for parallelism in [1usize, 2, 4, 8] {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(parallelism)
                .with_reduce_tasks(4),
        );
        for threshold in thresholds {
            let resolver = Resolver::new(&runtime).with_spill_threshold(threshold);
            let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
            if threshold == Some(usize::MAX) {
                assert_eq!(
                    outcome.workflow.spilled_runs(),
                    0,
                    "a threshold beyond the input must never seal a run"
                );
            }
            let bits = result_bits(&outcome.result);
            match &reference {
                None => reference = Some(bits),
                Some(expected) => assert_eq!(
                    &bits, expected,
                    "threshold {threshold:?} x parallelism {parallelism} drifted"
                ),
            }
        }
    }
}

#[test]
fn map_memory_gauges_are_parallelism_invariant() {
    // The gauges measure the plan (records per map task at each
    // instant), not the schedule: timing-independent by construction,
    // pinned here across worker counts.
    let input = spill_corpus(120, 3);
    let scenario = Scenario::sorted_neighborhood(SnStrategy::JobSn);
    let mut reference: Option<(u64, u64)> = None;
    for parallelism in [1usize, 2, 8] {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let resolver = Resolver::new(&runtime)
            .with_window(4)
            .with_reduce_tasks(3)
            .with_spill_threshold(Some(10));
        let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
        let gauges = (
            outcome.workflow.map_peak_resident_records(),
            outcome.workflow.spilled_runs(),
        );
        match reference {
            None => reference = Some(gauges),
            Some(expected) => assert_eq!(
                gauges, expected,
                "p{parallelism}: map gauges must not depend on the schedule"
            ),
        }
    }
}

#[test]
fn cap_splits_below_average_blocks() {
    use er_loadbalance::bdm::BlockDistributionMatrix;
    // Two equal blocks, r = 2: each fits the average exactly, so the
    // paper's policy keeps both whole; a cap of 5 splits both.
    let bdm = BlockDistributionMatrix::from_counts(
        2,
        vec![
            (BlockKey::new("a"), 0, 4),
            (BlockKey::new("a"), 1, 4),
            (BlockKey::new("b"), 0, 4),
            (BlockKey::new("b"), 1, 4),
        ],
    );
    let plain = create_match_tasks_with_policy(&bdm, 2, SplitPolicy::paper());
    assert_eq!(plain.len(), 2, "both blocks whole under the paper policy");
    let capped = create_match_tasks_with_policy(&bdm, 2, SplitPolicy::with_memory_cap(5));
    assert_eq!(capped.len(), 6, "3 tasks per block once capped");
    let total: u64 = capped.iter().map(|t| t.comparisons).sum();
    assert_eq!(total, 2 * 28, "pairs conserved");
}
