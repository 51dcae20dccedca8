//! The map-side memory guard, end to end: the shuffle spill
//! threshold. Map tasks seal their in-memory buckets into immutable
//! sorted runs every `t` open records, so peak map residency is `O(t)`
//! regardless of input size, with byte-identical output at any
//! threshold. The threshold is a setting of the workflow a scenario
//! compiles to, so one value — set on the session or on the runtime —
//! reaches every stage of every family.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use mr_engine::counters::MAP_OUTPUT_RECORDS;
use mr_engine::metrics::JobMetrics;

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
    // A seal only sorts, so every record count — the reduce input
    // included — must match the unspilled run.
    for counter in [
        "er.comparisons",
        "mr.map.input.records",
        "mr.map.output.records",
        "mr.map.side.records",
        "mr.reduce.input.records",
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

/// One scenario per family and stage shape: Basic, BlockSplit and
/// PairRange dedup, BlockSplit linkage, RepSN, JobSN (with a stitch
/// stage), two-pass SN and LSH, with the input each one reads.
fn every_family() -> Vec<(Scenario, Partitions<(), Ent>)> {
    let dedup = spill_corpus(120, 3);
    let (r, s): (Vec<Ent>, Vec<Ent>) = dedup
        .iter()
        .flatten()
        .map(|((), e)| Arc::clone(e))
        .partition(|e| e.id().0.is_multiple_of(2));
    let s = s
        .into_iter()
        .map(|e| Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent)
        .collect();
    let (linkage, sources) = two_source_input(r, s, 2);
    let passes: Vec<Arc<dyn SortKeyFunction>> = vec![
        Arc::new(AttributeSortKey::title()),
        Arc::new(ReversedSortKey::title()),
    ];
    let mut family: Vec<(Scenario, Partitions<(), Ent>)> = [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ]
    .into_iter()
    .map(|strategy| (Scenario::Dedup { strategy }, dedup.clone()))
    .collect();
    family.extend([
        (
            Scenario::Linkage {
                strategy: StrategyKind::BlockSplit,
                sources,
            },
            linkage,
        ),
        (
            Scenario::sorted_neighborhood(SnStrategy::RepSn),
            dedup.clone(),
        ),
        (
            Scenario::sorted_neighborhood(SnStrategy::JobSn),
            dedup.clone(),
        ),
        (
            Scenario::multipass_sn(SnStrategy::RepSn, passes),
            dedup.clone(),
        ),
        (Scenario::lsh(LshParams::new(4, 4)), dedup),
    ]);
    family
}

#[test]
fn a_spill_threshold_set_once_reaches_every_stage_of_every_family() {
    let config = RuntimeConfig::new()
        .with_parallelism(2)
        .with_reduce_tasks(3);
    let plain_runtime = Runtime::new(config);
    let spilling_runtime = Runtime::new(config.with_spill_threshold(Some(1)));
    let plain = Resolver::new(&plain_runtime).with_window(4);
    let on_the_session = plain.clone().with_spill_threshold(Some(1));
    let on_the_runtime = Resolver::new(&spilling_runtime).with_window(4);
    for (scenario, input) in every_family() {
        let reference = plain.resolve(&scenario, input.clone()).unwrap();
        assert_eq!(reference.workflow.spilled_runs(), 0, "{scenario}");
        if scenario.workflow_name() == "sn-JobSN" {
            let stages: Vec<&str> = reference
                .workflow
                .stages
                .iter()
                .map(|stage| stage.job_name.as_str())
                .collect();
            assert!(
                stages.contains(&"sn-jobsn-stitch"),
                "the corpus must give JobSN boundary candidates: {stages:?}"
            );
        }
        for (set_on, resolver) in [("session", &on_the_session), ("runtime", &on_the_runtime)] {
            let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
            assert_eq!(
                outcome.workflow.num_stages(),
                reference.workflow.num_stages(),
                "{scenario} ({set_on})"
            );
            for stage in &outcome.workflow.stages {
                if stage.counters.get(MAP_OUTPUT_RECORDS) > 0 {
                    assert!(
                        stage.spilled_runs() > 0,
                        "{scenario} ({set_on}): stage {} emitted but never spilled",
                        stage.job_name
                    );
                }
            }
            assert_eq!(
                result_bits(&outcome.result),
                result_bits(&reference.result),
                "{scenario} ({set_on}): spilling changed the match output"
            );
            assert_eq!(
                outcome.total_comparisons(),
                reference.total_comparisons(),
                "{scenario} ({set_on})"
            );
        }
    }
}
