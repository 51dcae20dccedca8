//! Consumer-level contract of the streaming reduce path: every
//! strategy's `reduce_outputs` stays byte-identical to the
//! materialized-merge reference at any parallelism, the new memory
//! gauges are themselves deterministic, and on multi-group workloads
//! they stay strictly below the task-input bound a materialized merge
//! would pin.
#![allow(clippy::type_complexity)]

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_core::Matcher;
use er_datagen::{ds1_spec, generate_products};
use er_loadbalance::basic::basic_job;
use er_loadbalance::compare::PairComparer;
use mr_engine::counters::REDUCE_INPUT_RECORDS;
use mr_engine::merge::merge_sorted_runs;

fn input(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(77).scaled(0.005));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

#[test]
fn streaming_reduce_outputs_are_byte_identical_across_parallelism() {
    // The satellite's core claim: streaming groups out of the heap
    // merge produces the exact per-task output structure at every
    // parallelism level, for all three strategies (PairRange's coarse
    // grouping comparator included). Scores compare by bit pattern.
    let input = input(4);
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let mut reference: Option<Vec<(MatchPair, u64)>> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let runtime = Runtime::new(
                RuntimeConfig::new()
                    .with_parallelism(parallelism)
                    .with_reduce_tasks(8),
            );
            let outcome = Resolver::new(&runtime)
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            let fingerprint: Vec<(MatchPair, u64)> = outcome
                .result
                .iter()
                .map(|(p, s)| (p, s.to_bits()))
                .collect();
            match &reference {
                None => reference = Some(fingerprint),
                Some(r) => assert_eq!(
                    r, &fingerprint,
                    "{strategy} at parallelism {parallelism} changed outputs"
                ),
            }
        }
    }
}

#[test]
fn peak_gauges_are_deterministic_across_parallelism() {
    // The gauges are a property of (input, job definition), not of
    // scheduling: every reduce task must report identical peaks at
    // every parallelism level.
    let input = input(4);
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for parallelism in [1usize, 2, 8] {
            let runtime = Runtime::new(
                RuntimeConfig::new()
                    .with_parallelism(parallelism)
                    .with_reduce_tasks(6),
            );
            let outcome = Resolver::new(&runtime)
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            let gauges: Vec<(u64, u64)> = outcome
                .details
                .match_metrics()
                .expect("one matching job")
                .reduce_tasks
                .iter()
                .map(|t| (t.peak_group_len, t.peak_resident_records))
                .collect();
            match &reference {
                None => reference = Some(gauges),
                Some(r) => assert_eq!(r, &gauges, "{strategy} gauges moved at p={parallelism}"),
            }
        }
    }
}

#[test]
fn peak_resident_stays_below_task_input_on_multi_group_workloads() {
    // DS1 prefix blocking yields many blocks per reduce task, so every
    // task with more than one group must buffer strictly less than its
    // input — the bound the materialized merge sat at.
    let job = basic_job(
        Arc::new(PrefixBlocking::title3()),
        None,
        PairComparer::new(Arc::new(Matcher::paper_default())),
        6,
    );
    let out = job.run_on(&WorkerPool::new(2), input(4)).unwrap();
    let mut multi_group_tasks = 0;
    for t in &out.metrics.reduce_tasks {
        let records_in = t.counter(REDUCE_INPUT_RECORDS);
        if records_in == 0 {
            continue;
        }
        let groups = t.counter("mr.reduce.input.groups");
        assert!(
            t.peak_group_len <= records_in,
            "task {}: group cannot exceed input",
            t.index
        );
        if groups > 1 {
            multi_group_tasks += 1;
            assert!(
                t.peak_resident_records < records_in,
                "task {} has {} groups but buffered {}/{} records",
                t.index,
                groups,
                t.peak_resident_records,
                records_in
            );
        }
    }
    assert!(
        multi_group_tasks >= 4,
        "workload must actually be multi-group (got {multi_group_tasks})"
    );
    assert!(
        out.metrics.peak_resident_fraction() < 0.6,
        "job-level resident fraction {} must beat the 0.6 acceptance bound",
        out.metrics.peak_resident_fraction()
    );
}

#[test]
fn pair_range_coarse_grouping_streams_whole_ranges() {
    // PairRange sorts by (range, block, entity index) but groups by
    // range only — the adversarial case for a streaming group
    // iterator, since one group spans many distinct sort keys fed from
    // all map tasks. The match result must equal the sequential
    // reference, and the largest streamed group must cover multiple
    // entities (i.e. grouping really is coarser than sorting).
    let entities: Vec<Ent> = (0..40)
        .map(|id| {
            Arc::new(Entity::new(
                id as u64,
                [("title", format!("aaa widget {id:03}").as_str())],
            ))
        })
        .collect();
    let flat: Vec<Ent> = entities.clone();
    let input: Partitions<(), Ent> =
        partition_round_robin(entities.into_iter().map(|e| ((), e)).collect(), 3);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime);
    let outcome = resolver
        .resolve(
            &Scenario::Dedup {
                strategy: StrategyKind::PairRange,
            },
            input,
        )
        .unwrap();
    let reference = naive_reference(&flat, &resolver.er_config(StrategyKind::PairRange));
    assert_eq!(outcome.result.pair_set(), reference.pair_set());
    let metrics = outcome.details.match_metrics().expect("one matching job");
    assert!(
        metrics.peak_group_len() > 1,
        "a range group buffers several entities"
    );
    let max_task_input = metrics
        .reduce_tasks
        .iter()
        .map(|t| t.counter(REDUCE_INPUT_RECORDS))
        .max()
        .unwrap();
    assert!(
        metrics.peak_group_len() <= max_task_input,
        "a streamed group never exceeds its task's input"
    );
    assert!(
        metrics.peak_resident_records() >= metrics.peak_group_len(),
        "resident includes the group buffer"
    );
}

#[test]
fn reference_merge_is_available_to_consumers() {
    // The materialized merge stays exported as the equivalence oracle:
    // downstream crates (and this test) can re-derive the merged order
    // the streaming path must reproduce.
    let runs = vec![vec![(1u32, "a"), (3, "b")], vec![(2, "c"), (3, "d")]];
    assert_eq!(
        merge_sorted_runs(runs),
        vec![(1, "a"), (2, "c"), (3, "b"), (3, "d")]
    );
}
