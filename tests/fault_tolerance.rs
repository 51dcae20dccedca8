//! Acceptance suite for the fault-tolerance layer:
//!
//! * **fault matrix** — fail-once and fail-twice schedules injected at
//!   every task kind (map, sort, reduce), for each of three scenario
//!   families (BlockSplit dedup, RepSN, two-source BlockSplit
//!   linkage), at parallelism {1, 2, 4, 8}: the run completes `Ok`,
//!   the match output is byte-identical (pairs *and* score bits) to a
//!   fault-free reference, and the workflow gauges count every
//!   injected event exactly once;
//! * **fail-always** — an exhausted retry budget surfaces as the typed
//!   [`ResolveError`] carrying job, stage, task and attempt identity —
//!   never a panic;
//! * **graceful degradation** — the same `Runtime` that just failed a
//!   resolve immediately completes a fault-free resolve with identical
//!   output and `threads_spawned()` unchanged.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use mr_engine::trace::{TraceRecorder, TraceSink};
use mr_engine::MrError;

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// Task kinds a fault can strike at; every scenario family is probed
/// at all three.
const KINDS: [FaultKind; 3] = [FaultKind::Map, FaultKind::Sort, FaultKind::Reduce];

/// A DS1-shaped corpus small enough for the full matrix (kinds ×
/// schedules × parallelism levels × scenario families).
fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(77).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

/// Two-source input: the corpus split into an R and an S catalog.
fn two_source_corpus() -> (Partitions<(), Ent>, Vec<SourceId>) {
    let ds = generate_products(&ds1_spec(78).scaled(0.003));
    let mut r = Vec::new();
    let mut s = Vec::new();
    for (i, e) in ds.entities.into_iter().enumerate() {
        if i % 2 == 0 {
            r.push(Arc::new(e) as Ent);
        } else {
            s.push(Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent);
        }
    }
    two_source_input(r, s, 2)
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

/// The three scenario families of the matrix, with their inputs and
/// the number of workflow stages a wildcard task-0 injection strikes.
fn families() -> Vec<(&'static str, Scenario, Partitions<(), Ent>, u64)> {
    let (linkage_input, sources) = two_source_corpus();
    vec![
        (
            "BlockSplit dedup",
            Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            corpus(4),
            2, // bdm + er-block-split
        ),
        (
            "RepSN",
            Scenario::sorted_neighborhood(SnStrategy::RepSn),
            corpus(4),
            1, // sn-repsn
        ),
        (
            "two-source linkage",
            Scenario::Linkage {
                strategy: StrategyKind::BlockSplit,
                sources,
            },
            linkage_input,
            2, // bdm + er-block-split
        ),
    ]
}

fn resolver(runtime: &Runtime) -> Resolver<'_> {
    Resolver::new(runtime).with_window(3)
}

/// Fail-once at every kind: wildcard task-0 injection on attempt 1
/// strikes each stage once; with a 2-attempt budget the run completes
/// with byte-identical output and the gauges count each injected panic
/// exactly once, at every parallelism.
#[test]
fn fail_once_matrix_is_byte_identical_and_counted_exactly() {
    for (name, scenario, input, stages) in families() {
        let reference_rt = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let reference = resolver(&reference_rt)
            .resolve(&scenario, input.clone())
            .unwrap();
        for kind in KINDS {
            for parallelism in PARALLELISM_LEVELS {
                let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
                let outcome = resolver(&runtime)
                    .with_fault_policy(FaultPolicy::retry(2))
                    .with_fault_plan(FaultPlan::new().silence_injected_panics().panic_at(
                        FaultPlan::ANY_JOB,
                        kind,
                        0,
                        1,
                        "injected once",
                    ))
                    .resolve(&scenario, input.clone())
                    .unwrap_or_else(|e| {
                        panic!("{name}, {kind} fault, x{parallelism}: resolve failed: {e}")
                    });
                assert_eq!(
                    result_bits(&outcome.result),
                    result_bits(&reference.result),
                    "{name}, {kind} fault, x{parallelism}: output drifted"
                );
                assert_eq!(
                    outcome.workflow.task_failures(),
                    stages,
                    "{name}, {kind} fault, x{parallelism}: one failure per stage"
                );
                assert_eq!(
                    outcome.workflow.tasks_retried(),
                    stages,
                    "{name}, {kind} fault, x{parallelism}: every failure retried"
                );
            }
        }
    }
}

/// The BDM job's mapper buffers its partition's key column and ranks it in
/// `finish`, so a re-executed attempt must start from an empty buffer:
/// each attempt runs a fresh clone of the job's prototype mapper. A
/// map fault strikes before the attempt's body, a sort fault after the
/// mapper has buffered, ranked and side-written the partition — after
/// either, ranks, matrix and match result are byte-identical.
#[test]
fn bdm_map_fault_leaves_ranks_and_result_byte_identical() {
    use er_loadbalance::bdm_job::compute_bdm_in;
    let input = corpus(4);
    let analyse = |plan: FaultPlan| {
        let mut workflow = Workflow::on_pool("analysis", Arc::new(WorkerPool::new(2)))
            .with_fault_policy(FaultPolicy::retry(2))
            .with_fault_plan(plan);
        let blocking = Arc::new(PrefixBlocking::title3());
        let (bdm, side, _) = compute_bdm_in(&mut workflow, input.clone(), blocking, 3, true)
            .expect("the retry absorbs the fault");
        let ranks: Vec<Vec<(Vec<u32>, u64)>> = side
            .iter()
            .map(|partition| {
                partition
                    .iter()
                    .map(|(ranks, entity)| (ranks.to_vec(), entity.id().0))
                    .collect()
            })
            .collect();
        (bdm, ranks, workflow.finish().task_failures())
    };
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let reference = resolver(&runtime)
        .resolve(&scenario, input.clone())
        .unwrap();
    let (bdm, ranks, failures) = analyse(FaultPlan::new());
    assert_eq!(failures, 0);
    assert!(ranks.iter().all(|partition| !partition.is_empty()));
    for kind in [FaultKind::Map, FaultKind::Sort] {
        for task in 0..input.len() {
            let plan = FaultPlan::new().silence_injected_panics().panic_at(
                "bdm",
                kind,
                task,
                1,
                "injected once",
            );
            let (faulted_bdm, faulted_ranks, failures) = analyse(plan.clone());
            assert_eq!(failures, 1, "{kind} fault at bdm task {task}");
            assert_eq!(faulted_bdm, bdm, "{kind} fault at bdm task {task}");
            assert_eq!(faulted_ranks, ranks, "{kind} fault at bdm task {task}");
            let outcome = resolver(&runtime)
                .with_fault_policy(FaultPolicy::retry(2))
                .with_fault_plan(plan)
                .resolve(&scenario, input.clone())
                .unwrap();
            assert_eq!(outcome.workflow.task_failures(), 1);
            assert_eq!(
                result_bits(&outcome.result),
                result_bits(&reference.result),
                "{kind} fault at bdm task {task}: output drifted"
            );
        }
    }
}

/// A match-stage map task fails once after it has mapped its partition
/// and built its prepared-entity arena, under a spill threshold that
/// seals many runs: the retried attempt's arena replaces the failed
/// one's, so the output is byte-identical to the unfaulted run and
/// each routed entity is still prepared once.
#[test]
fn match_stage_map_fault_while_spilling_is_byte_identical() {
    use er_loadbalance::compare::PREPARED_ENTITIES;
    let input = corpus(4);
    let scenarios = [
        (
            "er-block-split",
            Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
        ),
        (
            "er-pair-range",
            Scenario::Dedup {
                strategy: StrategyKind::PairRange,
            },
        ),
        ("sn-repsn", Scenario::sorted_neighborhood(SnStrategy::RepSn)),
    ];
    for (job, scenario) in scenarios {
        let reference_rt = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let reference = resolver(&reference_rt)
            .resolve(&scenario, input.clone())
            .unwrap();
        for parallelism in PARALLELISM_LEVELS {
            let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
            let outcome = resolver(&runtime)
                .with_spill_threshold(Some(4))
                .with_fault_policy(FaultPolicy::retry(2))
                .with_fault_plan(FaultPlan::new().silence_injected_panics().panic_at(
                    job,
                    FaultKind::Sort,
                    1,
                    1,
                    "injected once",
                ))
                .resolve(&scenario, input.clone())
                .unwrap_or_else(|e| panic!("{job} x{parallelism}: resolve failed: {e}"));
            assert_eq!(
                result_bits(&outcome.result),
                result_bits(&reference.result),
                "{job} x{parallelism}: output drifted"
            );
            assert_eq!(outcome.workflow.task_failures(), 1, "{job} x{parallelism}");
            assert!(outcome.workflow.spilled_runs() > 0, "{job} x{parallelism}");
            assert_eq!(
                outcome.workflow.counters.get(PREPARED_ENTITIES),
                reference.workflow.counters.get(PREPARED_ENTITIES),
                "{job} x{parallelism}: the failed attempt's arena was kept"
            );
        }
    }
}

/// Fail-twice: attempts 1 and 2 both panic; a 3-attempt budget
/// recovers with exact double-counted gauges and identical output.
#[test]
fn fail_twice_recovers_under_a_three_attempt_budget() {
    for (name, scenario, input, stages) in families() {
        let reference_rt = Runtime::new(RuntimeConfig::new().with_parallelism(1));
        let reference = resolver(&reference_rt)
            .resolve(&scenario, input.clone())
            .unwrap();
        for kind in KINDS {
            let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(4));
            let outcome = resolver(&runtime)
                .with_fault_policy(FaultPolicy::retry(3))
                .with_fault_plan(
                    FaultPlan::new()
                        .silence_injected_panics()
                        .panic_at(FaultPlan::ANY_JOB, kind, 0, 1, "first")
                        .panic_at(FaultPlan::ANY_JOB, kind, 0, 2, "second"),
                )
                .resolve(&scenario, input.clone())
                .unwrap_or_else(|e| panic!("{name}, {kind} fail-twice: resolve failed: {e}"));
            assert_eq!(
                result_bits(&outcome.result),
                result_bits(&reference.result),
                "{name}, {kind} fail-twice: output drifted"
            );
            assert_eq!(
                outcome.workflow.task_failures(),
                2 * stages,
                "{name} {kind}"
            );
            assert_eq!(
                outcome.workflow.tasks_retried(),
                2 * stages,
                "{name} {kind}"
            );
        }
    }
}

/// Fail-always: the retry budget exhausts and the run returns the
/// typed error — with the full task identity in its display — instead
/// of panicking. The failing first stage also stops the scenario: no
/// later job starts, and no stage finishes.
#[test]
fn exhausted_retries_surface_job_stage_and_task_identity() {
    for (name, scenario, input, _) in families() {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        let recorder = Arc::new(TraceRecorder::new());
        let err = resolver(&runtime)
            .with_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
            .with_fault_policy(FaultPolicy::retry(3))
            .with_fault_plan(FaultPlan::new().silence_injected_panics().panic_always(
                FaultPlan::ANY_JOB,
                FaultKind::Map,
                0,
                "terminal fault",
            ))
            .resolve(&scenario, input)
            .unwrap_err();
        let ResolveError::Mr(MrError::TaskFailed(task_error)) = &err else {
            panic!("{name}: expected TaskFailed, got {err:?}");
        };
        assert_eq!(task_error.kind, FaultKind::Map, "{name}");
        assert_eq!(task_error.task, 0, "{name}");
        assert_eq!(task_error.attempts, 3, "{name}: full budget spent");
        assert_eq!(recorder.count("job_started"), 1, "{name}: later stages ran");
        assert_eq!(recorder.count("stage_finished"), 0, "{name}");
        let stage = task_error.stage.as_deref().unwrap_or_default();
        assert!(
            stage.starts_with(&scenario.workflow_name()),
            "{name}: stage `{stage}` must name the workflow"
        );
        // The one-line display carries workflow, stage, task identity
        // and the failure payload — satellite requirement.
        let display = err.to_string();
        for needle in [
            task_error.job.as_str(),
            stage,
            "map task 0",
            "3 attempt",
            "terminal fault",
        ] {
            assert!(
                display.contains(needle),
                "{name}: display `{display}` must mention `{needle}`"
            );
        }
    }
}

/// Graceful degradation: a runtime whose resolve just failed is fully
/// usable — the next, fault-free resolve on the *same* runtime
/// completes with byte-identical output and no thread churn.
#[test]
fn runtime_survives_failure_and_completes_the_next_resolve() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(4));
    let session = resolver(&runtime);
    for (name, scenario, input, _) in families() {
        let reference = session.resolve(&scenario, input.clone()).unwrap();
        for kind in KINDS {
            let err = session
                .clone()
                .with_fault_policy(FaultPolicy::retry(2))
                .with_fault_plan(FaultPlan::new().silence_injected_panics().panic_always(
                    FaultPlan::ANY_JOB,
                    kind,
                    0,
                    "unrecoverable",
                ))
                .resolve(&scenario, input.clone())
                .unwrap_err();
            assert!(
                matches!(err, ResolveError::Mr(MrError::TaskFailed(_))),
                "{name} {kind}: typed error expected, got {err:?}"
            );
            // The very same runtime, immediately afterwards:
            let again = session.resolve(&scenario, input.clone()).unwrap();
            assert_eq!(
                result_bits(&again.result),
                result_bits(&reference.result),
                "{name} {kind}: post-failure resolve drifted"
            );
        }
    }
    assert_eq!(
        runtime.pool().threads_spawned(),
        4,
        "failed resolves must never spawn replacement threads"
    );
}
