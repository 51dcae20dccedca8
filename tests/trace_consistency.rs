//! Trace/metrics consistency suite for the observability layer:
//!
//! * **gauge agreement** — for every fault schedule of the
//!   fault-tolerance matrix (fail-once and fail-twice at every task
//!   kind, three scenario families, parallelism {1, 2, 4, 8}), the
//!   per-category event counts recorded by an attached
//!   [`TraceRecorder`] equal the workflow gauges *exactly*:
//!   `attempt_failed == task_failures()`, `attempt_retried ==
//!   tasks_retried()` and `spill_run_sealed == spilled_runs()`;
//! * **parallelism invariance** — the sorted logical event stream
//!   (timestamps, walls and worker slots stripped) is byte-identical
//!   across parallelism {1, 2, 4, 8} for any deterministic plan,
//!   faulted or clean;
//! * **spill attribution** — under a small spill threshold every
//!   sealed run is traced, and the count matches `spilled_runs()`.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use mr_engine::trace::{TraceRecorder, TraceSink};

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

const KINDS: [FaultKind; 3] = [FaultKind::Map, FaultKind::Sort, FaultKind::Reduce];

/// Same DS1-shaped corpus the fault-tolerance matrix uses.
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
            2,
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
            2,
        ),
    ]
}

fn resolver(runtime: &Runtime) -> Resolver<'_> {
    Resolver::new(runtime).with_window(3)
}

/// The recorder as a shared sink (explicit unsize to the trait
/// object, which argument-position inference won't do through
/// `Arc::clone`).
fn sink_of(recorder: &Arc<TraceRecorder>) -> Arc<dyn TraceSink> {
    let concrete: Arc<TraceRecorder> = Arc::clone(recorder);
    concrete
}

/// Every count the recorder derived must equal the corresponding
/// workflow gauge — the gauges derive from the attempt numbers and
/// spill counts the same task attempts report, so any disagreement is
/// a threading bug, not noise.
fn assert_counts_match_gauges(recorder: &TraceRecorder, workflow: &WorkflowMetrics, tag: &str) {
    assert_eq!(
        recorder.count("attempt_failed"),
        workflow.task_failures(),
        "{tag}: attempt_failed events vs task_failures gauge"
    );
    assert_eq!(
        recorder.count("attempt_retried"),
        workflow.tasks_retried(),
        "{tag}: attempt_retried events vs tasks_retried gauge"
    );
    assert_eq!(
        recorder.count("spill_run_sealed"),
        workflow.spilled_runs(),
        "{tag}: spill_run_sealed events vs spilled_runs gauge"
    );
    // Every started attempt either finishes or fails — nothing is
    // abandoned mid-flight.
    assert_eq!(
        recorder.count("attempt_started"),
        recorder.count("attempt_finished") + recorder.count("attempt_failed"),
        "{tag}: attempt lifecycle must balance"
    );
}

/// Clean runs: the recorder observes the full job/stage lifecycle, no
/// failure-path events, and the logical stream is byte-identical at
/// every parallelism.
#[test]
fn clean_runs_trace_the_full_lifecycle_and_are_parallelism_invariant() {
    for (name, scenario, input, stages) in families() {
        let mut reference: Option<Vec<String>> = None;
        for parallelism in PARALLELISM_LEVELS {
            let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
            let recorder = Arc::new(TraceRecorder::new());
            let outcome = resolver(&runtime)
                .with_trace_sink(sink_of(&recorder))
                .resolve(&scenario, input.clone())
                .unwrap_or_else(|e| panic!("{name} x{parallelism}: resolve failed: {e}"));
            assert_counts_match_gauges(
                &recorder,
                &outcome.workflow,
                &format!("{name} clean x{parallelism}"),
            );
            assert_eq!(recorder.count("attempt_failed"), 0, "{name} x{parallelism}");
            assert_eq!(
                recorder.count("job_started"),
                stages,
                "{name} x{parallelism}: one job per stage"
            );
            assert_eq!(
                recorder.count("job_finished"),
                recorder.count("job_started"),
                "{name} x{parallelism}"
            );
            assert_eq!(
                recorder.count("stage_started"),
                stages,
                "{name} x{parallelism}"
            );
            assert_eq!(
                recorder.count("stage_finished"),
                stages,
                "{name} x{parallelism}"
            );
            let untraced = resolver(&runtime)
                .resolve(&scenario, input.clone())
                .unwrap_or_else(|e| panic!("{name} x{parallelism}: untraced resolve failed: {e}"));
            assert!(
                outcome
                    .result
                    .iter()
                    .map(|(pair, score)| (pair, score.to_bits()))
                    .eq(untraced
                        .result
                        .iter()
                        .map(|(pair, score)| (pair, score.to_bits()))),
                "{name} x{parallelism}: tracing must not change the output"
            );
            let logical = recorder.logical_events();
            assert!(!logical.is_empty(), "{name} x{parallelism}: empty trace");
            match &reference {
                None => reference = Some(logical),
                Some(expected) => assert_eq!(
                    &logical, expected,
                    "{name} x{parallelism}: logical stream drifted from x1"
                ),
            }
        }
    }
}

/// Fail-once at every kind, at every parallelism: the recorded
/// failure/retry events agree with the gauges exactly (one per
/// stage), and the logical stream — which now includes the
/// `attempt_failed` / `attempt_retried` lines — is still
/// parallelism-invariant.
#[test]
fn fail_once_matrix_counts_match_gauges_at_every_parallelism() {
    for (name, scenario, input, stages) in families() {
        for kind in KINDS {
            let mut reference: Option<Vec<String>> = None;
            for parallelism in PARALLELISM_LEVELS {
                let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
                let recorder = Arc::new(TraceRecorder::new());
                let outcome = resolver(&runtime)
                    .with_trace_sink(sink_of(&recorder))
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
                let tag = format!("{name}, {kind} fault, x{parallelism}");
                assert_counts_match_gauges(&recorder, &outcome.workflow, &tag);
                assert_eq!(recorder.count("attempt_failed"), stages, "{tag}");
                assert_eq!(recorder.count("attempt_retried"), stages, "{tag}");
                let logical = recorder.logical_events();
                match &reference {
                    None => reference = Some(logical),
                    Some(expected) => assert_eq!(
                        &logical, expected,
                        "{tag}: faulted logical stream drifted from x1"
                    ),
                }
            }
        }
    }
}

/// Fail-twice under a three-attempt budget: every event is counted
/// exactly twice per stage, in lockstep with the gauges.
#[test]
fn fail_twice_counts_double_in_lockstep_with_gauges() {
    for (name, scenario, input, stages) in families() {
        for kind in KINDS {
            let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(4));
            let recorder = Arc::new(TraceRecorder::new());
            let outcome = resolver(&runtime)
                .with_trace_sink(sink_of(&recorder))
                .with_fault_policy(FaultPolicy::retry(3))
                .with_fault_plan(
                    FaultPlan::new()
                        .silence_injected_panics()
                        .panic_at(FaultPlan::ANY_JOB, kind, 0, 1, "first")
                        .panic_at(FaultPlan::ANY_JOB, kind, 0, 2, "second"),
                )
                .resolve(&scenario, input.clone())
                .unwrap_or_else(|e| panic!("{name}, {kind} fail-twice: resolve failed: {e}"));
            let tag = format!("{name}, {kind} fail-twice");
            assert_counts_match_gauges(&recorder, &outcome.workflow, &tag);
            assert_eq!(recorder.count("attempt_failed"), 2 * stages, "{tag}");
            assert_eq!(recorder.count("attempt_retried"), 2 * stages, "{tag}");
        }
    }
}

/// A small spill threshold forces map-side runs to disk: every sealed
/// run emits exactly one event, the count equals the gauge, and the
/// spill schedule — a function of each map task's input alone — is
/// parallelism-invariant.
#[test]
fn spill_events_match_the_spilled_runs_gauge() {
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    let input = corpus(4);
    let mut reference: Option<Vec<String>> = None;
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let recorder = Arc::new(TraceRecorder::new());
        let outcome = resolver(&runtime)
            .with_spill_threshold(Some(8))
            .with_trace_sink(sink_of(&recorder))
            .resolve(&scenario, input.clone())
            .unwrap();
        assert!(
            outcome.workflow.spilled_runs() > 0,
            "x{parallelism}: threshold 8 must force spills on this corpus"
        );
        assert_counts_match_gauges(
            &recorder,
            &outcome.workflow,
            &format!("spill x{parallelism}"),
        );
        let logical = recorder.logical_events();
        assert!(
            logical.iter().any(|l| l.starts_with("spill_run_sealed ")),
            "x{parallelism}: sealed runs must appear in the logical stream"
        );
        match &reference {
            None => reference = Some(logical),
            Some(expected) => assert_eq!(
                &logical, expected,
                "x{parallelism}: spill schedule drifted from x1"
            ),
        }
    }
}
