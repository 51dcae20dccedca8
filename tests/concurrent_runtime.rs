//! Cross-tenant isolation suite for the concurrent runtime:
//!
//! * **determinism under interleaving** — N tenant threads resolving
//!   mixed scenarios on one shared [`Runtime`] produce outputs
//!   byte-identical (match pairs *and* score bits) to a sequential
//!   parallelism-1 reference, at parallelism {1, 2, 4, 8};
//! * **exact metrics** — each tenant's `WorkflowMetrics` (stage names,
//!   merged counters) roll up exactly as in the sequential run, with
//!   no cross-tenant bleed;
//! * **fault isolation** — a tenant whose session injects a terminal
//!   fault gets its typed error while every co-resident tenant
//!   completes byte-identically, and the runtime stays usable;
//! * **per-tenant observability** — a traced concurrent run yields a
//!   [`TraceReport`] with one scheduler-activity section per tenant.

use std::sync::Arc;
use std::thread;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use mr_engine::trace::{TraceRecorder, TraceReport, TraceSink};
use mr_engine::MrError;

const PARALLELISM_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// A DS1-shaped corpus small enough for the full matrix (tenants ×
/// parallelism levels) with real similarity evaluation.
fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(77).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

fn stage_names(metrics: &WorkflowMetrics) -> Vec<String> {
    metrics.stages.iter().map(|s| s.job_name.clone()).collect()
}

/// The mixed multi-tenant workload: five tenants, five scenario
/// shapes (all three blocking families), so concurrent stages of
/// *different* workflows interleave on the shared pool.
fn tenants() -> Vec<(&'static str, Scenario, Partitions<(), Ent>)> {
    vec![
        (
            "tenant-block-split",
            Scenario::Dedup {
                strategy: StrategyKind::BlockSplit,
            },
            corpus(4),
        ),
        (
            "tenant-repsn",
            Scenario::sorted_neighborhood(SnStrategy::RepSn),
            corpus(4),
        ),
        (
            "tenant-pair-range",
            Scenario::Dedup {
                strategy: StrategyKind::PairRange,
            },
            corpus(3),
        ),
        (
            "tenant-basic",
            Scenario::Dedup {
                strategy: StrategyKind::Basic,
            },
            corpus(4),
        ),
        (
            "tenant-lsh",
            Scenario::lsh(LshParams { bands: 8, rows: 2 }),
            corpus(3),
        ),
    ]
}

fn resolver(runtime: &Runtime) -> Resolver<'_> {
    Resolver::new(runtime).with_window(4).with_reduce_tasks(3)
}

/// What a tenant's run must reproduce exactly, regardless of how many
/// other tenants were interleaved on the pool while it ran.
struct Reference {
    bits: Vec<(MatchPair, u64)>,
    workflow_name: String,
    stages: Vec<String>,
    counters: dedupe_mr::Outcome,
}

fn references() -> Vec<Reference> {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
    let sequential = resolver(&runtime);
    tenants()
        .into_iter()
        .map(|(_, scenario, input)| {
            let outcome = sequential.resolve(&scenario, input).unwrap();
            Reference {
                bits: result_bits(&outcome.result),
                workflow_name: outcome.workflow.workflow_name.clone(),
                stages: stage_names(&outcome.workflow),
                counters: outcome,
            }
        })
        .collect()
}

fn assert_matches_reference(context: &str, outcome: &dedupe_mr::Outcome, reference: &Reference) {
    assert_eq!(
        result_bits(&outcome.result),
        reference.bits,
        "{context}: match output must be byte-identical to the sequential run"
    );
    assert_eq!(
        outcome.workflow.workflow_name, reference.workflow_name,
        "{context}: workflow name"
    );
    assert_eq!(
        stage_names(&outcome.workflow),
        reference.stages,
        "{context}: stage composition"
    );
    assert_eq!(
        outcome.workflow.counters, reference.counters.workflow.counters,
        "{context}: merged workflow counters must roll up exactly"
    );
}

/// Five tenant threads × parallelism {1, 2, 4, 8}: every tenant's
/// output and metrics are exactly the sequential reference.
/// Interleaving changes only wall time.
#[test]
fn concurrent_tenants_are_byte_identical_to_sequential_at_every_parallelism() {
    let refs = references();
    let workload = tenants();
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let base = resolver(&runtime);
        thread::scope(|scope| {
            let handles: Vec<_> = workload
                .iter()
                .map(|(tenant, scenario, input)| {
                    let session = base.clone().with_tenant(*tenant);
                    let input = input.clone();
                    scope.spawn(move || session.resolve(scenario, input))
                })
                .collect();
            for ((handle, (tenant, _, _)), reference) in
                handles.into_iter().zip(&workload).zip(&refs)
            {
                let context = format!("{tenant} @ p={parallelism}");
                let outcome = handle
                    .join()
                    .expect("tenant thread must not panic")
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_matches_reference(&context, &outcome, reference);
            }
        });
        // The shared pool drains completely between waves.
        let stats = runtime.pool_stats();
        assert_eq!(stats.queue_depth, 0, "p={parallelism}: queue drained");
        assert_eq!(stats.active_batches, 0, "p={parallelism}: no batch leaked");
        assert!(
            stats.per_tenant_inflight.is_empty(),
            "p={parallelism}: no tenant left inflight"
        );
    }
}

/// One tenant's session injects a terminal fault. That tenant gets
/// its typed `TaskFailed` error; the four co-resident tenants are
/// byte-identical to the sequential reference; and the runtime keeps
/// serving resolves afterwards.
#[test]
fn faulting_tenant_is_isolated_from_co_resident_tenants() {
    let refs = references();
    let workload = tenants();
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(4));
    let base = resolver(&runtime);
    thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .enumerate()
            .map(|(i, (tenant, scenario, input))| {
                let mut session = base.clone().with_tenant(*tenant);
                if i == 0 {
                    session = session.with_fault_plan(
                        FaultPlan::new().silence_injected_panics().panic_always(
                            FaultPlan::ANY_JOB,
                            FaultKind::Map,
                            0,
                            "tenant-local fault",
                        ),
                    );
                }
                let input = input.clone();
                scope.spawn(move || session.resolve(scenario, input))
            })
            .collect();
        for (i, ((handle, (tenant, _, _)), reference)) in
            handles.into_iter().zip(&workload).zip(&refs).enumerate()
        {
            let result = handle.join().expect("tenant thread must not panic");
            if i == 0 {
                let err = result.expect_err("faulting tenant must observe its injected fault");
                let ResolveError::Mr(MrError::TaskFailed(task_error)) = &err else {
                    panic!("{tenant}: expected TaskFailed, got {err:?}");
                };
                assert_eq!(task_error.kind, FaultKind::Map, "{tenant}");
                assert_eq!(task_error.task, 0, "{tenant}");
            } else {
                let outcome = result.unwrap_or_else(|e| panic!("{tenant}: {e}"));
                assert_matches_reference(tenant, &outcome, reference);
            }
        }
    });
    // The failure did not wedge the shared pool: the formerly faulting
    // tenant's scenario resolves cleanly on the same runtime.
    let (tenant, scenario, input) = &workload[0];
    let outcome = base
        .clone()
        .with_tenant(*tenant)
        .resolve(scenario, input.clone())
        .unwrap();
    assert_matches_reference("post-fault retry", &outcome, &refs[0]);
    let stats = runtime.pool_stats();
    assert_eq!(stats.queue_depth, 0, "pool drained after fault");
    assert!(stats.per_tenant_inflight.is_empty(), "no tenant inflight");
}

/// A traced concurrent run surfaces one scheduler-activity section
/// per tenant: stages registered, stages admitted, and task claims
/// executed under each tenant's tag.
#[test]
fn trace_report_carries_one_section_per_tenant() {
    let recorder = Arc::new(TraceRecorder::new());
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2))
        .with_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let base = resolver(&runtime);
    let workload: Vec<_> = tenants().into_iter().take(2).collect();
    thread::scope(|scope| {
        for (tenant, scenario, input) in &workload {
            let session = base.clone().with_tenant(*tenant);
            let input = input.clone();
            scope.spawn(move || session.resolve(scenario, input).unwrap());
        }
    });
    let report = TraceReport::from_events(&recorder.events());
    for (tenant, _, _) in &workload {
        let summary = report
            .tenants()
            .iter()
            .find(|t| t.tenant == *tenant)
            .unwrap_or_else(|| panic!("report must carry a section for {tenant}"));
        assert!(
            summary.stages_submitted >= 1,
            "{tenant}: registered at least one stage batch"
        );
        assert!(
            summary.stages_admitted <= summary.stages_submitted,
            "{tenant}: admitted cannot exceed submitted"
        );
        assert!(
            summary.tasks_dispatched >= 1,
            "{tenant}: executed at least one task claim"
        );
        assert!(
            summary.tasks_submitted >= summary.stages_submitted,
            "{tenant}: every batch carries at least one task"
        );
    }
}
