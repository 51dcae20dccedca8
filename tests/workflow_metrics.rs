//! The workflow-layer acceptance suite: every scenario executes through
//! `mr_engine::workflow::Workflow`, and the rolled-up
//! `WorkflowMetrics` must be internally consistent — per-stage walls
//! sum-consistent with the end-to-end wall, merged counters equal to
//! the per-job counters, peak-memory gauges parallelism-invariant —
//! while the identical-partitioning invariant surfaces as the typed
//! `MrError::StageShapeMismatch`.

use std::sync::Arc;
use std::time::Duration;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};

fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(2012).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

/// Every counter of every stage must reappear, summed, in the merged
/// workflow counters — and nothing else.
fn assert_counters_merge(workflow: &WorkflowMetrics) {
    let mut expected = mr_engine::CounterSet::new();
    for stage in &workflow.stages {
        expected.merge(&stage.counters);
    }
    assert_eq!(
        workflow.counters, expected,
        "merged counters must equal the sum of per-job counters"
    );
}

#[test]
fn er_outcome_reports_stage_rollup() {
    let input = corpus(3);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(1)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime);
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let outcome = resolver
            .resolve(&Scenario::Dedup { strategy }, input.clone())
            .unwrap();
        let ScenarioDetails::Blocked {
            bdm_metrics,
            match_metrics,
            ..
        } = &outcome.details
        else {
            panic!("a dedup outcome carries blocked details");
        };
        let wf = &outcome.workflow;
        assert_eq!(wf.workflow_name, format!("er-{strategy}"));
        match strategy {
            StrategyKind::Basic => {
                assert_eq!(wf.num_stages(), 1);
                assert!(wf.stage("bdm").is_none());
            }
            _ => {
                assert_eq!(wf.num_stages(), 2);
                // Stage 1 is the BDM job — and its roll-up entry is the
                // same metrics object the outcome exposes directly.
                let bdm = wf.stage("bdm").expect("BDM stage recorded");
                assert_eq!(
                    bdm.counters,
                    bdm_metrics.as_ref().unwrap().counters,
                    "{strategy}: stage metrics must mirror bdm_metrics"
                );
            }
        }
        // The matching job is always the last stage.
        let last = wf.stages.last().unwrap();
        assert_eq!(last.counters, match_metrics.counters);
        assert!(
            wf.stages_wall() <= wf.wall,
            "{strategy}: stage walls ({:?}) cannot exceed the end-to-end wall ({:?})",
            wf.stages_wall(),
            wf.wall
        );
        assert!(wf.wall > Duration::ZERO);
        assert_counters_merge(wf);
        // The workflow-level comparison counter equals the outcome's.
        assert_eq!(wf.counters.get(COMPARISONS), outcome.total_comparisons());
    }
}

#[test]
fn sn_outcome_reports_stage_rollup() {
    let input = corpus(4);
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(1));
    let resolver = Resolver::new(&runtime).with_window(5).with_reduce_tasks(4);
    let outcome = resolver
        .resolve(&Scenario::sorted_neighborhood(SnStrategy::RepSn), input)
        .unwrap();
    let ScenarioDetails::Sorted { match_metrics, .. } = &outcome.details else {
        panic!("a single-pass SN outcome carries sorted details");
    };
    let wf = &outcome.workflow;
    assert_eq!(wf.workflow_name, "sn-RepSN");
    assert_eq!(wf.num_stages(), 1);
    // The match stage derives the sort keys and counts the keyless
    // entities.
    assert_eq!(wf.stages[0].counters, match_metrics.counters);
    assert_eq!(
        wf.counters.get(er_sn::NULL_SORT_KEYS),
        match_metrics.counters.get(er_sn::NULL_SORT_KEYS)
    );
    assert!(wf.stages_wall() <= wf.wall);
    assert_counters_merge(wf);
    assert_eq!(wf.counters.get(COMPARISONS), outcome.total_comparisons());
    // The streaming-reduce gauges survive the roll-up: the window job's
    // peaks dominate and stay below its task input.
    assert_eq!(
        wf.peak_group_len(),
        wf.stages
            .iter()
            .map(|s| s.peak_group_len())
            .max()
            .unwrap_or(0)
    );
    assert!(wf.peak_resident_records() > 0);
}

#[test]
fn workflow_gauges_and_counters_are_parallelism_invariant() {
    let input = corpus(3);
    let mut er_reference: Option<(u64, u64, mr_engine::CounterSet)> = None;
    let mut sn_reference: Option<(u64, u64, mr_engine::CounterSet)> = None;
    for parallelism in [1usize, 2, 4, 8] {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(parallelism)
                .with_reduce_tasks(4),
        );
        let resolver = Resolver::new(&runtime).with_window(4);
        let er = resolver
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                input.clone(),
            )
            .unwrap()
            .workflow;
        let sn = resolver
            .resolve(
                &Scenario::sorted_neighborhood(SnStrategy::RepSn),
                input.clone(),
            )
            .unwrap()
            .workflow;
        let er_probe = (
            er.peak_group_len(),
            er.peak_resident_records(),
            er.counters.clone(),
        );
        let sn_probe = (
            sn.peak_group_len(),
            sn.peak_resident_records(),
            sn.counters.clone(),
        );
        match &er_reference {
            None => er_reference = Some(er_probe),
            Some(r) => assert_eq!(
                r, &er_probe,
                "ER workflow gauges/counters changed at parallelism {parallelism}"
            ),
        }
        match &sn_reference {
            None => sn_reference = Some(sn_probe),
            Some(r) => assert_eq!(
                r, &sn_probe,
                "SN workflow gauges/counters changed at parallelism {parallelism}"
            ),
        }
    }
}

#[test]
fn shape_drift_between_stages_is_a_typed_error() {
    // Drive the workflow layer directly with a drifting chain: the
    // same invariant the drivers rely on must surface as
    // StageShapeMismatch, not a panic or silent misalignment.
    use mr_engine::prelude::*;
    let mapper = ClosureMapper::new(
        |_: &(), v: &u32, ctx: &mut MapContext<u32, u32, ((), u32)>| {
            ctx.side_output(((), *v));
            ctx.emit(*v % 4, *v);
        },
    );
    let reducer = ClosureReducer::new(
        |g: Group<'_, u32, u32>, ctx: &mut ReduceContext<u32, u32>| {
            ctx.emit(*g.key(), g.values().sum());
        },
    );
    let job = Job::builder("stage", mapper, reducer)
        .reduce_tasks(2)
        .build();
    let mut wf = Workflow::on_pool("drift", Arc::new(WorkerPool::new(1)));
    let out = wf
        .chained_stage(
            &job,
            partition_evenly((0..8u32).map(|v| ((), v)).collect(), 4),
        )
        .unwrap();
    // Merge two side-output partitions before chaining — exactly the
    // "splitting of input files" Figure 2 prohibits.
    let mut merged = out.side_outputs;
    let tail = merged.pop().unwrap();
    merged.last_mut().unwrap().extend(tail);
    let err = wf.chained_stage(&job, merged).unwrap_err();
    assert_eq!(
        err,
        MrError::StageShapeMismatch {
            stage: "drift/stage".into(),
            expected: 4,
            got: 3,
        }
    );
    assert!(err.to_string().contains("same partitioning"));
}
