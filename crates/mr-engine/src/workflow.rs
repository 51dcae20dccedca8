//! Multi-stage dataflows: the workflow layer.
//!
//! Every major scenario of this reproduction follows the same shape
//! (the paper's Figure 2): a preprocessing MR job whose *side output*
//! (annotated entities, written per map task) becomes the —
//! identically partitioned — input of one or more follow-up jobs. A
//! scenario compiler (the ER driver's BDM job → matching job, the
//! Sorted Neighborhood driver's distribution job → window job →
//! optional stitch job, the LSH ladder's signature rounds → candidate
//! job) is plain sequential code over one `&mut` [`Workflow`]: each
//! stage call blocks its caller until the job finished, and the next
//! line feeds its products to the next stage. A failing stage returns
//! its error through `?`, so no later stage runs. Tenants still
//! interleave: every stage hands its task batches to the pool's shared
//! ready-queue, so while one caller waits on its stage, free slots run
//! the batches of other workflows.
//!
//! The workflow is the one holder of a run's execution settings — the
//! pool and slot cap, the tenant, the [`FaultPolicy`], the
//! [`FaultPlan`], the trace sink and the map-side spill threshold —
//! and applies them to every stage:
//!
//! * **Chaining** — [`Workflow::chained_stage`] runs a job whose input
//!   must share the partitioning the workflow established with its
//!   first stage. Side outputs are collected per map task, so feeding
//!   them to the next chained stage guarantees the follow-up job sees
//!   the *same* partitioning of the data ("by prohibiting the
//!   splitting of input files, it is ensured that the second MR job
//!   receives the same partitioning of the input data as the first
//!   job"). The invariant is enforced by the layer — a violation is
//!   the typed [`MrError::StageShapeMismatch`], not a debug assertion.
//! * **Repartitioning** — some stages legitimately re-shape the data
//!   (JobSN's stitch job runs over one partition per range boundary);
//!   [`Workflow::repartitioned_stage`] runs them without touching the
//!   established shape.
//! * **Metrics roll-up** — each stage's [`JobMetrics`] is recorded in
//!   execution order; [`Workflow::finish`] rolls them into a
//!   [`WorkflowMetrics`]: per-stage walls, the end-to-end wall
//!   (including driver glue between stages), merged counters, and the
//!   peak-memory gauges of the streaming reduce path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::counters::CounterSet;
use crate::engine::{Job, JobOutput};
use crate::error::MrError;
use crate::fault::{FaultPlan, FaultPolicy};
use crate::input::Partitions;
use crate::mapper::Mapper;
use crate::metrics::JobMetrics;
use crate::pool::{BatchTag, WorkerPool};
use crate::reducer::Reducer;
use crate::trace::{TraceEventData, TraceSink, Tracer};

/// A running multi-stage dataflow: executes jobs as stages, enforces
/// the same-partitioning invariant between chained stages, and
/// collects per-stage metrics. Call [`Workflow::finish`] when the last
/// stage completed to obtain the rolled-up [`WorkflowMetrics`].
pub struct Workflow {
    name: String,
    /// Tenant this workflow's stage batches are attributed to on the
    /// shared pool's ready-queue — the identity
    /// [`crate::pool::PoolStats::per_tenant_inflight`] reports.
    /// Defaults to `"default"`; purely operational (never changes
    /// output).
    tenant: Arc<str>,
    started: Instant,
    /// Partition count established by the first chained stage.
    partitions: Option<usize>,
    stages: Vec<JobMetrics>,
    /// The worker pool every stage executes on.
    pool: Arc<WorkerPool>,
    /// Per-workflow cap on concurrently used pool slots; `None` uses
    /// the whole pool.
    parallelism_cap: Option<usize>,
    /// The fault policy every stage runs under (fail-fast unless set;
    /// the [`crate::runtime::Runtime`] seeds it from
    /// [`crate::runtime::RuntimeConfig::fault_policy`]).
    fault_policy: FaultPolicy,
    /// The fault-injection plan every stage runs under (empty unless
    /// set).
    fault_plan: FaultPlan,
    /// When set, every stage runs traced with the workflow's start
    /// instant as the shared epoch, and stage boundary events wrap
    /// each job's own event stream.
    trace_sink: Option<Arc<dyn TraceSink>>,
    /// The map-side spill threshold every stage runs under (`None`,
    /// never spill, unless set; the [`crate::runtime::Runtime`] seeds
    /// it from [`crate::runtime::RuntimeConfig::spill_threshold`]).
    pub(crate) spill_threshold: Option<usize>,
}

// Manual: `dyn TraceSink` carries no `Debug` bound.
impl std::fmt::Debug for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workflow")
            .field("name", &self.name)
            .field("tenant", &self.tenant)
            .field("partitions", &self.partitions)
            .field("stages", &self.stages)
            .field("pool", &self.pool)
            .field("parallelism_cap", &self.parallelism_cap)
            .field("fault_policy", &self.fault_policy)
            .field("fault_plan", &self.fault_plan)
            .field("traced", &self.trace_sink.is_some())
            .field("spill_threshold", &self.spill_threshold)
            .finish_non_exhaustive()
    }
}

impl Workflow {
    /// Starts a workflow whose stages all execute on `pool`; the
    /// end-to-end wall clock starts here. No thread is spawned per
    /// stage, and consecutive workflows given the same pool share its
    /// threads ([`crate::runtime::Runtime::workflow`] hands out
    /// workflows on the runtime's pool, seeded with its fault policy,
    /// spill threshold and trace sink).
    pub fn on_pool(name: impl Into<String>, pool: Arc<WorkerPool>) -> Self {
        Self {
            name: name.into(),
            tenant: Arc::from("default"),
            started: Instant::now(),
            partitions: None,
            stages: Vec::new(),
            pool,
            parallelism_cap: None,
            fault_policy: FaultPolicy::fail_fast(),
            fault_plan: FaultPlan::new(),
            trace_sink: None,
            spill_threshold: None,
        }
    }

    /// The workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The worker pool this workflow's stages execute on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Attributes this workflow's stage batches to `tenant` on the
    /// shared pool's ready-queue. The tenant id is what
    /// [`crate::pool::PoolStats`] breaks inflight work down by, and
    /// what the per-tenant section of [`crate::trace::TraceReport`]
    /// aggregates on. Scheduling is purely operational: output is
    /// byte-identical under any tenant labeling.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The tenant this workflow's stages are attributed to
    /// (`"default"` unless [`Workflow::with_tenant`] was called).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Caps this workflow's stages to at most `cap` concurrently used
    /// pool slots — a per-run parallelism override that reuses the
    /// pool's existing threads instead of respawning a smaller pool
    /// (see [`crate::pool::WorkerPool::run_tasks_capped`]). Output is
    /// byte-identical at any cap. A cap of zero fails every stage with
    /// the typed [`MrError::ZeroParallelism`].
    #[must_use]
    pub fn with_parallelism_cap(mut self, cap: usize) -> Self {
        self.parallelism_cap = Some(cap);
        self
    }

    /// The configured parallelism cap, if any.
    pub fn parallelism_cap(&self) -> Option<usize> {
        self.parallelism_cap
    }

    /// Sets the fault policy every stage of this workflow runs under
    /// (the default is [`FaultPolicy::fail_fast`]). Retried tasks
    /// re-execute byte-identically (see [`crate::fault`]), so the
    /// policy never changes workflow output — only whether a task
    /// panic becomes a retry or a typed [`MrError::TaskFailed`].
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Installs a deterministic fault-injection plan for every stage
    /// of this workflow (test/bench hook; the default plan injects
    /// nothing).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the map-side spill threshold every stage of this workflow
    /// runs under, in records (the default, `None`, never spills): a
    /// map task seals its open partition buckets into immutable sorted
    /// runs whenever they hold `threshold` records. Inside a workflow
    /// this threshold governs every stage — a job's own
    /// [`JobBuilder::spill_threshold`](crate::engine::JobBuilder::spill_threshold)
    /// applies only to a bare [`Job::run_on`]. Output is
    /// byte-identical at any threshold; see [`crate::spill`].
    ///
    /// # Panics
    /// If `threshold` is `Some(0)` — a seal needs at least one record.
    #[must_use]
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        assert!(
            threshold.is_none_or(|t| t >= 1),
            "spill threshold must be at least one record"
        );
        self.spill_threshold = threshold;
        self
    }

    /// Attaches a [`TraceSink`] receiving structured execution events
    /// from every stage of this workflow (see [`crate::trace`]). All
    /// stages share one timeline: event timestamps are offsets from
    /// the workflow's start instant, and each stage's job events are
    /// bracketed by
    /// [`StageStarted`](TraceEventData::StageStarted)/
    /// [`StageFinished`](TraceEventData::StageFinished).
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Runs `job` as the next stage over input that must share the
    /// workflow's partitioning: the first chained stage establishes
    /// the partition count, every later one (typically fed from a
    /// predecessor's side outputs) is checked against it —
    /// [`MrError::StageShapeMismatch`] on violation.
    pub fn chained_stage<M, R>(
        &mut self,
        job: &Job<M, R>,
        input: Partitions<M::KIn, M::VIn>,
    ) -> Result<JobOutput<R::KOut, R::VOut, M::Side>, MrError>
    where
        M: Mapper,
        M::KOut: Ord + Sync,
        M::VOut: Sync,
        R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
    {
        match self.partitions {
            None => self.partitions = Some(input.len()),
            Some(expected) if expected != input.len() => {
                return Err(MrError::StageShapeMismatch {
                    stage: format!("{}/{}", self.name, job.name()),
                    expected,
                    got: input.len(),
                });
            }
            Some(_) => {}
        }
        self.execute(job, input)
    }

    /// Runs `job` as the next stage over deliberately re-partitioned
    /// input (e.g. one partition per range boundary in JobSN's stitch
    /// job); the workflow's established shape is neither checked nor
    /// changed.
    pub fn repartitioned_stage<M, R>(
        &mut self,
        job: &Job<M, R>,
        input: Partitions<M::KIn, M::VIn>,
    ) -> Result<JobOutput<R::KOut, R::VOut, M::Side>, MrError>
    where
        M: Mapper,
        M::KOut: Ord + Sync,
        M::VOut: Sync,
        R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
    {
        self.execute(job, input)
    }

    fn execute<M, R>(
        &mut self,
        job: &Job<M, R>,
        input: Partitions<M::KIn, M::VIn>,
    ) -> Result<JobOutput<R::KOut, R::VOut, M::Side>, MrError>
    where
        M: Mapper,
        M::KOut: Ord + Sync,
        M::VOut: Sync,
        R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
    {
        let stage = self.stages.len();
        // Every task batch this stage dispatches carries the
        // (tenant, workflow, stage) identity the pool's stats and
        // trace events attribute it to.
        let tag = BatchTag::new(Arc::clone(&self.tenant), self.name.as_str(), stage);
        // The workflow's start instant is the shared epoch, so stage
        // and task events of consecutive stages land on one timeline.
        let tracer = match &self.trace_sink {
            Some(sink) => Tracer::with_epoch(Arc::clone(sink), self.started),
            None => Tracer::off(),
        };
        let stage_start = Instant::now();
        tracer.emit_with(None, || TraceEventData::StageStarted {
            workflow: self.name.clone(),
            job: job.name().to_string(),
            stage,
        });
        let out = job
            .run_in(
                &self.pool,
                self.parallelism_cap.unwrap_or(usize::MAX),
                tag,
                self.fault_policy,
                &self.fault_plan,
                tracer.clone(),
                self.spill_threshold,
                input,
            )
            .map_err(|e| self.identify_stage(job.name(), e))?;
        tracer.emit_with(None, || TraceEventData::StageFinished {
            workflow: self.name.clone(),
            job: job.name().to_string(),
            stage,
            wall: stage_start.elapsed(),
        });
        self.stages.push(out.metrics.clone());
        Ok(out)
    }

    /// Fills the `workflow/stage` path into a task failure bubbling up
    /// from a stage, so the error's `Display` alone identifies the
    /// workflow, stage, and task.
    fn identify_stage(&self, job_name: &str, err: MrError) -> MrError {
        match err {
            MrError::TaskFailed(mut task_error) => {
                task_error
                    .stage
                    .get_or_insert_with(|| format!("{}/{}", self.name, job_name));
                MrError::TaskFailed(task_error)
            }
            other => other,
        }
    }

    /// Completes the workflow, rolling every stage's metrics into a
    /// [`WorkflowMetrics`].
    pub fn finish(self) -> WorkflowMetrics {
        let mut counters = CounterSet::new();
        for stage in &self.stages {
            counters.merge(&stage.counters);
        }
        WorkflowMetrics {
            workflow_name: self.name,
            stages: self.stages,
            wall: self.started.elapsed(),
            counters,
        }
    }
}

/// Rolled-up metrics of a completed [`Workflow`].
#[derive(Debug, Clone)]
pub struct WorkflowMetrics {
    /// The workflow name.
    pub workflow_name: String,
    /// Per-stage job metrics, in execution order.
    pub stages: Vec<JobMetrics>,
    /// End-to-end wall clock from [`Workflow::on_pool`] to
    /// [`Workflow::finish`] — stage walls *plus* the driver glue
    /// between stages (side-output routing, candidate assembly), so
    /// it is always at least [`WorkflowMetrics::stages_wall`].
    pub wall: Duration,
    /// Counters merged across every stage: for each counter name, the
    /// sum of the per-job totals.
    pub counters: CounterSet,
}

impl WorkflowMetrics {
    /// Number of stages the workflow executed.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The first stage with the given job name, if any ran.
    pub fn stage(&self, job_name: &str) -> Option<&JobMetrics> {
        self.stages.iter().find(|s| s.job_name == job_name)
    }

    /// Sum of the per-stage walls — the time spent inside MR jobs,
    /// excluding driver glue; never exceeds [`WorkflowMetrics::wall`].
    pub fn stages_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Largest reduce group any stage buffered (peak-memory gauge of
    /// the streaming reduce path, maximized across stages).
    pub fn peak_group_len(&self) -> u64 {
        self.stages
            .iter()
            .map(JobMetrics::peak_group_len)
            .max()
            .unwrap_or(0)
    }

    /// Worst per-reduce-task resident peak of the merge machinery
    /// across all stages.
    pub fn peak_resident_records(&self) -> u64 {
        self.stages
            .iter()
            .map(JobMetrics::peak_resident_records)
            .max()
            .unwrap_or(0)
    }

    /// Worst per-map-task open-bucket resident peak across all stages
    /// — the map-side spill gauge, maximized like its reduce twin.
    pub fn map_peak_resident_records(&self) -> u64 {
        self.stages
            .iter()
            .map(JobMetrics::map_peak_resident_records)
            .max()
            .unwrap_or(0)
    }

    /// Total threshold-triggered sealed runs across all stages.
    pub fn spilled_runs(&self) -> u64 {
        self.stages.iter().map(JobMetrics::spilled_runs).sum()
    }

    /// Total task attempts that panicked (and were caught at the task
    /// boundary) across all stages. Every stage that completed retried
    /// each of its failures, so this equals
    /// [`WorkflowMetrics::tasks_retried`].
    pub fn task_failures(&self) -> u64 {
        self.tasks_retried()
    }

    /// Total failed attempts that were re-executed under the fault
    /// policy's retry budget, across all stages (see
    /// [`JobMetrics::tasks_retried`]).
    pub fn tasks_retried(&self) -> u64 {
        self.stages.iter().map(JobMetrics::tasks_retried).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{ClosureMapper, ClosureReducer};
    use crate::engine::Job;
    use crate::input::partition_evenly;
    use crate::mapper::MapContext;
    use crate::reducer::{Group, ReduceContext};

    type AnnotateMapper = ClosureMapper<(), u32, bool, u64, (bool, u32)>;
    type CountReducer = ClosureReducer<bool, u64, bool, u64>;

    /// A workflow on a single-slot pool: every stage runs inline.
    fn inline_workflow(name: &str) -> Workflow {
        Workflow::on_pool(name, Arc::new(WorkerPool::new(1)))
    }

    /// Job 1: annotate each number with its parity, side-output the
    /// annotated records, reduce-output parity counts.
    fn annotate_job() -> Job<AnnotateMapper, CountReducer> {
        let mapper = ClosureMapper::new(
            |_: &(), v: &u32, ctx: &mut MapContext<bool, u64, (bool, u32)>| {
                let even = v.is_multiple_of(2);
                ctx.side_output((even, *v));
                ctx.emit(even, 1);
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, bool, u64>, ctx: &mut ReduceContext<bool, u64>| {
                ctx.emit(*group.key(), group.values().sum());
            },
        );
        Job::builder("annotate", mapper, reducer)
            .reduce_tasks(2)
            .build()
    }

    type SumMapper = ClosureMapper<bool, u32, bool, u64, ()>;

    /// Job 2: sum values per parity from the annotated records.
    fn sum_job() -> Job<SumMapper, CountReducer> {
        let mapper = ClosureMapper::new(
            |even: &bool, v: &u32, ctx: &mut MapContext<bool, u64, ()>| {
                ctx.emit(*even, u64::from(*v));
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, bool, u64>, ctx: &mut ReduceContext<bool, u64>| {
                ctx.emit(*group.key(), group.values().sum());
            },
        );
        Job::builder("sum", mapper, reducer).reduce_tasks(2).build()
    }

    #[test]
    fn side_outputs_feed_a_chained_stage_with_identical_partitioning() {
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let shapes: Vec<usize> = input.iter().map(Vec::len).collect();

        let mut wf = inline_workflow("parity");
        let out1 = wf.chained_stage(&annotate_job(), input).unwrap();
        let shapes2: Vec<usize> = out1.side_outputs.iter().map(Vec::len).collect();
        assert_eq!(shapes, shapes2, "partition shape must be preserved");

        let out2 = wf.chained_stage(&sum_job(), out1.side_outputs).unwrap();
        let mut sums = out2.into_records();
        sums.sort();
        assert_eq!(sums, vec![(false, 25), (true, 20)]);

        let metrics = wf.finish();
        assert_eq!(metrics.num_stages(), 2);
        assert_eq!(metrics.workflow_name, "parity");
        assert_eq!(
            metrics
                .stages
                .iter()
                .map(|s| s.job_name.as_str())
                .collect::<Vec<_>>(),
            vec!["annotate", "sum"]
        );
        assert_eq!(
            metrics.stages_wall(),
            metrics.stages[0].wall + metrics.stages[1].wall
        );
        assert!(metrics.stage("annotate").is_some());
        assert!(metrics.stage("missing").is_none());
        assert!(metrics.stages_wall() <= metrics.wall);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_spill_threshold_is_rejected() {
        let _ =
            Workflow::on_pool("zero", Arc::new(WorkerPool::new(1))).with_spill_threshold(Some(0));
    }

    #[test]
    fn chained_stage_rejects_a_drifted_partition_count() {
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let mut wf = inline_workflow("parity");
        let out1 = wf.chained_stage(&annotate_job(), input).unwrap();
        // Drop a partition before chaining — the exact drift the layer
        // must catch.
        let mut truncated = out1.side_outputs;
        truncated.pop();
        let err = wf.chained_stage(&sum_job(), truncated).unwrap_err();
        assert_eq!(
            err,
            MrError::StageShapeMismatch {
                stage: "parity/sum".into(),
                expected: 3,
                got: 2,
            }
        );
    }

    #[test]
    fn repartitioned_stage_neither_checks_nor_resets_the_shape() {
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let mut wf = inline_workflow("parity");
        let out1 = wf.chained_stage(&annotate_job(), input.clone()).unwrap();
        // A deliberately re-shaped intermediate stage (1 partition)...
        let flat: Partitions<bool, u32> = vec![out1.side_outputs.into_iter().flatten().collect()];
        wf.repartitioned_stage(&sum_job(), flat).unwrap();
        // ...does not change what "chained" means afterwards.
        let err = wf
            .chained_stage(&annotate_job(), partition_evenly(vec![((), 1u32)], 1))
            .unwrap_err();
        assert!(matches!(
            err,
            MrError::StageShapeMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
        assert_eq!(wf.finish().num_stages(), 2);
    }

    #[test]
    fn workflow_metrics_merge_counters_and_gauges_across_stages() {
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let mut wf = inline_workflow("parity");
        let out1 = wf.chained_stage(&annotate_job(), input).unwrap();
        let stage1 = out1.metrics.clone();
        let out2 = wf.chained_stage(&sum_job(), out1.side_outputs).unwrap();
        let stage2 = out2.metrics.clone();
        let metrics = wf.finish();
        // Merged counters == sum of the per-job counters.
        for name in [
            crate::counters::MAP_INPUT_RECORDS,
            crate::counters::MAP_OUTPUT_RECORDS,
            crate::counters::REDUCE_INPUT_RECORDS,
            crate::counters::REDUCE_OUTPUT_RECORDS,
        ] {
            assert_eq!(
                metrics.counters.get(name),
                stage1.counters.get(name) + stage2.counters.get(name),
                "counter {name} must merge across stages"
            );
        }
        assert_eq!(
            metrics.peak_group_len(),
            stage1.peak_group_len().max(stage2.peak_group_len())
        );
        assert_eq!(
            metrics.peak_resident_records(),
            stage1
                .peak_resident_records()
                .max(stage2.peak_resident_records())
        );
    }

    #[test]
    fn capped_workflow_reuses_the_pool_and_matches_uncapped_output() {
        let pool = Arc::new(WorkerPool::new(4));
        let input = partition_evenly((0..20u32).map(|v| ((), v)).collect(), 4);
        let mut reference = Workflow::on_pool("uncapped", Arc::clone(&pool));
        let expected = reference
            .chained_stage(&annotate_job(), input.clone())
            .unwrap()
            .reduce_outputs;
        for cap in [1usize, 2, 3, 9] {
            let mut wf = Workflow::on_pool("capped", Arc::clone(&pool)).with_parallelism_cap(cap);
            assert_eq!(wf.parallelism_cap(), Some(cap));
            let out = wf.chained_stage(&annotate_job(), input.clone()).unwrap();
            assert_eq!(out.reduce_outputs, expected, "cap {cap} diverged");
            assert_eq!(
                pool.threads_spawned(),
                4,
                "cap {cap} must not respawn the pool"
            );
        }
    }

    #[test]
    fn zero_parallelism_cap_is_a_typed_error() {
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let mut wf = inline_workflow("bad").with_parallelism_cap(0);
        assert_eq!(
            wf.chained_stage(&annotate_job(), input).unwrap_err(),
            MrError::ZeroParallelism
        );
    }

    #[test]
    fn workflow_tenant_defaults_and_overrides() {
        let wf = inline_workflow("wf");
        assert_eq!(wf.tenant(), "default");
        let wf = inline_workflow("wf").with_tenant("team-a");
        assert_eq!(wf.tenant(), "team-a");
    }
}
