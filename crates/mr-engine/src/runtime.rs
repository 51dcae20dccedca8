//! A reusable execution runtime: one persistent worker pool plus the
//! defaults every session on it starts from.
//!
//! A [`Runtime`] is created **once**, owns a [`WorkerPool`] whose
//! threads live as long as the runtime, and hands out [`Workflow`]s
//! bound to that pool — so back-to-back and concurrent workflow
//! executions share the same threads with zero per-run spawn cost.
//!
//! Of its [`RuntimeConfig`], `parallelism` is the pool size and
//! `reduce_tasks` the default a session (the facade's `Resolver`)
//! copies into the scenario config it compiles; `spill_threshold` and
//! `fault_policy` (the per-task retry budget) reach the engine only
//! through the [`Workflow`] a runtime hands out, which is the one
//! holder of a run's spill, fault and trace settings. The pool has one
//! dispatch order — FIFO over registered task batches — so no
//! scheduling knob exists.

use std::sync::Arc;

use crate::engine::default_parallelism;
use crate::fault::FaultPolicy;
use crate::pool::{PoolStats, WorkerPool};
use crate::trace::TraceSink;
use crate::workflow::Workflow;

/// Reduce tasks `r` of a [`RuntimeConfig`] and of every scenario
/// config that is not given a count.
pub const DEFAULT_REDUCE_TASKS: usize = 4;

/// The pool size and the run defaults of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Local worker threads (task slots). A [`Runtime`] spawns its
    /// pool with exactly this many slots.
    pub parallelism: usize,
    /// Default number of reduce tasks `r` for the jobs of a scenario.
    /// Blocking-based ER runs both its jobs with `r` reduce tasks;
    /// Sorted Neighborhood uses it as the number of contiguous key
    /// ranges (== reduce tasks of its matching job).
    pub reduce_tasks: usize,
    /// Map-side spill threshold in *records held open* per map task
    /// (`None` = never spill, the in-core default). When `Some(t)`, a
    /// map task seals its open bucket set into immutable sorted runs
    /// every time the open set reaches `t` records, so its unsorted
    /// resident working set never exceeds `t` records; the reduce-side
    /// k-way merge consumes the extra runs with byte-identical job
    /// output at any threshold. Every workflow this runtime hands out
    /// starts with it; see
    /// [`Workflow::with_spill_threshold`](crate::workflow::Workflow::with_spill_threshold)
    /// and the [`crate::spill`] module for the mechanism.
    pub spill_threshold: Option<usize>,
    /// Per-task fault-tolerance policy (attempts per task) applied to
    /// every workflow this runtime hands out. The
    /// default is [`FaultPolicy::fail_fast`]: the first task panic
    /// ends the resolve with a typed error — task panics never unwind
    /// out of a resolve in any mode, and a failed resolve leaves the
    /// runtime fully usable. See [`crate::fault`].
    pub fault_policy: FaultPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            parallelism: default_parallelism(),
            reduce_tasks: DEFAULT_REDUCE_TASKS,
            spill_threshold: None,
            fault_policy: FaultPolicy::fail_fast(),
        }
    }
}

impl RuntimeConfig {
    /// The defaults: all available cores, [`DEFAULT_REDUCE_TASKS`]
    /// reduce tasks, no spilling, fail-fast.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the default reduce-task count.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        self.reduce_tasks = reduce_tasks;
        self
    }

    /// Bounds each map task's open (unsorted, uncombined) working set
    /// to at most `threshold` records before it is sealed into
    /// immutable sorted runs; `None` restores the never-spill default.
    /// Job output is byte-identical at any threshold — only peak map
    /// memory and the number of runs the reduce-side merge consumes
    /// change.
    ///
    /// # Panics
    /// If `threshold` is `Some(0)` — a map task must be able to hold
    /// at least the record it is currently emitting.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        assert!(
            threshold.is_none_or(|t| t >= 1),
            "spill threshold must be at least one record"
        );
        self.spill_threshold = threshold;
        self
    }

    /// Replaces the fault-tolerance policy (retry budget) every
    /// workflow of this runtime runs under.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }
}

/// An owned, reusable engine handle: a persistent [`WorkerPool`] plus
/// the [`RuntimeConfig`] defaults, created once and shared across
/// back-to-back workflow executions.
///
/// # Concurrency contract
///
/// `Runtime` is `Send + Sync` (asserted at compile time): share one
/// instance behind an `Arc` (or a plain `&Runtime`) across as many
/// threads as you like and call [`Runtime::workflow`] — or the
/// facade's `Resolver::resolve()` — from all of them at once. Stages
/// of concurrent workflows interleave at *operation* granularity on
/// the shared pool: each stage's task batch is tagged with its
/// workflow's tenant and queued on the dispatcher's ready-queue,
/// where free slots claim tasks from the oldest claimable batch.
/// Guarantees that hold under any interleaving:
///
/// * **Determinism** — every workflow's output is byte-identical to
///   running it alone, sequentially: task results land in
///   index-addressed slots, so scheduling order never reaches the
///   data plane.
/// * **Exact metrics** — [`crate::workflow::WorkflowMetrics`] roll up
///   per workflow; concurrent workflows never bleed counters into
///   each other.
/// * **Failure isolation** — one workflow's task panic (or injected
///   [`crate::fault::FaultPlan`]) fails *that* resolve with a typed
///   error; other tenants' dispatch continues unaffected, and the
///   runtime stays fully usable.
/// * **Backpressure** — [`Runtime::pool_stats`] snapshots queue
///   depth, busy slots, and per-tenant inflight work so callers can
///   shed or delay load before submitting.
///
/// ```
/// use mr_engine::runtime::{Runtime, RuntimeConfig};
///
/// let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
/// // Every workflow handed out here executes on the same two threads:
/// let wf = runtime.workflow("first-run");
/// assert!(std::sync::Arc::ptr_eq(wf.pool(), runtime.pool()));
/// assert_eq!(runtime.pool().threads(), 2);
/// ```
pub struct Runtime {
    config: RuntimeConfig,
    pool: Arc<WorkerPool>,
    /// Trace sink seeded into every workflow this runtime hands out;
    /// `None` (the default) runs everything untraced at zero cost.
    trace_sink: Option<Arc<dyn TraceSink>>,
}

// Manual: `dyn TraceSink` carries no `Debug` bound.
impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("config", &self.config)
            .field("pool", &self.pool)
            .field("traced", &self.trace_sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates the runtime, spawning its worker pool — the only place
    /// threads are created; every workflow run on this runtime reuses
    /// them.
    ///
    /// # Panics
    /// If `config.parallelism` is zero.
    pub fn new(config: RuntimeConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.parallelism));
        Self {
            config,
            pool,
            trace_sink: None,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The persistent worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// A consistent snapshot of the pool's dispatch state: queued
    /// tasks, busy slots, registered batches, and inflight tasks per
    /// tenant. This is the backpressure hook for callers multiplexing
    /// many tenants onto one runtime — sample it before submitting
    /// and shed or delay load when the queue is deep or a tenant
    /// already dominates. Sampling takes the scheduler lock briefly;
    /// the snapshot is immediately stale but internally consistent.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Attaches a [`TraceSink`] seeded into every workflow this
    /// runtime hands out, so one sink observes all resolves executed
    /// on the runtime (see [`crate::trace`]). The default (no sink)
    /// runs untraced with zero overhead. The sink lives on the
    /// [`Runtime`] rather than the [`RuntimeConfig`] so the config
    /// stays `Copy`.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// The trace sink seeded into this runtime's workflows, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace_sink.as_ref()
    }

    /// Starts a [`Workflow`] bound to this runtime's pool: its stages
    /// run on the runtime's threads, never spawning their own, under
    /// the runtime's [`RuntimeConfig::fault_policy`] and
    /// [`RuntimeConfig::spill_threshold`] (and trace sink, when one is
    /// attached).
    pub fn workflow(&self, name: impl Into<String>) -> Workflow {
        let mut wf = Workflow::on_pool(name, Arc::clone(&self.pool))
            .with_fault_policy(self.config.fault_policy);
        // Seeded as configured, past `with_spill_threshold`'s check: a
        // zero from a struct literal is the typed error of the session
        // that resolves on this workflow (or that overrides it).
        wf.spill_threshold = self.config.spill_threshold;
        match &self.trace_sink {
            Some(sink) => wf.with_trace_sink(Arc::clone(sink)),
            None => wf,
        }
    }
}

/// Compile-time pin of the concurrency contract: a `Runtime` must
/// stay shareable across threads (see the type docs). A field that
/// breaks `Send + Sync` (e.g. an `Rc` or a bare `RefCell`) fails
/// compilation here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<RuntimeConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{ClosureMapper, ClosureReducer};
    use crate::engine::Job;
    use crate::input::partition_evenly;
    use crate::mapper::MapContext;
    use crate::reducer::{Group, ReduceContext};

    fn count_job(
        r: usize,
    ) -> Job<ClosureMapper<(), u32, u32, u64, ()>, ClosureReducer<u32, u64, u32, u64>> {
        let mapper = ClosureMapper::new(|_: &(), v: &u32, ctx: &mut MapContext<u32, u64, ()>| {
            ctx.emit(v % 5, 1);
        });
        let reducer = ClosureReducer::new(
            |group: Group<'_, u32, u64>, ctx: &mut ReduceContext<u32, u64>| {
                ctx.emit(*group.key(), group.values().sum());
            },
        );
        Job::builder("count", mapper, reducer)
            .reduce_tasks(r)
            .build()
    }

    #[test]
    fn config_builders_compose() {
        let config = RuntimeConfig::new()
            .with_parallelism(3)
            .with_reduce_tasks(7)
            .with_spill_threshold(Some(64));
        assert_eq!(config.parallelism, 3);
        assert_eq!(config.reduce_tasks, 7);
        assert_eq!(config.spill_threshold, Some(64));
        assert_eq!(
            config.with_spill_threshold(None).spill_threshold,
            None,
            "None must restore the never-spill default"
        );
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_spill_threshold_config_rejected() {
        let _ = RuntimeConfig::new().with_spill_threshold(Some(0));
    }

    #[test]
    fn consecutive_workflows_share_one_pool() {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        let input = partition_evenly((0..40u32).map(|v| ((), v)).collect(), 4);
        let mut reference: Option<Vec<Vec<(u32, u64)>>> = None;
        for round in 0..3 {
            let mut wf = runtime.workflow(format!("round-{round}"));
            let out = wf.chained_stage(&count_job(3), input.clone()).unwrap();
            match &reference {
                None => reference = Some(out.reduce_outputs),
                Some(r) => assert_eq!(r, &out.reduce_outputs, "round {round} drifted"),
            }
            assert_eq!(wf.finish().num_stages(), 1);
            assert_eq!(
                runtime.pool().threads_spawned(),
                2,
                "round {round} must not spawn threads"
            );
        }
        assert!(runtime.pool().tasks_executed() > 0);
    }

    #[test]
    fn workflows_spill_at_the_runtime_threshold() {
        let input = partition_evenly((0..40u32).map(|v| ((), v)).collect(), 4);
        let run = |config: RuntimeConfig| {
            let mut wf = Runtime::new(config).workflow("spill");
            wf.chained_stage(&count_job(3), input.clone()).unwrap()
        };
        let plain = run(RuntimeConfig::new().with_parallelism(2));
        let spilled = run(RuntimeConfig::new()
            .with_parallelism(2)
            .with_spill_threshold(Some(2)));
        assert_eq!(plain.metrics.spilled_runs(), 0);
        assert!(spilled.metrics.spilled_runs() > 0);
        assert_eq!(spilled.reduce_outputs, plain.reduce_outputs);
    }

    #[test]
    fn per_workflow_parallelism_cap_reuses_the_pool() {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(3));
        let input = partition_evenly((0..40u32).map(|v| ((), v)).collect(), 4);
        let mut wf = runtime.workflow("wide");
        let expected = wf
            .chained_stage(&count_job(3), input.clone())
            .unwrap()
            .reduce_outputs;
        for cap in [1usize, 2, 8] {
            let mut narrow = runtime
                .workflow(format!("cap-{cap}"))
                .with_parallelism_cap(cap);
            assert_eq!(narrow.parallelism_cap(), Some(cap));
            let out = narrow.chained_stage(&count_job(3), input.clone()).unwrap();
            assert_eq!(out.reduce_outputs, expected, "cap {cap} drifted");
            assert_eq!(
                runtime.pool().threads_spawned(),
                3,
                "cap {cap} must not respawn the pool"
            );
        }
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_parallelism_runtime_rejected() {
        let _ = Runtime::new(RuntimeConfig::new().with_parallelism(0));
    }

    #[test]
    fn pool_stats_snapshot_is_idle_between_runs_and_live_during_them() {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        assert_eq!(runtime.pool_stats(), PoolStats::default());
        let input = partition_evenly((0..40u32).map(|v| ((), v)).collect(), 4);
        let mut wf = runtime.workflow("stats").with_tenant("tenant-x");
        wf.chained_stage(&count_job(3), input).unwrap();
        // All batches drained: the snapshot must be empty again, with
        // no lingering per-tenant inflight entries.
        let after = runtime.pool_stats();
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.busy_slots, 0);
        assert_eq!(after.active_batches, 0);
        assert!(after.per_tenant_inflight.is_empty());
    }
}
