//! Job definition and execution.
//!
//! Execution proceeds in two phases, exactly like Hadoop with a barrier
//! between them: all map tasks run (on the worker pool), their output
//! is partitioned into `r` buckets per task, then each reduce task
//! merges its buckets **in map-task order**, forms groups under the
//! grouping comparator, and invokes the reducer per group.
//!
//! # Shuffle architecture: sorted runs in, streamed groups out
//!
//! The shuffle sort runs entirely on the worker pool, mirroring
//! Hadoop's spill-sort/merge split, and the reduce side never
//! materializes its merged input:
//!
//! 1. **Map side** — each map task routes its output into `r` open
//!    partition buckets *as it is emitted* (the context buffer is
//!    drained after every `map` call, never accumulating the task's
//!    full output). Whenever the open records cross the spill
//!    threshold — a stage's comes from its
//!    [`Workflow::with_spill_threshold`](crate::workflow::Workflow::with_spill_threshold),
//!    a bare [`Job::run_on`]'s from [`JobBuilder::spill_threshold`] —
//!    the whole bucket set is sealed
//!    into immutable sorted runs — each non-empty bucket is
//!    stable-sorted by the key type's `Ord`, exactly like Hadoop's
//!    spill files — and once more at end of task, so each record is
//!    sorted exactly once. A map task therefore holds at most
//!    `threshold` unsorted records (measured by the map-side
//!    [`TaskMetrics::peak_resident_records`](crate::metrics::TaskMetrics)
//!    and [`TaskMetrics::spilled_runs`](crate::metrics::TaskMetrics)
//!    gauges); with no threshold it seals exactly one run per bucket
//!    at the end, the legacy fully-buffered layout. All of this
//!    happens inside the map task body, in parallel across map tasks;
//!    see [`crate::spill`] for the machinery.
//! 2. **Coordinator** — only *transposes* the per-task run lists so
//!    each reduce task receives its `m × (runs per task)` sorted runs
//!    flattened in (map task, seal order): an `O(total runs)` pointer
//!    move, no comparisons.
//!    [`JobMetrics::shuffle_wall`](crate::metrics::JobMetrics)
//!    records this residual coordinator cost.
//! 3. **Reduce side** — each reduce task drives a streaming heap merge
//!    ([`crate::merge::GroupStream`], `O(N_j log k)` comparisons over
//!    its `k` runs) that yields reduce *groups* incrementally. Only
//!    the current group — one maximal run of keys equal under the
//!    grouping comparator — is buffered (in a reusable buffer), plus
//!    at most one head record per unexhausted run. The fully merged
//!    run is never allocated — the extra `O(task input)` copy the
//!    pre-streaming path materialized is gone, and the merge/group
//!    machinery itself buffers only `O(largest group + k)` records
//!    (input runs remain owned by the stream's iterators, with heap
//!    payloads released group by group as they are moved out);
//!    [`TaskMetrics::peak_group_len`](crate::metrics::TaskMetrics) and
//!    [`TaskMetrics::peak_resident_records`](crate::metrics::TaskMetrics)
//!    record the observed machinery peaks per reduce task so the bound
//!    is measured, not asserted.
//!
//! # Determinism guarantee
//!
//! Equal keys arrive in (map task index, seal order, emission
//! order): within a sealed run the map-side sort is stable, a seal
//! contains only records emitted before every record of the next
//! seal, and the heap merge breaks ties toward the lower run index —
//! with runs flattened in (map task, seal) order that bias composes
//! to the lower-indexed map task first, earlier seal next. Since seal
//! boundaries respect emission order, (map task, seal, emission) is
//! the same total order as (map task, emission): the output is
//! byte-identical to concatenating per-task output in map-task order
//! and stable-sorting — the pre-streaming implementation, retained as
//! [`merge_sorted_runs`](crate::merge::merge_sorted_runs) for
//! equivalence tests — at **any** spill threshold and any
//! `parallelism`; `reduce_outputs` is a pure function of (input, job
//! definition). The reduce *input* is identical too: a seal only sorts,
//! so every reduce task receives the same records in the same order
//! whatever the threshold. The test suite asserts this property across
//! spill thresholds × parallelism levels.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::comparator::{natural_order, KeyCmp};
use crate::counters::{self, CounterSet};
use crate::error::MrError;
use crate::fault::{lock_unpoisoned, FaultKind, FaultPlan, FaultPolicy, PhaseFt};
use crate::input::Partitions;
use crate::mapper::{run_map_task_spilling, MapTaskInfo, Mapper};
use crate::merge::GroupStream;
use crate::metrics::{JobMetrics, TaskKind, TaskMetrics};
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::pool::{BatchTag, WorkerPool};
use crate::reducer::{Group, ReduceContext, ReduceTaskInfo, Reducer};
use crate::spill::MapSpiller;
use crate::trace::{SpillTrace, TaskCtx, TraceEventData, Tracer};

/// Where a job's map/reduce tasks execute: a caller-owned
/// [`WorkerPool`], at most `cap` of its slots at a time, every
/// dispatch tagged with the scheduler identity `tag`. Task results
/// land in index-addressed slots, so output is byte-identical at any
/// pool size and cap.
struct Exec<'p> {
    pool: &'p WorkerPool,
    /// Upper bound on concurrently running tasks, the dispatching
    /// thread's included (`usize::MAX` admits every worker plus the
    /// caller lane: one task more than the pool has slots).
    cap: usize,
    /// `(tenant, workflow, stage)`; untagged for bare [`Job::run_on`].
    tag: BatchTag,
}

impl Exec<'_> {
    fn parallelism(&self) -> usize {
        self.cap.min(self.pool.threads())
    }

    /// Runs one phase's tasks under the fault boundary: every task
    /// body executes inside `PhaseFt::run_task` (panic catch + retry
    /// loop) on one batch dispatch.
    fn run_ft<T, F>(&self, count: usize, phase: &PhaseFt<'_>, body: F) -> Vec<Result<T, MrError>>
    where
        T: Send,
        F: Fn(usize, u32, TaskCtx) -> Result<T, MrError> + Sync,
    {
        self.pool.run_tasks_tagged_ctx(
            count,
            self.cap,
            &phase.tracer,
            self.tag.clone(),
            |i, ctx| phase.run_task(i, ctx, |attempt| body(i, attempt, ctx)),
        )
    }

    /// Drops `items` on the pool, one task per item in index order —
    /// a job's map-task products, which may be a map task's whole
    /// entity table or key column: the workers free them in the order
    /// the map tasks allocated them instead of the coordinator freeing
    /// them one after another. Untraced: the batch is no task of the
    /// job's phases. A type without drop glue costs no dispatch.
    fn release<P: Send>(&self, items: Vec<P>) {
        if !std::mem::needs_drop::<P>() {
            return;
        }
        let slots: Vec<Mutex<Option<P>>> = items.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.pool.run_tasks_tagged_ctx(
            slots.len(),
            self.cap,
            &Tracer::off(),
            self.tag.clone(),
            |i, _| drop(lock_unpoisoned(&slots[i]).take()),
        );
    }
}

/// Result of a completed job.
#[derive(Debug)]
pub struct JobOutput<KO, VO, S> {
    /// Reduce outputs per reduce task.
    pub reduce_outputs: Vec<Vec<(KO, VO)>>,
    /// Side-output records per map task ("additional output" files on
    /// the simulated DFS; index == map task index == input partition).
    pub side_outputs: Vec<Vec<S>>,
    /// Execution metrics.
    pub metrics: JobMetrics,
}

impl<KO, VO, S> JobOutput<KO, VO, S> {
    /// All output records in reduce-task order, borrowed — no copy.
    pub fn records(&self) -> impl Iterator<Item = &(KO, VO)> {
        self.reduce_outputs.iter().flatten()
    }

    /// Consumes the output, *moving* the records out in reduce-task
    /// order (metrics and side outputs are dropped; read them first).
    pub fn into_records(self) -> Vec<(KO, VO)> {
        let total = self.reduce_outputs.iter().map(Vec::len).sum();
        let mut records = Vec::with_capacity(total);
        for out in self.reduce_outputs {
            records.extend(out);
        }
        records
    }

    /// Total number of output records.
    pub fn num_records(&self) -> usize {
        self.reduce_outputs.iter().map(Vec::len).sum()
    }
}

/// A fully configured MapReduce job.
pub struct Job<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    name: String,
    mapper: M,
    reducer: R,
    partitioner: Arc<dyn Partitioner<M::KOut>>,
    group_cmp: KeyCmp<M::KOut>,
    reduce_tasks: usize,
    spill_threshold: Option<usize>,
}

// Deliberately free of key bounds (unlike the `builder` impl's
// `M::KOut: Ord` and the `run_on` impl's `Sync` bounds): the workflow
// layer must be able to name a stage under its own minimal bounds.
impl<M, R> Job<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    /// The job name (used in metrics and workflow stage reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same job under `name`, so that a workflow running it more
    /// than once can tell the stages apart in its metrics, its trace
    /// and its fault plan.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl<M, R> Job<M, R>
where
    M: Mapper,
    M::KOut: Ord,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    /// Starts building a job with natural-order grouping and a hash
    /// partitioner (Hadoop defaults). The shuffle always sorts by the
    /// key type's `Ord`.
    pub fn builder(name: impl Into<String>, mapper: M, reducer: R) -> JobBuilder<M, R>
    where
        M::KOut: std::hash::Hash + Sync,
    {
        JobBuilder {
            name: name.into(),
            mapper,
            reducer,
            partitioner: Arc::new(HashPartitioner),
            group_cmp: natural_order::<M::KOut>(),
            reduce_tasks: 1,
            spill_threshold: None,
        }
    }
}

/// Pool size of a default [`crate::runtime::RuntimeConfig`]: one slot
/// per available core.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Builder for [`Job`].
pub struct JobBuilder<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    name: String,
    mapper: M,
    reducer: R,
    partitioner: Arc<dyn Partitioner<M::KOut>>,
    group_cmp: KeyCmp<M::KOut>,
    reduce_tasks: usize,
    spill_threshold: Option<usize>,
}

impl<M, R> JobBuilder<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    /// Sets the number of reduce tasks `r`.
    pub fn reduce_tasks(mut self, r: usize) -> Self {
        self.reduce_tasks = r;
        self
    }

    /// Sets the map-side spill threshold of a bare [`Job::run_on`], in
    /// records: a map task seals its open partition buckets into
    /// immutable sorted runs whenever they hold this many records,
    /// bounding the map phase's unsorted resident set (`None`, the
    /// default, buffers the whole task output and seals once — the
    /// legacy layout). Inside a [`Workflow`](crate::workflow::Workflow)
    /// a stage spills at the workflow's threshold instead
    /// ([`Workflow::with_spill_threshold`](crate::workflow::Workflow::with_spill_threshold)).
    /// Output is byte-identical at any threshold; see [`crate::spill`].
    ///
    /// # Panics
    /// If `threshold` is `Some(0)` — a seal needs at least one record.
    pub fn spill_threshold(mut self, threshold: Option<usize>) -> Self {
        assert!(
            threshold.is_none_or(|t| t >= 1),
            "spill threshold must be at least one record"
        );
        self.spill_threshold = threshold;
        self
    }

    /// Replaces the partition function (`part`).
    pub fn partitioner(mut self, p: impl Partitioner<M::KOut> + 'static) -> Self {
        self.partitioner = Arc::new(p);
        self
    }

    /// Replaces the grouping comparator (`group`). Must be coarser than
    /// or equal to the key type's `Ord`, by which the shuffle sorts.
    pub fn group_by(mut self, cmp: KeyCmp<M::KOut>) -> Self {
        self.group_cmp = cmp;
        self
    }

    /// Finalizes the job.
    pub fn build(self) -> Job<M, R> {
        Job {
            name: self.name,
            mapper: self.mapper,
            reducer: self.reducer,
            partitioner: self.partitioner,
            group_cmp: self.group_cmp,
            reduce_tasks: self.reduce_tasks,
            spill_threshold: self.spill_threshold,
        }
    }
}

struct MapTaskResult<K, V, S, P> {
    /// Sealed sorted runs per reduce task, in seal order.
    runs: Vec<Vec<Vec<(K, V)>>>,
    side: Vec<S>,
    product: P,
    metrics: TaskMetrics,
}

/// Drives one reduce attempt's streaming group loop over either run
/// source — owned (a final attempt moving records out) or borrowed
/// (a retryable attempt cloning them lazily) — lending every group the
/// job's map-task `products`. Groups come
/// out of the heap merge one at a time into a reusable buffer; the
/// merged run is never materialized. Returns `(groups,
/// peak_group_len)`; the stream itself tracks the resident high-water
/// mark (group buffer + buffered run heads, sampled per record so
/// mid-group states count too).
fn drive_reduce<K, V, I, Rd>(
    stream: &mut GroupStream<K, V, I>,
    group_cmp: &KeyCmp<K>,
    products: &[Rd::Product],
    reducer: &mut Rd,
    ctx: &mut ReduceContext<Rd::KOut, Rd::VOut>,
) -> (u64, u64)
where
    K: Ord,
    I: Iterator<Item = (K, V)>,
    Rd: Reducer<KIn = K, VIn = V>,
{
    let mut group_buf: Vec<(K, V)> = Vec::new();
    let mut groups = 0u64;
    let mut peak_group_len = 0u64;
    while stream.next_group(group_cmp, &mut group_buf) {
        groups += 1;
        peak_group_len = peak_group_len.max(group_buf.len() as u64);
        reducer.reduce(Group::new(&group_buf, products), ctx);
    }
    (groups, peak_group_len)
}

impl<M, R> Job<M, R>
where
    M: Mapper,
    M::KOut: Ord + Sync,
    M::VOut: Sync,
    R: Reducer<KIn = M::KOut, VIn = M::VOut, Product = M::Product>,
{
    /// Executes the job over the given input partitions on a
    /// caller-owned [`WorkerPool`]; no thread is spawned in this call.
    /// A bare run is fail-fast and untraced and spills at the
    /// builder's [`JobBuilder::spill_threshold`]: retries, fault
    /// injection, tracing and the spill threshold of a stage are
    /// settings of the [`Workflow`](crate::workflow::Workflow) a job
    /// runs in.
    ///
    /// The number of map tasks `m` equals `input.len()`. The engine's
    /// determinism contract makes the result a pure function of
    /// `(input, job definition)`: output is byte-identical on a pool
    /// of any size.
    pub fn run_on(
        &self,
        pool: &WorkerPool,
        input: Partitions<M::KIn, M::VIn>,
    ) -> Result<JobOutput<R::KOut, R::VOut, M::Side>, MrError> {
        self.run_in(
            pool,
            usize::MAX,
            BatchTag::untagged(),
            FaultPolicy::fail_fast(),
            &FaultPlan::new(),
            Tracer::off(),
            self.spill_threshold,
            input,
        )
    }

    /// Runs on at most `cap` slots of `pool`, every dispatch tagged
    /// `tag` for the pool's shared scheduler (where concurrent
    /// workflows interleave task by task), under `policy`, with `plan`
    /// injecting faults, `tracer` receiving events and map tasks
    /// sealing a run every `spill_threshold` open records.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_in(
        &self,
        pool: &WorkerPool,
        cap: usize,
        tag: BatchTag,
        policy: FaultPolicy,
        plan: &FaultPlan,
        tracer: Tracer,
        spill_threshold: Option<usize>,
        input: Partitions<M::KIn, M::VIn>,
    ) -> Result<JobOutput<R::KOut, R::VOut, M::Side>, MrError> {
        let exec = Exec { pool, cap, tag };
        let job_start = Instant::now();
        let m = input.len();
        let r = self.reduce_tasks;
        if m == 0 {
            return Err(MrError::NoMapTasks);
        }
        if r == 0 {
            return Err(MrError::NoReduceTasks);
        }
        if exec.parallelism() == 0 {
            return Err(MrError::ZeroParallelism);
        }
        tracer.emit_with(None, || TraceEventData::JobStarted {
            job: self.name.clone(),
            map_tasks: m,
            reduce_tasks: r,
        });

        // ---- Map phase -------------------------------------------------
        // Each *attempt* builds a fresh spiller and context over the
        // immutable input partition, so a retried attempt observes
        // exactly the state of the first — the determinism argument of
        // `crate::fault`. As in the reduce phase, an attempt that a
        // retry may follow borrows its partition under the slot's lock,
        // and the final attempt takes it, so a task's input is freed
        // when the task ends rather than with the job.
        let map_phase = PhaseFt {
            policy,
            job: &self.name,
            kind: FaultKind::Map,
            tracer: tracer.clone(),
        };
        let input_slots: Vec<Mutex<Option<Vec<(M::KIn, M::VIn)>>>> = input
            .into_iter()
            .map(|partition| Mutex::new(Some(partition)))
            .collect();
        let map_results: Vec<
            Result<MapTaskResult<M::KOut, M::VOut, M::Side, M::Product>, MrError>,
        > = exec.run_ft(m, &map_phase, |i, attempt, tctx| {
            let start = Instant::now();
            plan.fire(&self.name, FaultKind::Map, i, attempt);
            let mut slot = lock_unpoisoned(&input_slots[i]);
            let taken;
            let partition = if attempt >= policy.max_attempts {
                taken = slot.take();
                taken.as_deref()
            } else {
                slot.as_deref()
            }
            .expect("each map task's input outlives its final attempt");
            let info = MapTaskInfo {
                task_index: i,
                num_map_tasks: m,
                num_reduce_tasks: r,
            };
            // Emitted records stream straight into the spiller,
            // which partitions them into open buckets and seals
            // the set into sorted runs whenever the spill threshold
            // is crossed — the map task never holds more than
            // `threshold` unsorted records plus its sealed runs.
            // Sorting thus runs inside map tasks, in parallel; the
            // coordinator never sorts.
            let mut spiller = MapSpiller::new(self.partitioner.as_ref(), r, spill_threshold)
                .with_trace(tracer.is_on().then(|| SpillTrace {
                    tracer: tracer.clone(),
                    job: self.name.clone(),
                    task: i,
                    slot: Some(tctx.slot),
                }));
            let (mut ctx, product) =
                run_map_task_spilling(&self.mapper, info, partition, |k, v| spiller.push(k, v))?;
            let emitted = ctx.emitted() as u64;
            ctx.counters.add(counters::MAP_OUTPUT_RECORDS, emitted);
            ctx.counters
                .add(counters::MAP_OUTPUT_RECORDS_PRECOMBINE, emitted);
            plan.fire(&self.name, FaultKind::Sort, i, attempt);
            let spilled = spiller.finish();
            let metrics = TaskMetrics {
                kind: TaskKind::Map,
                index: i,
                counters: ctx.counters,
                wall: start.elapsed(),
                peak_group_len: 0,
                peak_resident_records: spilled.peak_open_records,
                spilled_runs: spilled.spilled_runs,
                attempts: attempt,
            };
            Ok(MapTaskResult {
                runs: spilled.runs,
                side: ctx.side,
                product,
                metrics,
            })
        });
        let mut map_tasks_metrics = Vec::with_capacity(m);
        let mut side_outputs = Vec::with_capacity(m);
        // Lent to every reduce task in map-task order; released on the
        // pool once the last reduce task finished.
        let mut products = Vec::with_capacity(m);
        let mut all_runs: Vec<Vec<Vec<Vec<(M::KOut, M::VOut)>>>> = Vec::with_capacity(m);
        for res in map_results {
            let task = res?;
            map_tasks_metrics.push(task.metrics);
            side_outputs.push(task.side);
            products.push(task.product);
            all_runs.push(task.runs);
        }

        // ---- Shuffle ---------------------------------------------------
        // Reduce task j receives every sealed run destined for it,
        // flattened in (map task, seal order). The coordinator only
        // moves run pointers (no comparisons); the k-way merge happens
        // inside each reduce task on the worker pool. Merge ties break
        // toward the lower run index — lower map task first, earlier
        // seal next — so values with equal keys keep (map task,
        // emission) order, the Hadoop-like guarantee that keeps
        // sub-block entities of one input partition contiguous.
        let shuffle_start = Instant::now();
        let mut runs_per_reduce: Vec<Vec<Vec<(M::KOut, M::VOut)>>> =
            (0..r).map(|_| Vec::with_capacity(m)).collect();
        for task_runs in all_runs {
            for (j, runs) in task_runs.into_iter().enumerate() {
                runs_per_reduce[j].extend(runs);
            }
        }
        let total_runs: usize = runs_per_reduce.iter().map(Vec::len).sum();
        // Slots let each reduce closure reach its runs through the
        // shared `Fn` the pool requires. A task's attempts run one
        // after another, so each slot has one user at a time: a
        // non-final attempt borrows the one resident copy under the
        // lock, the final attempt takes ownership.
        let run_slots: Vec<Mutex<Option<Vec<Vec<(M::KOut, M::VOut)>>>>> = runs_per_reduce
            .into_iter()
            .map(|runs| Mutex::new(Some(runs)))
            .collect();
        let shuffle_wall = shuffle_start.elapsed();
        tracer.emit_with(None, || TraceEventData::ShuffleCompleted {
            job: self.name.clone(),
            runs: total_runs,
            wall: shuffle_wall,
        });

        // ---- Reduce phase ----------------------------------------------
        let reduce_phase = PhaseFt {
            policy,
            job: &self.name,
            kind: FaultKind::Reduce,
            tracer: tracer.clone(),
        };
        let reduce_results: Vec<Result<(Vec<(R::KOut, R::VOut)>, TaskMetrics), MrError>> = exec
            .run_ft(r, &reduce_phase, |j, attempt, _| {
                let start = Instant::now();
                plan.fire(&self.name, FaultKind::Reduce, j, attempt);
                let info = ReduceTaskInfo {
                    task_index: j,
                    num_reduce_tasks: r,
                    num_map_tasks: m,
                };
                let mut reducer = self.reducer.clone();
                let mut ctx = ReduceContext::new(info);
                reducer.setup(&info);
                // An attempt that can be followed by a retry (attempt
                // below the budget) must leave the runs in place: it
                // streams them *borrowed*, cloning each record only as
                // the merge delivers it, so a retry finds the runs
                // untouched (never a second full copy). Only the final
                // attempt takes ownership and moves records out. On
                // the fail-fast default (1 attempt) every attempt
                // takes, so the fault boundary adds no copy to the
                // fault-free path.
                let (records_in, groups, peak_group_len, peak_resident_records) =
                    if attempt >= policy.max_attempts {
                        let runs = lock_unpoisoned(&run_slots[j])
                            .take()
                            .expect("each reduce task's runs outlive its final attempt");
                        let records_in: u64 = runs.iter().map(|run| run.len() as u64).sum();
                        let mut stream = GroupStream::new(runs);
                        let (groups, peak_group_len) = drive_reduce(
                            &mut stream,
                            &self.group_cmp,
                            &products,
                            &mut reducer,
                            &mut ctx,
                        );
                        let peak = stream.peak_resident_records() as u64;
                        (records_in, groups, peak_group_len, peak)
                    } else {
                        let guard = lock_unpoisoned(&run_slots[j]);
                        let runs = guard
                            .as_deref()
                            .expect("each reduce task's runs outlive its final attempt");
                        let records_in: u64 = runs.iter().map(|run| run.len() as u64).sum();
                        let mut stream = GroupStream::over(runs);
                        let (groups, peak_group_len) = drive_reduce(
                            &mut stream,
                            &self.group_cmp,
                            &products,
                            &mut reducer,
                            &mut ctx,
                        );
                        let peak = stream.peak_resident_records() as u64;
                        (records_in, groups, peak_group_len, peak)
                    };
                reducer.finish(&mut ctx);
                ctx.counters.add(counters::REDUCE_INPUT_RECORDS, records_in);
                ctx.counters.add(counters::REDUCE_INPUT_GROUPS, groups);
                ctx.counters
                    .add(counters::REDUCE_OUTPUT_RECORDS, ctx.out.len() as u64);
                let metrics = TaskMetrics {
                    kind: TaskKind::Reduce,
                    index: j,
                    counters: ctx.counters,
                    wall: start.elapsed(),
                    peak_group_len,
                    peak_resident_records,
                    spilled_runs: 0,
                    attempts: attempt,
                };
                Ok((ctx.out, metrics))
            });

        let mut reduce_outputs = Vec::with_capacity(r);
        let mut reduce_tasks_metrics = Vec::with_capacity(r);
        for res in reduce_results {
            let (out, metrics) = res?;
            reduce_outputs.push(out);
            reduce_tasks_metrics.push(metrics);
        }
        exec.release(products);

        let mut counters_total = CounterSet::new();
        for t in map_tasks_metrics.iter().chain(reduce_tasks_metrics.iter()) {
            counters_total.merge(&t.counters);
        }
        let metrics = JobMetrics {
            job_name: self.name.clone(),
            map_tasks: map_tasks_metrics,
            reduce_tasks: reduce_tasks_metrics,
            counters: counters_total,
            shuffle_wall,
            wall: job_start.elapsed(),
        };
        tracer.emit_with(None, || TraceEventData::JobFinished {
            job: self.name.clone(),
            wall: metrics.wall,
        });
        Ok(JobOutput {
            reduce_outputs,
            side_outputs,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{ClosureMapper, ClosureReducer};
    use crate::comparator::by_projection;
    use crate::input::partition_evenly;
    use crate::mapper::MapContext;
    use crate::partitioner::FnPartitioner;
    use crate::workflow::Workflow;

    type WcMapper = ClosureMapper<(), String, String, u64, ()>;
    type WcReducer = ClosureReducer<String, u64, String, u64>;

    fn wordcount_builder(r: usize) -> JobBuilder<WcMapper, WcReducer> {
        let mapper = ClosureMapper::new(
            |_: &(), line: &String, ctx: &mut MapContext<String, u64, ()>| {
                for w in line.split_whitespace() {
                    ctx.emit(w.to_string(), 1);
                }
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, String, u64>, ctx: &mut ReduceContext<String, u64>| {
                let sum: u64 = group.values().sum();
                ctx.emit(group.key().clone(), sum);
            },
        );
        Job::builder("wc", mapper, reducer).reduce_tasks(r)
    }

    fn wordcount_job(r: usize) -> Job<WcMapper, WcReducer> {
        wordcount_builder(r).build()
    }

    fn lines(ls: &[&str]) -> Vec<((), String)> {
        ls.iter().map(|l| ((), l.to_string())).collect()
    }

    #[test]
    fn wordcount_end_to_end() {
        let input = partition_evenly(lines(&["a b a", "c b", "a"]), 2);
        let out = wordcount_job(3).run_on(&WorkerPool::new(2), input).unwrap();
        let mut counts: Vec<_> = out.records().cloned().collect();
        counts.sort();
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(out.metrics.map_input_records(), 3);
        assert_eq!(out.metrics.map_output_records(), 6);
    }

    #[test]
    fn determinism_across_parallelism_levels() {
        let input = lines(&["x y z", "y z", "z z y x", "w", "x w y"]);
        let mut reference: Option<Vec<(String, u64)>> = None;
        for p in [1, 2, 4, 8] {
            let out = wordcount_job(4)
                .run_on(&WorkerPool::new(p), partition_evenly(input.clone(), 3))
                .unwrap();
            // Full per-reduce-task structure must match, not just the
            // multiset of records.
            let flat: Vec<(String, u64)> = out.reduce_outputs.concat();
            match &reference {
                None => reference = Some(flat),
                Some(r) => assert_eq!(r, &flat, "parallelism {p} changed the output"),
            }
        }
    }

    #[test]
    fn coarse_grouping_exposes_individual_keys() {
        // Sort by (block, seq), group by block only; the reducer sees
        // the sequence numbers through the per-value key — the exact
        // mechanism PairRange needs for its entity indexes.
        let mapper = ClosureMapper::new(
            |_: &(), v: &(u32, u32), ctx: &mut MapContext<(u32, u32), u32, ()>| {
                ctx.emit(*v, v.1 * 100);
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, (u32, u32), u32>, ctx: &mut ReduceContext<u32, Vec<u32>>| {
                let seqs: Vec<u32> = group.iter().map(|(k, _)| k.1).collect();
                ctx.emit(group.key().0, seqs);
            },
        );
        let input = partition_evenly(
            vec![
                ((), (1u32, 3u32)),
                ((), (1, 1)),
                ((), (2, 5)),
                ((), (1, 2)),
                ((), (2, 4)),
            ],
            2,
        );
        let job = Job::builder("grouping", mapper, reducer)
            .reduce_tasks(1)
            .group_by(by_projection(|k: &(u32, u32)| k.0))
            .build();
        let out = job.run_on(&WorkerPool::new(1), input).unwrap();
        assert_eq!(
            out.metrics.peak_group_len(),
            3,
            "block 1 is the largest streamed group"
        );
        assert_eq!(
            out.into_records(),
            vec![(1, vec![1, 2, 3]), (2, vec![4, 5])],
            "groups must be contiguous and sorted by the full key"
        );
    }

    #[test]
    fn streaming_reduce_matches_materialized_reference_across_parallelism() {
        // Independent oracle for the tentpole: re-derive each reduce
        // task's output with the pre-streaming pipeline (partition →
        // stable sort → materialized merge via `merge_sorted_runs` →
        // boundary scan) and demand byte-equality at every
        // parallelism level. Values encode (map task, emission order)
        // so any stability drift fails loudly.
        use crate::merge::merge_sorted_runs;

        let lines = [
            "the quick brown fox the",
            "lazy dog the fox",
            "quick quick lazy",
            "brown the dog",
            "fox",
        ];
        let m = 3usize;
        let r = 4usize;
        let input: Partitions<(), String> =
            partition_evenly(lines.iter().map(|l| ((), l.to_string())).collect(), m);

        // Reference: simulate map + shuffle by hand.
        let partitioner = HashPartitioner;
        let mut runs_per_reduce: Vec<Vec<Vec<(String, String)>>> =
            (0..r).map(|_| Vec::with_capacity(m)).collect();
        for (i, part) in input.iter().enumerate() {
            let mut buckets: Vec<Vec<(String, String)>> = (0..r).map(|_| Vec::new()).collect();
            let mut emission = 0usize;
            for (_, line) in part {
                for w in line.split_whitespace() {
                    let key = w.to_string();
                    let p = Partitioner::partition(&partitioner, &key, r);
                    buckets[p].push((key, format!("t{i}e{emission}")));
                    emission += 1;
                }
            }
            for bucket in &mut buckets {
                bucket.sort_by(|a, b| a.0.cmp(&b.0));
            }
            for (j, bucket) in buckets.into_iter().enumerate() {
                runs_per_reduce[j].push(bucket);
            }
        }
        let expected: Vec<Vec<(String, Vec<String>)>> = runs_per_reduce
            .into_iter()
            .map(|runs| {
                let run = merge_sorted_runs(runs);
                let mut out = Vec::new();
                let mut lo = 0usize;
                while lo < run.len() {
                    let mut hi = lo + 1;
                    while hi < run.len() && run[hi].0 == run[lo].0 {
                        hi += 1;
                    }
                    out.push((
                        run[lo].0.clone(),
                        run[lo..hi].iter().map(|(_, v)| v.clone()).collect(),
                    ));
                    lo = hi;
                }
                out
            })
            .collect();

        // The real job, with a mapper emitting the same tags.
        for parallelism in [1usize, 2, 4, 8] {
            let mapper = ClosureMapper::new(
                |_: &(), line: &String, ctx: &mut MapContext<String, String, ()>| {
                    for w in line.split_whitespace() {
                        let n = ctx.emitted();
                        ctx.emit(w.to_string(), format!("t{}e{n}", ctx.info().task_index));
                    }
                },
            );
            let reducer = ClosureReducer::new(
                |group: Group<'_, String, String>, ctx: &mut ReduceContext<String, Vec<String>>| {
                    ctx.emit(group.key().clone(), group.values().cloned().collect());
                },
            );
            let out = Job::builder("oracle", mapper, reducer)
                .reduce_tasks(r)
                .build()
                .run_on(&WorkerPool::new(parallelism), input.clone())
                .unwrap();
            assert_eq!(
                out.reduce_outputs, expected,
                "parallelism {parallelism} diverged from the materialized reference"
            );
        }
    }

    #[test]
    fn peak_gauges_measure_streaming_working_set() {
        // "a" x5, "b" x3, "c" x1 over two map tasks, one reduce task:
        // the largest group is 5, and the streaming path must never
        // hold more than (largest group + m run heads) = 7 records —
        // far below the 9-record task input a materialized merge
        // would pin.
        let input = partition_evenly(lines(&["a a a b b c", "a a b"]), 2);
        let out = wordcount_job(1).run_on(&WorkerPool::new(1), input).unwrap();
        let task = &out.metrics.reduce_tasks[0];
        let records_in = task.counter(counters::REDUCE_INPUT_RECORDS);
        assert_eq!(records_in, 9);
        assert_eq!(task.peak_group_len, 5);
        assert!(
            task.peak_resident_records <= task.peak_group_len + 2,
            "resident = group buffer + at most one head per run; got {}",
            task.peak_resident_records
        );
        assert!(
            task.peak_resident_records < records_in,
            "streaming must stay below the materialized bound"
        );
        assert_eq!(out.metrics.peak_group_len(), 5);
        assert_eq!(
            out.metrics.peak_resident_records(),
            task.peak_resident_records
        );
        assert!(out.metrics.peak_resident_fraction() < 1.0);
        // Map tasks report no group peaks; without a spill threshold
        // their open-set high-water is the full task output (6 and 3
        // words respectively).
        assert!(out.metrics.map_tasks.iter().all(|t| t.peak_group_len == 0));
        assert_eq!(out.metrics.map_peak_resident_records(), 6);
        assert_eq!(out.metrics.spilled_runs(), 0, "no threshold, no spills");
    }

    #[test]
    fn spill_threshold_bounds_map_resident_set_and_keeps_output_identical() {
        // 9 records per map task over 3 tasks; thresholds from 1 to
        // beyond the input must leave every reduce output byte-equal
        // while capping the map-side open set.
        let input = lines(&[
            "a b c a b c a b c",
            "c c c a a a b b b",
            "b a b a b a b a b",
        ]);
        let reference = wordcount_job(3)
            .run_on(&WorkerPool::new(1), partition_evenly(input.clone(), 3))
            .unwrap();
        assert_eq!(reference.metrics.spilled_runs(), 0);
        for threshold in [1usize, 2, 4, 9, 100] {
            let mut gauges: Option<(u64, u64)> = None;
            for parallelism in [1usize, 2, 4, 8] {
                let out = wordcount_builder(3)
                    .spill_threshold(Some(threshold))
                    .build()
                    .run_on(
                        &WorkerPool::new(parallelism),
                        partition_evenly(input.clone(), 3),
                    )
                    .unwrap();
                assert_eq!(
                    out.reduce_outputs, reference.reduce_outputs,
                    "threshold {threshold} x parallelism {parallelism} changed the output"
                );
                assert!(
                    out.metrics.map_peak_resident_records() <= threshold as u64,
                    "threshold {threshold}: open set peaked at {}",
                    out.metrics.map_peak_resident_records()
                );
                // The map-side gauges are per-task quantities: they
                // must be invariant under parallelism.
                let now = (
                    out.metrics.map_peak_resident_records(),
                    out.metrics.spilled_runs(),
                );
                match gauges {
                    None => gauges = Some(now),
                    Some(expected) => assert_eq!(
                        now, expected,
                        "threshold {threshold}: gauges drifted at parallelism {parallelism}"
                    ),
                }
                // Each map task emits exactly 9 records, so a
                // threshold of 9 still seals once (on the 9th record);
                // only a threshold beyond the input never spills.
                if threshold <= 9 {
                    assert!(
                        out.metrics.spilled_runs() > 0,
                        "threshold {threshold} must trigger spills"
                    );
                } else {
                    assert_eq!(out.metrics.spilled_runs(), 0);
                }
            }
        }
    }

    #[test]
    fn spilled_runs_reach_the_reducer_in_emission_order() {
        // Single key, threshold 1: every record becomes its own sealed
        // run, and the reducer must still see (map task, emission)
        // order — the multi-run extension of the stability contract.
        let mapper =
            ClosureMapper::new(|_: &(), v: &String, ctx: &mut MapContext<u8, String, ()>| {
                ctx.emit(0u8, v.clone());
            });
        let reducer = ClosureReducer::new(
            |group: Group<'_, u8, String>, ctx: &mut ReduceContext<(), Vec<String>>| {
                ctx.emit((), group.values().cloned().collect());
            },
        );
        let input = vec![
            vec![((), "m0-a".to_string()), ((), "m0-b".to_string())],
            vec![((), "m1-a".to_string())],
            vec![((), "m2-a".to_string()), ((), "m2-b".to_string())],
        ];
        let job = Job::builder("stable-spill", mapper, reducer)
            .reduce_tasks(1)
            .spill_threshold(Some(1))
            .build();
        let out = job.run_on(&WorkerPool::new(4), input).unwrap();
        assert_eq!(
            out.records().next().expect("one record").1,
            vec!["m0-a", "m0-b", "m1-a", "m2-a", "m2-b"]
        );
        assert_eq!(out.metrics.spilled_runs(), 5, "one sealed run per record");
        assert_eq!(out.metrics.map_peak_resident_records(), 1);
    }

    #[test]
    fn spill_threshold_survives_pooled_and_capped_execution() {
        let input = partition_evenly(lines(&["x y z", "y z", "z z y x", "w", "x w y"]), 3);
        let reference = wordcount_job(4)
            .run_on(&WorkerPool::new(1), input.clone())
            .unwrap();
        let pool = Arc::new(WorkerPool::new(4));
        let job = wordcount_builder(4).spill_threshold(Some(2)).build();
        let pooled = job.run_on(&pool, input.clone()).unwrap();
        assert_eq!(pooled.reduce_outputs, reference.reduce_outputs);
        assert!(
            pooled.metrics.spilled_runs() > 0,
            "the builder's threshold spills"
        );
        for cap in [1usize, 2, 3, 8] {
            let capped = Workflow::on_pool("capped", Arc::clone(&pool))
                .with_parallelism_cap(cap)
                .with_spill_threshold(Some(2))
                .chained_stage(&wordcount_job(4), input.clone())
                .unwrap();
            assert_eq!(
                capped.reduce_outputs, reference.reduce_outputs,
                "cap {cap} diverged"
            );
            assert_eq!(
                capped.metrics.spilled_runs(),
                pooled.metrics.spilled_runs(),
                "cap {cap}: the workflow's threshold seals the same runs"
            );
        }
        // Inside a workflow the workflow's threshold governs, not the
        // builder's.
        let unspilled = Workflow::on_pool("unspilled", Arc::clone(&pool))
            .chained_stage(&job, input)
            .unwrap();
        assert_eq!(unspilled.metrics.spilled_runs(), 0);
        assert_eq!(unspilled.reduce_outputs, reference.reduce_outputs);
        assert_eq!(pool.threads_spawned(), 4, "caps must not spawn threads");
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_spill_threshold_is_rejected() {
        let _ = wordcount_builder(1).spill_threshold(Some(0));
    }

    #[test]
    fn stable_shuffle_keeps_map_task_order_for_equal_keys() {
        // All records share one key; values must arrive in (map task,
        // emission) order at the single reduce task.
        let mapper =
            ClosureMapper::new(|_: &(), v: &String, ctx: &mut MapContext<u8, String, ()>| {
                ctx.emit(0u8, v.clone());
            });
        let reducer = ClosureReducer::new(
            |group: Group<'_, u8, String>, ctx: &mut ReduceContext<(), Vec<String>>| {
                ctx.emit((), group.values().cloned().collect());
            },
        );
        let input = vec![
            vec![((), "m0-a".to_string()), ((), "m0-b".to_string())],
            vec![((), "m1-a".to_string())],
            vec![((), "m2-a".to_string()), ((), "m2-b".to_string())],
        ];
        let job = Job::builder("stable", mapper, reducer)
            .reduce_tasks(1)
            .build();
        let out = job.run_on(&WorkerPool::new(4), input).unwrap();
        assert_eq!(
            out.records().next().expect("one record").1,
            vec!["m0-a", "m0-b", "m1-a", "m2-a", "m2-b"]
        );
    }

    #[test]
    fn custom_partitioner_routes_by_key_component() {
        let mapper = ClosureMapper::new(
            |_: &(), v: &u32, ctx: &mut MapContext<(usize, u32), u32, ()>| {
                ctx.emit(((*v % 2) as usize, *v), *v);
            },
        );
        let reducer = ClosureReducer::new(
            |group: Group<'_, (usize, u32), u32>, ctx: &mut ReduceContext<usize, u32>| {
                for v in group.values() {
                    ctx.emit(group.key().0, *v);
                }
            },
        );
        let job = Job::builder("route", mapper, reducer)
            .reduce_tasks(2)
            .partitioner(FnPartitioner::new(|k: &(usize, u32), r: usize| k.0 % r))
            .build();
        let input = partition_evenly((0..10u32).map(|v| ((), v)).collect(), 3);
        let out = job.run_on(&WorkerPool::new(1), input).unwrap();
        // Reduce task 0 got evens, task 1 got odds.
        assert!(out.reduce_outputs[0].iter().all(|(_, v)| v % 2 == 0));
        assert!(out.reduce_outputs[1].iter().all(|(_, v)| v % 2 == 1));
        assert_eq!(out.reduce_outputs[0].len(), 5);
        assert_eq!(out.reduce_outputs[1].len(), 5);
    }

    #[test]
    fn out_of_range_partition_is_an_error() {
        let mapper = ClosureMapper::new(|_: &(), v: &u32, ctx: &mut MapContext<u32, u32, ()>| {
            ctx.emit(*v, *v);
        });
        let reducer = ClosureReducer::new(
            |group: Group<'_, u32, u32>, ctx: &mut ReduceContext<u32, u32>| {
                ctx.emit(*group.key(), group.len() as u32);
            },
        );
        let job = Job::builder("bad", mapper, reducer)
            .reduce_tasks(2)
            .partitioner(FnPartitioner::new(|_: &u32, _| 99))
            .build();
        let err = job
            .run_on(&WorkerPool::new(1), vec![vec![((), 1u32)]])
            .unwrap_err();
        assert_eq!(
            err,
            MrError::PartitionOutOfRange {
                got: 99,
                num_reduce_tasks: 2
            }
        );
    }

    #[test]
    fn empty_input_partitions_still_run() {
        // m partitions where some are empty: valid (paper's BDM may
        // contain empty partitions for a block).
        let input = vec![lines(&["a"]).remove(0)]
            .into_iter()
            .map(|kv| vec![kv])
            .collect::<Vec<_>>();
        let mut input = input;
        input.push(vec![]); // empty partition
        let out = wordcount_job(2).run_on(&WorkerPool::new(1), input).unwrap();
        assert_eq!(
            out.records().cloned().collect::<Vec<_>>(),
            vec![("a".to_string(), 1)]
        );
        assert_eq!(out.metrics.map_tasks.len(), 2);
    }

    #[test]
    fn no_input_is_an_error() {
        let err = wordcount_job(1)
            .run_on(&WorkerPool::new(1), vec![])
            .unwrap_err();
        assert_eq!(err, MrError::NoMapTasks);
    }

    #[test]
    fn zero_reduce_tasks_is_an_error() {
        let err = wordcount_job(0)
            .run_on(&WorkerPool::new(1), partition_evenly(lines(&["a"]), 1))
            .unwrap_err();
        assert_eq!(err, MrError::NoReduceTasks);
    }

    #[test]
    fn shuffle_wall_excludes_the_sort() {
        // A job big enough that sorting takes measurable time: the
        // coordinator's shuffle share must stay a tiny fraction of the
        // total wall because sorting/merging runs inside tasks.
        let input = partition_evenly(
            (0..20_000u32)
                .map(|v| ((), format!("w{}", v % 997)))
                .collect(),
            8,
        );
        let out = wordcount_job(4).run_on(&WorkerPool::new(2), input).unwrap();
        assert!(
            out.metrics.shuffle_wall.as_secs_f64() < 0.25 * out.metrics.wall.as_secs_f64(),
            "coordinator shuffle {:?} must be a transpose, not a sort, of job wall {:?}",
            out.metrics.shuffle_wall,
            out.metrics.wall
        );
        let reduce_wall: std::time::Duration =
            out.metrics.reduce_tasks.iter().map(|t| t.wall).sum();
        assert!(
            reduce_wall > std::time::Duration::ZERO,
            "merge cost must be attributed to reduce tasks"
        );
    }

    #[test]
    fn fail_once_retry_is_byte_identical_at_every_kind_and_parallelism() {
        use crate::fault::{FaultKind, FaultPlan, FaultPolicy};
        let input = lines(&["x y z", "y z", "z z y x", "w", "x w y"]);
        let reference = wordcount_job(4)
            .run_on(&WorkerPool::new(1), partition_evenly(input.clone(), 3))
            .unwrap();
        for kind in [FaultKind::Map, FaultKind::Sort, FaultKind::Reduce] {
            for parallelism in [1usize, 2, 4, 8] {
                let plan = FaultPlan::new().silence_injected_panics().panic_at(
                    FaultPlan::ANY_JOB,
                    kind,
                    0,
                    1,
                    "injected once",
                );
                let out = Workflow::on_pool("retry", Arc::new(WorkerPool::new(parallelism)))
                    .with_fault_policy(FaultPolicy::retry(2))
                    .with_fault_plan(plan)
                    .chained_stage(&wordcount_job(4), partition_evenly(input.clone(), 3))
                    .unwrap();
                assert_eq!(
                    out.reduce_outputs, reference.reduce_outputs,
                    "{kind} fault at parallelism {parallelism} changed the output"
                );
                assert_eq!(out.metrics.tasks_retried(), 1, "{kind} x{parallelism}");
            }
        }
    }

    /// Keeps the lines its map task read as the task's product: `(map
    /// task, lines)`.
    #[derive(Clone, Default)]
    struct LineKeeper {
        task: usize,
        lines: Vec<String>,
    }

    impl Mapper for LineKeeper {
        type KIn = ();
        type VIn = String;
        type KOut = String;
        type VOut = u64;
        type Side = ();
        type Product = (usize, Vec<String>);

        fn setup(&mut self, info: &MapTaskInfo) {
            self.task = info.task_index;
        }

        fn map(&mut self, _: &(), line: &String, ctx: &mut MapContext<String, u64, ()>) {
            self.lines.push(line.clone());
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        }

        fn into_product(self) -> (usize, Vec<String>) {
            (self.task, self.lines)
        }
    }

    /// Emits, per group, the products the group lends.
    #[derive(Clone)]
    struct ProductReader;

    impl Reducer for ProductReader {
        type KIn = String;
        type VIn = u64;
        type KOut = String;
        type VOut = Vec<(usize, Vec<String>)>;
        type Product = (usize, Vec<String>);

        fn reduce(
            &mut self,
            group: Group<'_, String, u64, (usize, Vec<String>)>,
            ctx: &mut ReduceContext<String, Vec<(usize, Vec<String>)>>,
        ) {
            ctx.emit(group.key().clone(), group.products().to_vec());
        }
    }

    #[test]
    fn products_reach_every_reduce_task_in_map_task_order() {
        use crate::fault::{FaultKind, FaultPlan, FaultPolicy};
        let input = partition_evenly(
            lines(&["a b c d e", "f g h", "i j k l", "m n o", "p q r s t u"]),
            3,
        );
        let expected: Vec<(usize, Vec<String>)> = input
            .iter()
            .enumerate()
            .map(|(task, records)| (task, records.iter().map(|(_, l)| l.clone()).collect()))
            .collect();
        let job = Job::builder("products", LineKeeper::default(), ProductReader)
            .reduce_tasks(4)
            .build();
        let faults = [
            None,
            Some(FaultKind::Map),
            // Fires after the mapper ran: the failed attempt had built
            // its product, and the retry's must replace it.
            Some(FaultKind::Sort),
        ];
        for fault in faults {
            for parallelism in [1usize, 2, 4, 8] {
                let mut plan = FaultPlan::new().silence_injected_panics();
                if let Some(kind) = fault {
                    plan = plan.panic_at(FaultPlan::ANY_JOB, kind, 1, 1, "injected once");
                }
                let out = Workflow::on_pool("products", Arc::new(WorkerPool::new(parallelism)))
                    .with_fault_policy(FaultPolicy::retry(2))
                    .with_fault_plan(plan)
                    .chained_stage(&job, input.clone())
                    .unwrap();
                let context = format!("{fault:?} fault at parallelism {parallelism}");
                assert_eq!(
                    out.metrics.tasks_retried(),
                    u64::from(fault.is_some()),
                    "{context}"
                );
                for (task, records) in out.reduce_outputs.iter().enumerate() {
                    assert!(!records.is_empty(), "reduce task {task} ran no group");
                    for (word, products) in records {
                        assert_eq!(products, &expected, "{word} on task {task}, {context}");
                    }
                }
            }
        }
    }

    /// A product that logs its map task when it is dropped.
    #[derive(Default)]
    struct Logged {
        task: usize,
        log: Option<Arc<Mutex<Vec<usize>>>>,
    }

    impl Drop for Logged {
        fn drop(&mut self) {
            if let Some(log) = &self.log {
                log.lock().unwrap().push(self.task);
            }
        }
    }

    /// Leaves a [`Logged`] product per map task.
    #[derive(Clone, Default)]
    struct DropLogger {
        task: usize,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Mapper for DropLogger {
        type KIn = ();
        type VIn = String;
        type KOut = String;
        type VOut = u64;
        type Side = ();
        type Product = Logged;

        fn setup(&mut self, info: &MapTaskInfo) {
            self.task = info.task_index;
        }

        fn map(&mut self, _: &(), line: &String, ctx: &mut MapContext<String, u64, ()>) {
            ctx.emit(line.clone(), 1);
        }

        fn into_product(self) -> Logged {
            Logged {
                task: self.task,
                log: Some(self.log),
            }
        }
    }

    #[derive(Clone)]
    struct CountProducts;

    impl Reducer for CountProducts {
        type KIn = String;
        type VIn = u64;
        type KOut = String;
        type VOut = usize;
        type Product = Logged;

        fn reduce(
            &mut self,
            group: Group<'_, String, u64, Logged>,
            ctx: &mut ReduceContext<String, usize>,
        ) {
            ctx.emit(group.key().clone(), group.products().len());
        }
    }

    #[test]
    fn products_are_released_on_the_pool_before_the_job_returns() {
        for parallelism in [1usize, 2, 4] {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mapper = DropLogger {
                task: 0,
                log: Arc::clone(&log),
            };
            let job = Job::builder("release", mapper, CountProducts)
                .reduce_tasks(2)
                .build();
            let input = partition_evenly(lines(&["a", "b", "c", "d", "e"]), 5);
            let out = job.run_on(&WorkerPool::new(parallelism), input).unwrap();
            assert!(out.records().all(|(_, lent)| *lent == 5));
            let mut released = log.lock().unwrap().clone();
            if parallelism == 1 {
                assert_eq!(released, [0, 1, 2, 3, 4], "map-task order inline");
            }
            released.sort_unstable();
            assert_eq!(
                released,
                [0, 1, 2, 3, 4],
                "each product once, at p = {parallelism}"
            );
        }
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error_not_panic() {
        use crate::fault::{FaultKind, FaultPlan, FaultPolicy};
        let input = partition_evenly(lines(&["a b", "c d"]), 2);
        let plan = FaultPlan::new().silence_injected_panics().panic_always(
            "wc",
            FaultKind::Reduce,
            1,
            "always dies",
        );
        let err = Workflow::on_pool("exhaust", Arc::new(WorkerPool::new(2)))
            .with_fault_policy(FaultPolicy::retry(3))
            .with_fault_plan(plan)
            .chained_stage(&wordcount_job(2), input)
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed, got {err:?}");
        };
        assert_eq!(task_error.job, "wc");
        assert_eq!(task_error.kind, FaultKind::Reduce);
        assert_eq!(task_error.task, 1);
        assert_eq!(task_error.attempts, 3);
        assert_eq!(task_error.payload, "always dies");
    }

    #[test]
    fn fail_fast_catches_the_panic_at_the_boundary() {
        use crate::fault::{FaultKind, FaultPlan};
        // Default policy: no retry, but still a typed error — the
        // panic must not unwind out of the stage.
        let plan = FaultPlan::new().silence_injected_panics().panic_at(
            "wc",
            FaultKind::Map,
            0,
            1,
            "first failure",
        );
        let err = Workflow::on_pool("fail-fast", Arc::new(WorkerPool::new(2)))
            .with_fault_plan(plan)
            .chained_stage(&wordcount_job(2), partition_evenly(lines(&["a b", "c"]), 2))
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed, got {err:?}");
        };
        assert_eq!(task_error.attempts, 1);
        assert_eq!(task_error.kind, FaultKind::Map);
    }

    #[test]
    fn pool_survives_a_failed_job_and_reruns_byte_identically() {
        use crate::fault::{FaultKind, FaultPlan, FaultPolicy};
        let input = partition_evenly(lines(&["x y z", "y z", "w w"]), 3);
        let pool = Arc::new(WorkerPool::new(4));
        let reference = wordcount_job(4)
            .run_on(&WorkerPool::new(1), input.clone())
            .unwrap();
        let plan = FaultPlan::new().silence_injected_panics().panic_always(
            FaultPlan::ANY_JOB,
            FaultKind::Map,
            1,
            "doomed",
        );
        for _ in 0..2 {
            let err = Workflow::on_pool("doomed", Arc::clone(&pool))
                .with_fault_policy(FaultPolicy::retry(2))
                .with_fault_plan(plan.clone())
                .chained_stage(&wordcount_job(4), input.clone())
                .unwrap_err();
            assert!(matches!(err, MrError::TaskFailed(_)));
        }
        // The same pool immediately completes a clean job with output
        // identical to the inline reference and no new threads.
        let out = wordcount_job(4).run_on(&pool, input.clone()).unwrap();
        assert_eq!(out.reduce_outputs, reference.reduce_outputs);
        assert_eq!(pool.threads_spawned(), 4, "failures must not spawn threads");
    }

    #[test]
    fn metrics_record_per_task_data() {
        let input = partition_evenly(lines(&["a b", "c d e", "f"]), 3);
        let out = wordcount_job(2).run_on(&WorkerPool::new(1), input).unwrap();
        assert_eq!(out.metrics.map_tasks.len(), 3);
        assert_eq!(out.metrics.reduce_tasks.len(), 2);
        let map_task = |i: usize, counter| out.metrics.map_tasks[i].counter(counter);
        assert_eq!(map_task(0, counters::MAP_INPUT_RECORDS), 1);
        assert_eq!(map_task(1, counters::MAP_OUTPUT_RECORDS), 3);
        let group_total: u64 = out
            .metrics
            .reduce_tasks
            .iter()
            .map(|t| t.counter(counters::REDUCE_INPUT_GROUPS))
            .sum();
        assert_eq!(group_total, 6, "six distinct words -> six groups");
    }
}
