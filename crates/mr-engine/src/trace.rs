//! Structured execution tracing: an event stream from the engine's hot
//! path, pluggable sinks, and a post-run analyzer.
//!
//! [`JobMetrics`](crate::metrics::JobMetrics) answers *how much* — how
//! many retries, how many spilled runs, how large the biggest reduce
//! group was. It cannot answer *when* or *where*: which pool slot ran
//! the straggling reduce task, or how long an attempt sat queued
//! behind the skewed one. This module adds that dimension as a stream
//! of [`TraceEvent`]s emitted while a job runs, delivered to a
//! [`TraceSink`] the caller attaches to the workflow the job runs in,
//! via [`Workflow::with_trace_sink`](crate::workflow::Workflow::with_trace_sink)
//! or [`Runtime::with_trace_sink`](crate::runtime::Runtime::with_trace_sink)
//! (a bare [`Job::run_on`](crate::engine::Job::run_on) runs untraced).
//!
//! With no sink attached the engine constructs **no events at all**:
//! every instrumentation point is guarded by a single
//! `Option<Arc<_>>` check, so the fault-free hot path stays within its
//! existing noise band.
//!
//! # Event schema
//!
//! Every event carries `at` (a monotonic offset from the run's epoch)
//! and, where a worker slot is attributable, the pool slot index. The
//! payload splits into two families:
//!
//! * **Logical lifecycle events** — job/stage start+finish, task
//!   *attempt* start/finish/fail/retry (coordinates `(job, kind,
//!   task, attempt)` match [`TaskError`](crate::fault::TaskError)),
//!   spill-run sealed, shuffle transpose. Stripped of timestamps and
//!   slot ids (see [`TraceEventData::logical_line`]), the multiset of
//!   these events is **byte-identical across parallelism** for any
//!   deterministic fault plan, and each category's count agrees
//!   exactly with the corresponding `JobMetrics` gauge. That makes
//!   the trace a correctness probe, not just a log.
//! * **Operational events** — worker slot acquired/released, stage
//!   batch ready/admitted, queue depth at enqueue, per-attempt queue
//!   wait. These are genuinely timing- and parallelism-dependent and
//!   are excluded from the logical view.
//!
//! # Attaching a sink and reading a report
//!
//! ```
//! use std::sync::Arc;
//! use mr_engine::prelude::*;
//!
//! let recorder = Arc::new(TraceRecorder::new());
//! let mapper = ClosureMapper::new(|_k: &(), v: &u32, ctx: &mut MapContext<u32, u64, ()>| {
//!     ctx.emit(v % 3, 1);
//! });
//! let reducer = ClosureReducer::new(|g: Group<'_, u32, u64>, ctx: &mut ReduceContext<u32, u64>| {
//!     ctx.emit(*g.key(), g.values().sum());
//! });
//! let job = Job::builder("demo", mapper, reducer).reduce_tasks(2).build();
//! let mut workflow = Workflow::on_pool("demo", Arc::new(WorkerPool::new(2)))
//!     .with_trace_sink(recorder.clone());
//! let out = workflow
//!     .chained_stage(&job, partition_evenly((0..12u32).map(|v| ((), v)).collect(), 3))
//!     .unwrap();
//!
//! // One finished attempt per map and reduce task, matching the metrics:
//! let tasks = out.metrics.map_tasks.len() + out.metrics.reduce_tasks.len();
//! assert_eq!(recorder.count("attempt_finished"), tasks as u64);
//!
//! // The analyzer turns the raw stream into per-slot utilization and
//! // queue-wait percentiles, exportable as JSON:
//! let report = TraceReport::from_events(&recorder.events());
//! assert_eq!(report.count("job_finished"), 1);
//! println!("{}", report.to_json());
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::fault::{lock_unpoisoned, FaultKind};
use crate::json::Json;

/// One execution event: a monotonic timestamp (offset from the run
/// epoch), the worker slot it is attributable to (if any), and the
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic offset from the run's epoch: the start of the
    /// [`Workflow`](crate::workflow::Workflow) the event's stage ran in.
    pub at: Duration,
    /// Pool worker-slot index, when the event happened on (or is
    /// attributable to) a specific slot. Coordinator-side events and
    /// inline (parallelism 1) execution report `None` or slot 0
    /// respectively.
    pub slot: Option<usize>,
    /// What happened.
    pub data: TraceEventData,
}

impl TraceEvent {
    /// Renders the event as one JSON object (one JSONL line for
    /// [`JsonlSink`]). Durations are exported in fractional
    /// milliseconds.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("event".into(), Json::str(self.data.category())),
            ("at_ms".into(), dur_ms(self.at)),
            (
                "slot".into(),
                match self.slot {
                    Some(s) => Json::Num(s as f64),
                    None => Json::Null,
                },
            ),
        ];
        self.data.push_json_members(&mut members);
        Json::Obj(members)
    }
}

/// The payload of a [`TraceEvent`]: what happened, with the
/// coordinates needed to correlate it back to tasks and metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventData {
    /// A job began executing (after input validation).
    JobStarted {
        /// Job name.
        job: String,
        /// Number of map tasks (input partitions).
        map_tasks: usize,
        /// Number of reduce tasks.
        reduce_tasks: usize,
    },
    /// A job finished successfully.
    JobFinished {
        /// Job name.
        job: String,
        /// The job's total wall time (the critical path).
        wall: Duration,
    },
    /// A workflow stage began.
    StageStarted {
        /// Workflow name.
        workflow: String,
        /// Job name of the stage.
        job: String,
        /// Zero-based stage index within the workflow.
        stage: usize,
    },
    /// A workflow stage finished.
    StageFinished {
        /// Workflow name.
        workflow: String,
        /// Job name of the stage.
        job: String,
        /// Zero-based stage index within the workflow.
        stage: usize,
        /// Stage wall time.
        wall: Duration,
    },
    /// A task attempt began executing its body.
    AttemptStarted {
        /// Job name.
        job: String,
        /// Phase of the failed work, matching [`FaultKind`].
        kind: FaultKind,
        /// Task index within the phase.
        task: usize,
        /// One-based attempt number.
        attempt: u32,
    },
    /// A task attempt completed successfully.
    AttemptFinished {
        /// Job name.
        job: String,
        /// Phase.
        kind: FaultKind,
        /// Task index.
        task: usize,
        /// One-based attempt number.
        attempt: u32,
        /// Attempt body wall time (excludes queue wait).
        wall: Duration,
    },
    /// A task attempt failed (panicked or returned an error).
    AttemptFailed {
        /// Job name.
        job: String,
        /// Phase.
        kind: FaultKind,
        /// Task index.
        task: usize,
        /// One-based attempt number.
        attempt: u32,
        /// The failure description (panic message or error text).
        message: String,
    },
    /// A failed attempt is being retried.
    AttemptRetried {
        /// Job name.
        job: String,
        /// Phase.
        kind: FaultKind,
        /// Task index.
        task: usize,
        /// The attempt number the retry will run as.
        next_attempt: u32,
    },
    /// A map task sealed one open bucket into an immutable sorted run.
    SpillRunSealed {
        /// Job name.
        job: String,
        /// Map task index.
        task: usize,
        /// Reduce task (bucket) the run belongs to.
        reduce_task: usize,
        /// Records in the sealed run.
        records: usize,
    },
    /// The coordinator finished transposing map-side runs to reduce
    /// tasks.
    ShuffleCompleted {
        /// Job name.
        job: String,
        /// Total sorted runs handed to reduce tasks.
        runs: usize,
        /// Transpose wall time (matches `JobMetrics::shuffle_wall`).
        wall: Duration,
    },
    /// A pool worker slot picked up work for this dispatch.
    SlotAcquired {
        /// Tenant of the batch the slot will work on.
        tenant: Option<String>,
    },
    /// A pool worker slot finished its share of a dispatch.
    SlotReleased,
    /// A tagged stage batch was registered on the pool's shared
    /// ready-queue (not yet running).
    StageReady {
        /// Tenant that submitted the batch.
        tenant: String,
        /// Workflow name.
        workflow: String,
        /// Zero-based stage index within the workflow.
        stage: usize,
        /// Tasks in the batch.
        tasks: usize,
    },
    /// The scheduler admitted a registered stage batch: its first task
    /// was claimed by a worker (or by dispatcher caller-help).
    StageAdmitted {
        /// Tenant that submitted the batch.
        tenant: String,
        /// Workflow name.
        workflow: String,
        /// Zero-based stage index within the workflow.
        stage: usize,
    },
    /// A batch of tasks was pushed onto the pool queue.
    TasksEnqueued {
        /// Tasks in this dispatch.
        tasks: usize,
        /// Queue depth right after the push (unclaimed tasks across
        /// all registered batches, including these).
        queue_depth: usize,
    },
    /// A task attempt was picked up; `wait` is enqueue → start.
    QueueWaited {
        /// Job name.
        job: String,
        /// Phase.
        kind: FaultKind,
        /// Task index.
        task: usize,
        /// Scheduling delay: time between dispatch enqueue and the
        /// task body starting on a worker.
        wait: Duration,
    },
}

impl TraceEventData {
    /// Stable category name: the `event` member of the JSONL encoding
    /// and the key of [`TraceRecorder::count`] / [`TraceReport::count`].
    pub fn category(&self) -> &'static str {
        match self {
            TraceEventData::JobStarted { .. } => "job_started",
            TraceEventData::JobFinished { .. } => "job_finished",
            TraceEventData::StageStarted { .. } => "stage_started",
            TraceEventData::StageFinished { .. } => "stage_finished",
            TraceEventData::AttemptStarted { .. } => "attempt_started",
            TraceEventData::AttemptFinished { .. } => "attempt_finished",
            TraceEventData::AttemptFailed { .. } => "attempt_failed",
            TraceEventData::AttemptRetried { .. } => "attempt_retried",
            TraceEventData::SpillRunSealed { .. } => "spill_run_sealed",
            TraceEventData::ShuffleCompleted { .. } => "shuffle_completed",
            TraceEventData::SlotAcquired { .. } => "slot_acquired",
            TraceEventData::SlotReleased => "slot_released",
            TraceEventData::StageReady { .. } => "stage_ready",
            TraceEventData::StageAdmitted { .. } => "stage_admitted",
            TraceEventData::TasksEnqueued { .. } => "tasks_enqueued",
            TraceEventData::QueueWaited { .. } => "queue_waited",
        }
    }

    /// The event's parallelism-invariant rendering: its category and
    /// its JSON members as `name=value`, less the wall-time members
    /// (`wall_ms`, `wait_ms`; the timestamp and slot of
    /// [`TraceEvent::to_json`] are the event's, not the payload's).
    /// Returns `None` for operational events (queue, slot, scheduler),
    /// whose very occurrence depends on timing. For a deterministic
    /// fault plan, the sorted multiset of these lines is byte-identical
    /// at any parallelism.
    pub fn logical_line(&self) -> Option<String> {
        // Scheduler events are operational: whether a stage batch is
        // even registered depends on the inline fast path, and
        // admission order on tenant timing — so none of them may enter
        // the logical stream the parallelism-invariance tests pin.
        if matches!(
            self,
            TraceEventData::SlotAcquired { .. }
                | TraceEventData::SlotReleased
                | TraceEventData::StageReady { .. }
                | TraceEventData::StageAdmitted { .. }
                | TraceEventData::TasksEnqueued { .. }
                | TraceEventData::QueueWaited { .. }
        ) {
            return None;
        }
        let mut members = Vec::new();
        self.push_json_members(&mut members);
        let mut line = self.category().to_string();
        for (name, value) in &members {
            match value {
                _ if name == "wall_ms" || name == "wait_ms" => {}
                Json::Str(text) => line.push_str(&format!(" {name}={text}")),
                other => line.push_str(&format!(" {name}={other}")),
            }
        }
        Some(line)
    }

    fn push_json_members(&self, members: &mut Vec<(String, Json)>) {
        let mut push = |k: &str, v: Json| members.push((k.to_string(), v));
        match self {
            TraceEventData::JobStarted {
                job,
                map_tasks,
                reduce_tasks,
            } => {
                push("job", Json::str(job));
                push("map_tasks", Json::Num(*map_tasks as f64));
                push("reduce_tasks", Json::Num(*reduce_tasks as f64));
            }
            TraceEventData::JobFinished { job, wall } => {
                push("job", Json::str(job));
                push("wall_ms", dur_ms(*wall));
            }
            TraceEventData::StageStarted {
                workflow,
                job,
                stage,
            } => {
                push("workflow", Json::str(workflow));
                push("job", Json::str(job));
                push("stage", Json::Num(*stage as f64));
            }
            TraceEventData::StageFinished {
                workflow,
                job,
                stage,
                wall,
            } => {
                push("workflow", Json::str(workflow));
                push("job", Json::str(job));
                push("stage", Json::Num(*stage as f64));
                push("wall_ms", dur_ms(*wall));
            }
            TraceEventData::AttemptStarted {
                job,
                kind,
                task,
                attempt,
            } => {
                push("job", Json::str(job));
                push("kind", Json::str(kind.to_string()));
                push("task", Json::Num(*task as f64));
                push("attempt", Json::Num(*attempt as f64));
            }
            TraceEventData::AttemptFinished {
                job,
                kind,
                task,
                attempt,
                wall,
            } => {
                push("job", Json::str(job));
                push("kind", Json::str(kind.to_string()));
                push("task", Json::Num(*task as f64));
                push("attempt", Json::Num(*attempt as f64));
                push("wall_ms", dur_ms(*wall));
            }
            TraceEventData::AttemptFailed {
                job,
                kind,
                task,
                attempt,
                message,
            } => {
                push("job", Json::str(job));
                push("kind", Json::str(kind.to_string()));
                push("task", Json::Num(*task as f64));
                push("attempt", Json::Num(*attempt as f64));
                push("message", Json::str(message));
            }
            TraceEventData::AttemptRetried {
                job,
                kind,
                task,
                next_attempt,
            } => {
                push("job", Json::str(job));
                push("kind", Json::str(kind.to_string()));
                push("task", Json::Num(*task as f64));
                push("next_attempt", Json::Num(*next_attempt as f64));
            }
            TraceEventData::SpillRunSealed {
                job,
                task,
                reduce_task,
                records,
            } => {
                push("job", Json::str(job));
                push("task", Json::Num(*task as f64));
                push("reduce_task", Json::Num(*reduce_task as f64));
                push("records", Json::Num(*records as f64));
            }
            TraceEventData::ShuffleCompleted { job, runs, wall } => {
                push("job", Json::str(job));
                push("runs", Json::Num(*runs as f64));
                push("wall_ms", dur_ms(*wall));
            }
            TraceEventData::SlotAcquired { tenant } => {
                push(
                    "tenant",
                    match tenant {
                        Some(t) => Json::str(t),
                        None => Json::Null,
                    },
                );
            }
            TraceEventData::SlotReleased => {}
            TraceEventData::StageReady {
                tenant,
                workflow,
                stage,
                tasks,
            } => {
                push("tenant", Json::str(tenant));
                push("workflow", Json::str(workflow));
                push("stage", Json::Num(*stage as f64));
                push("tasks", Json::Num(*tasks as f64));
            }
            TraceEventData::StageAdmitted {
                tenant,
                workflow,
                stage,
            } => {
                push("tenant", Json::str(tenant));
                push("workflow", Json::str(workflow));
                push("stage", Json::Num(*stage as f64));
            }
            TraceEventData::TasksEnqueued { tasks, queue_depth } => {
                push("tasks", Json::Num(*tasks as f64));
                push("queue_depth", Json::Num(*queue_depth as f64));
            }
            TraceEventData::QueueWaited {
                job,
                kind,
                task,
                wait,
            } => {
                push("job", Json::str(job));
                push("kind", Json::str(kind.to_string()));
                push("task", Json::Num(*task as f64));
                push("wait_ms", dur_ms(*wait));
            }
        }
    }
}

fn dur_ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

/// Receives trace events as they are emitted. Implementations must be
/// cheap and thread-safe — `record` is called from worker threads
/// while tasks run.
pub trait TraceSink: Send + Sync {
    /// Delivers one event. Events from concurrent workers arrive in
    /// arbitrary interleaving; `at` timestamps give the true order.
    fn record(&self, event: &TraceEvent);
}

/// The engine-internal handle every instrumentation point goes
/// through. `Tracer::off()` is the default: a `None` inner, so the
/// hot-path cost of disabled tracing is one branch — no allocation,
/// no clock read.
#[derive(Clone)]
pub(crate) struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
}

impl Tracer {
    /// The disabled tracer: every `emit` is a single branch.
    pub(crate) fn off() -> Self {
        Self { inner: None }
    }

    /// A tracer with an explicit epoch — workflows pass their start
    /// instant so stage and task events share one timeline.
    pub(crate) fn with_epoch(sink: Arc<dyn TraceSink>, epoch: Instant) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner { sink, epoch })),
        }
    }

    /// Whether a sink is attached. Guard any event construction that
    /// allocates with this.
    pub(crate) fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event (no-op when off). Prefer [`Tracer::emit_with`]
    /// when building the payload allocates.
    pub(crate) fn emit(&self, slot: Option<usize>, data: TraceEventData) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&TraceEvent {
                at: inner.epoch.elapsed(),
                slot,
                data,
            });
        }
    }

    /// Emits one event, constructing the payload only when a sink is
    /// attached — the form instrumentation points in per-record or
    /// per-task loops use.
    pub(crate) fn emit_with(&self, slot: Option<usize>, data: impl FnOnce() -> TraceEventData) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&TraceEvent {
                at: inner.epoch.elapsed(),
                slot,
                data: data(),
            });
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("on", &self.is_on()).finish()
    }
}

/// Per-task execution context threaded from the pool dispatch into the
/// fault-tolerant task runner: which slot the task landed on and how
/// long it sat queued before starting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaskCtx {
    /// Worker-slot index executing the task (0 on inline paths).
    pub(crate) slot: usize,
    /// Enqueue → start scheduling delay (zero on inline paths).
    pub(crate) queue_wait: Duration,
}

/// Trace context handed to a [`MapSpiller`](crate::spill::MapSpiller)
/// so threshold-triggered seals can emit [`SpillRunSealed`] events.
/// Built only when the tracer is on, so the off path never clones the
/// job name per task.
///
/// [`SpillRunSealed`]: TraceEventData::SpillRunSealed
#[derive(Debug, Clone)]
pub(crate) struct SpillTrace {
    pub(crate) tracer: Tracer,
    pub(crate) job: String,
    pub(crate) task: usize,
    pub(crate) slot: Option<usize>,
}

/// An in-memory sink: records every event for post-run queries. The
/// sink tests and the [`TraceReport`] analyzer are built on.
#[derive(Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// An empty recorder. Wrap it in an `Arc` to attach it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of all recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.events).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events (reuse one recorder across runs).
    pub fn clear(&self) {
        lock_unpoisoned(&self.events).clear();
    }

    /// Number of recorded events in the given category (see
    /// [`TraceEventData::category`]).
    pub fn count(&self, category: &str) -> u64 {
        lock_unpoisoned(&self.events)
            .iter()
            .filter(|e| e.data.category() == category)
            .count() as u64
    }

    /// The canonical logical view: every event's
    /// [`TraceEventData::logical_line`], sorted. Two runs of the same
    /// deterministic job at different parallelism produce byte-equal
    /// vectors.
    pub fn logical_events(&self) -> Vec<String> {
        let mut lines: Vec<String> = lock_unpoisoned(&self.events)
            .iter()
            .filter_map(|e| e.data.logical_line())
            .collect();
        lines.sort_unstable();
        lines
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("events", &self.len())
            .finish()
    }
}

impl TraceSink for TraceRecorder {
    fn record(&self, event: &TraceEvent) {
        lock_unpoisoned(&self.events).push(event.clone());
    }
}

/// A sink that writes one JSON object per event (JSONL) to any
/// writer, built on the dependency-free [`crate::json`] machinery.
/// Write errors are swallowed — tracing must never fail the job it
/// observes.
pub struct JsonlSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        Self {
            writer: Mutex::new(Box::new(writer)),
        }
    }

    /// Creates (truncates) `path` and buffers writes to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }

    /// Flushes buffered lines (also done on drop).
    pub fn flush(&self) -> std::io::Result<()> {
        lock_unpoisoned(&self.writer).flush()
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut writer = lock_unpoisoned(&self.writer);
        let _ = writeln!(writer, "{}", event.to_json());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = lock_unpoisoned(&self.writer).flush();
    }
}

/// Queue-wait distribution in fractional milliseconds (nearest-rank
/// percentiles over every recorded [`QueueWaited`] event).
///
/// [`QueueWaited`]: TraceEventData::QueueWaited
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueWaitStats {
    /// Number of waits observed.
    pub count: usize,
    /// Median wait.
    pub p50_ms: f64,
    /// 90th percentile wait.
    pub p90_ms: f64,
    /// 99th percentile wait.
    pub p99_ms: f64,
    /// Longest wait.
    pub max_ms: f64,
}

#[derive(Debug, Clone)]
struct JobSummary {
    job: String,
    map_tasks: usize,
    reduce_tasks: usize,
    wall: Option<Duration>,
    sum_of_walls: Duration,
    reduce_wall_ms: Vec<f64>,
}

/// Per-tenant scheduler activity aggregated from the dispatcher's
/// decision-point events ([`StageReady`], [`StageAdmitted`], and
/// tenant-tagged [`SlotAcquired`]).
///
/// [`StageReady`]: TraceEventData::StageReady
/// [`StageAdmitted`]: TraceEventData::StageAdmitted
/// [`SlotAcquired`]: TraceEventData::SlotAcquired
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Stage batches the tenant registered on the shared scheduler.
    pub stages_submitted: usize,
    /// Registered batches whose first task was claimed.
    pub stages_admitted: usize,
    /// Tasks across all registered batches.
    pub tasks_submitted: usize,
    /// Task claims executed under this tenant (slot acquisitions).
    pub tasks_dispatched: usize,
    /// Total ready→admitted wait across the tenant's stages — how
    /// long its batches sat behind other tenants' work.
    pub admission_wait: Duration,
}

/// Post-run analyzer over a recorded event stream: per-slot busy time
/// and utilization, per-stage critical path vs. sum-of-walls,
/// reduce-load series, queue-wait percentiles, and per-tenant
/// scheduler activity.
///
/// Build it from [`TraceRecorder::events`], then query it or export
/// it with [`TraceReport::to_json`].
#[derive(Debug, Clone)]
pub struct TraceReport {
    total: Duration,
    counts: BTreeMap<&'static str, u64>,
    /// Busy wall time per worker slot: the sum of its finished
    /// attempts' walls, each clipped to the run's epoch.
    slot_busy: BTreeMap<usize, Duration>,
    jobs: Vec<JobSummary>,
    queue_waits_ms: Vec<f64>,
    tenants: Vec<TenantSummary>,
}

impl TraceReport {
    /// Analyzes a recorded stream. Order does not matter; everything
    /// is keyed on coordinates and `at` timestamps.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let total = events.iter().map(|e| e.at).max().unwrap_or(Duration::ZERO);
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut slot_busy: BTreeMap<usize, Duration> = BTreeMap::new();
        let mut jobs: Vec<JobSummary> = Vec::new();
        let mut queue_waits_ms: Vec<f64> = Vec::new();
        let mut tenant_map: BTreeMap<String, TenantSummary> = BTreeMap::new();
        let mut stage_ready_at: BTreeMap<(String, String, usize), Duration> = BTreeMap::new();

        fn tenant_entry<'a>(
            map: &'a mut BTreeMap<String, TenantSummary>,
            tenant: &str,
        ) -> &'a mut TenantSummary {
            map.entry(tenant.to_string())
                .or_insert_with(|| TenantSummary {
                    tenant: tenant.to_string(),
                    stages_submitted: 0,
                    stages_admitted: 0,
                    tasks_submitted: 0,
                    tasks_dispatched: 0,
                    admission_wait: Duration::ZERO,
                })
        }

        fn summary<'a>(jobs: &'a mut Vec<JobSummary>, job: &str) -> &'a mut JobSummary {
            if let Some(i) = jobs.iter().position(|s| s.job == job) {
                &mut jobs[i]
            } else {
                jobs.push(JobSummary {
                    job: job.to_string(),
                    map_tasks: 0,
                    reduce_tasks: 0,
                    wall: None,
                    sum_of_walls: Duration::ZERO,
                    reduce_wall_ms: Vec::new(),
                });
                jobs.last_mut().expect("just pushed")
            }
        }

        for event in events {
            *counts.entry(event.data.category()).or_insert(0) += 1;
            match &event.data {
                TraceEventData::JobStarted {
                    job,
                    map_tasks,
                    reduce_tasks,
                } => {
                    let s = summary(&mut jobs, job);
                    s.map_tasks = *map_tasks;
                    s.reduce_tasks = *reduce_tasks;
                }
                TraceEventData::JobFinished { job, wall } => {
                    summary(&mut jobs, job).wall = Some(*wall);
                }
                TraceEventData::AttemptFinished {
                    job, kind, wall, ..
                } => {
                    let s = summary(&mut jobs, job);
                    s.sum_of_walls += *wall;
                    if *kind == FaultKind::Reduce {
                        s.reduce_wall_ms.push(wall.as_secs_f64() * 1e3);
                    }
                    if let Some(slot) = event.slot {
                        *slot_busy.entry(slot).or_default() += (*wall).min(event.at);
                    }
                }
                TraceEventData::QueueWaited { wait, .. } => {
                    queue_waits_ms.push(wait.as_secs_f64() * 1e3);
                }
                TraceEventData::StageReady {
                    tenant,
                    workflow,
                    stage,
                    tasks,
                } => {
                    let s = tenant_entry(&mut tenant_map, tenant);
                    s.stages_submitted += 1;
                    s.tasks_submitted += *tasks;
                    stage_ready_at
                        .entry((tenant.clone(), workflow.clone(), *stage))
                        .or_insert(event.at);
                }
                TraceEventData::StageAdmitted {
                    tenant,
                    workflow,
                    stage,
                } => {
                    let s = tenant_entry(&mut tenant_map, tenant);
                    s.stages_admitted += 1;
                    if let Some(ready) =
                        stage_ready_at.get(&(tenant.clone(), workflow.clone(), *stage))
                    {
                        s.admission_wait += event.at.checked_sub(*ready).unwrap_or_default();
                    }
                }
                TraceEventData::SlotAcquired {
                    tenant: Some(tenant),
                } => {
                    tenant_entry(&mut tenant_map, tenant).tasks_dispatched += 1;
                }
                _ => {}
            }
        }

        queue_waits_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite wait"));
        Self {
            total,
            counts,
            slot_busy,
            jobs,
            queue_waits_ms,
            tenants: tenant_map.into_values().collect(),
        }
    }

    /// Timestamp of the last event — the observed run length.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Per-category event counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Count for one category (0 if never seen).
    pub fn count(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    /// Busy wall time per worker slot (sum of the walls of the
    /// finished attempts attributed to that slot, each clipped to
    /// start no earlier than the run's epoch).
    pub fn slot_busy(&self) -> &BTreeMap<usize, Duration> {
        &self.slot_busy
    }

    /// Utilization per worker slot: busy time divided by the observed
    /// run length, in `[0, 1]` (clamped — attempt walls measured
    /// inside the task can round above the outer span).
    pub fn utilization(&self) -> BTreeMap<usize, f64> {
        let total = self.total.as_secs_f64();
        self.slot_busy
            .iter()
            .map(|(&slot, busy)| {
                let frac = if total > 0.0 {
                    (busy.as_secs_f64() / total).min(1.0)
                } else {
                    0.0
                };
                (slot, frac)
            })
            .collect()
    }

    /// Per-tenant scheduler activity, sorted by tenant name. Empty
    /// when no tenant-tagged batch was registered (inline execution,
    /// or tracing attached below the workflow layer).
    pub fn tenants(&self) -> &[TenantSummary] {
        &self.tenants
    }

    /// Queue-wait percentiles, or `None` when no task was pool-queued
    /// (inline execution).
    pub fn queue_wait_stats(&self) -> Option<QueueWaitStats> {
        if self.queue_waits_ms.is_empty() {
            return None;
        }
        let pct = |p: f64| -> f64 {
            let n = self.queue_waits_ms.len();
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            self.queue_waits_ms[rank - 1]
        };
        Some(QueueWaitStats {
            count: self.queue_waits_ms.len(),
            p50_ms: pct(0.50),
            p90_ms: pct(0.90),
            p99_ms: pct(0.99),
            max_ms: *self.queue_waits_ms.last().expect("non-empty"),
        })
    }

    /// Exports the report as one JSON object: per-category counts,
    /// per-slot busy/utilization, per-job walls and reduce-load series,
    /// queue-wait percentiles, and per-tenant scheduler activity.
    pub fn to_json(&self) -> Json {
        let events = Json::Obj(
            self.counts
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                .collect(),
        );
        let utilization = self.utilization();
        let workers = Json::Arr(
            self.slot_busy
                .iter()
                .map(|(slot, busy)| {
                    Json::obj([
                        ("slot", Json::Num(*slot as f64)),
                        ("busy_ms", dur_ms(*busy)),
                        (
                            "utilization",
                            Json::Num(utilization.get(slot).copied().unwrap_or(0.0)),
                        ),
                    ])
                })
                .collect::<Vec<_>>(),
        );
        let jobs = Json::Arr(
            self.jobs
                .iter()
                .map(|job| {
                    Json::obj([
                        ("job", Json::str(&job.job)),
                        ("map_tasks", Json::Num(job.map_tasks as f64)),
                        ("reduce_tasks", Json::Num(job.reduce_tasks as f64)),
                        ("wall_ms", job.wall.map(dur_ms).unwrap_or(Json::Null)),
                        ("sum_task_wall_ms", dur_ms(job.sum_of_walls)),
                        (
                            "reduce_wall_ms",
                            Json::Arr(job.reduce_wall_ms.iter().map(|w| Json::Num(*w)).collect()),
                        ),
                    ])
                })
                .collect::<Vec<_>>(),
        );
        let queue_wait = match self.queue_wait_stats() {
            Some(stats) => Json::obj([
                ("count", Json::Num(stats.count as f64)),
                ("p50_ms", Json::Num(stats.p50_ms)),
                ("p90_ms", Json::Num(stats.p90_ms)),
                ("p99_ms", Json::Num(stats.p99_ms)),
                ("max_ms", Json::Num(stats.max_ms)),
            ]),
            None => Json::Null,
        };
        let tenants = Json::Arr(
            self.tenants
                .iter()
                .map(|t| {
                    Json::obj([
                        ("tenant", Json::str(&t.tenant)),
                        ("stages_submitted", Json::Num(t.stages_submitted as f64)),
                        ("stages_admitted", Json::Num(t.stages_admitted as f64)),
                        ("tasks_submitted", Json::Num(t.tasks_submitted as f64)),
                        ("tasks_dispatched", Json::Num(t.tasks_dispatched as f64)),
                        ("admission_wait_ms", dur_ms(t.admission_wait)),
                    ])
                })
                .collect::<Vec<_>>(),
        );
        Json::obj([
            ("total_ms", dur_ms(self.total)),
            ("events", events),
            ("workers", workers),
            ("jobs", jobs),
            ("queue_wait", queue_wait),
            ("tenants", tenants),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn finished(at: u64, slot: usize, task: usize, kind: FaultKind, wall: u64) -> TraceEvent {
        TraceEvent {
            at: ms(at),
            slot: Some(slot),
            data: TraceEventData::AttemptFinished {
                job: "j".into(),
                kind,
                task,
                attempt: 1,
                wall: ms(wall),
            },
        }
    }

    #[test]
    fn logical_view_keeps_lifecycle_and_drops_operational_events() {
        let logical = [
            TraceEventData::JobStarted {
                job: "j".into(),
                map_tasks: 2,
                reduce_tasks: 3,
            },
            TraceEventData::AttemptFailed {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                attempt: 1,
                message: "boom".into(),
            },
            TraceEventData::SpillRunSealed {
                job: "j".into(),
                task: 1,
                reduce_task: 2,
                records: 7,
            },
            TraceEventData::ShuffleCompleted {
                job: "j".into(),
                runs: 6,
                wall: ms(1),
            },
        ];
        for data in logical {
            assert!(
                data.logical_line().is_some(),
                "{} must be logical",
                data.category()
            );
        }
        let operational = [
            TraceEventData::SlotAcquired { tenant: None },
            TraceEventData::SlotReleased,
            TraceEventData::TasksEnqueued {
                tasks: 4,
                queue_depth: 4,
            },
            TraceEventData::QueueWaited {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                wait: ms(1),
            },
        ];
        for data in operational {
            assert!(
                data.logical_line().is_none(),
                "{} must be operational",
                data.category()
            );
        }
    }

    #[test]
    fn logical_lines_strip_walls_but_keep_coordinates() {
        // The JSON members in their order, less the wall-time ones.
        for (data, line) in [
            (
                TraceEventData::AttemptFinished {
                    job: "bdm".into(),
                    kind: FaultKind::Sort,
                    task: 4,
                    attempt: 2,
                    wall: ms(123),
                },
                "attempt_finished job=bdm kind=sort task=4 attempt=2",
            ),
            (
                TraceEventData::StageFinished {
                    workflow: "er".into(),
                    job: "bdm".into(),
                    stage: 1,
                    wall: ms(7),
                },
                "stage_finished workflow=er job=bdm stage=1",
            ),
            (
                TraceEventData::ShuffleCompleted {
                    job: "bdm".into(),
                    runs: 6,
                    wall: ms(2),
                },
                "shuffle_completed job=bdm runs=6",
            ),
        ] {
            assert_eq!(data.logical_line().unwrap(), line);
        }
    }

    #[test]
    fn off_tracer_emits_nothing_and_recorder_captures_everything() {
        let recorder = Arc::new(TraceRecorder::new());
        let off = Tracer::off();
        assert!(!off.is_on());
        off.emit(None, TraceEventData::SlotAcquired { tenant: None });
        assert!(recorder.is_empty());

        let on = Tracer::with_epoch(recorder.clone() as Arc<dyn TraceSink>, Instant::now());
        assert!(on.is_on());
        on.emit(Some(2), TraceEventData::SlotAcquired { tenant: None });
        on.emit_with(None, || TraceEventData::TasksEnqueued {
            tasks: 3,
            queue_depth: 3,
        });
        assert_eq!(recorder.len(), 2);
        let events = recorder.events();
        assert_eq!(events[0].slot, Some(2));
        assert_eq!(events[1].data.category(), "tasks_enqueued");
        recorder.clear();
        assert!(recorder.is_empty());
    }

    #[test]
    fn recorder_logical_events_sort_canonically() {
        // Fed directly, order scrambled.
        let recorder = TraceRecorder::new();
        for task in [2usize, 0, 1] {
            recorder.record(&TraceEvent {
                at: ms(task as u64),
                slot: Some(task),
                data: TraceEventData::AttemptStarted {
                    job: "j".into(),
                    kind: FaultKind::Map,
                    task,
                    attempt: 1,
                },
            });
        }
        recorder.record(&TraceEvent {
            at: ms(9),
            slot: None,
            data: TraceEventData::QueueWaited {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                wait: ms(1),
            },
        });
        assert_eq!(
            recorder.logical_events(),
            vec![
                "attempt_started job=j kind=map task=0 attempt=1",
                "attempt_started job=j kind=map task=1 attempt=1",
                "attempt_started job=j kind=map task=2 attempt=1",
            ]
        );
        assert_eq!(recorder.count("attempt_started"), 3);
        assert_eq!(recorder.count("queue_waited"), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_object_per_line() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::new(Shared(buf.clone()));
        sink.record(&TraceEvent {
            at: ms(5),
            slot: Some(1),
            data: TraceEventData::AttemptFinished {
                job: "j \"quoted\"".into(),
                kind: FaultKind::Reduce,
                task: 3,
                attempt: 2,
                wall: ms(4),
            },
        });
        sink.record(&TraceEvent {
            at: ms(6),
            slot: None,
            data: TraceEventData::JobFinished {
                job: "j".into(),
                wall: ms(6),
            },
        });
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("event").and_then(Json::as_str),
            Some("attempt_finished")
        );
        assert_eq!(first.get("slot").and_then(Json::as_f64), Some(1.0));
        assert_eq!(first.get("task").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            first.get("job").and_then(Json::as_str),
            Some("j \"quoted\"")
        );
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("slot"), Some(&Json::Null));
        assert_eq!(second.get("wall_ms").and_then(Json::as_f64), Some(6.0));
    }

    #[test]
    fn report_attributes_lanes_jobs_and_queue_waits() {
        let mut events = vec![
            TraceEvent {
                at: ms(0),
                slot: None,
                data: TraceEventData::JobStarted {
                    job: "j".into(),
                    map_tasks: 2,
                    reduce_tasks: 2,
                },
            },
            finished(10, 0, 0, FaultKind::Map, 10),
            finished(12, 1, 1, FaultKind::Map, 8),
            finished(30, 0, 0, FaultKind::Reduce, 18),
            finished(40, 1, 1, FaultKind::Reduce, 26),
            TraceEvent {
                at: ms(40),
                slot: None,
                data: TraceEventData::JobFinished {
                    job: "j".into(),
                    wall: ms(40),
                },
            },
        ];
        for (task, wait) in [(0u64, 1u64), (1, 3), (2, 2), (3, 9)] {
            events.push(TraceEvent {
                at: ms(task),
                slot: Some(0),
                data: TraceEventData::QueueWaited {
                    job: "j".into(),
                    kind: FaultKind::Map,
                    task: task as usize,
                    wait: ms(wait),
                },
            });
        }
        let report = TraceReport::from_events(&events);
        assert_eq!(report.total(), ms(40));
        assert_eq!(report.count("attempt_finished"), 4);
        let busy = report.slot_busy();
        assert_eq!(busy[&0], ms(28));
        assert_eq!(busy[&1], ms(34));
        let utilization = report.utilization();
        assert!((utilization[&0] - 0.7).abs() < 1e-9);
        assert!((utilization[&1] - 0.85).abs() < 1e-9);
        let stats = report.queue_wait_stats().unwrap();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.p50_ms, 2.0);
        assert_eq!(stats.p90_ms, 9.0);
        assert_eq!(stats.max_ms, 9.0);
    }

    #[test]
    fn report_json_reparses_and_carries_every_section() {
        let events = vec![
            TraceEvent {
                at: ms(0),
                slot: None,
                data: TraceEventData::JobStarted {
                    job: "j".into(),
                    map_tasks: 1,
                    reduce_tasks: 1,
                },
            },
            finished(5, 0, 0, FaultKind::Map, 5),
            TraceEvent {
                at: ms(6),
                slot: Some(0),
                data: TraceEventData::QueueWaited {
                    job: "j".into(),
                    kind: FaultKind::Map,
                    task: 0,
                    wait: ms(2),
                },
            },
        ];
        let report = TraceReport::from_events(&events);
        let json = report.to_json();
        let reparsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(reparsed, json);
        assert_eq!(
            json.get("events")
                .and_then(|e| e.get("attempt_finished"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            json.get("workers")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            json.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            json.get("queue_wait")
                .and_then(|q| q.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn event_json_encodes_every_category() {
        let all = [
            TraceEventData::JobStarted {
                job: "j".into(),
                map_tasks: 1,
                reduce_tasks: 1,
            },
            TraceEventData::JobFinished {
                job: "j".into(),
                wall: ms(1),
            },
            TraceEventData::StageStarted {
                workflow: "w".into(),
                job: "j".into(),
                stage: 0,
            },
            TraceEventData::StageFinished {
                workflow: "w".into(),
                job: "j".into(),
                stage: 0,
                wall: ms(1),
            },
            TraceEventData::AttemptStarted {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                attempt: 1,
            },
            TraceEventData::AttemptFinished {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                attempt: 1,
                wall: ms(1),
            },
            TraceEventData::AttemptFailed {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                attempt: 1,
                message: "m".into(),
            },
            TraceEventData::AttemptRetried {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                next_attempt: 2,
            },
            TraceEventData::SpillRunSealed {
                job: "j".into(),
                task: 0,
                reduce_task: 0,
                records: 1,
            },
            TraceEventData::ShuffleCompleted {
                job: "j".into(),
                runs: 1,
                wall: ms(1),
            },
            TraceEventData::SlotAcquired { tenant: None },
            TraceEventData::SlotReleased,
            TraceEventData::TasksEnqueued {
                tasks: 1,
                queue_depth: 1,
            },
            TraceEventData::QueueWaited {
                job: "j".into(),
                kind: FaultKind::Map,
                task: 0,
                wait: ms(1),
            },
        ];
        for data in all {
            let category = data.category();
            let event = TraceEvent {
                at: ms(7),
                slot: Some(0),
                data,
            };
            let json = event.to_json();
            let reparsed = Json::parse(&json.to_string()).unwrap();
            assert_eq!(reparsed.get("event").and_then(Json::as_str), Some(category));
            assert_eq!(reparsed.get("at_ms").and_then(Json::as_f64), Some(7.0));
        }
    }
}
