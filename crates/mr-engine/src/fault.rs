//! Fault-tolerant task execution: retry policies, deterministic fault
//! injection, and straggler speculation.
//!
//! MapReduce's defining operational property is that individual task
//! failures do not kill the job. This module supplies the three pieces
//! the engine threads through every phase:
//!
//! * [`FaultPolicy`] — how many attempts a task gets and whether a
//!   wall-clock deadline triggers speculative re-execution. The policy
//!   rides on [`crate::runtime::RuntimeConfig`] and on every
//!   [`crate::engine::Job`] / [`crate::workflow::Workflow`].
//! * [`FaultPlan`] — a *deterministic* fault-injection schedule: panic
//!   or delay exactly at a `(job, task kind, task index, attempt)`
//!   tuple, so failure scenarios are reproducible in tests and benches
//!   instead of depending on sleeps and races.
//! * [`TaskError`] — the typed identity of an attempt that exhausted
//!   its retry budget, surfaced as
//!   [`MrError::TaskFailed`] —
//!   never as a raw panic.
//!
//! # Why retries are byte-identical
//!
//! Every map task is a pure function of `(job definition, its input
//! partition)`: the engine hands it a borrowed partition, a fresh
//! mapper clone, and a fresh spiller per *attempt*. Every reduce task
//! is a pure function of `(job definition, its shuffled runs)`: an
//! attempt that may be followed by another (retry or speculative twin)
//! leaves the runs in place and streams them *borrowed*, cloning each
//! record only as the merge delivers it; a provably final, sole
//! execution takes ownership and moves records out instead. A
//! re-executed task therefore observes exactly the state its first
//! execution observed, and the engine's determinism contract (output
//! is a pure function of input and job definition at any parallelism)
//! extends to any failure schedule. The fault-matrix suite asserts
//! byte-equality of faulty and fault-free runs across every scenario
//! family.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

use crate::error::MrError;
use crate::metrics::TaskKind;
use crate::pool::WorkerPool;
use crate::trace::{TaskCtx, TraceEventData, Tracer};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// The fault layer's whole purpose is to contain task panics; every
/// lock on its bookkeeping (and on the pool's dispatch state) must
/// therefore tolerate poison instead of converting a contained panic
/// into an abort-by-double-panic. All values guarded this way are
/// either plain counters or write-once slots whose invariants hold at
/// every instruction boundary, so the "poisoned" state is benign.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_unpoisoned`] for shared `RwLock` reads (reduce attempts
/// borrowing their runs concurrently).
pub(crate) fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_unpoisoned`] for exclusive `RwLock` writes (a final reduce
/// execution taking its runs).
pub(crate) fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Which phase of a task a fault belongs to.
///
/// `Map` and `Reduce` match [`TaskKind`]; `Sort` addresses the
/// map-side seal/sort step (the spill-sort that runs at the end of a
/// map task), which Hadoop schedules as part of the map attempt — so a
/// `Sort` fault fails, and is retried as, the surrounding map task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The map function body.
    Map,
    /// The map-side seal/sort of emitted records into sorted runs.
    Sort,
    /// The reduce task body (merge, group, reduce function).
    Reduce,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Map => write!(f, "map"),
            FaultKind::Sort => write!(f, "sort"),
            FaultKind::Reduce => write!(f, "reduce"),
        }
    }
}

impl From<TaskKind> for FaultKind {
    fn from(kind: TaskKind) -> Self {
        match kind {
            TaskKind::Map => FaultKind::Map,
            TaskKind::Reduce => FaultKind::Reduce,
        }
    }
}

/// Per-task fault-tolerance policy: how often a panicking task is
/// re-executed and when a slow task is speculatively re-dispatched.
///
/// The default is **fail-fast** (`max_attempts == 1`, no deadline):
/// the first task panic is converted into a typed
/// [`MrError::TaskFailed`] and ends
/// the job — right for debugging (the original failure site is not
/// obscured by retries) and for callers that treat any failure as
/// fatal anyway. Panics are caught at the task boundary in *every*
/// mode; no policy lets a task panic unwind out of a resolve.
///
/// With [`FaultPolicy::retry`] a failed task is deterministically
/// re-executed (tasks are pure over their inputs, so a retried task's
/// output is byte-identical — see the module docs) until it succeeds
/// or `max_attempts` executions have failed.
///
/// With a [`FaultPolicy::with_task_deadline`] deadline, a task running
/// longer than the deadline is additionally re-dispatched
/// *speculatively* on a free pool slot while the original keeps
/// running; the first completion wins (pure tasks make the race
/// benign) and the loser's output is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum executions per task, counting the first (`>= 1`). A
    /// task whose every execution panicked `max_attempts` times fails
    /// the job with [`MrError::TaskFailed`](crate::error::MrError).
    pub max_attempts: u32,
    /// Wall-clock deadline per task attempt; exceeding it launches one
    /// speculative twin of the task on a free pool slot (`None`, the
    /// default, never speculates).
    pub task_deadline: Option<Duration>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self::fail_fast()
    }
}

impl FaultPolicy {
    /// The default policy: one attempt, no deadline — the first task
    /// panic fails the job (as a typed error, not a panic).
    pub fn fail_fast() -> Self {
        Self {
            max_attempts: 1,
            task_deadline: None,
        }
    }

    /// Allows up to `max_attempts` executions per task.
    ///
    /// # Panics
    /// If `max_attempts` is zero — the first execution is an attempt.
    pub fn retry(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a task needs at least one attempt");
        Self {
            max_attempts,
            task_deadline: None,
        }
    }

    /// Sets the per-attempt wall-clock deadline that triggers
    /// speculative re-execution; `None` disables speculation.
    #[must_use]
    pub fn with_task_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.task_deadline = deadline;
        self
    }
}

/// The typed identity of a task that exhausted its retry budget —
/// carried by [`MrError::TaskFailed`](crate::error::MrError) so a
/// failed resolve is diagnosable from its `Display` alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Name of the failing job.
    pub job: String,
    /// `workflow/stage` path, filled in by the workflow layer (`None`
    /// for jobs run outside a workflow).
    pub stage: Option<String>,
    /// Which phase of the task failed.
    pub kind: FaultKind,
    /// Task index within its phase.
    pub task: usize,
    /// Failed executions when the budget ran out (== the policy's
    /// `max_attempts`).
    pub attempts: u32,
    /// The panic payload, stringified.
    pub payload: String,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} task {} of job `{}`", self.kind, self.task, self.job)?;
        if let Some(stage) = &self.stage {
            write!(f, " (stage `{stage}`)")?;
        }
        write!(
            f,
            " failed after {} attempt{}: {}",
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.payload
        )
    }
}

/// What an [`InjectedFault`] does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with the given message (caught at the task boundary like
    /// any real task panic).
    Panic(String),
    /// Sleep for the given duration before the task body runs — the
    /// deterministic straggler.
    Delay(Duration),
}

/// One entry of a [`FaultPlan`]: fire `action` when the task matching
/// `(job, kind, task, attempt)` executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Job name to match, or [`FaultPlan::ANY_JOB`] for every job.
    pub job: String,
    /// Task phase to match.
    pub kind: FaultKind,
    /// Task index to match.
    pub task: usize,
    /// Attempt number to match (1-based); `None` fires on *every*
    /// attempt — the "fail always" schedule.
    pub attempt: Option<u32>,
    /// What happens on a match.
    pub action: FaultAction,
}

/// A deterministic fault-injection schedule, threaded through
/// [`Job`](crate::engine::Job) / [`Workflow`](crate::workflow::Workflow)
/// and the driver configs behind a test/bench-facing hook.
///
/// Injection sites are addressed by `(job, task kind, task index,
/// attempt)`, so a schedule reproduces the same failures on every run
/// regardless of thread interleaving. An empty plan (the default)
/// injects nothing and costs one slice iteration per probe.
///
/// ```
/// use mr_engine::fault::{FaultPlan, FaultKind};
///
/// // Map task 0 of every job panics on its first attempt only; with
/// // FaultPolicy::retry(2) the second attempt succeeds and the job
/// // output is byte-identical to the fault-free run.
/// let plan = FaultPlan::new()
///     .panic_at(FaultPlan::ANY_JOB, FaultKind::Map, 0, 1, "injected");
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
    /// Explicit opt-in for the process-wide stderr filter on injected
    /// panics; off by default so library callers never get a panic
    /// hook installed as a side effect.
    silence_panic_output: bool,
}

impl FaultPlan {
    /// Wildcard job name: matches every job of the workflow.
    pub const ANY_JOB: &'static str = "*";

    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan contains no injections.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of injection entries.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Adds an arbitrary injection entry.
    #[must_use]
    pub fn with(mut self, fault: InjectedFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Suppresses the default "thread panicked" stderr report for
    /// panics *injected by this plan* (real task panics still reach
    /// the hook chain unchanged).
    ///
    /// This installs a permanent, process-wide filtering panic hook
    /// the first time an injected panic fires, chaining to whatever
    /// hook is current at that moment — so it is an explicit opt-in
    /// for test and bench code that owns the process's panic hook.
    /// Library callers should leave it off (the default).
    #[must_use]
    pub fn silence_injected_panics(mut self) -> Self {
        self.silence_panic_output = true;
        self
    }

    /// Panics at `(job, kind, task)` on the given 1-based `attempt`
    /// only — subsequent attempts run clean ("fail once" at attempt 1).
    #[must_use]
    pub fn panic_at(
        self,
        job: impl Into<String>,
        kind: FaultKind,
        task: usize,
        attempt: u32,
        message: impl Into<String>,
    ) -> Self {
        self.with(InjectedFault {
            job: job.into(),
            kind,
            task,
            attempt: Some(attempt),
            action: FaultAction::Panic(message.into()),
        })
    }

    /// Panics at `(job, kind, task)` on **every** attempt — the "fail
    /// always" schedule that exhausts any retry budget.
    #[must_use]
    pub fn panic_always(
        self,
        job: impl Into<String>,
        kind: FaultKind,
        task: usize,
        message: impl Into<String>,
    ) -> Self {
        self.with(InjectedFault {
            job: job.into(),
            kind,
            task,
            attempt: None,
            action: FaultAction::Panic(message.into()),
        })
    }

    /// Delays `(job, kind, task)` by `delay` on the given 1-based
    /// `attempt` — the deterministic straggler that drives a task past
    /// its [`FaultPolicy::task_deadline`].
    #[must_use]
    pub fn delay_at(
        self,
        job: impl Into<String>,
        kind: FaultKind,
        task: usize,
        attempt: u32,
        delay: Duration,
    ) -> Self {
        self.with(InjectedFault {
            job: job.into(),
            kind,
            task,
            attempt: Some(attempt),
            action: FaultAction::Delay(delay),
        })
    }

    /// Executes every matching injection for this probe site. Called
    /// by the engine at the start of each map/reduce attempt and just
    /// before the map-side seal/sort.
    pub(crate) fn fire(&self, job: &str, kind: FaultKind, task: usize, attempt: u32) {
        for fault in &self.faults {
            if fault.kind != kind || fault.task != task {
                continue;
            }
            if fault.attempt.is_some_and(|a| a != attempt) {
                continue;
            }
            if fault.job != Self::ANY_JOB && fault.job != job {
                continue;
            }
            match &fault.action {
                FaultAction::Delay(delay) => std::thread::sleep(*delay),
                FaultAction::Panic(message) => {
                    if self.silence_panic_output {
                        silence_injected_panic_output();
                    }
                    std::panic::panic_any(InjectedPanic {
                        kind,
                        message: message.clone(),
                    });
                }
            }
        }
    }
}

/// Panic payload of an injected [`FaultAction::Panic`]: carries the
/// fault kind so the catch site attributes a map-side `Sort` fault
/// correctly, and is recognized by the filtering panic hook (opt-in
/// via [`FaultPlan::silence_injected_panics`]) so injected panics do
/// not spam stderr in tests and benches.
struct InjectedPanic {
    kind: FaultKind,
    message: String,
}

/// Installs (once) a panic hook that suppresses the default "thread
/// panicked" report for [`InjectedPanic`] payloads only; every real
/// panic still reaches the previous hook. Only called when a plan
/// explicitly opted in via [`FaultPlan::silence_injected_panics`].
fn silence_injected_panic_output() {
    static SILENCE: std::sync::Once = std::sync::Once::new();
    SILENCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Stringifies a caught panic payload and resolves the fault kind it
/// belongs to (an injected panic knows its own site; a real panic is
/// attributed to the catching phase).
fn describe_panic(
    payload: Box<dyn std::any::Any + Send + 'static>,
    phase_kind: FaultKind,
) -> (FaultKind, String) {
    match payload.downcast::<InjectedPanic>() {
        Ok(injected) => (injected.kind, injected.message),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked with a non-string payload".to_string());
            (phase_kind, message)
        }
    }
}

/// Per-job fault gauges, accumulated across both phases and rolled
/// into [`JobMetrics`](crate::metrics::JobMetrics) at job end.
#[derive(Debug, Default)]
pub(crate) struct FtStats {
    pub task_failures: AtomicU64,
    pub tasks_retried: AtomicU64,
    pub speculative_launched: AtomicU64,
    pub speculative_won: AtomicU64,
}

/// Shared attempt bookkeeping for one task: every execution — retry or
/// speculative twin — draws the next global attempt number
/// (Hadoop-style attempt ids), and the retry budget counts *failures*,
/// shared between the original and its speculative twin.
pub(crate) struct TaskAttemptState {
    attempts: AtomicU32,
    failures: AtomicU32,
}

/// Attempt state for every task of one phase.
pub(crate) struct TaskAttempts(Vec<TaskAttemptState>);

impl TaskAttempts {
    pub fn new(count: usize) -> Self {
        Self(
            (0..count)
                .map(|_| TaskAttemptState {
                    attempts: AtomicU32::new(0),
                    failures: AtomicU32::new(0),
                })
                .collect(),
        )
    }

    pub fn task(&self, index: usize) -> &TaskAttemptState {
        &self.0[index]
    }
}

/// One phase's view of the fault machinery: the policy in force, the
/// job identity for error reporting, the shared gauge sink, and the
/// trace handle attempt events are emitted on.
pub(crate) struct PhaseFt<'a> {
    pub policy: FaultPolicy,
    pub job: &'a str,
    pub kind: FaultKind,
    pub stats: &'a FtStats,
    pub tracer: Tracer,
}

impl PhaseFt<'_> {
    /// Runs one task under the policy: executes `body(attempt)` inside
    /// a panic boundary, retrying until success or the shared failure
    /// budget is exhausted. Never panics on a task panic; returns the
    /// typed [`MrError::TaskFailed`] instead. Non-panic errors
    /// (configuration problems) are not retried — they are
    /// deterministic and would fail identically again.
    ///
    /// Attempt lifecycle events are emitted at exactly the same sites
    /// as the `FtStats` gauges, so per-category event counts and the
    /// gauges can never disagree. With tracing off every extra site is
    /// one branch — no clock reads, no allocation.
    pub fn run_task<T>(
        &self,
        task: usize,
        state: &TaskAttemptState,
        ctx: TaskCtx,
        body: impl Fn(u32) -> Result<T, MrError>,
    ) -> Result<T, MrError> {
        let tracing = self.tracer.is_on();
        if tracing {
            self.tracer.emit(
                Some(ctx.slot),
                TraceEventData::QueueWaited {
                    job: self.job.to_string(),
                    kind: self.kind,
                    task,
                    wait: ctx.queue_wait,
                },
            );
        }
        loop {
            let attempt = state.attempts.fetch_add(1, Ordering::Relaxed) + 1;
            if tracing {
                self.tracer.emit(
                    Some(ctx.slot),
                    TraceEventData::AttemptStarted {
                        job: self.job.to_string(),
                        kind: self.kind,
                        task,
                        attempt,
                    },
                );
            }
            let started = tracing.then(Instant::now);
            match catch_unwind(AssertUnwindSafe(|| body(attempt))) {
                Ok(result) => {
                    if let Some(started) = started {
                        self.tracer.emit(
                            Some(ctx.slot),
                            TraceEventData::AttemptFinished {
                                job: self.job.to_string(),
                                kind: self.kind,
                                task,
                                attempt,
                                wall: started.elapsed(),
                            },
                        );
                    }
                    return result;
                }
                Err(payload) => {
                    self.stats.task_failures.fetch_add(1, Ordering::Relaxed);
                    let failures = state.failures.fetch_add(1, Ordering::Relaxed) + 1;
                    let (kind, message) = describe_panic(payload, self.kind);
                    if tracing {
                        self.tracer.emit(
                            Some(ctx.slot),
                            TraceEventData::AttemptFailed {
                                job: self.job.to_string(),
                                kind,
                                task,
                                attempt,
                                message: message.clone(),
                            },
                        );
                    }
                    if failures >= self.policy.max_attempts {
                        return Err(MrError::TaskFailed(TaskError {
                            job: self.job.to_string(),
                            stage: None,
                            kind,
                            task,
                            attempts: failures,
                            payload: message,
                        }));
                    }
                    self.stats.tasks_retried.fetch_add(1, Ordering::Relaxed);
                    if tracing {
                        self.tracer.emit(
                            Some(ctx.slot),
                            TraceEventData::AttemptRetried {
                                job: self.job.to_string(),
                                kind: self.kind,
                                task,
                                next_attempt: attempt + 1,
                            },
                        );
                    }
                }
            }
        }
    }
}

/// Per-task completion state for the speculative dispatcher.
struct SpecSlot<T> {
    /// First writer wins; the losing twin's result is dropped.
    result: Mutex<Option<Result<T, MrError>>>,
    done: AtomicBool,
    /// When the task's current attempt started (re-armed at every
    /// attempt boundary) — the watchdog's reference point for the
    /// per-attempt deadline.
    started: Mutex<Option<Instant>>,
    /// Set once when the watchdog decides to speculate, so each task
    /// gets at most one twin.
    speculated: AtomicBool,
}

/// Decrements the dispatcher's pending count exactly once, even if a
/// loop body dies on a panic the task boundary could not contain — the
/// borrow fence below must never hang.
struct PendingGuard<'a> {
    pending: &'a Mutex<usize>,
    done: &'a Condvar,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut pending = lock_unpoisoned(self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Runs `count` tasks on `pool` under a straggler deadline: tasks
/// running past `deadline` are re-dispatched speculatively on free
/// pool slots, first completion wins. Results are in task order and
/// byte-identical to plain execution — tasks are pure, so the twin
/// computes the same value and only bookkeeping decides which copy is
/// kept.
///
/// The calling thread doubles as the straggler watchdog while it
/// blocks on the borrow fence (all loop bodies returned).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_speculative<T, F>(
    pool: &WorkerPool,
    cap: usize,
    count: usize,
    deadline: Duration,
    tenant: &Arc<str>,
    phase: &PhaseFt<'_>,
    attempts: &TaskAttempts,
    body: &F,
) -> Vec<Result<T, MrError>>
where
    T: Send,
    F: Fn(usize, u32, TaskCtx) -> Result<T, MrError> + Sync,
{
    // Inline execution (single-slot pool, cap 1, or a single task) has
    // no free slots to speculate on: run sequentially like the plain
    // path so output and thread behavior stay identical.
    if pool.worker_count() == 0 || cap <= 1 || count == 1 {
        return (0..count)
            .map(|i| {
                let ctx = TaskCtx::default();
                phase.run_task(i, attempts.task(i), ctx, |a| body(i, a, ctx))
            })
            .collect();
    }
    let loops = cap.min(pool.worker_count()).min(count);
    let slots: Vec<SpecSlot<T>> = (0..count)
        .map(|_| SpecSlot {
            result: Mutex::new(None),
            done: AtomicBool::new(false),
            started: Mutex::new(None),
            speculated: AtomicBool::new(false),
        })
        .collect();
    // Work items: (task index, is speculative twin, enqueue instant —
    // the reference point for the item's queue wait). Primaries are
    // enqueued up front in task order; the watchdog appends twins.
    let enqueued = Instant::now();
    let queue: Mutex<VecDeque<(usize, bool, Instant)>> =
        Mutex::new((0..count).map(|i| (i, false, enqueued)).collect());
    let queue_ready = Condvar::new();
    let completed = AtomicUsize::new(0);
    let pending = Mutex::new(loops);
    let all_returned = Condvar::new();
    // The enqueued loop bodies are `copies` of one identical closure;
    // each copy draws its own slot id here so trace events can tell
    // the lanes apart.
    let next_slot = AtomicUsize::new(0);
    phase
        .tracer
        .emit_with(None, || TraceEventData::TasksEnqueued {
            tasks: count,
            queue_depth: count,
        });

    let loop_body = || {
        let worker_slot = next_slot.fetch_add(1, Ordering::Relaxed);
        phase
            .tracer
            .emit_with(Some(worker_slot), || TraceEventData::SlotAcquired {
                tenant: Some(tenant.to_string()),
            });
        let _guard = PendingGuard {
            pending: &pending,
            done: &all_returned,
        };
        loop {
            let item = {
                let mut q = lock_unpoisoned(&queue);
                loop {
                    if completed.load(Ordering::Acquire) >= count {
                        break None;
                    }
                    if let Some(item) = q.pop_front() {
                        break Some(item);
                    }
                    q = queue_ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some((i, speculative, item_enqueued)) = item else {
                phase
                    .tracer
                    .emit(Some(worker_slot), TraceEventData::SlotReleased);
                return;
            };
            let slot = &slots[i];
            if slot.done.load(Ordering::Acquire) {
                continue; // a twin whose primary already finished (never ran)
            }
            let ctx = TaskCtx {
                slot: worker_slot,
                queue_wait: item_enqueued.elapsed(),
            };
            // Each attempt re-arms the deadline clock: the policy's
            // deadline is per *attempt*, so a retry is measured from
            // its own start, not the first attempt's. A twin re-arming
            // the clock is harmless — `speculated` is one-shot.
            let result = phase.run_task(i, attempts.task(i), ctx, |a| {
                *lock_unpoisoned(&slot.started) = Some(Instant::now());
                body(i, a, ctx)
            });
            let mut cell = lock_unpoisoned(&slot.result);
            if cell.is_none() {
                *cell = Some(result);
                drop(cell);
                slot.done.store(true, Ordering::Release);
                if speculative {
                    phase.stats.speculative_won.fetch_add(1, Ordering::Relaxed);
                    phase
                        .tracer
                        .emit_with(Some(worker_slot), || TraceEventData::SpeculativeWon {
                            job: phase.job.to_string(),
                            kind: phase.kind,
                            task: i,
                            twin: true,
                        });
                }
                if completed.fetch_add(1, Ordering::AcqRel) + 1 >= count {
                    // Wake loop bodies parked on an empty queue. The
                    // notify is bracketed by the queue mutex: a waiter
                    // holds it between its `completed` check and its
                    // park, so acquiring (and releasing) it here
                    // orders this completion after any stale check —
                    // the wakeup cannot be lost.
                    drop(lock_unpoisoned(&queue));
                    queue_ready.notify_all();
                }
            } else {
                // The sibling copy already installed a result — this
                // copy ran to completion and lost the race.
                drop(cell);
                phase
                    .tracer
                    .emit_with(Some(worker_slot), || TraceEventData::SpeculativeLost {
                        job: phase.job.to_string(),
                        kind: phase.kind,
                        task: i,
                        twin: speculative,
                    });
            }
        }
    };

    // SAFETY: the enqueued loop bodies borrow `slots`, `queue`,
    // `completed`, `pending`, `phase`, `attempts` and `body` from this
    // stack frame. The frame is not torn down until the fence below
    // observed `pending == 0`, i.e. every copy has fully returned —
    // guaranteed even on an uncontained panic by `PendingGuard`.
    unsafe {
        pool.enqueue_fenced(loops, &loop_body);
    }

    // Borrow fence + straggler watchdog: while waiting for the loop
    // bodies to drain, periodically scan for tasks past their deadline
    // and enqueue one speculative twin each.
    let tick = (deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut left = lock_unpoisoned(&pending);
    while *left > 0 {
        let (guard, _) = all_returned
            .wait_timeout(left, tick)
            .unwrap_or_else(PoisonError::into_inner);
        left = guard;
        if *left == 0 {
            break;
        }
        let now = Instant::now();
        for (index, slot) in slots.iter().enumerate() {
            if slot.done.load(Ordering::Acquire) {
                continue;
            }
            let Some(started) = *lock_unpoisoned(&slot.started) else {
                continue; // not yet picked up — cannot be a straggler
            };
            if now.duration_since(started) >= deadline
                && !slot.speculated.swap(true, Ordering::AcqRel)
            {
                phase
                    .stats
                    .speculative_launched
                    .fetch_add(1, Ordering::Relaxed);
                phase
                    .tracer
                    .emit_with(None, || TraceEventData::SpeculativeLaunched {
                        job: phase.job.to_string(),
                        kind: phase.kind,
                        task: index,
                    });
                lock_unpoisoned(&queue).push_back((index, true, Instant::now()));
                queue_ready.notify_all();
            }
        }
    }
    drop(left);

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.result
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| panic!("task {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_fast_is_the_default_policy() {
        let policy = FaultPolicy::default();
        assert_eq!(policy, FaultPolicy::fail_fast());
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.task_deadline, None);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = FaultPolicy::retry(0);
    }

    #[test]
    fn plan_matches_job_kind_task_and_attempt() {
        let plan = FaultPlan::new().silence_injected_panics().panic_at(
            "bdm",
            FaultKind::Map,
            2,
            1,
            "boom",
        );
        // Wrong job / kind / task / attempt: no fire.
        plan.fire("other", FaultKind::Map, 2, 1);
        plan.fire("bdm", FaultKind::Reduce, 2, 1);
        plan.fire("bdm", FaultKind::Map, 1, 1);
        plan.fire("bdm", FaultKind::Map, 2, 2);
        // Exact match panics with the injected payload.
        let err = catch_unwind(AssertUnwindSafe(|| plan.fire("bdm", FaultKind::Map, 2, 1)))
            .expect_err("exact match must fire");
        let injected = err
            .downcast_ref::<InjectedPanic>()
            .expect("injected payload");
        assert_eq!(injected.kind, FaultKind::Map);
        assert_eq!(injected.message, "boom");
    }

    #[test]
    fn wildcard_job_and_every_attempt_match() {
        let plan = FaultPlan::new().silence_injected_panics().panic_always(
            FaultPlan::ANY_JOB,
            FaultKind::Sort,
            0,
            "always",
        );
        for attempt in 1..4 {
            for job in ["a", "b"] {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    plan.fire(job, FaultKind::Sort, 0, attempt)
                }))
                .expect_err("wildcard must fire on every job and attempt");
                assert!(err.downcast_ref::<InjectedPanic>().is_some());
            }
        }
    }

    #[test]
    fn delay_entries_sleep_instead_of_panicking() {
        let plan = FaultPlan::new().delay_at(
            FaultPlan::ANY_JOB,
            FaultKind::Map,
            0,
            1,
            Duration::from_millis(15),
        );
        let start = Instant::now();
        plan.fire("j", FaultKind::Map, 0, 1);
        assert!(start.elapsed() >= Duration::from_millis(15));
        // Other attempts are unaffected.
        let start = Instant::now();
        plan.fire("j", FaultKind::Map, 0, 2);
        assert!(start.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn run_task_retries_until_success_and_counts_every_failure() {
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::retry(3),
            job: "j",
            kind: FaultKind::Map,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let attempts = TaskAttempts::new(1);
        let out = phase.run_task(0, attempts.task(0), TaskCtx::default(), |attempt| {
            if attempt < 3 {
                panic!("attempt {attempt} dies");
            }
            Ok(attempt)
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(stats.task_failures.load(Ordering::Relaxed), 2);
        assert_eq!(stats.tasks_retried.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_task_exhausts_into_typed_error() {
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::retry(2),
            job: "j",
            kind: FaultKind::Reduce,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let attempts = TaskAttempts::new(1);
        let err = phase
            .run_task::<()>(0, attempts.task(0), TaskCtx::default(), |_| {
                panic!("always dies")
            })
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed, got {err:?}");
        };
        assert_eq!(task_error.job, "j");
        assert_eq!(task_error.kind, FaultKind::Reduce);
        assert_eq!(task_error.task, 0);
        assert_eq!(task_error.attempts, 2);
        assert_eq!(task_error.payload, "always dies");
        assert_eq!(stats.task_failures.load(Ordering::Relaxed), 2);
        assert_eq!(stats.tasks_retried.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_task_does_not_retry_deterministic_errors() {
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::retry(5),
            job: "j",
            kind: FaultKind::Map,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let attempts = TaskAttempts::new(1);
        let calls = AtomicU32::new(0);
        let err = phase
            .run_task::<()>(0, attempts.task(0), TaskCtx::default(), |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(MrError::NoReduceTasks)
            })
            .unwrap_err();
        assert_eq!(err, MrError::NoReduceTasks);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "config errors never retry"
        );
        assert_eq!(stats.task_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_sort_panic_keeps_its_kind_through_a_map_boundary() {
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::fail_fast(),
            job: "j",
            kind: FaultKind::Map,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let plan = FaultPlan::new().silence_injected_panics().panic_always(
            "j",
            FaultKind::Sort,
            0,
            "seal died",
        );
        let attempts = TaskAttempts::new(1);
        let err = phase
            .run_task::<()>(0, attempts.task(0), TaskCtx::default(), |attempt| {
                plan.fire("j", FaultKind::Sort, 0, attempt);
                unreachable!("the injection fires first");
            })
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed");
        };
        assert_eq!(task_error.kind, FaultKind::Sort);
        assert_eq!(task_error.payload, "seal died");
    }

    #[test]
    fn speculative_twin_wins_over_a_delayed_straggler() {
        let pool = WorkerPool::new(4);
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::retry(2).with_task_deadline(Some(Duration::from_millis(25))),
            job: "j",
            kind: FaultKind::Map,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let attempts = TaskAttempts::new(3);
        let out = run_speculative(
            &pool,
            usize::MAX,
            3,
            Duration::from_millis(25),
            &Arc::from("default"),
            &phase,
            &attempts,
            &|i, attempt, _ctx| {
                if i == 1 && attempt == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(i * 10)
            },
        );
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 10, 20]);
        assert_eq!(stats.speculative_launched.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.speculative_won.load(Ordering::Relaxed),
            1,
            "the twin (attempt 2, no delay) must beat the 400ms straggler"
        );
        assert_eq!(stats.task_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn speculative_dispatcher_drains_under_racy_completions() {
        // Tasks that finish almost instantly maximize the window where
        // the final completion lands between a worker's `completed`
        // check and its park on the queue condvar — the lost-wakeup
        // shape. Many rounds on one pool must all drain.
        let pool = WorkerPool::new(4);
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::fail_fast().with_task_deadline(Some(Duration::from_millis(5))),
            job: "j",
            kind: FaultKind::Map,
            stats: &stats,
            tracer: Tracer::off(),
        };
        for round in 0..50 {
            let attempts = TaskAttempts::new(8);
            let out = run_speculative(
                &pool,
                usize::MAX,
                8,
                Duration::from_millis(5),
                &Arc::from("default"),
                &phase,
                &attempts,
                &|i, _, _| Ok(i + round),
            );
            assert_eq!(
                out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
                (round..8 + round).collect::<Vec<_>>(),
                "round {round} lost a task"
            );
        }
    }

    #[test]
    fn speculation_degrades_to_sequential_without_free_slots() {
        let pool = WorkerPool::new(1);
        let stats = FtStats::default();
        let phase = PhaseFt {
            policy: FaultPolicy::fail_fast().with_task_deadline(Some(Duration::from_millis(1))),
            job: "j",
            kind: FaultKind::Reduce,
            stats: &stats,
            tracer: Tracer::off(),
        };
        let attempts = TaskAttempts::new(4);
        let out = run_speculative(
            &pool,
            usize::MAX,
            4,
            Duration::from_millis(1),
            &Arc::from("default"),
            &phase,
            &attempts,
            &|i, _, _| Ok(i),
        );
        assert_eq!(
            out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(pool.threads_spawned(), 0);
        assert_eq!(stats.speculative_launched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn task_error_display_names_the_full_identity() {
        let err = TaskError {
            job: "match".into(),
            stage: Some("er-BlockSplit/match".into()),
            kind: FaultKind::Reduce,
            task: 3,
            attempts: 2,
            payload: "boom".into(),
        };
        let text = err.to_string();
        assert!(text.contains("reduce task 3"));
        assert!(text.contains("job `match`"));
        assert!(text.contains("stage `er-BlockSplit/match`"));
        assert!(text.contains("2 attempts"));
        assert!(text.contains("boom"));
    }
}
