//! Fault-tolerant task execution: retry policies and deterministic
//! fault injection.
//!
//! MapReduce's defining operational property is that individual task
//! failures do not kill the job. This module supplies the three pieces
//! the engine threads through every phase:
//!
//! * [`FaultPolicy`] — how many attempts a task gets. The policy rides
//!   on [`crate::runtime::RuntimeConfig`] and reaches the engine
//!   through the [`crate::workflow::Workflow`] a job runs in; a bare
//!   [`crate::engine::Job::run_on`] is fail-fast.
//! * [`FaultPlan`] — a *deterministic* fault-injection schedule: panic
//!   exactly at a `(job, task kind, task index, attempt)` tuple, so
//!   failure scenarios are reproducible in tests and benches instead
//!   of depending on sleeps and races.
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
//! attempt that may be followed by a retry leaves the runs in place
//! and streams them *borrowed*, cloning each record only as the merge
//! delivers it; the final attempt takes ownership and moves records
//! out instead. A re-executed task therefore observes exactly the
//! state its first execution observed, and the engine's determinism
//! contract (output is a pure function of input and job definition at
//! any parallelism) extends to any failure schedule. The fault-matrix
//! suite asserts byte-equality of faulty and fault-free runs across
//! every scenario family.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::error::MrError;
use crate::metrics::TaskKind;
use crate::trace::{TaskCtx, TraceEventData, Tracer};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// The fault layer's whole purpose is to contain task panics; every
/// lock taken around task execution (the pool's dispatch state, the
/// reduce-run slots, the trace sinks) must therefore tolerate poison
/// instead of converting a contained panic into an
/// abort-by-double-panic. All values guarded this way are plain
/// counters, write-once slots whose invariants hold at every
/// instruction boundary, or reduce runs a panicking attempt only read,
/// so the "poisoned" state is benign.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
/// re-executed.
///
/// The default is **fail-fast** (`max_attempts == 1`): the first task
/// panic is converted into a typed [`MrError::TaskFailed`] and ends
/// the job — right for debugging (the original failure site is not
/// obscured by retries) and for callers that treat any failure as
/// fatal anyway. Panics are caught at the task boundary in *every*
/// mode; no policy lets a task panic unwind out of a resolve.
///
/// With [`FaultPolicy::retry`] a failed task is deterministically
/// re-executed (tasks are pure over their inputs, so a retried task's
/// output is byte-identical — see the module docs) until it succeeds
/// or `max_attempts` executions have failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Maximum executions per task, counting the first (`>= 1`). A
    /// task whose every execution panicked `max_attempts` times fails
    /// the job with [`MrError::TaskFailed`](crate::error::MrError).
    pub max_attempts: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self::fail_fast()
    }
}

impl FaultPolicy {
    /// The default policy: one attempt — the first task panic fails
    /// the job (as a typed error, not a panic).
    pub fn fail_fast() -> Self {
        Self { max_attempts: 1 }
    }

    /// Allows up to `max_attempts` executions per task.
    ///
    /// # Panics
    /// If `max_attempts` is zero — the first execution is an attempt.
    pub fn retry(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a task needs at least one attempt");
        Self { max_attempts }
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

/// One entry of a [`FaultPlan`]: panic with `message` when the task
/// matching `(job, kind, task, attempt)` executes.
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
    /// The panic message (caught at the task boundary like any real
    /// task panic).
    pub message: String,
}

/// A deterministic fault-injection schedule, installed on a
/// [`Workflow`](crate::workflow::Workflow) (or a session) behind a
/// test/bench-facing hook.
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
            message: message.into(),
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
            message: message.into(),
        })
    }

    /// Panics if an injection matches this probe site. Called by the
    /// engine at the start of each map/reduce attempt and just before
    /// the map-side seal/sort.
    pub(crate) fn fire(&self, job: &str, kind: FaultKind, task: usize, attempt: u32) {
        let hit = self.faults.iter().find(|fault| {
            fault.kind == kind
                && fault.task == task
                && fault.attempt.is_none_or(|a| a == attempt)
                && (fault.job == Self::ANY_JOB || fault.job == job)
        });
        if let Some(fault) = hit {
            if self.silence_panic_output {
                silence_injected_panic_output();
            }
            std::panic::panic_any(InjectedPanic {
                kind,
                message: fault.message.clone(),
            });
        }
    }
}

/// Panic payload of an [`InjectedFault`]: carries the
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

/// One phase's view of the fault machinery: the policy in force, the
/// job identity for error reporting, and the trace handle attempt
/// events are emitted on.
pub(crate) struct PhaseFt<'a> {
    pub policy: FaultPolicy,
    pub job: &'a str,
    pub kind: FaultKind,
    pub tracer: Tracer,
}

impl PhaseFt<'_> {
    /// Runs one task under the policy: executes `body(attempt)` inside
    /// a panic boundary, one attempt after another, until success or
    /// `max_attempts` failures. Never panics on a task panic; returns
    /// the typed [`MrError::TaskFailed`] instead. Non-panic errors
    /// (configuration problems) are not retried — they are
    /// deterministic and would fail identically again.
    ///
    /// A task that succeeds at attempt `n` failed, and was retried,
    /// exactly `n − 1` times: the attempt number the body records in
    /// [`TaskMetrics::attempts`](crate::metrics::TaskMetrics::attempts)
    /// is the one fault accounting
    /// [`JobMetrics::tasks_retried`](crate::metrics::JobMetrics::tasks_retried)
    /// derives from, and the `AttemptFailed` / `AttemptRetried` events
    /// emitted here agree with it by construction. With tracing off
    /// every event site is one branch — no clock reads, no allocation.
    pub fn run_task<T>(
        &self,
        task: usize,
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
        let mut attempt = 0;
        loop {
            attempt += 1;
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
                    if attempt >= self.policy.max_attempts {
                        return Err(MrError::TaskFailed(TaskError {
                            job: self.job.to_string(),
                            stage: None,
                            kind,
                            task,
                            attempts: attempt,
                            payload: message,
                        }));
                    }
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

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    fn phase(policy: FaultPolicy, kind: FaultKind) -> PhaseFt<'static> {
        PhaseFt {
            policy,
            job: "j",
            kind,
            tracer: Tracer::off(),
        }
    }

    #[test]
    fn fail_fast_is_the_default_policy() {
        let policy = FaultPolicy::default();
        assert_eq!(policy, FaultPolicy::fail_fast());
        assert_eq!(policy.max_attempts, 1);
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
    fn run_task_retries_until_success_and_counts_every_failure() {
        let calls = Cell::new(0u32);
        let out = phase(FaultPolicy::retry(3), FaultKind::Map).run_task(
            0,
            TaskCtx::default(),
            |attempt| {
                calls.set(calls.get() + 1);
                if attempt < 3 {
                    panic!("attempt {attempt} dies");
                }
                Ok(attempt)
            },
        );
        // The winning attempt is the third: two failures, two retries.
        assert_eq!(out.unwrap(), 3);
        assert_eq!(calls.get(), 3, "attempts run one after another");
    }

    #[test]
    fn run_task_exhausts_into_typed_error() {
        let calls = Cell::new(0u32);
        let err = phase(FaultPolicy::retry(2), FaultKind::Reduce)
            .run_task::<()>(0, TaskCtx::default(), |_| {
                calls.set(calls.get() + 1);
                panic!("always dies")
            })
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed, got {err:?}");
        };
        assert_eq!(task_error.job, "j");
        assert_eq!(task_error.kind, FaultKind::Reduce);
        assert_eq!(task_error.task, 0);
        assert_eq!(task_error.attempts, 2, "the whole budget failed");
        assert_eq!(calls.get(), 2);
        assert_eq!(task_error.payload, "always dies");
    }

    #[test]
    fn run_task_does_not_retry_deterministic_errors() {
        let calls = Cell::new(0u32);
        let err = phase(FaultPolicy::retry(5), FaultKind::Map)
            .run_task::<()>(0, TaskCtx::default(), |_| {
                calls.set(calls.get() + 1);
                Err(MrError::NoReduceTasks)
            })
            .unwrap_err();
        assert_eq!(err, MrError::NoReduceTasks);
        assert_eq!(calls.get(), 1, "config errors never retry");
    }

    #[test]
    fn injected_sort_panic_keeps_its_kind_through_a_map_boundary() {
        let plan = FaultPlan::new().silence_injected_panics().panic_always(
            "j",
            FaultKind::Sort,
            0,
            "seal died",
        );
        let err = phase(FaultPolicy::fail_fast(), FaultKind::Map)
            .run_task::<()>(0, TaskCtx::default(), |attempt| {
                plan.fire("j", FaultKind::Sort, 0, attempt);
                unreachable!("the injection fires first");
            })
            .unwrap_err();
        let MrError::TaskFailed(task_error) = err else {
            panic!("expected TaskFailed");
        };
        assert_eq!(task_error.kind, FaultKind::Sort);
        assert_eq!(task_error.attempts, 1);
        assert_eq!(task_error.payload, "seal died");
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
