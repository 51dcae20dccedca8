//! The deterministic worker pool every job runs on.
//!
//! A [`WorkerPool`] spawns its threads once at construction and reuses
//! them for every dispatch until it is dropped, so back-to-back jobs
//! pay no thread-spawn cost. Workers pull task indices from a
//! per-batch cursor; results land in index-addressed slots, so the
//! result vector is always in task order regardless of completion
//! order, and the task function observes nothing about which worker
//! ran it — the keystone of the engine's determinism guarantee. A
//! single-slot pool spawns no thread at all and runs every dispatch
//! inline on the caller.
//!
//! # The batch scheduler
//!
//! A [`WorkerPool`] dispatch does not drive its tasks to completion by
//! itself. It *registers* the task set as a **batch** — tagged with
//! [`BatchTag`] `(tenant, workflow, stage, weight)` — on a shared
//! ready-queue, and the persistent workers claim **individual tasks**
//! from whichever registered batch the pool's [`SchedulingPolicy`]
//! prefers. Concurrent dispatches from different threads therefore
//! interleave at *operation* granularity: a long batch no longer
//! blocks a short one queued behind it, and fairness between tenants
//! is a policy decision instead of an accident of arrival order.
//!
//! The dispatching thread is not idle while it waits: it claims tasks
//! from its *own* batch (counted against the batch's parallelism cap
//! like any worker) until none are claimable, then blocks on the
//! batch's completion fence. Results are index-addressed per batch, so
//! outputs are byte-identical under every policy, cap, and tenant mix.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::fault::lock_unpoisoned;
use crate::trace::{TaskCtx, TraceEventData, Tracer};

/// How the shared pool picks the next task when batches from several
/// tenants are registered at once.
///
/// Whatever the policy, every task of every batch runs exactly once
/// and results are byte-identical — the policy only decides *order*,
/// i.e. latency and fairness, never output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Batches are served strictly in registration order: all
    /// claimable tasks of the oldest batch first. Lowest overhead,
    /// no fairness — a long tenant delays everyone behind it.
    #[default]
    Fifo,
    /// The next task comes from a claimable batch whose *tenant*
    /// currently has the fewest tasks in flight (ties broken by
    /// registration order) — concurrent tenants converge to equal
    /// shares of the pool regardless of batch sizes.
    FairShare,
    /// The next task comes from the claimable batch with the least
    /// estimated remaining work: the batch's weight hint (comparison
    /// pairs, when the BDM computed one) scaled by its unclaimed
    /// fraction, falling back to the unclaimed task count for
    /// unweighted batches. Approximates shortest-remaining-processing-
    /// time, minimizing mean resolve latency.
    ShortestRemainingWork,
}

impl SchedulingPolicy {
    /// Stable lower-case name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::FairShare => "fair_share",
            SchedulingPolicy::ShortestRemainingWork => "shortest_remaining_work",
        }
    }
}

/// Identity of a dispatched task batch on the shared scheduler:
/// which tenant submitted it, which workflow and stage it implements,
/// and an optional total-work hint used by
/// [`SchedulingPolicy::ShortestRemainingWork`].
#[derive(Debug, Clone)]
pub struct BatchTag {
    /// Logical submitter (one per concurrently-resolving caller).
    pub tenant: Arc<str>,
    /// Workflow the batch belongs to; empty for untagged dispatches
    /// (direct `run_tasks` calls outside any workflow).
    pub workflow: Arc<str>,
    /// Zero-based stage index within the workflow.
    pub stage: usize,
    /// Estimated total work of the *stage* in comparison pairs (0 =
    /// unknown). Seeded from the BDM's exact pair counts when a stage
    /// has one.
    pub weight: u64,
}

impl BatchTag {
    /// Tag for a batch attributed to `tenant` running `workflow`'s
    /// stage `stage`, with `weight` estimated comparison pairs
    /// (0 when unknown).
    pub fn new(
        tenant: impl Into<Arc<str>>,
        workflow: impl Into<Arc<str>>,
        stage: usize,
        weight: u64,
    ) -> Self {
        Self {
            tenant: tenant.into(),
            workflow: workflow.into(),
            stage,
            weight,
        }
    }

    /// The tag used by dispatches that did not come through a
    /// workflow: tenant `"default"`, no workflow, no weight hint.
    pub fn untagged() -> Self {
        Self {
            tenant: Arc::from("default"),
            workflow: Arc::from(""),
            stage: 0,
            weight: 0,
        }
    }
}

/// A lifetime-erased unit of work queued on a [`WorkerPool`]'s raw
/// lane (see [`WorkerPool::enqueue_fenced`]).
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// A type- and lifetime-erased pointer to a dispatch's task body.
///
/// Plain raw pointers instead of a transmuted `Box<dyn Fn>`: workers
/// may hold their `Arc<BatchShared>` clone slightly past the
/// dispatcher's completion fence, and raw pointers (unlike references
/// inside a boxed closure) carry no validity invariant, so that late
/// drop is trivially sound.
struct RawRunner {
    data: *const (),
    call: unsafe fn(*const (), usize, TaskCtx),
}

// SAFETY: `data` points at a `F: Fn(usize, TaskCtx) + Sync` plus
// `Sync` result slots on the dispatching thread's stack; invoking it
// from any thread is safe while the dispatch fence holds, which
// `run_tasks_tagged_ctx` guarantees (it does not return before every
// claimed task finished).
unsafe impl Send for RawRunner {}
unsafe impl Sync for RawRunner {}

impl RawRunner {
    /// Erases `f` to a raw callable.
    ///
    /// # Safety
    /// The caller must keep `*f` alive and un-moved until it has
    /// observed that no further [`RawRunner::invoke`] call can be in
    /// flight (the batch completion fence).
    unsafe fn erase<F: Fn(usize, TaskCtx) + Sync>(f: &F) -> Self {
        unsafe fn call<F: Fn(usize, TaskCtx)>(data: *const (), i: usize, ctx: TaskCtx) {
            // SAFETY: `data` was produced from `&F` in `erase`; the
            // fence contract keeps it valid for the duration.
            let f = unsafe { &*(data.cast::<F>()) };
            f(i, ctx);
        }
        Self {
            data: (f as *const F).cast(),
            call: call::<F>,
        }
    }

    /// Runs task `i`.
    ///
    /// # Safety
    /// Only callable while the dispatch fence of the owning batch
    /// holds (see [`RawRunner::erase`]).
    unsafe fn invoke(&self, i: usize, ctx: TaskCtx) {
        // SAFETY: delegated to the caller.
        unsafe { (self.call)(self.data, i, ctx) }
    }
}

/// One registered dispatch on the shared scheduler.
///
/// The counters (`next`, `running`, `finished`) are guarded by the
/// pool's scheduler mutex — they are atomics only so the struct can be
/// shared via `Arc` without interior `&mut`; all loads/stores happen
/// under the lock and use relaxed ordering.
struct BatchShared {
    /// Registration sequence number (FIFO order, tie-breaker).
    seq: u64,
    tag: BatchTag,
    /// Total tasks in the batch.
    count: usize,
    /// Max tasks of this batch running concurrently (dispatch cap).
    cap: usize,
    /// Registration instant — per-task queue wait is measured from it.
    enqueued: Instant,
    /// Owned tracer clone: workers emit slot/admission events with it.
    tracer: Tracer,
    runner: RawRunner,
    /// Next unclaimed task index (== `count` when fully claimed).
    next: AtomicUsize,
    /// Tasks currently executing.
    running: AtomicUsize,
    /// Tasks fully finished, as seen by the scheduler (batch removal).
    finished: AtomicUsize,
    /// Whether the first task has been claimed (StageAdmitted edge).
    admitted: AtomicBool,
    /// Completion fence state — the *only* fields guarded by the
    /// batch-local mutex, so the handshake never nests inside the
    /// scheduler lock.
    done: Mutex<BatchDone>,
    done_cv: Condvar,
}

#[derive(Default)]
struct BatchDone {
    /// Tasks fully finished, as seen by the dispatcher fence.
    finished: usize,
    /// First panic payload of the batch, if any.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// Scheduler state shared between a [`WorkerPool`] handle and its
/// workers, guarded by one mutex.
struct Scheduler {
    /// Raw-lane tasks ([`WorkerPool::enqueue_fenced`]) — always
    /// served before batch tasks, because the speculative dispatcher
    /// that uses this lane is itself racing a deadline.
    direct: VecDeque<PoolTask>,
    /// Registered batches in registration order. A batch is removed
    /// when its last task finishes.
    batches: Vec<Arc<BatchShared>>,
    /// Next registration sequence number.
    next_seq: u64,
    /// Tasks currently executing (workers and caller-help combined).
    busy: usize,
    /// Tasks in flight per tenant — the FairShare signal and the
    /// [`PoolStats`] per-tenant snapshot.
    inflight: BTreeMap<Arc<str>, usize>,
    shutdown: bool,
}

impl Scheduler {
    /// Unclaimed tasks across both lanes.
    fn queue_depth(&self) -> usize {
        self.direct.len()
            + self
                .batches
                .iter()
                .map(|b| b.count.saturating_sub(b.next.load(Ordering::Relaxed)))
                .sum::<usize>()
    }
}

/// State shared between a [`WorkerPool`] handle and its workers.
struct PoolShared {
    sched: Mutex<Scheduler>,
    /// Signalled when work arrives, capacity frees up, or shutdown is
    /// requested.
    work_ready: Condvar,
    /// Tasks executed through the shared scheduler (by workers or by
    /// dispatcher caller-help) over the pool's lifetime — a cheap
    /// witness that consecutive runs reuse the same pool. Inline
    /// dispatches bypass the scheduler and do not count.
    tasks_executed: AtomicU64,
    policy: SchedulingPolicy,
}

/// A point-in-time snapshot of the shared scheduler, for backpressure
/// decisions ([`crate::runtime::Runtime::pool_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Unclaimed tasks across all registered batches plus the raw
    /// speculative lane.
    pub queue_depth: usize,
    /// Tasks currently executing (pool workers and dispatcher
    /// caller-help combined).
    pub busy_slots: usize,
    /// Batches registered and not yet fully finished.
    pub active_batches: usize,
    /// Tasks in flight per tenant, sorted by tenant name.
    pub per_tenant_inflight: Vec<(String, usize)>,
}

/// A persistent worker pool: `parallelism` threads spawned **once** at
/// construction and reused by every [`WorkerPool::run_tasks`] call.
///
/// A dispatch with a single task, a cap of one, or on a single-slot
/// pool runs inline on the caller; everything else is claimed task by
/// task from the shared ready-queue, and a panicking task is
/// propagated to its dispatcher while the workers survive. A
/// long-lived [`crate::runtime::Runtime`] therefore runs many
/// workflows back to back without a thread spawn/join per job phase,
/// and **concurrent** dispatches from different threads interleave
/// task-by-task under the pool's [`SchedulingPolicy`] instead of
/// serializing batch-by-batch.
///
/// Do not call [`WorkerPool::run_tasks`] from inside one of the pool's
/// own tasks: the outer call holds workers that the inner call would
/// need, and the pool does not grow.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("threads_spawned", &self.handles.len())
            .field("tasks_executed", &self.tasks_executed())
            .field("policy", &self.shared.policy)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `parallelism` task slots under the default
    /// [`SchedulingPolicy::Fifo`].
    ///
    /// With `parallelism == 1` no OS thread is spawned at all: every
    /// dispatch runs inline on the caller (fast unit tests, clean
    /// stack traces).
    ///
    /// # Panics
    /// If `parallelism` is zero.
    pub fn new(parallelism: usize) -> Self {
        Self::with_policy(parallelism, SchedulingPolicy::default())
    }

    /// [`WorkerPool::new`] with an explicit admission policy.
    ///
    /// # Panics
    /// If `parallelism` is zero.
    pub fn with_policy(parallelism: usize, policy: SchedulingPolicy) -> Self {
        assert!(parallelism > 0, "parallelism must be at least 1");
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Scheduler {
                direct: VecDeque::new(),
                batches: Vec::new(),
                next_seq: 0,
                busy: 0,
                inflight: BTreeMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            tasks_executed: AtomicU64::new(0),
            policy,
        });
        let handles = if parallelism == 1 {
            Vec::new()
        } else {
            (0..parallelism)
                .map(|slot| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_main(&shared, slot))
                })
                .collect()
        };
        Self {
            shared,
            threads: parallelism,
            handles,
        }
    }

    /// The configured parallelism (task slots).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's admission policy.
    pub fn scheduling_policy(&self) -> SchedulingPolicy {
        self.shared.policy
    }

    /// OS threads this pool spawned over its lifetime. Constant after
    /// construction (`parallelism`, or 0 for the inline single-slot
    /// pool) — the reuse guarantee tests pin.
    pub fn threads_spawned(&self) -> usize {
        self.handles.len()
    }

    /// Tasks executed through the shared scheduler so far. Grows with
    /// every pooled dispatch; stays 0 for inline execution.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks_executed.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the scheduler: queue depth, busy
    /// slots, and per-tenant inflight counts. Consistent (taken under
    /// the scheduler lock) but immediately stale — use it for
    /// backpressure heuristics, not invariants.
    pub fn stats(&self) -> PoolStats {
        let sched = lock_unpoisoned(&self.shared.sched);
        PoolStats {
            queue_depth: sched.queue_depth(),
            busy_slots: sched.busy,
            active_batches: sched.batches.len(),
            per_tenant_inflight: sched
                .inflight
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(t, n)| (t.to_string(), *n))
                .collect(),
        }
    }

    /// Runs `count` tasks produced by `f(task_index)` on the pool's
    /// workers and returns results in task order.
    ///
    /// Blocks until every task completed; a panicking task is
    /// propagated to the caller after the remaining tasks finished
    /// (workers themselves survive).
    pub fn run_tasks<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_tasks_capped(count, usize::MAX, f)
    }

    /// Like [`WorkerPool::run_tasks`], but uses at most `cap` task
    /// slots concurrently — a per-dispatch parallelism override that
    /// never spawns or retires threads. `cap == 1` runs inline on the
    /// caller, like a single-slot pool. Results are byte-identical at
    /// any cap.
    ///
    /// # Panics
    /// If `cap` is zero.
    pub fn run_tasks_capped<T, F>(&self, count: usize, cap: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_tasks_tagged_ctx(
            count,
            cap,
            &Tracer::off(),
            BatchTag::untagged(),
            |i, _ctx| f(i),
        )
    }

    /// The full dispatch entry: registers the `count` tasks as one
    /// tagged batch on the shared scheduler, helps execute it from the
    /// calling thread, and blocks until every task finished.
    ///
    /// Concurrent callers (different tenants/workflows) interleave at
    /// task granularity per the pool's [`SchedulingPolicy`]; outputs
    /// are byte-identical to sequential execution because results are
    /// index-addressed per batch.
    pub(crate) fn run_tasks_tagged_ctx<T, F>(
        &self,
        count: usize,
        cap: usize,
        tracer: &Tracer,
        tag: BatchTag,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, TaskCtx) -> T + Sync,
    {
        assert!(cap > 0, "parallelism cap must be at least 1");
        if count == 0 {
            return Vec::new();
        }
        if self.handles.is_empty() || count == 1 || cap == 1 {
            // Inline execution bypasses the scheduler entirely: zero
            // scheduling delay by construction, no pool events, and
            // `tasks_executed` intentionally stays untouched.
            return (0..count).map(|i| f(i, TaskCtx::default())).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let slots_ref = &slots;
        let f = &f;
        let body = move |i: usize, ctx: TaskCtx| {
            let result = f(i, ctx);
            // Poison-tolerant: the guarded value is a write-once slot,
            // valid at every instruction boundary, so a panic elsewhere
            // must not escalate to a double-panic abort here.
            let prev = lock_unpoisoned(&slots_ref[i]).replace(result);
            assert!(prev.is_none(), "slot {i} written twice");
        };
        // SAFETY: the erased runner borrows `body` (and through it
        // `slots` and `f`) from this stack frame. The erasure never
        // outlives them because this function blocks on the batch's
        // completion fence below — `done.finished == count`, reached
        // only after every claimed task fully returned (panic paths
        // included, via per-task catch_unwind) — before the frame is
        // torn down.
        let runner = unsafe { RawRunner::erase(&body) };
        let seq = {
            let mut sched = lock_unpoisoned(&self.shared.sched);
            let seq = sched.next_seq;
            sched.next_seq += 1;
            seq
        };
        let batch = Arc::new(BatchShared {
            seq,
            tag,
            count,
            cap,
            enqueued: Instant::now(),
            tracer: tracer.clone(),
            runner,
            next: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            admitted: AtomicBool::new(false),
            done: Mutex::new(BatchDone::default()),
            done_cv: Condvar::new(),
        });
        {
            let mut sched = lock_unpoisoned(&self.shared.sched);
            sched.batches.push(Arc::clone(&batch));
            if !batch.tag.workflow.is_empty() {
                tracer.emit_with(None, || TraceEventData::StageReady {
                    tenant: batch.tag.tenant.to_string(),
                    workflow: batch.tag.workflow.to_string(),
                    stage: batch.tag.stage,
                    tasks: count,
                });
            }
            tracer.emit_with(None, || TraceEventData::TasksEnqueued {
                tasks: count,
                queue_depth: sched.queue_depth(),
            });
            self.shared.work_ready.notify_all();
        }
        // Caller-help: claim tasks from our own batch (never another
        // tenant's — this thread must stay available to *its* caller)
        // until the batch is fully claimed or cap-limited.
        loop {
            let claim = {
                let mut sched = lock_unpoisoned(&self.shared.sched);
                let next = batch.next.load(Ordering::Relaxed);
                if next < count && batch.running.load(Ordering::Relaxed) < cap {
                    claim_task(&mut sched, &batch);
                    Some((next, !batch.admitted.swap(true, Ordering::Relaxed)))
                } else {
                    None
                }
            };
            match claim {
                Some((i, first)) => {
                    self.shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
                    execute_batch_task(&self.shared, &batch, i, first, self.threads);
                }
                None => break,
            }
        }
        // The borrow fence: wait for every task of the batch.
        let panic = {
            let mut done = lock_unpoisoned(&batch.done);
            while done.finished < count {
                done = batch
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            done.panic.take()
        };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| panic!("task {i} produced no result"))
            })
            .collect()
    }

    /// Number of OS worker threads currently servicing the queue (0
    /// for the inline single-slot pool).
    pub(crate) fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues `copies` erased clones of `body` on the pool's raw
    /// lane without any completion bookkeeping of its own — the
    /// building block the speculative dispatcher
    /// ([`crate::fault::run_speculative`]) uses to run its own
    /// work-queue loops on pool threads. Raw-lane tasks are served
    /// before batch tasks.
    ///
    /// # Safety
    /// `body` may borrow the caller's stack frame. The caller MUST NOT
    /// return (or otherwise invalidate those borrows) until it has
    /// observed that every enqueued copy fully returned — panic paths
    /// included — via its own fence (e.g. a pending count decremented
    /// by a drop guard inside `body`).
    pub(crate) unsafe fn enqueue_fenced<'env>(&self, copies: usize, body: &'env (dyn Fn() + Sync)) {
        {
            let mut sched = lock_unpoisoned(&self.shared.sched);
            for _ in 0..copies {
                let task: Box<dyn FnOnce() + Send + 'env> = Box::new(body);
                // SAFETY: delegated to the caller per this function's
                // contract — the fence outlives every enqueued copy.
                let task: PoolTask = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, PoolTask>(task)
                };
                sched.direct.push_back(task);
            }
        }
        self.shared.work_ready.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut sched = lock_unpoisoned(&self.shared.sched);
            sched.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker panic would already have been propagated to the
            // dispatcher; a join error here means a task panicked in a
            // way catch_unwind cannot contain (abort), so unwrapping
            // is unreachable in practice.
            let _ = handle.join();
        }
    }
}

/// Records a claim on `batch` in the scheduler-wide accounting. Must
/// run under the scheduler lock, right before executing the task.
fn claim_task(sched: &mut Scheduler, batch: &BatchShared) {
    batch.next.fetch_add(1, Ordering::Relaxed);
    batch.running.fetch_add(1, Ordering::Relaxed);
    sched.busy += 1;
    *sched
        .inflight
        .entry(Arc::clone(&batch.tag.tenant))
        .or_insert(0) += 1;
}

/// Estimated remaining work of a batch: the weight hint scaled by the
/// unclaimed fraction, or the unclaimed task count when unweighted.
/// Mixed-unit by design — weighted batches compare in comparison
/// pairs, unweighted ones in tasks — which biases SRW toward small
/// untagged dispatches; acceptable, since those are short by
/// construction.
fn remaining_work(batch: &BatchShared) -> u64 {
    let remaining = batch
        .count
        .saturating_sub(batch.next.load(Ordering::Relaxed)) as u64;
    if batch.tag.weight > 0 {
        (batch.tag.weight / batch.count as u64)
            .max(1)
            .saturating_mul(remaining)
    } else {
        remaining
    }
}

/// Picks the next claimable batch per `policy` (lower key wins; `seq`
/// breaks ties, so every policy degenerates to FIFO among equals).
/// Returns the claimed `(batch, task_index, first_claim)` or `None`
/// when nothing is claimable.
fn claim_batch_task(
    sched: &mut Scheduler,
    policy: SchedulingPolicy,
) -> Option<(Arc<BatchShared>, usize, bool)> {
    let mut best: Option<((u64, u64), usize)> = None;
    for (idx, b) in sched.batches.iter().enumerate() {
        let next = b.next.load(Ordering::Relaxed);
        if next >= b.count || b.running.load(Ordering::Relaxed) >= b.cap {
            continue;
        }
        let key = match policy {
            SchedulingPolicy::Fifo => (0, b.seq),
            SchedulingPolicy::FairShare => (
                sched.inflight.get(&b.tag.tenant).copied().unwrap_or(0) as u64,
                b.seq,
            ),
            SchedulingPolicy::ShortestRemainingWork => (remaining_work(b), b.seq),
        };
        if best.is_none_or(|(bk, _)| key < bk) {
            best = Some((key, idx));
        }
    }
    let (_, idx) = best?;
    let batch = Arc::clone(&sched.batches[idx]);
    let i = batch.next.load(Ordering::Relaxed);
    claim_task(sched, &batch);
    let first = !batch.admitted.swap(true, Ordering::Relaxed);
    Some((batch, i, first))
}

/// Runs claimed task `i` of `batch` on `slot` and performs the full
/// completion handshake. Shared by workers and dispatcher caller-help
/// (which passes `slot == pool parallelism`, the "caller lane").
///
/// Trace emissions are panic-isolated so a misbehaving sink can never
/// unwind past the dispatch fence (which would invalidate borrows
/// while tasks still run).
fn execute_batch_task(
    shared: &PoolShared,
    batch: &Arc<BatchShared>,
    i: usize,
    first: bool,
    slot: usize,
) {
    if first && !batch.tag.workflow.is_empty() {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            batch
                .tracer
                .emit_with(None, || TraceEventData::StageAdmitted {
                    tenant: batch.tag.tenant.to_string(),
                    workflow: batch.tag.workflow.to_string(),
                    stage: batch.tag.stage,
                });
        }));
    }
    let _ = catch_unwind(AssertUnwindSafe(|| {
        batch
            .tracer
            .emit_with(Some(slot), || TraceEventData::SlotAcquired {
                tenant: Some(batch.tag.tenant.to_string()),
            });
    }));
    let ctx = TaskCtx {
        slot,
        queue_wait: batch.enqueued.elapsed(),
    };
    // SAFETY: this task was claimed from a live batch; the dispatcher
    // cannot pass its fence (and tear down the borrowed frame) before
    // the `done.finished` increment below.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { batch.runner.invoke(i, ctx) }));
    let _ = catch_unwind(AssertUnwindSafe(|| {
        batch.tracer.emit(Some(slot), TraceEventData::SlotReleased);
    }));
    {
        let mut sched = lock_unpoisoned(&shared.sched);
        sched.busy -= 1;
        batch.running.fetch_sub(1, Ordering::Relaxed);
        let finished = batch.finished.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(n) = sched.inflight.get_mut(&batch.tag.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                sched.inflight.remove(&batch.tag.tenant);
            }
        }
        if finished == batch.count {
            sched.batches.retain(|b| b.seq != batch.seq);
        }
    }
    // A completion can free cap room (making this batch claimable
    // again) — wake sleeping workers.
    shared.work_ready.notify_all();
    // The dispatcher fence handshake: record the panic BEFORE the
    // increment that can release the fence, then touch nothing of the
    // batch besides dropping our Arc.
    let mut done = lock_unpoisoned(&batch.done);
    if let Err(payload) = outcome {
        // First panic wins.
        done.panic.get_or_insert(payload);
    }
    done.finished += 1;
    if done.finished == batch.count {
        batch.done_cv.notify_all();
    }
}

fn worker_main(shared: &PoolShared, slot: usize) {
    enum Work {
        Direct(PoolTask),
        Batch(Arc<BatchShared>, usize, bool),
    }
    loop {
        let work = {
            let mut sched = lock_unpoisoned(&shared.sched);
            loop {
                if let Some(task) = sched.direct.pop_front() {
                    sched.busy += 1;
                    break Work::Direct(task);
                }
                if let Some((batch, i, first)) = claim_batch_task(&mut sched, shared.policy) {
                    break Work::Batch(batch, i, first);
                }
                if sched.shutdown {
                    return;
                }
                sched = shared
                    .work_ready
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Count BEFORE running: the task body performs the dispatch's
        // completion handshake, so incrementing afterwards would let
        // `run_tasks` return while the counter still misses the tasks
        // it just ran.
        shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
        match work {
            Work::Direct(task) => {
                // Raw-lane tasks contain their own catch_unwind; this
                // outer guard only keeps the worker alive if that
                // bookkeeping itself ever panicked.
                let _ = catch_unwind(AssertUnwindSafe(task));
                lock_unpoisoned(&shared.sched).busy -= 1;
            }
            Work::Batch(batch, i, first) => {
                execute_batch_task(shared, &batch, i, first, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order() {
        // Make later tasks finish earlier by sleeping inversely.
        let out = WorkerPool::new(4).run_tasks(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis((8 - i as u64) * 2));
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn sequential_path_matches_parallel_path() {
        let seq = WorkerPool::new(1).run_tasks(20, |i| i * i);
        let par = WorkerPool::new(6).run_tasks(20, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = WorkerPool::new(7).run_tasks(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<u8> = WorkerPool::new(4).run_tasks(0, |_| unreachable!("no tasks to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn worker_pool_reuses_threads_across_dispatches() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        assert_eq!(pool.threads_spawned(), 3);
        let before = pool.tasks_executed();
        for round in 0..5 {
            let out = pool.run_tasks(10, |i| i + round);
            assert_eq!(out.len(), 10);
            assert_eq!(
                pool.threads_spawned(),
                3,
                "no new threads may appear per dispatch"
            );
        }
        assert!(
            pool.tasks_executed() > before,
            "pooled dispatches must run through the shared scheduler"
        );
    }

    #[test]
    fn single_slot_pool_runs_inline_without_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads_spawned(), 0);
        let caller = std::thread::current().id();
        let ids = pool.run_tasks(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(pool.tasks_executed(), 0, "inline path bypasses the queue");
    }

    #[test]
    fn worker_pool_tasks_can_borrow_the_caller_stack() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..50).collect();
        let doubled = pool.run_tasks(data.len(), |i| data[i] * 2);
        assert_eq!(doubled[49], 98);
    }

    #[test]
    fn worker_pool_propagates_task_panics_and_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks(8, |i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the dispatcher");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("exploded"), "got {msg:?}");
        // The pool stays usable after a panicking dispatch.
        assert_eq!(pool.run_tasks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn zero_slot_pool_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn capped_dispatch_matches_uncapped_results_without_new_threads() {
        let pool = WorkerPool::new(4);
        let spawned = pool.threads_spawned();
        for cap in [1usize, 2, 3, 4, 99] {
            let capped = pool.run_tasks_capped(20, cap, |i| i * 7);
            let uncapped = pool.run_tasks(20, |i| i * 7);
            assert_eq!(capped, uncapped, "cap {cap}");
            assert_eq!(pool.threads_spawned(), spawned, "cap {cap} spawned threads");
        }
    }

    #[test]
    fn cap_of_one_runs_inline_on_the_caller() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let ids = pool.run_tasks_capped(6, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn zero_cap_panics() {
        let pool = WorkerPool::new(2);
        let _ = pool.run_tasks_capped(4, 0, |i| i);
    }

    #[test]
    fn results_identical_under_every_policy() {
        let expected: Vec<usize> = (0..50).map(|i| i * 2).collect();
        for policy in [
            SchedulingPolicy::Fifo,
            SchedulingPolicy::FairShare,
            SchedulingPolicy::ShortestRemainingWork,
        ] {
            let pool = WorkerPool::with_policy(4, policy);
            assert_eq!(pool.run_tasks(50, |i| i * 2), expected, "policy {policy:?}");
        }
    }

    #[test]
    fn concurrent_dispatches_from_many_threads_are_isolated() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..3 {
                        let out = pool.run_tasks_tagged_ctx(
                            12,
                            usize::MAX,
                            &Tracer::off(),
                            BatchTag::new(format!("tenant-{t}"), "wf", round, 0),
                            |i, _| i * t + round,
                        );
                        let expected: Vec<usize> = (0..12).map(|i| i * t + round).collect();
                        assert_eq!(out, expected, "tenant {t} round {round}");
                    }
                });
            }
        });
        // All batches drained; the scheduler is back to idle.
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn stats_reports_inflight_during_dispatch() {
        let pool = WorkerPool::new(2);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let pool_ref = &pool;
            let release_ref = &release;
            scope.spawn(move || {
                pool_ref.run_tasks_tagged_ctx(
                    4,
                    usize::MAX,
                    &Tracer::off(),
                    BatchTag::new("tenant-a", "wf", 0, 0),
                    |_, _| {
                        while !release_ref.load(Ordering::Relaxed) {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    },
                );
            });
            // Wait until the scheduler shows the batch in flight.
            let stats = loop {
                let stats = pool.stats();
                if stats.busy_slots > 0 {
                    break stats;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            };
            assert_eq!(stats.active_batches, 1);
            assert!(
                stats
                    .per_tenant_inflight
                    .iter()
                    .any(|(t, n)| t == "tenant-a" && *n > 0),
                "tenant-a must appear in {stats:?}"
            );
            release.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            pool.stats(),
            PoolStats::default(),
            "idle after the dispatch"
        );
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(SchedulingPolicy::Fifo.name(), "fifo");
        assert_eq!(SchedulingPolicy::FairShare.name(), "fair_share");
        assert_eq!(
            SchedulingPolicy::ShortestRemainingWork.name(),
            "shortest_remaining_work"
        );
    }
}
