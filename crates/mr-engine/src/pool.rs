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
//! [`BatchTag`] `(tenant, workflow, stage)` — on a shared FIFO
//! ready-queue, and the persistent workers claim **individual tasks**
//! from the oldest registered batch that has a claimable task.
//! Concurrent dispatches from different threads therefore interleave
//! at *operation* granularity: a batch held back by its parallelism
//! cap leaves its free slots to the batches behind it.
//!
//! The dispatching thread is not idle while it waits: it claims tasks
//! from its *own* batch (counted against the batch's parallelism cap
//! like any worker) until none are claimable, then blocks on the
//! batch's completion fence. Results are index-addressed per batch, so
//! outputs are byte-identical under every cap and tenant mix.
//!
//! A cap bounds a batch's running tasks, the dispatcher's own
//! included. An uncapped batch (`usize::MAX`: [`WorkerPool::run_tasks`],
//! and every stage of a [`crate::workflow::Workflow`] without a
//! parallelism cap) can therefore run `parallelism + 1` tasks at once
//! on a pool of `parallelism` slots: every worker plus the caller
//! lane.
//!
//! # The one `unsafe` boundary
//!
//! Persistent threads cannot hold a borrow of a dispatcher's stack
//! frame in safe Rust, so `RawRunner` erases the task body's
//! lifetime. Every `unsafe` site below relies on the same **batch
//! completion fence**: `run_tasks_tagged_ctx` does not return, unwind
//! or drop the erased body before `BatchDone::finished == count`, and
//! a task increments that count only after its call into the body has
//! returned (panics included, via the per-task `catch_unwind`).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::fault::lock_unpoisoned;
use crate::trace::{TaskCtx, TraceEventData, Tracer};

/// Identity of a dispatched task batch on the shared scheduler:
/// which tenant submitted it and which workflow and stage it
/// implements.
#[derive(Debug, Clone)]
pub struct BatchTag {
    /// Logical submitter (one per concurrently-resolving caller).
    pub tenant: Arc<str>,
    /// Workflow the batch belongs to; empty for untagged dispatches
    /// (direct `run_tasks` calls outside any workflow).
    pub workflow: Arc<str>,
    /// Zero-based stage index within the workflow.
    pub stage: usize,
}

impl BatchTag {
    /// Tag for a batch attributed to `tenant` running `workflow`'s
    /// stage `stage`.
    pub fn new(tenant: impl Into<Arc<str>>, workflow: impl Into<Arc<str>>, stage: usize) -> Self {
        Self {
            tenant: tenant.into(),
            workflow: workflow.into(),
            stage,
        }
    }

    /// The tag used by dispatches that did not come through a
    /// workflow: tenant `"default"`, no workflow.
    pub fn untagged() -> Self {
        Self::new("default", "", 0)
    }
}

/// A type- and lifetime-erased pointer to a dispatch's task body.
///
/// Plain raw pointers instead of a transmuted `Box<dyn Fn>`: workers
/// may hold their `Arc<BatchShared>` clone slightly past the
/// dispatcher's completion fence, and raw pointers (unlike references
/// inside a boxed closure) carry no validity invariant, so that late
/// drop is trivially sound.
struct RawRunner {
    data: *const (),
    // SAFETY: only `RawRunner::invoke` calls this, under the batch
    // completion fence; `erase` pairs it with the `data` it casts.
    call: unsafe fn(*const (), usize, TaskCtx),
}

// SAFETY: `call` is a plain fn pointer. `data` points at an
// `F: Fn(usize, TaskCtx) + Sync` on the dispatching thread's stack
// whose results go to `Mutex` slots of `T: Send`; a worker only reads
// it through `&F`, never drops or moves it, and does so only while the
// batch completion fence holds.
unsafe impl Send for RawRunner {}
// SAFETY: as for `Send` (both fields) — `F: Sync` makes calls through
// `&F` from many workers at once sound while the batch completion
// fence holds.
unsafe impl Sync for RawRunner {}

impl RawRunner {
    /// Erases `f` to a raw callable.
    ///
    /// # Safety
    /// The caller must keep `*f` alive and un-moved until it has
    /// observed that no further [`RawRunner::invoke`] call can be in
    /// flight (the batch completion fence).
    // SAFETY: the caller's obligation above is the batch completion
    // fence; nothing in this body dereferences `f`'s erased pointer.
    unsafe fn erase<F: Fn(usize, TaskCtx) + Sync>(f: &F) -> Self {
        // SAFETY: callable only through `invoke`, whose caller holds
        // the batch completion fence; `data` came from `&F` below.
        unsafe fn call<F: Fn(usize, TaskCtx)>(data: *const (), i: usize, ctx: TaskCtx) {
            // SAFETY: `data` was produced from `&F` in `erase`, and the
            // batch completion fence keeps that `F` alive and un-moved.
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
    /// Only callable while the batch completion fence of the owning
    /// batch holds (see [`RawRunner::erase`]).
    // SAFETY: the caller's obligation above is the batch completion
    // fence, which is all `call` needs.
    unsafe fn invoke(&self, i: usize, ctx: TaskCtx) {
        // SAFETY: the batch completion fence holds (this function's
        // contract), and `call` was paired with `data` by `erase`.
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

impl BatchShared {
    /// Whether a task of this batch can be claimed now: one is still
    /// unclaimed and fewer than `cap` run. Read under the scheduler
    /// lock.
    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.count
            && self.running.load(Ordering::Relaxed) < self.cap
    }
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
    /// Registered batches in registration order — the FIFO
    /// ready-queue. A batch is removed when its last task finishes.
    batches: Vec<Arc<BatchShared>>,
    /// Tasks currently executing (workers and caller-help combined).
    busy: usize,
    /// Tasks in flight per tenant — the [`PoolStats`] per-tenant
    /// snapshot.
    inflight: BTreeMap<Arc<str>, usize>,
    shutdown: bool,
}

impl Scheduler {
    /// Unclaimed tasks across all registered batches.
    fn queue_depth(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.count.saturating_sub(b.next.load(Ordering::Relaxed)))
            .sum()
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
}

/// A point-in-time snapshot of the shared scheduler, for backpressure
/// decisions ([`crate::runtime::Runtime::pool_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Unclaimed tasks across all registered batches.
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
/// task from the shared FIFO ready-queue, and a panicking task is
/// propagated to its dispatcher while the workers survive. A
/// long-lived [`crate::runtime::Runtime`] therefore runs many
/// workflows back to back without a thread spawn/join per job phase,
/// and **concurrent** dispatches from different threads interleave
/// task-by-task instead of serializing batch-by-batch.
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
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `parallelism` task slots.
    ///
    /// With `parallelism == 1` no OS thread is spawned at all: every
    /// dispatch runs inline on the caller (fast unit tests, clean
    /// stack traces).
    ///
    /// # Panics
    /// If `parallelism` is zero.
    pub fn new(parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be at least 1");
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Scheduler {
                batches: Vec::new(),
                busy: 0,
                inflight: BTreeMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            tasks_executed: AtomicU64::new(0),
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
    /// task granularity; outputs are byte-identical to sequential
    /// execution because results are index-addressed per batch.
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
        // `slots` and `f`) from this stack frame. This function blocks
        // on the batch completion fence below — `done.finished ==
        // count`, reached only after every claimed task fully returned
        // (panic paths included, via per-task catch_unwind) — before
        // the frame is torn down.
        let runner = unsafe { RawRunner::erase(&body) };
        let batch = Arc::new(BatchShared {
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
                batch.claimable().then(|| claim_task(&mut sched, &batch))
            };
            let Some((i, first)) = claim else { break };
            self.shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
            execute_batch_task(&self.shared, &batch, i, first, self.threads);
        }
        // The batch completion fence: wait for every task of the batch.
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

/// Claims the next task of `batch` (which must be
/// [`claimable`](BatchShared::claimable)) in the scheduler-wide
/// accounting. Must run under the scheduler lock, right before
/// executing the task. Returns `(task index, first claim of the
/// batch)`.
fn claim_task(sched: &mut Scheduler, batch: &BatchShared) -> (usize, bool) {
    let i = batch.next.fetch_add(1, Ordering::Relaxed);
    batch.running.fetch_add(1, Ordering::Relaxed);
    sched.busy += 1;
    *sched
        .inflight
        .entry(Arc::clone(&batch.tag.tenant))
        .or_insert(0) += 1;
    (i, !batch.admitted.swap(true, Ordering::Relaxed))
}

/// Claims a task of the first claimable batch in registration order
/// (FIFO), or `None` when nothing is claimable.
fn claim_batch_task(sched: &mut Scheduler) -> Option<(Arc<BatchShared>, usize, bool)> {
    let batch = sched.batches.iter().find(|b| b.claimable()).cloned()?;
    let (i, first) = claim_task(sched, &batch);
    Some((batch, i, first))
}

/// Runs claimed task `i` of `batch` on `slot` and performs the full
/// completion handshake. Shared by workers and dispatcher caller-help
/// (which passes `slot == pool parallelism`, the "caller lane").
///
/// Trace emissions are panic-isolated so a misbehaving sink can never
/// unwind past the batch completion fence (which would invalidate
/// borrows while tasks still run).
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
    // cannot pass its batch completion fence (and tear down the
    // borrowed frame) before the `done.finished` increment below.
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
            sched.batches.retain(|b| !Arc::ptr_eq(b, batch));
        }
    }
    // A completion can free cap room (making this batch claimable
    // again) — wake sleeping workers.
    shared.work_ready.notify_all();
    // The fence handshake: record the panic BEFORE the increment that
    // can release the fence, then touch nothing of the batch besides
    // dropping our Arc.
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
    loop {
        let (batch, i, first) = {
            let mut sched = lock_unpoisoned(&shared.sched);
            loop {
                if let Some(claim) = claim_batch_task(&mut sched) {
                    break claim;
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
        // Count BEFORE running: the task performs the dispatch's
        // completion handshake, so incrementing afterwards would let
        // `run_tasks` return while the counter still misses the tasks
        // it just ran.
        shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
        execute_batch_task(shared, &batch, i, first, slot);
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
                            BatchTag::new(format!("tenant-{t}"), "wf", round),
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
                    BatchTag::new("tenant-a", "wf", 0),
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
    fn tagged_dispatches_stay_ordered_and_route_panics_under_contention() {
        // The stress case for the raw runner's batch completion fence:
        // four dispatcher threads share a 4-slot pool under every cap
        // shape (inline, capped, uncapped). Each round dispatches one
        // clean batch and one batch with a single panicking task; the
        // clean results must come back in task order and the panic
        // must surface at the dispatcher that owns it, never another.
        const CAPS: [usize; 4] = [1, 2, 3, usize::MAX];
        const TASKS: usize = 12;
        let pool = WorkerPool::new(4);
        let spawned = pool.threads_spawned();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..50usize {
                        let cap = CAPS[(t + round) % CAPS.len()];
                        let tag = || BatchTag::new(format!("tenant-{t}"), "stress", round);
                        let out =
                            pool.run_tasks_tagged_ctx(TASKS, cap, &Tracer::off(), tag(), |i, _| {
                                (t, round, i)
                            });
                        let expected: Vec<_> = (0..TASKS).map(|i| (t, round, i)).collect();
                        assert_eq!(out, expected, "tenant {t} round {round} cap {cap}");
                        let doomed = (7 * t + round) % TASKS;
                        let payload = catch_unwind(AssertUnwindSafe(|| {
                            pool.run_tasks_tagged_ctx(TASKS, cap, &Tracer::off(), tag(), |i, _| {
                                if i == doomed {
                                    panic!("tenant {t} round {round} task {i}");
                                }
                                i
                            })
                        }))
                        .expect_err("the doomed task's panic must reach its dispatcher");
                        let message = payload
                            .downcast_ref::<String>()
                            .expect("a formatted panic message");
                        assert_eq!(*message, format!("tenant {t} round {round} task {doomed}"));
                    }
                });
            }
        });
        assert_eq!(pool.stats(), PoolStats::default(), "idle after the rounds");
        assert_eq!(pool.threads_spawned(), spawned, "no thread was respawned");
    }
}
