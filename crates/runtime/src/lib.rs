//! # rf-runtime — work-stealing task scheduler
//!
//! The execution substrate shared by the Ranking Facts workspace.  At its
//! core is the [`Scheduler`]: a fixed set of workers, each owning a local
//! deque of tasks, stealing from its siblings (and from a shared injector
//! queue fed by external threads) when its own deque runs dry.
//!
//! The property the rest of the workspace builds on is the blocking
//! [`Scheduler::scope`]: a task may spawn subtasks and wait for them, and the
//! waiting thread **helps** — it runs queued scope tasks (its own, stolen, or
//! injected) instead of parking — so nested fan-outs can never deadlock the
//! pool they run on, even with a single worker.  That is what lets the label
//! pipeline fan widgets out across the pool while one of those widgets (the
//! Monte-Carlo stability detail) fans out again, one task per batch of
//! trials.
//! Top-level jobs ([`Scheduler::spawn_detached`],
//! [`Scheduler::execute_notify`]) wait in a queue of their own that only
//! idle workers take from: a helping waiter never starts one, so a request
//! job never runs nested inside another — where it could block on work
//! lower on its own stack.
//!
//! * `rf-core`'s `AnalysisPipeline` fans the label widgets out over nested
//!   scopes;
//! * `rf-stability` runs one task per batch of `ceil(trials / (workers ×
//!   f))` Monte-Carlo trials inside a widget job;
//! * `rf-server` dispatches parsed requests onto the same scheduler via
//!   [`Scheduler::execute_notify`], whose notify-even-on-panic guarantee
//!   rf-net's completion hook depends on — one pool per server, so request
//!   jobs, widget jobs and trial batches share its workers.
//!
//! [`ThreadPool`] is a thin owner of a scheduler, shared by `Arc`.
//!
//! Each worker runs pinned to one CPU, the workers of a pool on distinct
//! CPUs where there are enough (see the `affinity` module): the kernel's
//! wake-up placement could otherwise herd a whole pool onto one CPU.
//!
//! There is no process-wide pool: each pool belongs to whoever built it (a
//! server's label service, one CLI run, a bench, a test), and its workers
//! exit when the last handle drops.  Jobs are `'static` — shared state
//! crosses into the scheduler via `Arc`.
//!
//! Panics inside a task are caught and counted (see
//! [`Scheduler::panicked_jobs`]) so one poisoned request cannot take a worker
//! down with it; structured callers ([`Scheduler::run_all`]) observe a
//! panicked task as a `None` slot.  [`Scheduler::stats`] exposes the
//! observability counters (queue depth, steals, executed and panicked tasks)
//! that the HTTP `/stats` endpoint serves.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod affinity;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// `(address of the scheduler's shared state, worker index + 1)` when the
    /// current thread is a scheduler worker, `(0, 0)` otherwise.  Lets
    /// [`Shared::current_worker`] route spawns to the local deque and lets
    /// helping waiters prefer their own work.
    static WORKER: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Locks a mutex, ignoring poisoning: every job runs *outside* the runtime's
/// locks (panics are caught around the job call), so a poisoned lock can only
/// mean a panic in runtime bookkeeping that holds no broken invariants worth
/// propagating.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the scheduler handle, its workers, and in-flight
/// scopes.
struct Shared {
    /// Top-level jobs, oldest first.  Only idle workers take these; a
    /// waiter helping its scope never does.
    jobs: Mutex<VecDeque<Job>>,
    /// Queue for scope tasks pushed from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: the owner pushes and pops at the back (LIFO, so
    /// a scope's freshly spawned subtasks run first), thieves steal from the
    /// front (FIFO, oldest task first).
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Paired with `wake`; pushers take this lock before notifying so a
    /// worker that checked `queued` under the lock cannot miss the wakeup.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Tasks currently queued (top-level jobs, injector and all deques).
    queued: AtomicUsize,
    shutdown: AtomicBool,
    panicked: AtomicUsize,
    steals: AtomicU64,
    executed: AtomicU64,
}

impl Shared {
    /// The calling thread's worker index on *this* scheduler, if any.
    fn current_worker(&self) -> Option<usize> {
        let (addr, index) = WORKER.with(std::cell::Cell::get);
        if addr == std::ptr::from_ref(self) as usize {
            Some(index - 1)
        } else {
            None
        }
    }

    /// Queues a scope task: onto the local deque when called from a worker
    /// of this scheduler, onto the injector otherwise.
    fn push(&self, job: Job) {
        self.enqueue(|| match self.current_worker() {
            Some(index) => lock(&self.deques[index]).push_back(job),
            None => lock(&self.injector).push_back(job),
        });
    }

    /// Queues a top-level job.
    fn push_top_level(&self, job: Job) {
        self.enqueue(|| lock(&self.jobs).push_back(job));
    }

    /// Counts a task in, runs `insert` to make it poppable, and wakes a
    /// worker.
    fn enqueue(&self, insert: impl FnOnce()) {
        // Publish the count *before* the job becomes poppable: the finders
        // only decrement after actually taking a job, and a job can only be
        // taken after the insert below — so `queued` (served raw by the
        // /stats endpoint) can never transiently underflow.  A thread that
        // reads the incremented count a moment early just re-polls until
        // the push lands.
        self.queued.fetch_add(1, Ordering::SeqCst);
        insert();
        // Acquire-release the sleep lock between publishing `queued` and
        // notifying: a worker that saw `queued == 0` under this lock is
        // already waiting and receives the notification; one that has not
        // yet taken the lock will see `queued > 0` when it does.
        drop(lock(&self.sleep));
        self.wake.notify_one();
    }

    /// Takes one runnable scope task: own deque first (back), then the
    /// injector, then steals from sibling deques (front).
    fn find_job(&self) -> Option<Job> {
        let me = self.current_worker();
        self.take_local(me).or_else(|| self.steal(me))
    }

    /// What an idle worker takes: its own or injected scope tasks, then the
    /// oldest top-level job, and only then a sibling's scope task.  Taking a
    /// new request before stealing keeps a short request from waiting out a
    /// long label's whole fan-out.
    fn find_any(&self) -> Option<Job> {
        let me = self.current_worker();
        self.take_local(me)
            .or_else(|| self.take(&self.jobs, VecDeque::pop_front))
            .or_else(|| self.steal(me))
    }

    /// A task from `me`'s own deque (newest first), else from the injector
    /// (oldest first).
    fn take_local(&self, me: Option<usize>) -> Option<Job> {
        me.and_then(|index| self.take(&self.deques[index], VecDeque::pop_back))
            .or_else(|| self.take(&self.injector, VecDeque::pop_front))
    }

    /// The oldest task of a sibling's deque, counted as a steal.
    fn steal(&self, me: Option<usize>) -> Option<Job> {
        let workers = self.deques.len();
        let start = me.map_or(0, |index| index + 1);
        let job = (0..workers)
            .map(|offset| (start + offset) % workers)
            .filter(|&victim| Some(victim) != me)
            .find_map(|victim| self.take(&self.deques[victim], VecDeque::pop_front))?;
        self.steals.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }

    /// Pops one task from `queue`, keeping `queued` in step.
    fn take(
        &self,
        queue: &Mutex<VecDeque<Job>>,
        pop: fn(&mut VecDeque<Job>) -> Option<Job>,
    ) -> Option<Job> {
        let job = pop(&mut lock(queue))?;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Some(job)
    }

    /// Runs a task, counting it and containing its panic.
    ///
    /// `executed` is bumped *before* the task body: a scope's completion
    /// latch fires inside the body (the spawn wrapper's drop guard), so
    /// counting afterwards would let `scope`/`run_all` return with the last
    /// task still uncounted.
    fn run(&self, job: Job) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, index: usize, cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        affinity::pin_current(cpu);
    }
    WORKER.with(|cell| cell.set((Arc::as_ptr(shared) as usize, index + 1)));
    loop {
        if let Some(job) = shared.find_any() {
            shared.run(job);
            continue;
        }
        let guard = lock(&shared.sleep);
        if shared.queued.load(Ordering::SeqCst) > 0 {
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The timeout is belt and braces: correctness comes from pushers
        // notifying under the sleep lock, so a missed wakeup cannot happen —
        // but a bounded wait keeps a hypothetical bug from parking a worker
        // forever.
        let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
    }
}

/// A point-in-time snapshot of a scheduler's observability counters, served
/// verbatim by the HTTP `/stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SchedulerStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Tasks currently queued (top-level jobs, injector and all worker
    /// deques).
    pub queue_depth: usize,
    /// Tasks a worker (or a helping waiter) took from another worker's deque.
    pub steals: u64,
    /// Tasks taken off the queues and run (including panicked ones).
    pub executed_jobs: u64,
    /// Tasks that panicked.
    pub panicked_jobs: u64,
}

/// A work-stealing task scheduler: per-worker deques with stealing, plus the
/// blocking [`scope`](Scheduler::scope) API whose waiters help run tasks.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("size", &self.size)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Tracks one blocking scope: the number of spawned-but-unfinished tasks and
/// the latch its waiter blocks on when no task is runnable.
struct ScopeState {
    pending: AtomicUsize,
    latch: Mutex<()>,
    done: Condvar,
}

/// Decrements the owning scope's pending count when a task finishes — by
/// returning *or* by unwinding — and wakes the waiter on the last task.
struct Complete(Arc<ScopeState>);

impl Drop for Complete {
    fn drop(&mut self) {
        if self.0.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Pair the notify with the latch lock so a waiter that observed
            // `pending > 0` under the latch cannot miss this wakeup.
            drop(lock(&self.0.latch));
            self.0.done.notify_all();
        }
    }
}

/// A handle for spawning tasks into a blocking [`Scheduler::scope`].
pub struct Scope<'a> {
    scheduler: &'a Scheduler,
    state: Arc<ScopeState>,
}

impl Scope<'_> {
    /// Spawns a task into the scope.  The surrounding
    /// [`scope`](Scheduler::scope) call returns only after the task has
    /// finished; a panicking task is caught and counted like any other
    /// scheduler task.
    ///
    /// Tasks spawned from a worker go to that worker's own deque (and are
    /// popped LIFO, so a helping waiter runs its own subtasks first); tasks
    /// spawned from outside go to the shared injector.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let complete = Complete(Arc::clone(&self.state));
        self.scheduler.shared.push(Box::new(move || {
            // Dropped when the task ends — normally or by unwinding.
            let _complete = complete;
            task();
        }));
    }
}

impl Scheduler {
    /// Creates a scheduler with `size` workers (at least one).
    #[must_use]
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            jobs: Mutex::new(VecDeque::new()),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let workers = affinity::reserve(size)
            .into_iter()
            .enumerate()
            .map(|(index, cpu)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rf-runtime-{index}"))
                    .spawn(move || worker_loop(&shared, index, cpu))
                    .expect("spawn rf-runtime worker")
            })
            .collect();
        Scheduler {
            shared,
            workers,
            size,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of tasks that panicked since the scheduler was created.
    #[must_use]
    pub fn panicked_jobs(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Number of tasks taken off the queues and run (including panicked
    /// ones).  Every task of a completed [`scope`](Scheduler::scope) or
    /// [`run_all`](Scheduler::run_all) is counted by the time the call
    /// returns.
    #[must_use]
    pub fn executed_jobs(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// A snapshot of the observability counters.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            workers: self.size,
            queue_depth: self.shared.queued.load(Ordering::SeqCst),
            steals: self.shared.steals.load(Ordering::Relaxed),
            executed_jobs: self.shared.executed.load(Ordering::Relaxed),
            panicked_jobs: self.shared.panicked.load(Ordering::Relaxed) as u64,
        }
    }

    /// Queues a fire-and-forget top-level job.  An idle worker runs it once
    /// its own deque and the injector are empty, before stealing; a waiter
    /// helping its scope never does.
    pub fn spawn_detached<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.push_top_level(Box::new(job));
    }

    /// Queues a job and guarantees `notify` runs after it finishes — even
    /// when the job panics.  Everything the job captured is dropped before
    /// `notify` runs.
    ///
    /// This is the completion hook event-driven callers build on: the
    /// `rf-server` reactor dispatches each request here with a notifier
    /// that signals its wake eventfd, so a finished (or crashed) job always
    /// pulls the reactor out of `epoll_wait` to collect the result.  Without
    /// the panic guarantee, a crashing handler would leave the reactor
    /// asleep and its connection stranded.
    pub fn execute_notify<F, N>(&self, job: F, notify: N)
    where
        F: FnOnce() + Send + 'static,
        N: FnOnce() + Send + 'static,
    {
        struct NotifyOnDrop<N: FnOnce()>(Option<N>);
        impl<N: FnOnce()> Drop for NotifyOnDrop<N> {
            fn drop(&mut self) {
                if let Some(notify) = self.0.take() {
                    notify();
                }
            }
        }
        let guard = NotifyOnDrop(Some(notify));
        self.spawn_detached(move || {
            // Dropped when the closure ends — normally or by unwinding.
            let _guard = guard;
            job();
        });
    }

    /// Runs `f` with a [`Scope`] handle and blocks until every task spawned
    /// into the scope has finished.
    ///
    /// While blocked, the calling thread **helps**: it runs queued scope
    /// tasks (its own deque when it is a worker, stolen or injected tasks
    /// otherwise) instead of parking.  It never starts a top-level job.  That is the property that makes nested scopes
    /// deadlock-free at any worker count — a scope inside a scope on a
    /// one-worker scheduler simply executes its subtasks inline, in between
    /// polls of its completion latch.
    pub fn scope<R>(&self, f: impl FnOnce(&Scope<'_>) -> R) -> R {
        let scope = Scope {
            scheduler: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                latch: Mutex::new(()),
                done: Condvar::new(),
            }),
        };
        let result = f(&scope);
        self.wait_scope(&scope.state);
        result
    }

    /// Blocks until `state.pending` reaches zero, running queued tasks while
    /// any are available.
    fn wait_scope(&self, state: &ScopeState) {
        loop {
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = self.shared.find_job() {
                self.shared.run(job);
                continue;
            }
            // Nothing runnable: the scope's outstanding tasks are in flight
            // on other threads.  Block on the latch, re-polling briefly so a
            // task queued by *another* scheduler thread (which this waiter
            // could steal) does not go unnoticed.
            let guard = lock(&state.latch);
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            let _ = state.done.wait_timeout(guard, Duration::from_millis(1));
        }
    }

    /// Runs every job on the scheduler and blocks until all of them finish,
    /// returning the outputs **in job order** regardless of execution order.
    ///
    /// A job that panics yields `None` in its slot; the others still run to
    /// completion.  Built on [`scope`](Scheduler::scope), so it is safe at
    /// any nesting depth and any worker count — the blocked caller helps run
    /// the very jobs it waits for.
    pub fn run_all<T, F>(&self, jobs: Vec<F>) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..jobs.len()).map(|_| Mutex::new(None)).collect());
        self.scope(|scope| {
            for (index, job) in jobs.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                scope.spawn(move || {
                    let output = job();
                    *lock(&slots[index]) = Some(output);
                });
            }
        });
        match Arc::try_unwrap(slots) {
            Ok(slots) => slots
                .into_iter()
                .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect(),
            // The scope waits for every task, and each task drops its Arc
            // clone before completing.
            Err(_) => unreachable!("scope completion releases every slot reference"),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.shared.sleep));
        self.shared.wake.notify_all();
        // Workers drain every queued task before exiting.  When the last
        // reference goes away inside a job, this runs on one of the workers:
        // that thread cannot join itself, and it leaves its loop on shutdown
        // like the others once the job returns.
        let current = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

/// A fixed-size pool of worker threads executing queued jobs.
///
/// A thin owner of a [`Scheduler`]: callers reach the scheduler — and its
/// `scope` / `run_all` / `execute_notify` API — through
/// [`ThreadPool::scheduler`].
#[derive(Debug)]
pub struct ThreadPool {
    scheduler: Arc<Scheduler>,
}

impl ThreadPool {
    /// Creates a pool with `size` workers (at least one).
    #[must_use]
    pub fn new(size: usize) -> Self {
        ThreadPool {
            scheduler: Arc::new(Scheduler::new(size)),
        }
    }

    /// The underlying work-stealing scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Number of worker threads.
    #[must_use]
    pub fn size(&self) -> usize {
        self.scheduler.size()
    }
}

/// A lock-guarded free list of reusable scratch objects, for batched
/// fan-outs whose tasks need expensive working memory.
///
/// A batch task [`take`](ScratchPool::take)s a warm scratch (or builds a
/// fresh one when the pool is dry), reuses it across every item of its
/// batch, and [`put`](ScratchPool::put)s it back for the next wave — so a
/// whole evaluation allocates at most one scratch per *concurrently running*
/// task, not one per task or per item.  The Monte-Carlo stability estimator
/// threads its per-trial scratch buffers through one of these across its
/// batch waves.
///
/// The pool is deliberately dumb: a mutexed stack.  Contention is one
/// lock per *batch*, which is noise next to the batch's work.
#[derive(Debug)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScratchPool<T> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled scratch, if any.
    #[must_use]
    pub fn take(&self) -> Option<T> {
        lock(&self.free).pop()
    }

    /// Pops a pooled scratch or builds one with `init`.
    pub fn take_or_else(&self, init: impl FnOnce() -> T) -> T {
        self.take().unwrap_or_else(init)
    }

    /// Returns a scratch to the pool for reuse.
    pub fn put(&self, scratch: T) {
        lock(&self.free).push(scratch);
    }

    /// Number of scratches currently pooled (idle).
    #[must_use]
    pub fn idle(&self) -> usize {
        lock(&self.free).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::channel;

    #[test]
    fn executes_queued_jobs() {
        let scheduler = Scheduler::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let (sender, receiver) = channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let sender = sender.clone();
            scheduler.spawn_detached(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                sender.send(()).unwrap();
            });
        }
        drop(sender);
        assert_eq!(receiver.iter().count(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn queued_tracks_backlog_and_drains_to_zero() {
        let scheduler = Scheduler::new(2);
        // Block both workers, then pile up a backlog behind them.
        let gate = Arc::new(std::sync::Barrier::new(3));
        let parked = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let parked = Arc::clone(&parked);
            scheduler.spawn_detached(move || {
                parked.fetch_add(1, Ordering::SeqCst);
                gate.wait();
            });
        }
        while parked.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let (sender, receiver) = channel();
        for _ in 0..8 {
            let sender = sender.clone();
            scheduler.spawn_detached(move || sender.send(()).unwrap());
        }
        drop(sender);
        // Both workers are parked at the gate, so nothing can drain the
        // backlog yet: all 8 jobs are visibly queued.
        assert_eq!(scheduler.stats().queue_depth, 8, "backlog visible");
        gate.wait();
        assert_eq!(receiver.iter().count(), 8);
        // Every queued job was taken; the gauge returns to zero.
        while scheduler.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        assert_eq!(scheduler.stats().queue_depth, 0);
    }

    #[test]
    fn execute_notify_signals_after_completion_and_after_panic() {
        let scheduler = Scheduler::new(2);
        let (sender, receiver) = channel();

        // Normal completion: the job's effect is visible before the notify.
        let counter = Arc::new(AtomicU64::new(0));
        let job_counter = Arc::clone(&counter);
        let notify_counter = Arc::clone(&counter);
        let notify_sender = sender.clone();
        scheduler.execute_notify(
            move || {
                job_counter.fetch_add(1, Ordering::SeqCst);
            },
            move || {
                notify_sender
                    .send(notify_counter.load(Ordering::SeqCst))
                    .unwrap();
            },
        );
        assert_eq!(receiver.recv().unwrap(), 1, "notify runs after the job");

        // A panicking job still notifies (the reactor must always wake).
        let panic_sender = sender.clone();
        scheduler.execute_notify(
            || panic!("boom"),
            move || {
                panic_sender.send(42).unwrap();
            },
        );
        assert_eq!(receiver.recv().unwrap(), 42, "notify survives a panic");
        drop(sender);
        // The pool is still healthy afterwards.
        let outputs = scheduler.run_all(vec![|| 7usize]);
        assert_eq!(outputs[0], Some(7));
    }

    #[test]
    fn run_all_preserves_job_order() {
        let scheduler = Scheduler::new(3);
        let jobs: Vec<_> = (0..20).map(|i| move || i * 10).collect();
        let outputs = scheduler.run_all(jobs);
        for (i, output) in outputs.iter().enumerate() {
            assert_eq!(*output, Some(i * 10));
        }
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let scheduler = Scheduler::new(2);
        let outputs = scheduler.run_all(vec![
            Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
            Box::new(|| panic!("boom")),
            Box::new(|| 3usize),
        ]);
        assert_eq!(outputs[0], Some(1));
        assert_eq!(outputs[1], None);
        assert_eq!(outputs[2], Some(3));
        assert_eq!(scheduler.panicked_jobs(), 1);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let scheduler = Scheduler::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                scheduler.spawn_detached(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn nested_run_all_on_the_same_pool_does_not_deadlock() {
        let scheduler = Arc::new(Scheduler::new(2));
        // Saturate the pool with jobs that each fan out again on the same
        // pool; helping waiters keep everything moving.
        let jobs: Vec<_> = (0..4)
            .map(|outer| {
                let scheduler = Arc::clone(&scheduler);
                move || {
                    let inner: Vec<_> = (0..3usize).map(|i| move || outer * 10 + i).collect();
                    scheduler.run_all(inner)
                }
            })
            .collect();
        let outputs = scheduler.run_all(jobs);
        for (outer, slot) in outputs.into_iter().enumerate() {
            let inner = slot.expect("outer job completed");
            let values: Vec<_> = inner.into_iter().map(Option::unwrap).collect();
            assert_eq!(values, vec![outer * 10, outer * 10 + 1, outer * 10 + 2]);
        }
    }

    #[test]
    fn nested_scope_on_a_single_worker_completes() {
        // The deadlock-regression contract: a scope inside a scope inside a
        // scope, all on one worker, must complete because every waiter helps.
        let scheduler = Arc::new(Scheduler::new(1));
        let inner_scheduler = Arc::clone(&scheduler);
        let outputs = scheduler.run_all(vec![move || {
            let deepest = Arc::clone(&inner_scheduler);
            let mid: Vec<Option<Vec<Option<usize>>>> = inner_scheduler.run_all(vec![move || {
                deepest.run_all((0..4).map(|i| move || i * i).collect::<Vec<_>>())
            }]);
            mid
        }]);
        let mid = outputs.into_iter().next().unwrap().expect("outer ran");
        let inner = mid.into_iter().next().unwrap().expect("middle ran");
        let values: Vec<usize> = inner.into_iter().map(Option::unwrap).collect();
        assert_eq!(values, vec![0, 1, 4, 9]);
    }

    #[test]
    fn scope_spawns_run_and_waiters_help() {
        let scheduler = Scheduler::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        scheduler.scope(|scope| {
            for _ in 0..64 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        // All spawned tasks were executed and the queues drained.
        let stats = scheduler.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.executed_jobs, 64);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn scope_survives_panicking_tasks() {
        let scheduler = Scheduler::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        scheduler.scope(|scope| {
            for i in 0..8 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    assert!(i % 2 == 0, "odd tasks explode");
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(scheduler.panicked_jobs(), 4);
    }

    #[test]
    fn executed_jobs_counts_every_task() {
        let scheduler = Scheduler::new(3);
        let before = scheduler.executed_jobs();
        let outputs = scheduler.run_all((0..25).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(outputs.len(), 25);
        assert_eq!(scheduler.executed_jobs() - before, 25);
    }

    #[test]
    fn stealing_happens_and_is_counted() {
        // One worker floods its own deque from inside a scope; the second
        // worker has nothing local and must steal to participate.  The flood
        // is dispatched with `spawn_detached` so it runs on a worker (a
        // helping external thread would push to the injector instead).
        let scheduler = Arc::new(Scheduler::new(2));
        let inner = Arc::clone(&scheduler);
        let slow_start = std::time::Duration::from_millis(2);
        let (sender, receiver) = channel();
        scheduler.spawn_detached(move || {
            inner.scope(|scope| {
                for _ in 0..32 {
                    scope.spawn(move || std::thread::sleep(slow_start));
                }
            });
            sender.send(()).unwrap();
        });
        receiver.recv().unwrap();
        assert!(
            scheduler.stats().steals > 0,
            "sibling worker should have stolen from the flooded deque"
        );
    }

    #[test]
    fn external_threads_can_scope_too() {
        // A scope entered from a non-worker thread: its spawns go to the
        // injector and the waiting thread helps drain them.
        let scheduler = Arc::new(Scheduler::new(1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let scheduler = Arc::clone(&scheduler);
                std::thread::spawn(move || {
                    let counter = Arc::new(AtomicU64::new(0));
                    scheduler.scope(|scope| {
                        for _ in 0..16 {
                            let counter = Arc::clone(&counter);
                            scope.spawn(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    (t, counter.load(Ordering::Relaxed))
                })
            })
            .collect();
        for handle in handles {
            let (_, count) = handle.join().unwrap();
            assert_eq!(count, 16);
        }
    }

    #[test]
    fn scratch_pool_recycles_instead_of_rebuilding() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        assert!(pool.take().is_none());
        let mut scratch = pool.take_or_else(|| Vec::with_capacity(64));
        scratch.push(7);
        let capacity = scratch.capacity();
        pool.put(scratch);
        assert_eq!(pool.idle(), 1);
        // The recycled scratch keeps its allocation (and its stale contents —
        // callers reset what they need).
        let recycled = pool.take_or_else(Vec::new);
        assert_eq!(recycled.capacity(), capacity);
        assert_eq!(recycled, vec![7]);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn scratch_pool_is_safe_under_concurrent_batches() {
        let pool = Arc::new(ScratchPool::<Vec<u8>>::new());
        let scheduler = Scheduler::new(4);
        let jobs: Vec<_> = (0..64)
            .map(|_| {
                let pool = Arc::clone(&pool);
                move || {
                    let mut scratch = pool.take_or_else(|| Vec::with_capacity(128));
                    scratch.clear();
                    scratch.extend_from_slice(&[1, 2, 3]);
                    let sum: u8 = scratch.iter().sum();
                    pool.put(scratch);
                    sum
                }
            })
            .collect();
        let outputs = scheduler.run_all(jobs);
        assert!(outputs.iter().all(|o| *o == Some(6)));
        // At most one scratch per thread that ever ran a job concurrently.
        assert!(pool.idle() >= 1 && pool.idle() <= 5);
    }

    #[test]
    fn scope_waiters_never_start_top_level_jobs() {
        // The only worker is held by a top-level job; a second one queues
        // behind it.  An external thread's scope must finish by running its
        // own task, without starting the queued job.
        let scheduler = Arc::new(Scheduler::new(1));
        let (release, hold) = channel::<()>();
        let (started, worker_busy) = channel();
        scheduler.spawn_detached(move || {
            started.send(()).unwrap();
            hold.recv().unwrap();
        });
        worker_busy.recv().unwrap();
        let queued_ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&queued_ran);
        let (done, queued_done) = channel();
        scheduler.spawn_detached(move || {
            flag.store(true, Ordering::SeqCst);
            done.send(()).unwrap();
        });
        let scoped = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&scoped);
        scheduler.scope(|scope| {
            scope.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(scoped.load(Ordering::SeqCst), 1);
        assert!(
            !queued_ran.load(Ordering::SeqCst),
            "a helping waiter started a top-level job"
        );
        release.send(()).unwrap();
        queued_done
            .recv_timeout(Duration::from_secs(10))
            .expect("the queued job runs once the worker is free");
    }

    #[test]
    fn dropping_the_last_reference_on_a_worker_skips_joining_itself() {
        // A job that holds the last reference drops the scheduler on one of
        // the scheduler's own workers: the drop must not try to join the
        // calling thread, and the other workers still shut down.
        let scheduler = Arc::new(Scheduler::new(2));
        let held = Arc::clone(&scheduler);
        let (go, wait) = channel::<()>();
        let (sender, receiver) = channel();
        scheduler.spawn_detached(move || {
            wait.recv().unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(move || drop(held)));
            sender.send(outcome.is_ok()).unwrap();
        });
        drop(scheduler);
        go.send(()).unwrap();
        let dropped_cleanly = receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("the dropping job finished");
        assert!(
            dropped_cleanly,
            "dropping the scheduler on its worker panicked"
        );
    }
}
