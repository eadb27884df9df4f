//! pinot-taskpool: the intra-server execution pool (§3.3.4, Figs 5/7).
//!
//! The paper's servers run the per-segment physical plans of one query in
//! parallel across cores and combine partial results before answering the
//! broker. This crate supplies that parallelism as a from-scratch
//! work-stealing pool:
//!
//! * **per-worker deques + a global injector** — external submissions land
//!   in the injector; each worker drains a small batch into its own deque,
//!   pops its deque FIFO, and steals from the *back* of a sibling's deque
//!   when both are empty;
//! * **scoped joins** — [`TaskPool::scope`] lets tasks borrow stack data
//!   (segment lists, result slots) and guarantees every spawned task has
//!   finished before the scope returns, even on panic;
//! * **panic capture and propagation** — a panicking task is caught on the
//!   worker, recorded, and re-thrown from the scope owner's thread, so a
//!   bug in one segment plan cannot take down an unrelated worker;
//! * **cooperative deadline cancellation** — [`Deadline`] carries the
//!   broker's scatter deadline; a queued task whose deadline has already
//!   passed is abandoned without running (counted in
//!   `taskpool.tasks_cancelled`), because nobody is waiting for it;
//! * **deterministic single-thread mode** — a pool of one thread
//!   (`EngineConfig::taskpool_threads`) gives one worker and strict FIFO
//!   execution, so tests can compare the parallel path against a
//!   deterministic schedule.
//!
//! Waiting scopes *help*: while a scope has pending tasks the waiting
//! thread executes pool work instead of blocking, which keeps nested
//! scopes on the same pool deadlock-free and makes the 1-thread mode run
//! mostly on the caller's own thread.
//!
//! Metrics (when constructed with an [`Obs`] sink): `taskpool.tasks_run`,
//! `taskpool.tasks_stolen`, `taskpool.tasks_cancelled`,
//! `taskpool.task_panics` counters and the `taskpool.queue_depth` gauge.

use parking_lot::Mutex;
use pinot_obs::Obs;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// How many extra jobs a worker moves from the injector into its own deque
/// per refill, beyond the one it runs immediately. Small enough that idle
/// siblings still find injector work, large enough that deques see use.
const REFILL_BATCH: usize = 3;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A cooperative cancellation token carrying the broker's scatter deadline
/// (threaded through `RoutedRequest` since PR 2). Queued tasks spawned via
/// [`Scope::spawn_with_deadline`] are abandoned once it expires.
#[derive(Clone, Debug, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// A deadline at `at`; `None` never expires.
    pub fn at(at: Option<Instant>) -> Deadline {
        Deadline(at)
    }

    pub fn expired(&self) -> bool {
        matches!(self.0, Some(d) if Instant::now() >= d)
    }

    /// Time left, if a deadline is set and not yet passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|d| d.saturating_duration_since(Instant::now()))
    }

    pub fn instant(&self) -> Option<Instant> {
        self.0
    }
}

struct WorkerState {
    deque: Mutex<VecDeque<Job>>,
}

struct PoolShared {
    injector: Mutex<VecDeque<Job>>,
    workers: Vec<WorkerState>,
    /// Park/wake coordination for idle workers (std pair: the parking_lot
    /// shim deliberately has no Condvar).
    sleep_lock: StdMutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Jobs submitted but not yet started (injector + deques).
    queued: AtomicI64,
    tasks_run: AtomicU64,
    tasks_stolen: AtomicU64,
    tasks_cancelled: AtomicU64,
    task_panics: AtomicU64,
    obs: Option<Arc<Obs>>,
}

impl PoolShared {
    fn record_queue_depth(&self) {
        if let Some(obs) = &self.obs {
            obs.metrics
                .gauge_set("taskpool.queue_depth", self.queued.load(Ordering::Relaxed));
        }
    }

    fn push(&self, job: Job) {
        self.injector.lock().push_back(job);
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.record_queue_depth();
        let _guard = self.sleep_lock.lock().unwrap();
        self.wakeup.notify_one();
    }

    /// Enqueue a whole batch at once, dealing job `i` onto worker
    /// `i % threads`'s deque round-robin (the morsel path: one lock per
    /// worker instead of one injector lock per job) and waking every
    /// worker with a single notify.
    fn push_batch(&self, jobs: Vec<Job>) {
        let n = jobs.len();
        let workers = self.workers.len();
        let mut per_worker: Vec<VecDeque<Job>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            per_worker[i % workers].push_back(job);
        }
        for (w, batch) in per_worker.into_iter().enumerate() {
            if !batch.is_empty() {
                self.workers[w].deque.lock().extend(batch);
            }
        }
        self.queued.fetch_add(n as i64, Ordering::Relaxed);
        self.record_queue_depth();
        let _guard = self.sleep_lock.lock().unwrap();
        self.wakeup.notify_all();
    }

    /// Pop work as worker `idx`: own deque first, then an injector refill,
    /// then steal from a sibling's back.
    fn pop_for_worker(&self, idx: usize) -> Option<Job> {
        if let Some(job) = self.workers[idx].deque.lock().pop_front() {
            return Some(job);
        }
        {
            let mut injector = self.injector.lock();
            if let Some(job) = injector.pop_front() {
                let mut local = self.workers[idx].deque.lock();
                for _ in 0..REFILL_BATCH {
                    match injector.pop_front() {
                        Some(extra) => local.push_back(extra),
                        None => break,
                    }
                }
                return Some(job);
            }
        }
        self.steal(idx)
    }

    fn steal(&self, idx: usize) -> Option<Job> {
        let n = self.workers.len();
        for off in 1..n {
            let victim = (idx + off) % n;
            if let Some(job) = self.workers[victim].deque.lock().pop_back() {
                self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.metrics.counter_add("taskpool.tasks_stolen", 1);
                }
                return Some(job);
            }
        }
        None
    }

    /// Pop work as an outsider (a thread helping while it waits on a
    /// scope): injector first, then any worker's deque.
    fn pop_any(&self) -> Option<Job> {
        if let Some(job) = self.injector.lock().pop_front() {
            return Some(job);
        }
        for w in &self.workers {
            if let Some(job) = w.deque.lock().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn run_job(&self, job: Job) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
        self.record_queue_depth();
        job();
    }

    /// Called by each task closure once its outcome (result, panic, or
    /// cancellation) is fully recorded, *before* it signals scope
    /// completion — a scope waiter that wakes on `complete_one` must see
    /// every counter already settled.
    fn note_run(&self) {
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.counter_add("taskpool.tasks_run", 1);
        }
    }

    fn note_cancelled(&self) {
        self.tasks_cancelled.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.counter_add("taskpool.tasks_cancelled", 1);
        }
    }

    fn note_panic(&self) {
        self.task_panics.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.counter_add("taskpool.task_panics", 1);
        }
    }
}

std::thread_local! {
    /// Index of the pool worker running on this thread, `None` on
    /// non-worker threads (including scope owners helping while they
    /// wait). Lets morsel tasks attribute work migration: a task that
    /// runs off its home worker was stolen or helped.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn worker_loop(shared: Arc<PoolShared>, idx: usize) {
    WORKER_INDEX.with(|w| w.set(Some(idx)));
    loop {
        if let Some(job) = shared.pop_for_worker(idx) {
            shared.run_job(job);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = shared.sleep_lock.lock().unwrap();
        if shared.queued.load(Ordering::Relaxed) > 0 || shared.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        // Pushes bump `queued` before taking `sleep_lock` to notify, and
        // the re-check above runs under that lock, so a parked worker
        // cannot miss a wakeup; the timeout is only a safety net. It is
        // deliberately long: each expiry is a spurious wakeup, and on a
        // box with fewer cores than pool workers those preempt whatever
        // is actually running — idle workers must cost nothing.
        let _ = shared
            .wakeup
            .wait_timeout(guard, Duration::from_millis(200))
            .unwrap();
    }
}

/// The work-stealing pool. One per server (its cores) and one per broker
/// (its scatter fan-out).
pub struct TaskPool {
    shared: Arc<PoolShared>,
    threads: usize,
    started: AtomicBool,
    start_lock: StdMutex<()>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TaskPool {
    /// Pool with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize, obs: Option<Arc<Obs>>) -> TaskPool {
        let threads = threads.max(1);
        TaskPool {
            shared: Arc::new(PoolShared {
                injector: Mutex::new(VecDeque::new()),
                workers: (0..threads)
                    .map(|_| WorkerState {
                        deque: Mutex::new(VecDeque::new()),
                    })
                    .collect(),
                sleep_lock: StdMutex::new(()),
                wakeup: Condvar::new(),
                shutdown: AtomicBool::new(false),
                queued: AtomicI64::new(0),
                tasks_run: AtomicU64::new(0),
                tasks_stolen: AtomicU64::new(0),
                tasks_cancelled: AtomicU64::new(0),
                task_panics: AtomicU64::new(0),
                obs,
            }),
            threads,
            started: AtomicBool::new(false),
            start_lock: StdMutex::new(()),
            handles: Mutex::new(Vec::new()),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool-worker index of the calling thread, `None` when called
    /// from outside any pool's workers (e.g. a scope owner helping).
    pub fn current_worker() -> Option<usize> {
        WORKER_INDEX.with(|w| w.get())
    }

    // ---- counters (tests assert on these; obs mirrors them) ----

    pub fn tasks_run(&self) -> u64 {
        self.shared.tasks_run.load(Ordering::Relaxed)
    }

    pub fn tasks_stolen(&self) -> u64 {
        self.shared.tasks_stolen.load(Ordering::Relaxed)
    }

    pub fn tasks_cancelled(&self) -> u64 {
        self.shared.tasks_cancelled.load(Ordering::Relaxed)
    }

    pub fn task_panics(&self) -> u64 {
        self.shared.task_panics.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> i64 {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Workers start lazily on first submission, so pools owned by
    /// components that never execute anything cost no threads.
    fn ensure_workers(&self) {
        if self.started.load(Ordering::SeqCst) {
            return;
        }
        let _guard = self.start_lock.lock().unwrap();
        if self.started.load(Ordering::SeqCst) {
            return;
        }
        let mut handles = self.handles.lock();
        for i in 0..self.threads {
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("taskpool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn taskpool worker"),
            );
        }
        self.started.store(true, Ordering::SeqCst);
    }

    fn push_job(&self, job: Job) {
        self.ensure_workers();
        self.shared.push(job);
    }

    /// Fire-and-forget submission with panic capture: a panicking task is
    /// swallowed (and counted) instead of unwinding a worker. Used by the
    /// broker's scatter so a reply that arrives after the gather gave up
    /// runs on a pooled worker whose only side effect is a failed channel
    /// send — never an unjoined OS thread.
    pub fn spawn_detached(&self, f: impl FnOnce() + Send + 'static) {
        let shared = Arc::clone(&self.shared);
        self.push_job(Box::new(move || {
            if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
                shared.note_panic();
            }
            shared.note_run();
        }));
    }

    /// [`spawn_detached`](TaskPool::spawn_detached) with deadline
    /// cancellation: if `deadline` has passed when a worker dequeues the
    /// task, it is abandoned without running (the broker's gather then
    /// observes a channel timeout, exactly as if the server never replied).
    pub fn spawn_detached_with_deadline(
        &self,
        deadline: &Deadline,
        f: impl FnOnce() + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        let deadline = deadline.clone();
        self.push_job(Box::new(move || {
            if deadline.expired() {
                shared.note_cancelled();
            } else if panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
                shared.note_panic();
            }
            shared.note_run();
        }));
    }

    /// Run `f` with a [`Scope`] whose spawned tasks may borrow anything
    /// that outlives the call. Returns only after every spawned task has
    /// finished; the first task panic (or the closure's own) is re-thrown
    /// here.
    pub fn scope<'scope, R>(&'scope self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::new()),
            _marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Settle before propagating anything: tasks may still borrow stack
        // data, so the scope must not unwind past it while they run.
        scope.state.complete_one();
        self.wait_scope(&scope.state);
        if let Some(p) = scope.state.take_panic() {
            panic::resume_unwind(p);
        }
        match result {
            Ok(r) => r,
            Err(p) => panic::resume_unwind(p),
        }
    }

    /// Wait for a scope's tasks, executing pool work while waiting (the
    /// "help" protocol) so nested scopes on one pool cannot deadlock.
    fn wait_scope(&self, state: &ScopeState) {
        loop {
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = self.shared.pop_any() {
                self.shared.run_job(job);
                continue;
            }
            let guard = state.lock.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Short timeout: a job belonging to this scope may appear on a
            // deque we can steal from while its owner is busy elsewhere.
            let _ = state
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep_lock.lock().unwrap();
            self.shared.wakeup.notify_all();
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

struct ScopeState {
    /// Outstanding tasks + 1 for the scope body itself (so the count can
    /// only reach zero after the body has finished spawning).
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    lock: StdMutex<()>,
    done: Condvar,
}

impl ScopeState {
    fn new() -> ScopeState {
        ScopeState {
            pending: AtomicUsize::new(1),
            panic: Mutex::new(None),
            lock: StdMutex::new(()),
            done: Condvar::new(),
        }
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.lock.lock().unwrap();
            self.done.notify_all();
        }
    }

    fn set_panic(&self, p: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().take()
    }
}

/// Spawn handle passed to the closure of [`TaskPool::scope`].
pub struct Scope<'scope> {
    pool: &'scope TaskPool,
    state: Arc<ScopeState>,
    /// Invariant over 'scope, so the borrow checker cannot shrink the
    /// region tasks are allowed to borrow from.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.spawn_with_deadline(&Deadline::none(), f)
    }

    /// Like [`Scope::spawn`], but the task is abandoned (never run, counted
    /// in `taskpool.tasks_cancelled`) if `deadline` has expired by the time
    /// a worker picks it up.
    pub fn spawn_with_deadline(&self, deadline: &Deadline, f: impl FnOnce() + Send + 'scope) {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.pool.shared);
        let deadline = deadline.clone();
        let task = move || {
            if deadline.expired() {
                shared.note_cancelled();
            } else if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                state.set_panic(p);
            }
            shared.note_run();
            state.complete_one();
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
        // SAFETY: the scope's owner blocks in `wait_scope` until `pending`
        // reaches zero, i.e. until this job has run (or been abandoned) and
        // dropped — so the 'scope borrows it captures are live for the
        // job's whole existence, even though the queue slot is 'static.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push_job(job);
    }

    /// Spawn a homogeneous batch of tasks in one submission: job `i` is
    /// dealt onto the deque of its *home worker* `i % threads` (one lock
    /// per worker, one wakeup for the whole batch) instead of paying an
    /// injector round-trip per job. Used by morsel fan-out, where one
    /// segment scan turns into dozens of small tasks at once; a job
    /// executed off its home worker was stolen or helped
    /// ([`TaskPool::current_worker`] tells the job which happened).
    /// Deadline semantics match [`Scope::spawn_with_deadline`].
    pub fn spawn_batch_with_deadline<F>(&self, deadline: &Deadline, fs: Vec<F>)
    where
        F: FnOnce() + Send + 'scope,
    {
        if fs.is_empty() {
            return;
        }
        self.pool.ensure_workers();
        let mut jobs: Vec<Job> = Vec::with_capacity(fs.len());
        for f in fs {
            self.state.pending.fetch_add(1, Ordering::SeqCst);
            let state = Arc::clone(&self.state);
            let shared = Arc::clone(&self.pool.shared);
            let deadline = deadline.clone();
            let task = move || {
                if deadline.expired() {
                    shared.note_cancelled();
                } else if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                    state.set_panic(p);
                }
                shared.note_run();
                state.complete_one();
            };
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
            // SAFETY: as in `spawn_with_deadline` — the scope owner blocks
            // in `wait_scope` until `pending` reaches zero, so the 'scope
            // borrows each job captures outlive the job.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                    job,
                )
            };
            jobs.push(job);
        }
        self.pool.shared.push_batch(jobs);
    }
}

/// Per-worker accumulation slots for order-independent partials (integer
/// kernel counters, busy-time tallies). Slot `i` belongs to pool worker
/// `i`; one extra trailing slot collects contributions from non-worker
/// threads (scope owners helping while they wait). After the scope joins,
/// [`WorkerSlots::into_slots`] hands the partials back in fixed slot
/// order, so merging them is deterministic no matter which worker ran
/// which task — provided the per-slot merge is commutative/associative,
/// which the morsel proptests pin.
pub struct WorkerSlots<T> {
    slots: Vec<Mutex<T>>,
}

impl<T: Default> WorkerSlots<T> {
    /// Slots for `pool`: one per worker plus one for outside helpers.
    pub fn new(pool: &TaskPool) -> WorkerSlots<T> {
        WorkerSlots {
            slots: (0..pool.threads() + 1)
                .map(|_| Mutex::new(T::default()))
                .collect(),
        }
    }

    /// Run `f` on the calling thread's slot (the helper slot when the
    /// caller is not a pool worker).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let idx = TaskPool::current_worker()
            .map(|w| w.min(self.slots.len() - 2))
            .unwrap_or(self.slots.len() - 1);
        f(&mut self.slots[idx].lock())
    }

    /// The accumulated partials, in fixed slot order (workers 0..n, then
    /// the helper slot).
    pub fn into_slots(self) -> Vec<T> {
        self.slots.into_iter().map(|m| m.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scoped_tasks_borrow_and_join() {
        let pool = TaskPool::with_threads(4, None);
        let data: Vec<u64> = (0..100).collect();
        let sums: Vec<Mutex<u64>> = (0..10).map(|_| Mutex::new(0)).collect();
        pool.scope(|s| {
            for (i, chunk) in data.chunks(10).enumerate() {
                let slot = &sums[i];
                s.spawn(move || {
                    *slot.lock() = chunk.iter().sum();
                });
            }
        });
        let total: u64 = sums.iter().map(|m| *m.lock()).sum();
        assert_eq!(total, 4950);
        assert_eq!(pool.tasks_run(), 10);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn single_thread_mode_runs_every_task_once() {
        let pool = TaskPool::with_threads(1, None);
        let ran = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..50 {
                let ran = &ran;
                s.spawn(move || ran.lock().push(i));
            }
        });
        // The worker and the helping scope owner both pop, so completion
        // order is not defined; callers get determinism from slot-ordered
        // merges, not from the schedule.
        let mut ran = ran.into_inner();
        ran.sort_unstable();
        assert_eq!(ran, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_after_all_tasks_finish() {
        let pool = TaskPool::with_threads(2, None);
        let finished = AtomicU32::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom in task {i}");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope owner");
        // Every non-panicking task still ran to completion before unwind.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
        // The pool survives and runs new work.
        let ok = Mutex::new(false);
        pool.scope(|s| {
            let ok = &ok;
            s.spawn(move || *ok.lock() = true);
        });
        assert!(*ok.lock());
    }

    #[test]
    fn expired_deadline_cancels_queued_tasks() {
        let pool = TaskPool::with_threads(1, None);
        let ran = AtomicU32::new(0);
        let deadline = Deadline::at(Some(Instant::now() - Duration::from_millis(1)));
        pool.scope(|s| {
            for _ in 0..5 {
                let ran = &ran;
                s.spawn_with_deadline(&deadline, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(pool.tasks_cancelled(), 5);

        // A live deadline lets everything through.
        let live = Deadline::at(Some(Instant::now() + Duration::from_secs(60)));
        pool.scope(|s| {
            for _ in 0..5 {
                let ran = &ran;
                s.spawn_with_deadline(&live, move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(pool.tasks_cancelled(), 5);
    }

    #[test]
    fn nested_scopes_on_one_pool_do_not_deadlock() {
        let pool = TaskPool::with_threads(1, None);
        let total = AtomicU32::new(0);
        pool.scope(|outer| {
            for _ in 0..3 {
                let pool = &pool;
                let total = &total;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn detached_tasks_capture_panics() {
        let pool = TaskPool::with_threads(2, None);
        let done = Arc::new(AtomicU32::new(0));
        pool.spawn_detached(|| panic!("detached boom"));
        let d = Arc::clone(&done);
        pool.spawn_detached(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        let start = Instant::now();
        while (pool.tasks_run() < 2 || done.load(Ordering::SeqCst) == 0)
            && start.elapsed() < Duration::from_secs(5)
        {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.task_panics(), 1);
    }

    #[test]
    fn work_is_stolen_under_imbalance() {
        // Many tasks, several workers: the injector refill batches ensure
        // deques fill, and idle workers steal from busy ones.
        let pool = TaskPool::with_threads(4, None);
        let count = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..256 {
                let count = &count;
                s.spawn(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 256);
        assert_eq!(pool.tasks_run(), 256);
    }

    #[test]
    fn obs_metrics_are_recorded() {
        let obs = Obs::shared();
        let pool = TaskPool::with_threads(2, Some(Arc::clone(&obs)));
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {});
            }
        });
        let expired = Deadline::at(Some(Instant::now() - Duration::from_millis(1)));
        pool.scope(|s| s.spawn_with_deadline(&expired, || {}));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("taskpool.tasks_run"), pool.tasks_run());
        assert_eq!(snap.counter("taskpool.tasks_cancelled"), 1);
        assert_eq!(snap.gauge("taskpool.queue_depth"), Some(0));
    }

    #[test]
    fn batch_spawn_runs_every_job_and_joins() {
        let pool = TaskPool::with_threads(3, None);
        let hits: Vec<Mutex<u64>> = (0..64).map(|_| Mutex::new(0)).collect();
        pool.scope(|s| {
            let jobs: Vec<_> = hits.iter().map(|slot| move || *slot.lock() += 1).collect();
            s.spawn_batch_with_deadline(&Deadline::none(), jobs);
        });
        assert!(hits.iter().all(|h| *h.lock() == 1));
        assert_eq!(pool.tasks_run(), 64);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn batch_spawn_respects_expired_deadline() {
        let pool = TaskPool::with_threads(2, None);
        let ran = AtomicU32::new(0);
        let expired = Deadline::at(Some(Instant::now() - Duration::from_millis(1)));
        pool.scope(|s| {
            let jobs: Vec<_> = (0..8)
                .map(|_| {
                    let ran = &ran;
                    move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            s.spawn_batch_with_deadline(&expired, jobs);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(pool.tasks_cancelled(), 8);
    }

    #[test]
    fn current_worker_is_set_on_workers_only() {
        assert_eq!(TaskPool::current_worker(), None);
        let pool = TaskPool::with_threads(2, None);
        let seen = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..32 {
                let seen = &seen;
                s.spawn(move || seen.lock().push(TaskPool::current_worker()));
            }
        });
        // Every observed index fits the pool; the scope owner helping
        // reports `None`.
        for w in seen.lock().iter().flatten() {
            assert!(*w < 2);
        }
    }

    #[test]
    fn worker_slots_accumulate_in_fixed_order() {
        let pool = TaskPool::with_threads(4, None);
        let slots: WorkerSlots<u64> = WorkerSlots::new(&pool);
        pool.scope(|s| {
            let jobs: Vec<_> = (0..100u64)
                .map(|i| {
                    let slots = &slots;
                    move || slots.with(|t| *t += i)
                })
                .collect();
            s.spawn_batch_with_deadline(&Deadline::none(), jobs);
        });
        let parts = slots.into_slots();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().sum::<u64>(), 4950);
    }
}
