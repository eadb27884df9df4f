//! pinot-taskpool: the intra-server execution pool (§3.3.4, Figs 5/7).
//!
//! The paper's servers run the per-segment physical plans of one query in
//! parallel across cores and combine partial results before answering the
//! broker. This crate supplies that parallelism as one small pool: a fixed
//! set of worker threads popping a single FIFO queue.
//!
//! * **one locked queue** — a `Mutex` guards the queued jobs and the
//!   shutdown flag, and one `Condvar` wakes whoever waits on it. Every
//!   queue check and every wait happen under that mutex, so no wait has a
//!   timeout: a wake-up cannot be missed.
//! * **fork-join [`TaskPool::map`]** — runs `f(0..n)` as tasks that may
//!   borrow the caller's stack and returns their results in index order.
//!   The caller *helps* while it waits: it pops and runs queued jobs
//!   (anyone's), which keeps nested maps on one pool deadlock-free.
//! * **panic capture** — a panicking task is caught where it runs. `map`
//!   re-throws the first panic on its caller once every task has finished;
//!   a detached task's panic is swallowed and counted.
//! * **cooperative deadline cancellation** — [`Deadline`] carries the
//!   broker's scatter deadline; a task whose deadline has passed when it is
//!   popped is abandoned without running (counted in
//!   `taskpool.tasks_cancelled`), because nobody is waiting for it.
//!
//! Task order is not specified, even with one thread: the worker and a
//! helping caller both pop. Results stay deterministic because `map`
//! returns them in index order and callers merge them in that order.
//!
//! Workers start on the first submission, so a pool that never runs a task
//! owns no thread. Dropping the pool lets the workers drain the queue and
//! joins them.
//!
//! Metrics (when constructed with an [`Obs`] sink): `taskpool.tasks_run`,
//! `taskpool.tasks_cancelled`, `taskpool.task_panics` counters and the
//! `taskpool.queue_depth` gauge (tasks queued and not yet started).

use pinot_obs::Obs;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A cooperative cancellation token carrying the broker's scatter deadline.
/// Tasks still queued when it expires are abandoned.
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
}

/// Lock `m`, ignoring poison: every critical section here is a few field
/// updates that leave the data consistent even if a panic interrupted it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when jobs are queued, when a `map`'s last task finishes
    /// and at shutdown. Idle workers and helping `map` callers wait on it.
    wake: Condvar,
    tasks_run: AtomicU64,
    tasks_cancelled: AtomicU64,
    task_panics: AtomicU64,
    obs: Option<Arc<Obs>>,
}

impl Shared {
    fn push(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut q = lock(&self.queue);
        let before = q.jobs.len();
        q.jobs.extend(jobs);
        let added = q.jobs.len() - before;
        self.record_depth(&q);
        drop(q);
        if added == 1 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    fn pop(&self, q: &mut Queue) -> Option<Job> {
        let job = q.jobs.pop_front()?;
        self.record_depth(q);
        Some(job)
    }

    /// Set under the queue lock, so the gauge's last value is the real depth.
    fn record_depth(&self, q: &Queue) {
        if let Some(obs) = &self.obs {
            obs.metrics
                .gauge_set("taskpool.queue_depth", q.jobs.len() as i64);
        }
    }

    fn count(&self, counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.metrics.counter_add(name, 1);
        }
    }

    /// Run a task body with its panic caught, or abandon it (`None`) when
    /// `deadline` has passed.
    fn run<R>(&self, deadline: &Deadline, f: impl FnOnce() -> R) -> Option<std::thread::Result<R>> {
        if deadline.expired() {
            self.count(&self.tasks_cancelled, "taskpool.tasks_cancelled");
            return None;
        }
        Some(panic::catch_unwind(AssertUnwindSafe(f)))
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut q = lock(&shared.queue);
    loop {
        if let Some(job) = shared.pop(&mut q) {
            drop(q);
            job();
            q = lock(&shared.queue);
        } else if q.shutdown {
            return;
        } else {
            q = shared.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Results of one [`TaskPool::map`] call. Shared by its tasks through an
/// `Arc`, so a task that has just finished the last slot can still signal
/// after the caller has taken the results and returned.
struct MapSlots<T> {
    results: Vec<Mutex<Option<T>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    pending: AtomicUsize,
}

/// Extend a job's lifetime to `'static` so it can sit in the queue.
///
/// # Safety
/// The caller must not let anything `job` borrows go out of scope until
/// `job` has run and returned.
unsafe fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: only the lifetime changes; the caller keeps the borrows live.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
}

/// The execution pool. One per server (its cores) and one per broker (its
/// scatter fan-out).
pub struct TaskPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Worker handles, spawned on the first submission.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl TaskPool {
    /// Pool with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize, obs: Option<Arc<Obs>>) -> TaskPool {
        TaskPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
                tasks_run: AtomicU64::new(0),
                tasks_cancelled: AtomicU64::new(0),
                task_panics: AtomicU64::new(0),
                obs,
            }),
            threads: threads.max(1),
            workers: OnceLock::new(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn tasks_run(&self) -> u64 {
        self.shared.tasks_run.load(Ordering::Relaxed)
    }

    /// Always 0: there is one shared queue, so no task is ever stolen.
    /// Kept so readers of the old work-stealing counter still compile.
    pub fn tasks_stolen(&self) -> u64 {
        0
    }

    pub fn tasks_cancelled(&self) -> u64 {
        self.shared.tasks_cancelled.load(Ordering::Relaxed)
    }

    pub fn task_panics(&self) -> u64 {
        self.shared.task_panics.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> i64 {
        lock(&self.shared.queue).jobs.len() as i64
    }

    fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        self.workers.get_or_init(|| {
            (0..self.threads)
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("taskpool-{i}"))
                        .spawn(move || worker_loop(shared))
                        .expect("spawn taskpool worker")
                })
                .collect()
        });
        self.shared.push(jobs);
    }

    /// Fire-and-forget submission with panic capture and deadline
    /// cancellation. A panicking task is swallowed (and counted) instead of
    /// unwinding a worker. If `deadline` has passed when the task is popped,
    /// it is abandoned without running: the broker's gather then sees a
    /// channel timeout, exactly as if the server never replied.
    pub fn spawn_detached_with_deadline(
        &self,
        deadline: &Deadline,
        f: impl FnOnce() + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        let deadline = deadline.clone();
        self.submit([Box::new(move || {
            if let Some(Err(_)) = shared.run(&deadline, f) {
                shared.count(&shared.task_panics, "taskpool.task_panics");
            }
            shared.count(&shared.tasks_run, "taskpool.tasks_run");
        }) as Job]);
    }

    /// Run `f(0)..f(n)` as pool tasks and return their results in index
    /// order. `None` marks a task abandoned because `deadline` had passed
    /// before it started. The caller runs queued jobs while it waits. The
    /// first task panic is re-thrown here, once every task has finished.
    pub fn map<T, F>(&self, deadline: &Deadline, n: usize, f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let slots = Arc::new(MapSlots {
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
            pending: AtomicUsize::new(n),
        });
        let f = &f;
        let jobs = (0..n).map(|i| {
            let (shared, slots) = (Arc::clone(&self.shared), Arc::clone(&slots));
            let deadline = deadline.clone();
            let job = Box::new(move || {
                match shared.run(&deadline, || f(i)) {
                    Some(Ok(v)) => *lock(&slots.results[i]) = Some(v),
                    Some(Err(p)) => {
                        lock(&slots.panic).get_or_insert(p);
                    }
                    None => {}
                }
                shared.count(&shared.tasks_run, "taskpool.tasks_run");
                // Release: publishes this task's slot to the caller's
                // Acquire load of `pending`.
                if slots.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Under the lock: the caller checks `pending` under it.
                    let _q = lock(&shared.queue);
                    shared.wake.notify_all();
                }
            });
            // SAFETY: the job borrows `f` and the caller's captures of `f`;
            // `help_until_done` below returns only once `pending` is zero,
            // i.e. after every job has used its last borrow.
            unsafe { erase(job) }
        });
        self.submit(jobs);
        self.help_until_done(&slots.pending);
        if let Some(p) = lock(&slots.panic).take() {
            panic::resume_unwind(p);
        }
        slots.results.iter().map(|r| lock(r).take()).collect()
    }

    /// Run queued jobs until `pending` reaches zero, sleeping on the pool's
    /// condvar when the queue is empty. The check and the wait both happen
    /// under the queue lock that finishing tasks take to notify, so the
    /// wait needs no timeout.
    fn help_until_done(&self, pending: &AtomicUsize) {
        let shared = &self.shared;
        let mut q = lock(&shared.queue);
        while pending.load(Ordering::Acquire) > 0 {
            if let Some(job) = shared.pop(&mut q) {
                drop(q);
                job();
                q = lock(&shared.queue);
            } else {
                q = shared.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // A push's single notify may have woken this caller rather than an
        // idle worker; hand it on so queued work never sits unclaimed.
        if !q.jobs.is_empty() {
            shared.wake.notify_one();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for h in self.workers.take().into_iter().flatten() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn map_borrows_and_returns_in_index_order() {
        let pool = TaskPool::with_threads(4, None);
        let data: Vec<u64> = (0..100).collect();
        let sums = pool.map(&Deadline::none(), 10, |i| {
            data[i * 10..(i + 1) * 10].iter().sum::<u64>()
        });
        let expect: Vec<Option<u64>> = data.chunks(10).map(|c| Some(c.iter().sum())).collect();
        assert_eq!(sums, expect);
        assert_eq!(pool.tasks_run(), 10);
        assert_eq!(pool.queue_depth(), 0);
        assert!(pool.map(&Deadline::none(), 0, |i| i).is_empty());
    }

    #[test]
    fn single_thread_mode_runs_every_task_once() {
        let pool = TaskPool::with_threads(1, None);
        let ran = Mutex::new(Vec::new());
        let out = pool.map(&Deadline::none(), 50, |i| lock(&ran).push(i));
        assert_eq!(out.len(), 50);
        // The worker and the helping caller both pop, so completion order
        // is not defined; callers get determinism from index order.
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_after_all_tasks_finish() {
        let pool = TaskPool::with_threads(2, None);
        let finished = AtomicU32::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&Deadline::none(), 8, |i| {
                if i == 3 {
                    panic!("boom in task {i}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(result.is_err(), "task panic must reach the map caller");
        // Every non-panicking task still ran to completion before unwind.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
        // The pool survives and runs new work.
        assert_eq!(pool.map(&Deadline::none(), 1, |_| true), vec![Some(true)]);
    }

    #[test]
    fn expired_deadline_cancels_queued_tasks() {
        let pool = TaskPool::with_threads(1, None);
        let ran = AtomicU32::new(0);
        let bump = |_| ran.fetch_add(1, Ordering::SeqCst);
        let expired = Deadline::at(Some(Instant::now() - Duration::from_millis(1)));
        assert!(pool.map(&expired, 5, bump).iter().all(Option::is_none));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(pool.tasks_cancelled(), 5);

        // A live deadline lets everything through.
        let live = Deadline::at(Some(Instant::now() + Duration::from_secs(60)));
        assert!(pool.map(&live, 5, bump).iter().all(Option::is_some));
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(pool.tasks_cancelled(), 5);
    }

    #[test]
    fn nested_maps_on_one_pool_do_not_deadlock() {
        let pool = TaskPool::with_threads(1, None);
        let none = Deadline::none();
        let outer = pool.map(&none, 3, |i| {
            pool.map(&none, 4, |j| i * 4 + j)
                .into_iter()
                .map(Option::unwrap)
                .sum::<usize>()
        });
        assert_eq!(outer.into_iter().map(Option::unwrap).sum::<usize>(), 66);
    }

    #[test]
    fn detached_tasks_capture_panics() {
        let pool = TaskPool::with_threads(2, None);
        let (tx, rx) = mpsc::channel();
        pool.spawn_detached_with_deadline(&Deadline::none(), || panic!("detached boom"));
        pool.spawn_detached_with_deadline(&Deadline::none(), move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let start = Instant::now();
        while pool.tasks_run() < 2 && start.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(pool.tasks_run(), 2);
        assert_eq!(pool.task_panics(), 1);
    }

    #[test]
    fn obs_metrics_are_recorded() {
        let obs = Obs::shared();
        let pool = TaskPool::with_threads(2, Some(Arc::clone(&obs)));
        pool.map(&Deadline::none(), 16, |_| {});
        let expired = Deadline::at(Some(Instant::now() - Duration::from_millis(1)));
        pool.map(&expired, 1, |_| {});
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("taskpool.tasks_run"), pool.tasks_run());
        assert_eq!(snap.counter("taskpool.tasks_run"), 17);
        assert_eq!(snap.counter("taskpool.tasks_cancelled"), 1);
        assert_eq!(snap.gauge("taskpool.queue_depth"), Some(0));
    }

    std::thread_local! {
        /// Set by a task on the worker that runs it; released only when
        /// that thread exits.
        static WORKER_GUARD: std::cell::RefCell<Option<Arc<()>>> =
            const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn dropping_the_pool_joins_every_worker() {
        let idle = TaskPool::with_threads(4, None);
        assert!(
            idle.workers.get().is_none(),
            "an idle pool starts no thread"
        );
        drop(idle);

        let pool = TaskPool::with_threads(2, None);
        let marker = Arc::new(());
        // Both tasks block on the barrier until both run, so each of the
        // two workers takes exactly one and plants a guard on itself.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let (marker, barrier, tx) = (Arc::clone(&marker), Arc::clone(&barrier), tx.clone());
            pool.spawn_detached_with_deadline(&Deadline::none(), move || {
                WORKER_GUARD.with(|g| *g.borrow_mut() = Some(marker));
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        (0..2).for_each(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap());
        assert_eq!(Arc::strong_count(&marker), 3);
        drop(pool);
        // A worker's guard is dropped only when its thread exits.
        assert_eq!(Arc::strong_count(&marker), 1, "a worker outlived the pool");
    }

    #[test]
    fn no_lost_wakeup_on_two_threads() {
        const ROUNDS: usize = 10_000;
        let pool = Arc::new(TaskPool::with_threads(2, None));
        for round in 0..ROUNDS {
            let (tx, rx) = mpsc::channel();
            pool.spawn_detached_with_deadline(&Deadline::none(), move || tx.send(round).unwrap());
            let got = rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Ok(round), "detached round {round} was never run");
        }
        // A hung `map` cannot time out by itself, so the loop runs on a
        // thread of its own and the test waits for it with a timeout.
        let (done_tx, done_rx) = mpsc::channel();
        let maps = Arc::clone(&pool);
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                assert_eq!(maps.map(&Deadline::none(), 1, |_| round), vec![Some(round)]);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("a one-task map never returned");
        assert_eq!(pool.tasks_run(), 2 * ROUNDS as u64);
    }
}
