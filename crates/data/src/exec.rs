//! The workspace-wide execution layer: the [`Parallelism`] knob that says
//! how many worker threads a parallelizable stage (Mondrian partitioning,
//! the Ω-audit, kernel prior estimation) may use, and the persistent
//! [`ThreadPool`] those stages run on.
//!
//! Both live in `bgkanon-data` because every compute crate already depends
//! on it; the knob carries no policy beyond "how many threads", so the
//! consuming engines stay free to pick their own work-distribution strategy
//! (work-stealing deque for Mondrian, group batches for the auditor).
//!
//! ## Why a pool
//!
//! The engines used to open a fresh [`std::thread::scope`] per call — fine
//! for one-shot experiments, wasteful for a serving process where many
//! sessions each audit and republish continuously: every audit paid thread
//! spawn/join, and concurrent sessions multiplied OS threads without bound.
//! [`shared_pool`] is a process-wide pool sized to the machine, created on
//! first use and reused by every engine call of every session thereafter
//! (Mondrian planting, the batched Ω-audit, and the kernel estimator's
//! `estimate` and delta-`refresh` paths all run on it — `bgkanon-analyze`
//! rule R2 forbids per-call scopes everywhere else). Submitting more worker
//! jobs than the pool
//! has threads is fine — the engines' workers all drain shared
//! cursors/deques, so extra jobs simply find nothing left to do — and
//! concurrent engine calls from different sessions interleave their jobs on
//! the same threads instead of oversubscribing the machine.
//!
//! One rule keeps the pool deadlock-free: **pool jobs never block on other
//! pool jobs**. Engine worker jobs are leaves — they take work from their
//! call's shared state and return. Only code running on non-pool threads
//! (sessions, the serving hub, benchmarks) calls [`ThreadPool::run`].

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Degree of parallelism for a publishing or auditing run: how many
/// workers a stage's engine runs on, and nothing else.
///
/// Every stage has one production engine, and every knob runs it:
/// [`effective_threads`](Self::effective_threads) workers, where one worker
/// runs on the calling thread with no pool dispatch. `Serial` is that
/// one-worker run. Every knob produces bit-identical output; each stage's
/// paper transcription (`Mondrian::plant_reference`,
/// `Auditor::tuple_risks_reference`, `PriorEstimator::estimate_reference`)
/// is the reference the engines are tested against.
///
/// ```
/// use bgkanon_data::Parallelism;
///
/// assert_eq!(Parallelism::Serial.effective_threads(), 1);
/// assert_eq!(Parallelism::threads(4).effective_threads(), 4);
/// // Auto resolves to the number of available cores, never zero.
/// assert!(Parallelism::Auto.effective_threads() >= 1);
/// assert_eq!(Parallelism::default(), Parallelism::Auto);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker, on the calling thread.
    Serial,
    /// One worker per available core.
    #[default]
    Auto,
    /// An explicit worker count.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// Convenience constructor for [`Parallelism::Threads`].
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`; use [`Parallelism::Serial`] for a
    /// single-threaded run.
    pub fn threads(n: usize) -> Self {
        Parallelism::Threads(NonZeroUsize::new(n).expect("thread count must be non-zero"))
    }

    /// The number of worker threads this knob resolves to on the current
    /// machine (`Auto` queries [`std::thread::available_parallelism`]).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Threads(n) => n.get(),
        }
    }
}

/// A queued unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// A fixed set of persistent worker threads executing `'static` jobs.
///
/// The engines use [`shared_pool`]; standalone pools exist for tests and for
/// callers that want dedicated capacity. Jobs must be `'static`: engine
/// state that workers share is wrapped in [`Arc`]s (tables clone in O(1),
/// so moving a `Table` into a job is free).
///
/// ```
/// use bgkanon_data::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let squares = pool.run((0..8).map(|i| move || i * i).collect::<Vec<_>>());
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(pool.threads(), 2);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spin up `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bgk-pool-{i}"))
                    .spawn(move || Self::worker(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    fn worker(shared: &PoolShared) {
        loop {
            let job = {
                let mut state = shared.state.lock().expect("pool lock");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared.available.wait(state).expect("pool lock");
                }
            };
            // A panicking job must not take the worker thread down with it —
            // the pool outlives any one engine call. The panic resurfaces at
            // the submitting call site (its result channel closes).
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Queue one fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.shutdown {
            return;
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.available.notify_one();
    }

    /// Run every job and block until all complete, returning their results
    /// in job order — the pooled replacement for a `std::thread::scope`
    /// spawn/join round. Must not be called from inside a pool job (a job
    /// waiting on jobs can deadlock a fully busy pool).
    ///
    /// # Panics
    ///
    /// Panics if any job panicked.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            assert!(!state.shutdown, "pool is shut down");
            for (i, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                state.queue.push_back(Box::new(move || {
                    let value = job();
                    let _ = tx.send((i, value));
                }));
            }
        }
        self.shared.available.notify_all();
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, value) = rx.recv().expect("a pooled job panicked");
            out[i] = Some(value);
        }
        out.into_iter()
            .map(|v| v.expect("every job reports exactly once"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide engine pool: one worker per available core, created on
/// first use, shared by every parallel engine call of every session for the
/// life of the process.
pub fn shared_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(Parallelism::Auto.effective_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_one_thread() {
        assert_eq!(Parallelism::Serial.effective_threads(), 1);
    }

    #[test]
    fn explicit_thread_count_is_respected() {
        assert_eq!(Parallelism::threads(3).effective_threads(), 3);
    }

    #[test]
    fn auto_is_positive_and_default() {
        assert!(Parallelism::Auto.effective_threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_threads_rejected() {
        let _ = Parallelism::threads(0);
    }

    #[test]
    fn pool_runs_jobs_in_order_and_reuses_threads() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.threads(), 3);
        for round in 0..4u64 {
            let results = pool.run(
                (0..10u64)
                    .map(|i| move || round * 100 + i)
                    .collect::<Vec<_>>(),
            );
            let expected: Vec<u64> = (0..10).map(|i| round * 100 + i).collect();
            assert_eq!(results, expected);
        }
    }

    #[test]
    fn pool_accepts_more_jobs_than_threads() {
        let pool = ThreadPool::new(1);
        let results = pool.run((0..64usize).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(results.len(), 64);
        assert!(results.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn pool_spawn_runs_detached_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..8 {
            rx.recv().expect("job ran");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = ThreadPool::new(1);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send>])
        }));
        assert!(boom.is_err());
        // The worker thread is still alive and serving.
        let ok = pool.run(vec![|| 41 + 1]);
        assert_eq!(ok, vec![42]);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared_pool() as *const ThreadPool;
        let b = shared_pool() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(shared_pool().threads() >= 1);
    }
}
