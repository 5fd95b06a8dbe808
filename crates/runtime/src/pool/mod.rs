//! A Cilk/rayon-style work-stealing thread pool.
//!
//! The pool exists so the benchmark workloads are *real* parallel programs:
//! the paper's baseline configuration runs the benchmarks without any race
//! detection, and the examples demonstrate the same divide-and-conquer and
//! pipeline structures executing in parallel. (Race detection itself always
//! uses the sequential eager executor in [`crate::exec`], exactly as
//! FutureRD does.)
//!
//! Design:
//!
//! * each worker thread owns a LIFO deque of jobs and steals FIFO from other
//!   workers or from a global injector queue (`deque`);
//! * [`ThreadPool::join`] runs two closures potentially in parallel using the
//!   classic work-first strategy: the second closure is published for
//!   stealing while the first runs on the current thread, and if nobody stole
//!   it the current thread runs it too;
//! * [`ThreadPool::install`] moves a closure onto a worker thread and blocks
//!   until it completes — the entry point from non-pool threads;
//! * [`ThreadPool::spawn_future`] submits a `'static` task and returns a
//!   [`FutureTask`] handle whose value can be claimed later, mirroring the
//!   `create_fut`/`get_fut` constructs of the paper at the runtime level.
//!
//! Worker-local jobs are published by reference (the closures live on the
//! caller's stack) which requires `unsafe`; safety rests on the invariant
//! that `join`/`install` never return before the published job has executed,
//! enforced with latches (`latch`).

mod deque;
mod job;
pub mod latch;

use deque::{Stealer, WorkerDeque};
use job::{FutureState, HeapJob, IntoJobRef, JobRef, StackJob};
use latch::{CountLatch, LockLatch, SpinLatch};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Builder for [`ThreadPool`].
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    stack_size: Option<usize>,
    thread_name_prefix: Option<String>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings (one worker per available
    /// hardware thread).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Sets the stack size of worker threads in bytes.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Sets the prefix used for worker thread names.
    pub fn thread_name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.thread_name_prefix = Some(prefix.into());
        self
    }

    /// Builds the pool, spawning the worker threads.
    pub fn build(self) -> ThreadPool {
        let num_threads = self.num_threads.filter(|&n| n > 0).unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        ThreadPool::with_config(
            num_threads,
            self.stack_size,
            self.thread_name_prefix
                .unwrap_or_else(|| "futurerd-worker".to_string()),
        )
    }
}

struct Sleep {
    lock: Mutex<()>,
    condvar: Condvar,
}

/// Always-on per-worker scheduler counters (relaxed atomics; one add per
/// event, far off any hot loop). Snapshot through
/// [`ThreadPool::worker_stats`]; exported to the observability registry by
/// [`ThreadPool::export_worker_metrics`].
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Jobs this worker executed (own deque, injector, or stolen).
    executed: AtomicU64,
    /// Jobs this worker stole from another worker's deque.
    steals: AtomicU64,
    /// Jobs this worker claimed from the external injector.
    injected: AtomicU64,
}

/// A point-in-time copy of one worker's scheduler counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool (`0..num_threads`).
    pub index: usize,
    /// Jobs this worker executed.
    pub executed: u64,
    /// Jobs stolen from other workers' deques.
    pub steals: u64,
    /// Jobs claimed from the external injector.
    pub injected: u64,
}

struct Registry {
    injector: Mutex<VecDeque<JobRef>>,
    stealers: Vec<Stealer>,
    sleep: Sleep,
    terminate: AtomicBool,
    num_threads: usize,
    counters: Vec<WorkerCounters>,
}

impl Registry {
    fn inject(&self, job: JobRef) {
        self.injector.lock().push_back(job);
        self.notify_all();
    }

    fn notify_all(&self) {
        let _guard = self.sleep.lock.lock();
        self.sleep.condvar.notify_all();
    }

    fn pop_injected(&self) -> Option<JobRef> {
        self.injector.lock().pop_front()
    }

    /// Tries to find a job from anywhere: the injector first (fairness for
    /// external submissions), then other workers' deques.
    fn steal_work(&self, thief: usize) -> Option<JobRef> {
        if let Some(job) = self.pop_injected() {
            self.counters[thief]
                .injected
                .fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        let n = self.stealers.len();
        // Start at a thief-dependent offset so thieves do not all hammer
        // worker 0.
        for i in 0..n {
            let victim = (thief + 1 + i) % n;
            if victim == thief {
                continue;
            }
            if let Some(job) = self.stealers[victim].steal() {
                self.counters[thief].steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }
}

struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
    deque: WorkerDeque,
}

thread_local! {
    static CURRENT_WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

impl WorkerThread {
    /// Returns the worker running on the current thread, if any.
    fn current() -> *const WorkerThread {
        CURRENT_WORKER.with(|c| c.get())
    }

    fn set_current(worker: *const WorkerThread) {
        CURRENT_WORKER.with(|c| c.set(worker));
    }

    fn push(&self, job: JobRef) {
        self.deque.push(job);
        self.registry.notify_all();
    }

    fn pop(&self) -> Option<JobRef> {
        self.deque.pop()
    }

    fn find_work(&self) -> Option<JobRef> {
        self.pop().or_else(|| self.registry.steal_work(self.index))
    }

    /// Executes jobs until `latch` is set (used while waiting for a stolen
    /// job to finish).
    fn wait_until(&self, latch: &SpinLatch) {
        let mut idle_spins = 0u32;
        while !latch.probe() {
            if let Some(job) = self.find_work() {
                self.registry.counters[self.index]
                    .executed
                    .fetch_add(1, Ordering::Relaxed);
                // SAFETY: a JobRef obtained from a deque is executed exactly
                // once, and its publisher keeps it alive until then.
                unsafe { job.execute() };
                idle_spins = 0;
            } else {
                idle_spins += 1;
                if idle_spins < 64 {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }

    /// The worker main loop: run until the registry terminates.
    fn main_loop(&self) {
        loop {
            if let Some(job) = self.find_work() {
                self.registry.counters[self.index]
                    .executed
                    .fetch_add(1, Ordering::Relaxed);
                // SAFETY: as in wait_until — each dequeued JobRef is live and
                // executed exactly once.
                unsafe { job.execute() };
                continue;
            }
            if self.registry.terminate.load(Ordering::SeqCst) {
                return;
            }
            // Nothing to do: sleep until new work is announced.
            let mut guard = self.registry.sleep.lock.lock();
            // Re-check under the lock to avoid missing a notification.
            if self.registry.terminate.load(Ordering::SeqCst) {
                return;
            }
            self.registry
                .sleep
                .condvar
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }
}

/// A work-stealing thread pool.
///
/// # Example
///
/// ```
/// use futurerd_runtime::ThreadPoolBuilder;
///
/// let pool = ThreadPoolBuilder::new().num_threads(4).build();
/// let (a, b) = pool.install(|| {
///     pool.join(|| (0..1000u64).sum::<u64>(), || (0..1000u64).product::<u64>())
/// });
/// assert_eq!(a, 499500);
/// assert_eq!(b, 0);
/// ```
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers and default settings.
    pub fn new(num_threads: usize) -> Self {
        ThreadPoolBuilder::new().num_threads(num_threads).build()
    }

    /// Returns a process-wide **shared** pool with `num_threads` workers
    /// (0 = one per available hardware thread), building it on first use and
    /// handing the same instance back afterwards.
    ///
    /// Worker threads take hundreds of microseconds to spawn — noticeable
    /// when every replay of a batch job builds its own pool. Callers that
    /// run many parallel detections (the `futurerd` facade's threaded
    /// replay, `futurerd-store`'s batch service) share one pool per size
    /// instead, amortizing the spawn cost across the whole batch.
    ///
    /// Shared pools live for the remainder of the process (idle workers park
    /// on a condvar, so an unused cached pool costs no CPU).
    pub fn shared(num_threads: usize) -> Arc<ThreadPool> {
        type PoolCache = Mutex<Vec<(usize, Arc<ThreadPool>)>>;
        static POOLS: std::sync::OnceLock<PoolCache> = std::sync::OnceLock::new();
        let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = pools.lock();
        if let Some((_, pool)) = pools.iter().find(|(n, _)| *n == num_threads) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(
            ThreadPoolBuilder::new()
                .num_threads(num_threads)
                .thread_name_prefix("futurerd-shared")
                .build(),
        );
        pools.push((num_threads, Arc::clone(&pool)));
        pool
    }

    fn with_config(num_threads: usize, stack_size: Option<usize>, name_prefix: String) -> Self {
        let mut worker_deques = Vec::with_capacity(num_threads);
        let mut stealers = Vec::with_capacity(num_threads);
        for _ in 0..num_threads {
            let d = WorkerDeque::new();
            stealers.push(d.stealer());
            worker_deques.push(d);
        }
        let registry = Arc::new(Registry {
            injector: Mutex::new(VecDeque::new()),
            stealers,
            sleep: Sleep {
                lock: Mutex::new(()),
                condvar: Condvar::new(),
            },
            terminate: AtomicBool::new(false),
            num_threads,
            counters: (0..num_threads)
                .map(|_| WorkerCounters::default())
                .collect(),
        });
        let mut handles = Vec::with_capacity(num_threads);
        for (index, deque) in worker_deques.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let mut builder = thread::Builder::new().name(format!("{name_prefix}-{index}"));
            if let Some(sz) = stack_size {
                builder = builder.stack_size(sz);
            }
            let handle = builder
                .spawn(move || {
                    futurerd_obs::set_thread_label(&format!("worker.{index}"));
                    let worker = WorkerThread {
                        registry,
                        index,
                        deque,
                    };
                    WorkerThread::set_current(&worker);
                    worker.main_loop();
                    WorkerThread::set_current(std::ptr::null());
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        Self { registry, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads
    }

    /// Snapshots the per-worker scheduler counters (jobs executed, deque
    /// steals, injector claims) accumulated over the pool's lifetime.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.registry
            .counters
            .iter()
            .enumerate()
            .map(|(index, c)| WorkerStats {
                index,
                executed: c.executed.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                injected: c.injected.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Publishes the per-worker counters as `<prefix>.worker.<i>.<field>`
    /// gauges in the `futurerd-obs` metrics registry (no-op while
    /// recording is disabled). Gauges because the counters are lifetime
    /// totals: re-exporting after further work overwrites with the newer
    /// reading.
    pub fn export_worker_metrics(&self, prefix: &str) {
        if !futurerd_obs::enabled() {
            return;
        }
        for stats in self.worker_stats() {
            let i = stats.index;
            futurerd_obs::gauge_set(&format!("{prefix}.worker.{i}.executed"), stats.executed);
            futurerd_obs::gauge_set(&format!("{prefix}.worker.{i}.steals"), stats.steals);
            futurerd_obs::gauge_set(&format!("{prefix}.worker.{i}.injected"), stats.injected);
        }
    }

    /// True if the calling thread is one of this pool's workers.
    pub fn is_worker_thread(&self) -> bool {
        let ptr = WorkerThread::current();
        if ptr.is_null() {
            return false;
        }
        // SAFETY: the pointer is set by a live worker of *some* pool; compare
        // registries to confirm it is ours.
        let worker = unsafe { &*ptr };
        Arc::ptr_eq(&worker.registry, &self.registry)
    }

    /// Moves `f` onto a worker thread, blocks until it completes, and
    /// returns its result. If the calling thread already is a worker of this
    /// pool, `f` runs inline.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        if self.is_worker_thread() {
            return f();
        }
        let latch = LockLatch::new();
        let job = StackJob::new(f, &latch);
        // SAFETY: we block on the latch below, so the stack job outlives its
        // execution on the worker thread.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        latch.wait();
        job.into_result()
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both results.
    ///
    /// When called on a worker thread, `b` is published on the worker's
    /// deque so an idle worker can steal it while the current thread runs
    /// `a`; when called from outside the pool the whole join is moved onto a
    /// worker first via [`install`](Self::install).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let worker_ptr = WorkerThread::current();
        if worker_ptr.is_null() || !self.is_worker_thread() {
            return self.install(|| self.join_worker(a, b));
        }
        self.join_worker(a, b)
    }

    fn join_worker<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        // SAFETY: join_worker is only entered once is_worker_thread confirmed
        // the TLS pointer refers to a live worker of this pool.
        let worker = unsafe { &*WorkerThread::current() };
        let latch = SpinLatch::new();
        let job_b = StackJob::new(b, &latch);
        // SAFETY: we do not return until the latch is set (either by running
        // the job ourselves below or by the thief), so the stack job cannot
        // dangle.
        let job_b_ref = unsafe { job_b.as_job_ref() };
        let b_tag = job_b_ref.tag();
        worker.push(job_b_ref);

        // Run `a` on this thread. If it panics we must still wait for `b`
        // (it may be running on another thread and borrow from our stack).
        let result_a = panic::catch_unwind(AssertUnwindSafe(a));

        // Try to take `b` back from our own deque; if some other pending job
        // is on top (possible when scope tasks were pushed), execute it —
        // running extra work here is always safe.
        let mut b_popped = false;
        while let Some(job) = worker.pop() {
            // SAFETY: both branches execute a freshly popped JobRef exactly
            // once; publishers (this frame for `b`, scopes for the rest) keep
            // the pointees alive until execution.
            if job.tag() == b_tag {
                unsafe { job.execute() };
                b_popped = true;
                break;
            } else {
                unsafe { job.execute() };
            }
        }
        if !b_popped {
            // `b` was stolen; help with other work until it completes.
            worker.wait_until(&latch);
        }

        let result_b = job_b.into_result_catching();
        match (result_a, result_b) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
        }
    }

    /// Submits an independent task and returns a handle to its eventual
    /// result — the pool-level analogue of `create_fut`. The task may run on
    /// any worker; claim the value with [`FutureTask::join`] (the analogue of
    /// `get_fut`).
    pub fn spawn_future<T, F>(&self, f: F) -> FutureTask<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = Arc::new(FutureState::new());
        let state2 = Arc::clone(&state);
        let job = HeapJob::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            state2.complete(result);
        });
        self.registry.inject(job.into_job_ref());
        FutureTask { state }
    }

    /// Runs a batch of independent borrowed tasks to completion on the
    /// pool's workers — the entry point for driving *detection* work (not
    /// just capture) through the work-stealing scheduler: `futurerd-core`'s
    /// parallel replay engine hands its per-partition detection workers here
    /// via the facade's `PoolExecutor`.
    ///
    /// The calling thread runs the first task itself while the workers
    /// take the rest, rather than parking until they finish. Blocks until
    /// every task has finished. Tasks may borrow from the caller's stack
    /// (the `'env` lifetime); panics propagate like [`ThreadPool::scope`].
    ///
    /// ```
    /// use futurerd_runtime::ThreadPoolBuilder;
    ///
    /// let pool = ThreadPoolBuilder::new().num_threads(2).build();
    /// let mut slots = vec![0u64; 3];
    /// pool.run_batch(
    ///     slots
    ///         .iter_mut()
    ///         .enumerate()
    ///         .map(|(i, slot)| Box::new(move || *slot = i as u64 + 1) as Box<dyn FnOnce() + Send + '_>)
    ///         .collect(),
    /// );
    /// assert_eq!(slots, vec![1, 2, 3]);
    /// ```
    pub fn run_batch<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return;
        };
        self.scope(|scope| {
            for task in tasks {
                scope.spawn(task);
            }
            first();
        });
    }

    /// Creates a scope in which borrowed tasks can be spawned; blocks until
    /// every task spawned in the scope has completed — also when `f`
    /// panics, whose panic then resumes once the tasks are done.
    ///
    /// ```
    /// use futurerd_runtime::ThreadPoolBuilder;
    ///
    /// let pool = ThreadPoolBuilder::new().num_threads(2).build();
    /// let mut parts = vec![0u64; 4];
    /// pool.scope(|s| {
    ///     for (i, slot) in parts.iter_mut().enumerate() {
    ///         s.spawn(move || *slot = (i as u64 + 1) * 10);
    ///     }
    /// });
    /// assert_eq!(parts, vec![10, 20, 30, 40]);
    /// ```
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            registry: Arc::clone(&self.registry),
            latch: CountLatch::new(),
            panic: Mutex::new(None),
            marker: std::marker::PhantomData,
        };
        // Spawned tasks hold pointers to `scope` and borrow the caller's
        // frame, so a panic in `f` must not unwind past them: catch it,
        // wait, then resume it.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        let result = result.unwrap_or_else(|p| panic::resume_unwind(p));
        if let Some(p) = scope.panic.into_inner() {
            panic::resume_unwind(p);
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::SeqCst);
        self.registry.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A handle to a value being computed by [`ThreadPool::spawn_future`].
pub struct FutureTask<T> {
    state: Arc<FutureState<T>>,
}

impl<T> FutureTask<T> {
    /// Blocks until the task completes and returns its value. Panics raised
    /// by the task are propagated.
    pub fn join(self) -> T {
        match self.state.wait() {
            Ok(v) => v,
            Err(p) => panic::resume_unwind(p),
        }
    }

    /// Returns `Some(value)` if the task has already completed.
    pub fn try_join(self) -> Result<T, FutureTask<T>> {
        if self.state.is_done() {
            Ok(self.join())
        } else {
            Err(self)
        }
    }
}

/// A raw pointer wrapper that may cross thread boundaries; used only for
/// pointers whose pointees are kept alive and synchronized by the scope
/// protocol.
struct SendPtr<T>(*const T);
// SAFETY: SendPtr is only constructed around Scope-owned state (latch, panic
// store) that `Scope::wait` keeps alive and synchronized until every task
// holding a copy has finished.
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Returns the wrapped pointer. Taking `self` (not a field access) keeps
    /// edition-2021 closures capturing the whole wrapper, which is what makes
    /// the closure `Send`.
    fn get(self) -> *const T {
        self.0
    }
}

/// A scope for spawning borrowed tasks; see [`ThreadPool::scope`].
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    latch: CountLatch,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    marker: std::marker::PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task that may borrow from the enclosing scope. The task runs
    /// on some worker thread before [`ThreadPool::scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.increment();
        // SAFETY: the transmute erases the 'scope lifetime only — the scope
        // does not end until every spawned task has executed
        // (CountLatch::wait below), so the closure cannot outlive its
        // borrows.
        let f: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
        let latch = SendPtr(&self.latch as *const CountLatch);
        let panic_store =
            SendPtr(&self.panic as *const Mutex<Option<Box<dyn std::any::Any + Send>>>);
        let job = HeapJob::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            // SAFETY: the Scope (and thus the latch and panic store) is kept
            // alive by `wait()` until this decrement happens.
            unsafe {
                if let Err(p) = result {
                    (*panic_store.get()).lock().get_or_insert(p);
                }
                (*latch.get()).decrement();
            }
        });
        self.registry.inject(job.into_job_ref());
    }

    fn wait(&self) {
        // If we are on a worker thread, help execute work while waiting so
        // nested scopes cannot deadlock the pool.
        let worker_ptr = WorkerThread::current();
        if !worker_ptr.is_null() {
            // SAFETY: a non-null TLS worker pointer always refers to the live
            // worker that installed it for the duration of its main loop.
            let worker = unsafe { &*worker_ptr };
            if Arc::ptr_eq(&worker.registry, &self.registry) {
                while !self.latch.is_done() {
                    if let Some(job) = worker.find_work() {
                        // SAFETY: dequeued JobRefs are live and executed once.
                        unsafe { job.execute() };
                    } else {
                        thread::yield_now();
                    }
                }
                return;
            }
        }
        self.latch.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn install_runs_on_worker_and_returns_value() {
        let pool = ThreadPool::new(2);
        let v = pool.install(|| 40 + 2);
        assert_eq!(v, 42);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(4);
        let (a, b) = pool.join(|| 1 + 1, || "two".len());
        assert_eq!(a, 2);
        assert_eq!(b, 3);
    }

    #[test]
    fn nested_joins_compute_fibonacci() {
        fn fib(pool: &ThreadPool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = ThreadPool::new(4);
        assert_eq!(pool.install(|| fib(&pool, 20)), 6765);
    }

    #[test]
    fn join_uses_multiple_threads() {
        let pool = ThreadPool::new(4);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        fn touch(
            seen: &Mutex<std::collections::HashSet<thread::ThreadId>>,
            depth: u32,
            pool: &ThreadPool,
        ) {
            seen.lock().insert(thread::current().id());
            if depth == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                return;
            }
            pool.join(
                || touch(seen, depth - 1, pool),
                || touch(seen, depth - 1, pool),
            );
        }
        let seen2 = Arc::clone(&seen);
        pool.install(|| touch(&seen2, 6, &pool));
        // With 4 workers and 64 leaf tasks sleeping, at least 2 distinct
        // threads should have participated.
        assert!(seen.lock().len() >= 2);
    }

    #[test]
    fn spawn_future_and_join() {
        let pool = ThreadPool::new(2);
        let f = pool.spawn_future(|| (0..100u64).sum::<u64>());
        let g = pool.spawn_future(|| 7u64);
        assert_eq!(f.join(), 4950);
        assert_eq!(g.join(), 7);
    }

    #[test]
    fn futures_pipeline_through_stages() {
        let pool = ThreadPool::new(3);
        let stage1 = pool.spawn_future(|| vec![1u32, 2, 3, 4]);
        let v = stage1.join();
        let stage2 = pool.spawn_future(move || v.into_iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(stage2.join(), vec![1, 4, 9, 16]);
    }

    #[test]
    fn run_batch_executes_every_task_and_blocks() {
        let pool = ThreadPool::new(4);
        let mut slots = vec![0u32; 64];
        pool.run_batch(
            slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = i as u32 + 1) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        assert!(slots.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        // Empty and single-task batches work too.
        pool.run_batch(Vec::new());
        let mut hit = false;
        pool.run_batch(vec![
            Box::new(|| hit = true) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(hit);
    }

    #[test]
    fn run_batch_runs_the_first_task_on_the_caller() {
        let pool = ThreadPool::new(2);
        let caller = thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        pool.run_batch(
            (0..4)
                .map(|i| {
                    let ran_on = &ran_on;
                    Box::new(move || ran_on.lock().push((i, thread::current().id())))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        let ran_on = ran_on.into_inner();
        assert_eq!(
            ran_on.len(),
            4,
            "every task finished before run_batch returned"
        );
        // The caller is no worker, so only the first task runs on it.
        assert!(
            ran_on.iter().all(|&(i, id)| (i == 0) == (id == caller)),
            "{ran_on:?}"
        );
    }

    #[test]
    fn scope_waits_for_spawned_tasks_before_resuming_a_body_panic() {
        /// Raises its flag when dropped, i.e. once the body unwinds.
        struct OnDrop<'a>(&'a AtomicBool);
        impl Drop for OnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let pool = ThreadPool::new(2);
        let unwinding = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    // Still running when the body starts to unwind, and slow
                    // after that: a scope that does not wait for it returns
                    // before the flag is set.
                    while !unwinding.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    thread::sleep(std::time::Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                });
                let _unwinding = OnDrop(&unwinding);
                panic!("scope body failed");
            })
        }));
        assert!(result.is_err(), "the body's panic must propagate");
        assert!(
            finished.load(Ordering::SeqCst),
            "the panic escaped the scope before its spawned task finished"
        );
        // A panicking spawned task still propagates out of the scope.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("task failed")));
        }));
        assert!(result.is_err());
        // The pool stays usable afterwards.
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn scope_tasks_can_borrow_mutably_disjoint_slots() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 32];
        pool.scope(|s| {
            for (i, slot) in data.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 2);
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn join_propagates_panics() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || panic!("boom"));
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn future_panic_propagates_at_join() {
        let pool = ThreadPool::new(2);
        let f = pool.spawn_future(|| -> u32 { panic!("future failed") });
        let result = panic::catch_unwind(AssertUnwindSafe(|| f.join()));
        assert!(result.is_err());
    }

    #[test]
    fn install_from_worker_runs_inline() {
        let pool = ThreadPool::new(2);
        let v = pool.install(|| pool.install(|| 5));
        assert_eq!(v, 5);
    }

    #[test]
    fn many_small_futures_complete() {
        let pool = ThreadPool::new(4);
        let futures: Vec<_> = (0..256u64)
            .map(|i| pool.spawn_future(move || i * i))
            .collect();
        let total: u64 = futures.into_iter().map(|f| f.join()).sum();
        assert_eq!(total, (0..256u64).map(|i| i * i).sum());
    }

    #[test]
    fn pool_with_one_thread_still_works() {
        let pool = ThreadPool::new(1);
        let (a, b) = pool.join(|| 10, || 20);
        assert_eq!(a + b, 30);
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    fn builder_configures_threads() {
        let pool = ThreadPoolBuilder::new()
            .num_threads(3)
            .thread_name_prefix("bench-worker")
            .stack_size(1 << 20)
            .build();
        assert_eq!(pool.num_threads(), 3);
        assert!(!pool.is_worker_thread());
        pool.install(|| assert!(pool.is_worker_thread()));
    }

    #[test]
    fn shared_pools_are_cached_per_size() {
        let a = ThreadPool::shared(2);
        let b = ThreadPool::shared(2);
        assert!(Arc::ptr_eq(&a, &b), "same size must reuse the pool");
        assert_eq!(a.num_threads(), 2);
        let c = ThreadPool::shared(3);
        assert!(!Arc::ptr_eq(&a, &c), "different sizes get different pools");
        assert_eq!(c.num_threads(), 3);
        // Shared pools are fully functional (and reusable across callers).
        let (x, y) = a.join(|| 1, || 2);
        assert_eq!(x + y, 3);
        let mut done = [false; 4];
        a.run_batch(
            done.iter_mut()
                .map(|slot| Box::new(move || *slot = true) as Box<dyn FnOnce() + Send>)
                .collect(),
        );
        assert!(done.iter().all(|&d| d));
    }
}
