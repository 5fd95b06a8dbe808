//! The sequential depth-first eager executor.
//!
//! Race detection in the paper runs the program to be checked *sequentially*:
//! when a `spawn` or `create_fut` is reached the child is executed eagerly
//! and to completion before the parent's continuation resumes. Because the
//! execution is eager, a `sync` never blocks and — for forward-pointing
//! futures — a `get_fut` never blocks either: the value is always ready.
//!
//! The executor's job is therefore bookkeeping: it assigns dense
//! [`StrandId`]s and [`FunctionId`]s, tracks the currently-executing strand,
//! and reports every parallel construct (and every instrumented memory
//! access) to an [`Observer`]. Detectors, dag recorders, or a no-op
//! [`NullObserver`](futurerd_dag::NullObserver) (for the paper's *baseline*
//! configuration) can be plugged in; the executor is generic over the
//! observer type so unused callbacks compile away entirely.

use futurerd_dag::events::{CreateFutureEvent, ForkInfo, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::{FunctionId, MemAddr, Observer, StrandId};

/// First abstract address handed out by [`Cx::alloc_region`]; non-zero so
/// that address `0` never appears in detector state.
const BASE_ADDR: u64 = 0x1000;

/// A handle to an eagerly-evaluated future.
///
/// Because execution is depth-first eager, the future's value is already
/// computed when the handle is returned by [`Cx::create_future`]; the handle
/// simply carries the value plus the metadata the detector needs when the
/// future is joined ([`Cx::get_future`] / [`Cx::touch_future`]).
#[derive(Debug)]
pub struct FutureHandle<T> {
    value: T,
    future_fn: FunctionId,
    last_strand: StrandId,
    touches: u32,
}

impl<T> FutureHandle<T> {
    /// The function instance that computed this future.
    pub fn function(&self) -> FunctionId {
        self.future_fn
    }

    /// The last strand of the future task.
    pub fn last_strand(&self) -> StrandId {
        self.last_strand
    }

    /// How many times this future has been consumed so far.
    pub fn touches(&self) -> u32 {
        self.touches
    }

    /// Returns the value *without* recording a `get_fut` — only for use by
    /// test harnesses that need to peek at results outside the computation.
    pub fn peek(&self) -> &T {
        &self.value
    }
}

/// Counts of what an execution did; returned by [`run_program`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Number of function instances (root + spawned + futures).
    pub functions: u64,
    /// Number of strands.
    pub strands: u64,
    /// Number of `spawn` constructs.
    pub spawns: u64,
    /// Number of `create_fut` constructs.
    pub creates: u64,
    /// Number of binary sync joins.
    pub syncs: u64,
    /// Number of `get_fut` operations (the paper's `k`).
    pub gets: u64,
    /// Number of instrumented read events.
    pub reads: u64,
    /// Number of instrumented write events.
    pub writes: u64,
    /// Bytes of abstract address space allocated.
    pub bytes_allocated: u64,
}

impl ExecutionSummary {
    /// Total number of instrumented memory accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total number of parallelism-creating constructs (the paper's `n`).
    pub fn parallel_constructs(&self) -> u64 {
        self.spawns + self.creates
    }
}

struct PendingChild {
    child: FunctionId,
    fork: ForkInfo,
    child_last: StrandId,
}

struct Frame {
    /// Kept for debugging/assertions; the executor resumes the parent's
    /// function id explicitly at each construct.
    #[allow(dead_code)]
    function: FunctionId,
    pending: Vec<PendingChild>,
}

/// The execution context handed to every task body.
///
/// A task body is a closure `FnOnce(&mut Cx<O>) -> T`; it creates parallelism
/// with [`spawn`](Cx::spawn) / [`create_future`](Cx::create_future), joins it
/// with [`sync`](Cx::sync) / [`get_future`](Cx::get_future), and performs
/// instrumented memory accesses through the wrappers in
/// [`crate::memory`].
///
/// # Example
///
/// ```
/// use futurerd_dag::NullObserver;
/// use futurerd_runtime::{run_program, ShadowCell};
///
/// let (sum, _obs, summary) = run_program(NullObserver, |cx| {
///     let mut cell = ShadowCell::new(cx, 0i64);
///     let fut = cx.create_future(|_cx| 21i64);
///     cx.spawn(|cx| {
///         let v = cell.get(cx);
///         cell.set(cx, v + 1);
///     });
///     cx.sync();
///     let half = cx.get_future(fut);
///     half * 2 + cell.get(cx)
/// });
/// assert_eq!(sum, 43);
/// assert_eq!(summary.spawns, 1);
/// assert_eq!(summary.creates, 1);
/// assert_eq!(summary.gets, 1);
/// ```
pub struct Cx<O: Observer> {
    obs: O,
    next_strand: u32,
    next_function: u32,
    next_addr: u64,
    current_function: FunctionId,
    current_strand: StrandId,
    frames: Vec<Frame>,
    summary: ExecutionSummary,
}

impl<O: Observer> Cx<O> {
    fn new(obs: O) -> Self {
        Self {
            obs,
            next_strand: 0,
            next_function: 0,
            next_addr: BASE_ADDR,
            current_function: FunctionId(0),
            current_strand: StrandId(0),
            frames: Vec::new(),
            summary: ExecutionSummary::default(),
        }
    }

    #[inline]
    fn new_strand(&mut self) -> StrandId {
        let id = StrandId(self.next_strand);
        self.next_strand += 1;
        self.summary.strands += 1;
        id
    }

    #[inline]
    fn new_function(&mut self) -> FunctionId {
        let id = FunctionId(self.next_function);
        self.next_function += 1;
        self.summary.functions += 1;
        id
    }

    /// The strand currently executing.
    #[inline]
    pub fn current_strand(&self) -> StrandId {
        self.current_strand
    }

    /// The function instance currently executing.
    #[inline]
    pub fn current_function(&self) -> FunctionId {
        self.current_function
    }

    /// Access to the observer (e.g. to inspect detector state mid-run).
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Mutable access to the observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Execution counters accumulated so far.
    pub fn summary(&self) -> ExecutionSummary {
        self.summary
    }

    /// Runs `body` as a new function instance whose first strand is
    /// `first_strand`, applying Cilk semantics (implicit sync before return).
    /// Returns the body's value and the function's last strand.
    fn run_function<T>(
        &mut self,
        function: FunctionId,
        first_strand: StrandId,
        body: impl FnOnce(&mut Self) -> T,
    ) -> (T, StrandId) {
        self.frames.push(Frame {
            function,
            pending: Vec::new(),
        });
        self.current_function = function;
        self.current_strand = first_strand;
        self.obs.on_strand_start(first_strand, function);
        let value = body(self);
        // Implicit sync: every Cilk function joins its spawned children
        // before returning. Futures it created are *not* joined (they escape).
        self.sync_impl();
        let last = self.current_strand;
        self.obs.on_return(function, last);
        self.frames.pop();
        (value, last)
    }

    /// Spawns `body` as a child task. In the eager sequential execution the
    /// child runs to completion immediately; logically it is in parallel with
    /// the parent's continuation until the next [`sync`](Cx::sync).
    pub fn spawn(&mut self, body: impl FnOnce(&mut Self)) {
        let parent = self.current_function;
        let fork_strand = self.current_strand;
        let child = self.new_function();
        let child_first = self.new_strand();
        let cont = self.new_strand();
        self.summary.spawns += 1;
        self.obs.on_spawn(&SpawnEvent {
            parent,
            child,
            fork_strand,
            cont_strand: cont,
            child_first_strand: child_first,
        });
        let ((), child_last) = self.run_function(child, child_first, body);
        self.frames
            .last_mut()
            .expect("spawn outside of a running program")
            .pending
            .push(PendingChild {
                child,
                fork: ForkInfo {
                    pre_fork_strand: fork_strand,
                    child_first_strand: child_first,
                    cont_strand: cont,
                },
                child_last,
            });
        self.current_function = parent;
        self.current_strand = cont;
        self.obs.on_strand_start(cont, parent);
    }

    /// Joins all children spawned by the current function since the last
    /// sync. Children are joined innermost-first so the resulting dag is a
    /// properly nested series-parallel composition of binary joins.
    pub fn sync(&mut self) {
        self.sync_impl();
    }

    fn sync_impl(&mut self) {
        while let Some(pc) = self.frames.last_mut().and_then(|f| f.pending.pop()) {
            let parent = self.current_function;
            let pre_join = self.current_strand;
            let join = self.new_strand();
            self.summary.syncs += 1;
            self.obs.on_sync(&SyncEvent {
                parent,
                child: pc.child,
                pre_join_strand: pre_join,
                join_strand: join,
                child_last_strand: pc.child_last,
                fork: pc.fork,
            });
            self.current_strand = join;
            self.obs.on_strand_start(join, parent);
        }
    }

    /// Creates a future computing `body`. The future escapes the enclosing
    /// function's sync scope: only [`get_future`](Cx::get_future) /
    /// [`touch_future`](Cx::touch_future) join it.
    pub fn create_future<T>(&mut self, body: impl FnOnce(&mut Self) -> T) -> FutureHandle<T> {
        let parent = self.current_function;
        let creator = self.current_strand;
        let child = self.new_function();
        let child_first = self.new_strand();
        let cont = self.new_strand();
        self.summary.creates += 1;
        self.obs.on_create_future(&CreateFutureEvent {
            parent,
            child,
            creator_strand: creator,
            cont_strand: cont,
            child_first_strand: child_first,
        });
        let (value, child_last) = self.run_function(child, child_first, body);
        self.current_function = parent;
        self.current_strand = cont;
        self.obs.on_strand_start(cont, parent);
        FutureHandle {
            value,
            future_fn: child,
            last_strand: child_last,
            touches: 0,
        }
    }

    fn emit_get(&mut self, future: FunctionId, future_last: StrandId, prior_touches: u32) {
        let parent = self.current_function;
        let pre_get = self.current_strand;
        let getter = self.new_strand();
        self.summary.gets += 1;
        self.obs.on_get_future(&GetFutureEvent {
            parent,
            future,
            pre_get_strand: pre_get,
            getter_strand: getter,
            future_last_strand: future_last,
            prior_touches,
        });
        self.current_strand = getter;
        self.obs.on_strand_start(getter, parent);
    }

    /// Consumes a future handle, joining the future into the current task
    /// (single-touch `get_fut`).
    pub fn get_future<T>(&mut self, handle: FutureHandle<T>) -> T {
        self.emit_get(handle.future_fn, handle.last_strand, handle.touches);
        handle.value
    }

    /// Joins a future without consuming the handle (multi-touch `get_fut`,
    /// only meaningful for *general* futures / MultiBags+). Each call is a
    /// separate `get_fut` operation.
    pub fn touch_future<T: Clone>(&mut self, handle: &mut FutureHandle<T>) -> T {
        let prior = handle.touches;
        handle.touches += 1;
        self.emit_get(handle.future_fn, handle.last_strand, prior);
        handle.value.clone()
    }

    /// Allocates `bytes` of abstract (detector-visible) address space and
    /// returns its base address. Used by the instrumented memory wrappers.
    pub fn alloc_region(&mut self, bytes: u64) -> MemAddr {
        let granule = MemAddr::GRANULARITY;
        let rounded = bytes.div_ceil(granule).max(1) * granule;
        let addr = MemAddr(self.next_addr);
        self.next_addr += rounded;
        self.summary.bytes_allocated += rounded;
        addr
    }

    /// Reports an instrumented read of `size` bytes at `addr` by the current
    /// strand.
    #[inline]
    pub fn record_read(&mut self, addr: MemAddr, size: usize) {
        self.summary.reads += 1;
        self.obs.on_read(self.current_strand, addr, size);
    }

    /// Reports an instrumented write of `size` bytes at `addr` by the
    /// current strand.
    #[inline]
    pub fn record_write(&mut self, addr: MemAddr, size: usize) {
        self.summary.writes += 1;
        self.obs.on_write(self.current_strand, addr, size);
    }
}

/// Runs `body` as the root function of a program under `observer`, using
/// sequential depth-first eager execution.
///
/// Returns the body's value, the observer (so detector results can be
/// extracted), and an [`ExecutionSummary`].
pub fn run_program<O: Observer, T>(
    observer: O,
    body: impl FnOnce(&mut Cx<O>) -> T,
) -> (T, O, ExecutionSummary) {
    let mut cx = Cx::new(observer);
    let root = cx.new_function();
    let first = cx.new_strand();
    cx.obs.on_program_start(root, first);
    let (value, last) = cx.run_function(root, first, body);
    cx.obs.on_program_end(last);
    (value, cx.obs, cx.summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::{DagRecorder, NullObserver, ReachabilityOracle};

    #[test]
    fn straight_line_program_has_one_strand() {
        let (v, _, s) = run_program(NullObserver, |_cx| 7);
        assert_eq!(v, 7);
        assert_eq!(s.strands, 1);
        assert_eq!(s.functions, 1);
        assert_eq!(s.spawns, 0);
    }

    #[test]
    fn spawn_sync_counts() {
        let (_, _, s) = run_program(NullObserver, |cx| {
            cx.spawn(|_| {});
            cx.spawn(|_| {});
            cx.sync();
        });
        assert_eq!(s.functions, 3);
        assert_eq!(s.spawns, 2);
        assert_eq!(s.syncs, 2);
        // root: first + 2 conts + 2 joins = 5; children: 1 each.
        assert_eq!(s.strands, 7);
    }

    #[test]
    fn implicit_sync_joins_spawned_children() {
        let (_, _, s) = run_program(NullObserver, |cx| {
            cx.spawn(|_| {});
            // no explicit sync: the root's implicit sync must join it.
        });
        assert_eq!(s.syncs, 1);
    }

    #[test]
    fn futures_escape_sync_scope() {
        let (_, _, s) = run_program(NullObserver, |cx| {
            let f = cx.create_future(|_| 1);
            cx.sync(); // must not join the future
            assert_eq!(s_clone_placeholder(), 0);
            let _ = cx.get_future(f);
        });
        assert_eq!(s.creates, 1);
        assert_eq!(s.gets, 1);
        // The sync with no pending spawned children emits no join.
        assert_eq!(s.syncs, 0);
    }

    // Helper so the closure above can contain an assertion without borrowing
    // issues; always returns 0.
    fn s_clone_placeholder() -> u64 {
        0
    }

    #[test]
    fn nested_spawn_structure_matches_recorded_dag() {
        let (_, rec, s) = run_program(DagRecorder::new(), |cx| {
            cx.spawn(|cx| {
                cx.spawn(|_| {});
                cx.sync();
            });
            cx.sync();
        });
        let dag = rec.dag();
        assert_eq!(dag.num_strands() as u64, s.strands);
        assert!(dag.check_consistency().is_empty());
        let counts = dag.edge_kind_counts();
        assert_eq!(counts.spawn, 2);
        assert_eq!(counts.join, 2);
        assert_eq!(counts.create, 0);
    }

    #[test]
    fn spawned_child_is_parallel_with_continuation() {
        let (ids, rec, _) = run_program(DagRecorder::new(), |cx| {
            let mut child_strand = None;
            cx.spawn(|cx| {
                child_strand = Some(cx.current_strand());
            });
            let cont = cx.current_strand();
            cx.sync();
            let after = cx.current_strand();
            (child_strand.unwrap(), cont, after)
        });
        let (child, cont, after) = ids;
        let oracle = ReachabilityOracle::from_dag(rec.dag());
        assert!(oracle.parallel(child, cont));
        assert!(oracle.strictly_precedes(child, after));
        assert!(oracle.strictly_precedes(cont, after));
    }

    #[test]
    fn future_value_flows_through_get() {
        let (v, _, _) = run_program(NullObserver, |cx| {
            let f = cx.create_future(|cx| {
                let g = cx.create_future(|_| 20);
                cx.get_future(g) + 1
            });
            cx.get_future(f) + 1
        });
        assert_eq!(v, 22);
    }

    #[test]
    fn future_is_parallel_with_continuation_until_get() {
        let ((fut_strand, cont, after_get), rec, _) = run_program(DagRecorder::new(), |cx| {
            let mut fs = None;
            let f = cx.create_future(|cx| {
                fs = Some(cx.current_strand());
            });
            let cont = cx.current_strand();
            cx.get_future(f);
            (fs.unwrap(), cont, cx.current_strand())
        });
        let oracle = ReachabilityOracle::from_dag(rec.dag());
        assert!(oracle.parallel(fut_strand, cont));
        assert!(oracle.strictly_precedes(fut_strand, after_get));
        assert!(oracle.strictly_precedes(cont, after_get));
    }

    #[test]
    fn future_escapes_nested_function_scope() {
        // A future created inside a spawned child and consumed by the parent
        // after syncing: classic pipeline-style escape.
        let ((fut_strand, getter_strand), rec, _) = run_program(DagRecorder::new(), |cx| {
            let mut handle = None;
            let mut fut_strand = None;
            cx.spawn(|cx| {
                handle = Some(cx.create_future(|cx| {
                    fut_strand = Some(cx.current_strand());
                    5
                }));
            });
            cx.sync();
            let v = cx.get_future(handle.unwrap());
            assert_eq!(v, 5);
            (fut_strand.unwrap(), cx.current_strand())
        });
        let oracle = ReachabilityOracle::from_dag(rec.dag());
        assert!(oracle.strictly_precedes(fut_strand, getter_strand));
    }

    #[test]
    fn multi_touch_future_counts_gets() {
        let (_, _, s) = run_program(NullObserver, |cx| {
            let mut f = cx.create_future(|_| 3);
            let a = cx.touch_future(&mut f);
            let b = cx.touch_future(&mut f);
            assert_eq!(a + b, 6);
            assert_eq!(f.touches(), 2);
        });
        assert_eq!(s.gets, 2);
    }

    #[test]
    fn alloc_region_is_disjoint_and_aligned() {
        run_program(NullObserver, |cx| {
            let a = cx.alloc_region(10);
            let b = cx.alloc_region(1);
            let c = cx.alloc_region(4);
            assert_eq!(a.raw() % MemAddr::GRANULARITY, 0);
            assert!(b.raw() >= a.raw() + 12); // 10 rounded up to 12
            assert!(c.raw() >= b.raw() + 4);
        });
    }

    #[test]
    fn memory_events_reach_observer() {
        let (_, rec, s) = run_program(DagRecorder::new(), |cx| {
            let a = cx.alloc_region(8);
            cx.record_write(a, 4);
            cx.record_read(a, 4);
            cx.record_read(a.offset(4), 4);
        });
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(rec.reads, 2);
        assert_eq!(rec.writes, 1);
    }

    #[test]
    fn summary_parallel_constructs() {
        let (_, _, s) = run_program(NullObserver, |cx| {
            cx.spawn(|_| {});
            let f = cx.create_future(|_| ());
            cx.sync();
            cx.get_future(f);
        });
        assert_eq!(s.parallel_constructs(), 2);
    }

    #[test]
    fn deep_recursion_of_spawns() {
        fn rec_spawn(cx: &mut Cx<NullObserver>, depth: u32) {
            if depth == 0 {
                return;
            }
            cx.spawn(move |cx| rec_spawn(cx, depth - 1));
            cx.sync();
        }
        let (_, _, s) = run_program(NullObserver, |cx| rec_spawn(cx, 200));
        assert_eq!(s.functions, 201);
        assert_eq!(s.spawns, 200);
    }
}
