//! Latches: one-shot "this happened" flags used to signal job completion.
//!
//! Three flavours, matching how the waiter wants to wait:
//!
//! * `SpinLatch` — probed by a worker thread that keeps stealing other work
//!   while it waits (used by `join`).
//! * `LockLatch` — blocks a non-worker thread on a condition variable
//!   (used by `install`).
//! * `CountLatch` — counts down from N; used by scopes to wait for all
//!   spawned tasks.
//!
//! The atomic protocols live in the shim-generic [`SpinLatchCore`] and
//! [`CountLatchCore`], instantiated here with the zero-cost
//! [`RealShim`]; the `futurerd-trace check` suite explores the same cores
//! under the model shim (set/probe publication, exact countdown). The
//! blocking layers (condvars, timed waits) stay on `parking_lot` — only
//! the lock-free state machines are model-checked.

use futurerd_check::sync::{AtomicIntShim, AtomicShim, Ordering, RealShim, SyncShim};
use parking_lot::{Condvar, Mutex};

/// A one-shot completion flag.
pub(super) trait Latch {
    /// Signals completion. May be called from any thread; called exactly
    /// once per logical event.
    fn set(&self);
}

/// The spin latch's atomic core: a one-shot release/acquire flag. The
/// Release set / Acquire probe pair is what hands the completed job's
/// writes to the prober — model-checked (a `Relaxed` set here is the
/// `relaxed-latch-race` planted bug the checker must catch).
#[derive(Debug, Default)]
pub struct SpinLatchCore<S: SyncShim> {
    set: S::AtomicBool,
}

impl<S: SyncShim> SpinLatchCore<S> {
    /// Creates an unset latch.
    pub fn new() -> Self {
        Self {
            set: S::AtomicBool::new(false),
        }
    }

    /// Returns true once [`SpinLatchCore::set`] has been called, acquiring
    /// the setter's writes.
    pub fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Signals completion, releasing the caller's writes to probers.
    pub fn set(&self) {
        self.set.store(true, Ordering::Release);
    }
}

/// A latch probed by busy workers.
pub(super) type SpinLatch = SpinLatchCore<RealShim>;

impl Latch for SpinLatch {
    fn set(&self) {
        SpinLatchCore::set(self);
    }
}

/// A latch a non-worker thread can block on.
#[derive(Debug, Default)]
pub(super) struct LockLatch {
    done: Mutex<bool>,
    condvar: Condvar,
}

impl LockLatch {
    /// Creates an unset latch.
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Blocks until the latch is set.
    pub(super) fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.condvar.wait(&mut done);
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let mut done = self.done.lock();
        *done = true;
        self.condvar.notify_all();
    }
}

/// The countdown latch's atomic core: `increment` before publishing a
/// task, `decrement` when it completes; [`CountLatchCore::decrement`]
/// reports whether this call was the one that drained the count (so the
/// blocking wrapper wakes waiters exactly once per drain). Model-checked:
/// N concurrent decrements drain the count exactly once with no
/// double-wake and no missed drain.
#[derive(Debug)]
pub struct CountLatchCore<S: SyncShim> {
    count: S::AtomicUsize,
}

impl<S: SyncShim> Default for CountLatchCore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SyncShim> CountLatchCore<S> {
    /// Creates a core with a count of zero (already "done").
    pub fn new() -> Self {
        Self {
            count: S::AtomicUsize::new(0),
        }
    }

    /// Registers one more pending task.
    pub fn increment(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks one task complete; true when this call drained the count.
    pub fn decrement(&self) -> bool {
        self.count.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// True when no tasks are pending.
    pub fn is_done(&self) -> bool {
        self.count.load(Ordering::SeqCst) == 0
    }
}

/// A countdown latch: the atomic [`CountLatchCore`] plus a condvar so
/// `wait` can block until the count returns to zero.
#[derive(Debug)]
pub(super) struct CountLatch {
    core: CountLatchCore<RealShim>,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl CountLatch {
    /// Creates a latch with a count of zero (already "done").
    pub(super) fn new() -> Self {
        Self {
            core: CountLatchCore::new(),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Registers one more pending task.
    pub(super) fn increment(&self) {
        self.core.increment();
    }

    /// Marks one task complete.
    ///
    /// The count drains under the lock, and a waiter takes the lock before
    /// it returns ([`CountLatch::wait`]), so the waiter cannot free the
    /// latch while this call still uses it: draining before locking would
    /// let the last task lock a latch whose scope has already returned.
    pub(super) fn decrement(&self) {
        let _guard = self.lock.lock();
        if self.core.decrement() {
            self.condvar.notify_all();
        }
    }

    /// True when no tasks are pending.
    pub(super) fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Blocks until no tasks are pending. Once this returns, no
    /// [`CountLatch::decrement`] touches the latch again.
    pub(super) fn wait(&self) {
        let mut guard = self.lock.lock();
        while !self.is_done() {
            self.condvar
                .wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spin_latch_probe_transitions() {
        let l = SpinLatch::new();
        assert!(!l.probe());
        Latch::set(&l);
        assert!(l.probe());
    }

    #[test]
    fn lock_latch_wakes_waiter() {
        let l = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            l2.set();
        });
        l.wait();
        t.join().unwrap();
    }

    #[test]
    fn count_latch_counts_down() {
        let l = Arc::new(CountLatch::new());
        assert!(l.is_done());
        for _ in 0..8 {
            l.increment();
        }
        assert!(!l.is_done());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || l.decrement())
            })
            .collect();
        l.wait();
        assert!(l.is_done());
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn count_latch_core_reports_the_draining_decrement() {
        let core = CountLatchCore::<futurerd_check::sync::RealShim>::new();
        core.increment();
        core.increment();
        assert!(!core.decrement());
        assert!(core.decrement(), "second decrement drains");
        assert!(core.is_done());
    }
}
