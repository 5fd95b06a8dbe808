//! The benchmark's clocks.
//!
//! Single-threaded calls are timed on the calling thread's CPU clock (user
//! plus system time). On a paravirtualized host that clock stops while the
//! hypervisor runs another guest on the vCPU and while the thread waits for
//! a CPU; the wall clock does not, and those stalls are most of the
//! run-to-run noise there. A single-threaded call never blocks, so on a
//! dedicated machine both clocks agree. Calls that run on more than one
//! thread are timed on the wall clock.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime` (glibc).
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's CPU time, in seconds.
fn thread_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) for the duration of the call.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "the thread CPU clock exists on Linux");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Which clock times a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The calling thread's CPU time: for single-threaded calls.
    Cpu,
    /// Wall time: for calls that run on more than one thread.
    Wall,
}

impl Clock {
    /// Runs `f`; returns its result and its seconds on this clock.
    pub fn time<R>(self, f: impl FnOnce() -> R) -> (R, f64) {
        match self {
            Clock::Cpu => {
                let start = thread_cpu_s();
                let result = f();
                (result, thread_cpu_s() - start)
            }
            Clock::Wall => {
                let start = Instant::now();
                let result = f();
                (result, start.elapsed().as_secs_f64())
            }
        }
    }
}
