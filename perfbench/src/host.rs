//! The host-speed reference: a fixed kernel in the detector's memory shape
//! (union-find and hash-map updates over a synthetic stream, a working set
//! of a few MiB) that brackets every measured round.
//!
//! On a shared host, memory-bound code runs faster or slower in spells that
//! last longer than a round (up to 1.6 times, in CPU time, on the host the
//! benchmark was tuned on). The kernel slows down in the same spells, but
//! not by the same amount as every entry point, so a round's timings are
//! scaled by the kernel's nominal time over its measured time raised to the
//! power 0.75: the exponent that kept the worst run-to-run spread lowest
//! across the three workloads (see `perfbench/README.md`). Single-threaded
//! timings are scaled by the kernel's CPU time on the calling thread;
//! wall-clock timings of two-thread calls by the wall time of the kernel
//! running on two threads at once, which also sees how much of both vCPUs
//! the host gave.

use crate::clock::Clock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;

/// Nominal kernel times, one thread (CPU time) and two threads (wall
/// time): their medians on a 2-vCPU KVM guest (Xeon). Corrected timings
/// are in seconds of that host at that speed.
const NOMINAL_S: f64 = 0.011;
const NOMINAL_PAIR_S: f64 = 0.016;
/// How strongly timings follow the kernel's speed.
const EXPONENT: f64 = 0.75;

const SETS: usize = 1 << 17;
const KEYS: u32 = 1 << 18;
const OPS: u32 = 1 << 18;

/// Fixed hasher keys: the same probe sequence in every process.
type Counts = HashMap<u32, u32, BuildHasherDefault<DefaultHasher>>;

/// One kernel's memory, allocated once so that it measures memory speed,
/// not page faults; and its result, which every later run must repeat.
type State = Mutex<Option<(Vec<u32>, Counts, u64)>>;
static STATE: State = Mutex::new(None);
static PAIR_STATE: State = Mutex::new(None);

/// The correction factors of one bracketed stretch of work.
#[derive(Debug, Clone, Copy)]
pub struct Factors {
    /// For single-threaded timings on the CPU clock.
    pub cpu: f64,
    /// For two-thread timings on the wall clock.
    pub pair: f64,
}

/// Kernel times taken around a stretch of work.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// CPU seconds of the kernel on the calling thread.
    pub cpu_s: f64,
    /// Wall seconds of the kernel on two threads at once.
    pub pair_s: f64,
}

impl Reference {
    /// Runs the kernel on the calling thread, then on two threads at once.
    pub fn take() -> Self {
        let cpu_s = run(&STATE);
        let (_, pair_s) = Clock::Wall.time(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| run(&PAIR_STATE));
                run(&STATE);
            })
        });
        Self { cpu_s, pair_s }
    }

    /// The factors that scale timings taken between `self` and `after` to
    /// the nominal host speed.
    pub fn factors(self, after: Reference) -> Factors {
        Factors {
            cpu: (2.0 * NOMINAL_S / (self.cpu_s + after.cpu_s)).powf(EXPONENT),
            pair: (2.0 * NOMINAL_PAIR_S / (self.pair_s + after.pair_s)).powf(EXPONENT),
        }
    }
}

/// Runs one kernel on the calling thread; returns its CPU seconds.
fn run(state: &State) -> f64 {
    let mut state = state.lock().expect("the kernel does not panic");
    let (parent, counts, digest) = state.get_or_insert_with(|| {
        let mut parent = vec![0; SETS];
        let mut counts = Counts::default();
        let digest = kernel(&mut parent, &mut counts);
        (parent, counts, digest)
    });
    let (again, seconds) = Clock::Cpu.time(|| kernel(parent, counts));
    assert_eq!(again, *digest, "the reference kernel is deterministic");
    seconds
}

fn kernel(parent: &mut [u32], counts: &mut Counts) -> u64 {
    for (i, p) in parent.iter_mut().enumerate() {
        *p = i as u32;
    }
    counts.clear();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = find(parent, (x as usize) % SETS);
        let b = find(parent, ((x >> 32) as usize) % SETS);
        if a != b {
            parent[a.max(b)] = a.min(b) as u32;
        }
        *counts.entry((x >> 20) as u32 % KEYS).or_insert(0) += 1;
    }
    let roots = parent
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p as usize == i)
        .count() as u64;
    std::hint::black_box(roots.wrapping_mul(31).wrapping_add(counts.len() as u64))
}

fn find(parent: &mut [u32], mut i: usize) -> usize {
    while parent[i] as usize != i {
        let grand = parent[parent[i] as usize];
        parent[i] = grand;
        i = grand as usize;
    }
    i
}
