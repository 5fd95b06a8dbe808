//! Byte-identity of the work-assisted pass-1 freeze: freezing through
//! [`IncrementalFreezer::extend_assisted`] must produce the **same frozen
//! state, bit for bit**, as the sequential freeze — at every worker count,
//! on every fuzz shape, for both freezable algorithms.
//!
//! The comparison is the raw export ([`IncrementalFreezer::to_raw`]), which
//! carries the closure rows, every bag/DNSP timeline, and the live resume
//! state (disjoint-set shortcuts, per-function first strands); the raw
//! forms are `Eq`, so `assert_eq!` is the whole oracle. The closure's
//! adjacency lists are not exported (they rebuild deterministically from
//! the rows) — the resume tests below cover them instead, by *continuing*
//! to freeze on top of an assisted prefix: any adjacency corruption would
//! mis-stamp the suffix's arcs and diverge the exported rows.
//!
//! Assists here run with `min_batch = 1` and single-stamp work units, so
//! every arc of every trace goes through the chunked batch stage — the
//! worst case for scheduling races, which is the point.
//!
//! `FUTURERD_PAR_THREADS=<n>` restricts the run to a single worker count —
//! CI uses this to exercise 2 and 8 workers in separate steps.

use futurerd_core::parallel::{FreezeAssist, IncrementalFreezer, RawFreeze, StdExecutor};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use futurerd_workloads::fuzzgen::{generate_shaped, FuzzShape};

const SEEDS_PER_SHAPE: u64 = 4;
const ALGORITHMS: [ReplayAlgorithm; 2] =
    [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus];

fn thread_counts() -> Vec<usize> {
    match std::env::var("FUTURERD_PAR_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("FUTURERD_PAR_THREADS must be a thread count")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn shaped_trace(shape: FuzzShape, seed: u64) -> Trace {
    let program = generate_shaped(shape, seed);
    let (trace, _) = record_spec(&program.spec);
    trace
}

fn sequential_raw(trace: &Trace, algorithm: ReplayAlgorithm) -> RawFreeze {
    let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
    freezer.extend(trace.events());
    freezer.to_raw()
}

/// An assist that forces *every* arc through the batch stage in
/// single-stamp units — maximal chunking, maximal contention.
fn stress_assist(workers: usize, executor: &StdExecutor) -> FreezeAssist<'_> {
    FreezeAssist::new(workers, executor)
        .with_min_batch(1)
        .with_unit_target(1)
}

#[test]
fn assisted_freeze_is_byte_identical_on_every_fuzz_shape() {
    let executor = StdExecutor;
    for shape in FuzzShape::ALL {
        for seed in 0..SEEDS_PER_SHAPE {
            let trace = shaped_trace(shape, seed);
            for algorithm in ALGORITHMS {
                let expected = sequential_raw(&trace, algorithm);
                for workers in thread_counts() {
                    let mut freezer =
                        IncrementalFreezer::new(algorithm).expect("freezable algorithm");
                    freezer.extend_assisted(trace.events(), &stress_assist(workers, &executor));
                    assert_eq!(
                        freezer.to_raw(),
                        expected,
                        "{shape:?} seed {seed}: {algorithm} assisted freeze \
                         diverged at P={workers}"
                    );
                }
            }
        }
    }
}

#[test]
fn assisted_freeze_is_byte_identical_at_production_thresholds() {
    // Default min-batch / unit-target: most arcs stay sequential, only
    // genuinely large batches dispatch — the configuration production
    // paths (session ingest, stored-session reports) actually run.
    let executor = StdExecutor;
    for shape in [FuzzShape::General, FuzzShape::AdversarialKn] {
        let trace = shaped_trace(shape, 7);
        for algorithm in ALGORITHMS {
            let expected = sequential_raw(&trace, algorithm);
            for workers in thread_counts() {
                let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
                freezer.extend_assisted(trace.events(), &FreezeAssist::new(workers, &executor));
                assert_eq!(
                    freezer.to_raw(),
                    expected,
                    "{shape:?}: {algorithm} diverged at P={workers} with default thresholds"
                );
            }
        }
    }
}

#[test]
fn executor_free_fallback_is_byte_identical() {
    // No executor attached: batches above the threshold drain through the
    // pull-based ChunkIter on the calling thread — the no-pool fallback.
    let assist = FreezeAssist::sequential()
        .with_min_batch(1)
        .with_unit_target(1);
    for shape in FuzzShape::ALL {
        let trace = shaped_trace(shape, 11);
        for algorithm in ALGORITHMS {
            let expected = sequential_raw(&trace, algorithm);
            let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
            freezer.extend_assisted(trace.events(), &assist);
            assert_eq!(
                freezer.to_raw(),
                expected,
                "{shape:?}: {algorithm} ChunkIter fallback diverged"
            );
        }
    }
}

#[test]
fn chunked_assisted_extends_match_one_sequential_freeze() {
    // Feed the stream in small chunks through the assisted path — the
    // session-ingest shape — and compare against one whole-trace
    // sequential freeze at every chunk boundary's end state.
    let executor = StdExecutor;
    for shape in [FuzzShape::Speculation, FuzzShape::PlantedRaces] {
        let trace = shaped_trace(shape, 3);
        for algorithm in ALGORITHMS {
            let expected = sequential_raw(&trace, algorithm);
            for workers in thread_counts() {
                let assist = stress_assist(workers, &executor);
                let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
                for chunk in trace.events().chunks(7) {
                    freezer.extend_assisted(chunk, &assist);
                }
                assert_eq!(
                    freezer.to_raw(),
                    expected,
                    "{shape:?}: {algorithm} chunked assisted extend diverged at P={workers}"
                );
            }
        }
    }
}

#[test]
fn sequential_resume_on_an_assisted_prefix_stays_identical() {
    // Adjacency-list integrity: the raw export does not carry the closure's
    // adjacency lists, but the *suffix* freeze consumes them (every new arc
    // iterates the accumulated ancestor/descendant lists). Freezing a
    // prefix assisted and the rest sequentially must therefore still land
    // on the sequential end state — it cannot unless the assisted prefix
    // left the exact sequential adjacency behind.
    let executor = StdExecutor;
    for shape in [
        FuzzShape::General,
        FuzzShape::Pipeline,
        FuzzShape::AdversarialKn,
    ] {
        let trace = shaped_trace(shape, 5);
        let cut = trace.len() / 2;
        for algorithm in ALGORITHMS {
            let expected = sequential_raw(&trace, algorithm);
            for workers in thread_counts() {
                let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
                freezer.extend_assisted(&trace.events()[..cut], &stress_assist(workers, &executor));
                freezer.extend(&trace.events()[cut..]);
                assert_eq!(
                    freezer.to_raw(),
                    expected,
                    "{shape:?}: {algorithm} sequential resume after assisted \
                     prefix diverged at P={workers}"
                );
            }
        }
    }
}
