//! Determinism of the parallel detection engine: one-shot parallel replay
//! (`par_replay_detect_with`, at exactly the worker count asked for, past
//! the core count too) must produce a report **byte-identical** to
//! sequential `replay_detect` at every worker count, for every freezable
//! algorithm, on every trace.
//!
//! The property is checked over seeded generated programs in both regimes
//! (structured and general futures — the latter includes multi-touch
//! handles, where MultiBags is *unsound* and the frozen index must
//! reproduce the live algorithm's divergent answers, not ground truth),
//! plus randomized generator shapes. Reports are compared with `==`
//! (witness order, racy-granule set, observation totals) *and* by their
//! rendered form.

use futurerd_core::parallel::{par_replay_detect, par_replay_detect_with, StdExecutor};
use futurerd_core::replay::{replay_detect, ReplayAlgorithm};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 40;

/// The worker counts every trace is checked at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn assert_deterministic(trace: &Trace, context: &std::fmt::Arguments<'_>) {
    for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
        let sequential = replay_detect(trace, algorithm).expect("recorded traces are canonical");
        for threads in THREAD_COUNTS {
            let parallel = par_replay_detect_with(trace, algorithm, threads, &StdExecutor)
                .expect("same trace, same validation");
            assert_eq!(
                parallel, sequential,
                "{context}: {algorithm} diverged at P={threads}"
            );
            assert_eq!(
                parallel.to_string(),
                sequential.to_string(),
                "{context}: {algorithm} rendering diverged at P={threads}"
            );
        }
    }
}

fn check_config(config: &GenConfig, tag: &str) {
    for seed in 0..SEEDS {
        let spec = generate_program(config, seed);
        let (trace, _) = record_spec(&spec);
        assert_deterministic(&trace, &format_args!("{tag} seed {seed}"));
    }
}

#[test]
fn parallel_detection_is_deterministic_on_structured_programs() {
    check_config(&GenConfig::structured(), "structured");
}

#[test]
fn parallel_detection_is_deterministic_on_general_programs() {
    check_config(&GenConfig::general(), "general");
}

/// Arbitrary generator shapes, both regimes, including location-starved
/// programs (heavy per-granule contention) and deep nesting (long bag merge
/// chains in the frozen timeline).
#[test]
fn prop_parallel_detection_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x9a11_de7e);
    for case in 0..32 {
        let seed: u64 = rng.gen();
        let general: bool = rng.gen();
        let cfg = GenConfig {
            max_depth: rng.gen_range(2u32..8),
            max_actions: rng.gen_range(2u32..10),
            num_locations: rng.gen_range(1u32..24),
            general_futures: general,
            ..GenConfig::structured()
        };
        let spec = generate_program(&cfg, seed);
        let (trace, _) = record_spec(&spec);
        assert_deterministic(
            &trace,
            &format_args!("prop case {case} seed {seed} general {general}"),
        );
    }
}

/// The frozen fallback path (no frozen form) must be identical too.
#[test]
fn parallel_detection_matches_sequential_for_fallback_algorithms() {
    let spec = generate_program(&GenConfig::general(), 3);
    let (trace, _) = record_spec(&spec);
    for algorithm in [
        ReplayAlgorithm::SpBagsConservative,
        ReplayAlgorithm::GraphOracle,
    ] {
        let sequential = replay_detect(&trace, algorithm).expect("canonical");
        let parallel = par_replay_detect(&trace, algorithm, 4).expect("canonical");
        assert_eq!(parallel, sequential, "{algorithm}");
    }
}
