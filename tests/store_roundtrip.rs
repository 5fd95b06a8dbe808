//! Warm-vs-cold equivalence of stored detection.
//!
//! The acceptance property: a stored replay (`Config::replay_stored`) served
//! from a frozen `FRDIDX` sidecar ("warm") produces a report
//! **byte-identical** to from-scratch two-pass detection ("cold",
//! `par_replay_detect`) for every freezable algorithm at P ∈ {1, 2, 8} —
//! over seeded generated programs in both future regimes. Reports are
//! compared with `==` *and* by rendered form.

use futurerd::{par_replay_detect, Config, Detection, DetectionPath, Store};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_runtime::trace::record_spec;

fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!("futurerd-roundtrip-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Store::open(dir).expect("store opens")
}

/// One stored replay of `name` under `algorithm` with `threads` workers.
fn replay_stored(
    store: &mut Store,
    name: &str,
    algorithm: ReplayAlgorithm,
    threads: usize,
) -> Detection<()> {
    Config::new()
        .algorithm(algorithm)
        .threads(threads)
        .replay_stored(store, name)
        .expect("store detects")
}

const SEEDS: u64 = 12;
const THREADS: [usize; 3] = [1, 2, 8];

fn check_config(config: &GenConfig, tag: &str) {
    let mut store = temp_store(tag);
    for seed in 0..SEEDS {
        let spec = generate_program(config, seed);
        let (trace, _) = record_spec(&spec);
        let name = format!("{tag}-{seed}");
        let (_, complete) = store.put_trace(&name, &trace).expect("trace stores");
        assert!(complete);
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            for (round, &threads) in THREADS.iter().enumerate() {
                let cold = par_replay_detect(&trace, algorithm, threads)
                    .expect("recorded traces are canonical");
                let stored = replay_stored(&mut store, &name, algorithm, threads);
                assert_eq!(
                    stored.report(),
                    &cold,
                    "{tag} seed {seed} {algorithm} P={threads}"
                );
                assert_eq!(
                    stored.report().to_string(),
                    cold.to_string(),
                    "{tag} seed {seed} {algorithm} P={threads} (rendered)"
                );
                if round == 0 {
                    assert_eq!(
                        stored.path,
                        Some(DetectionPath::Cold),
                        "first request freezes"
                    );
                } else {
                    assert!(
                        stored.path.is_some_and(DetectionPath::is_warm),
                        "later requests must be warm, got {:?}",
                        stored.path
                    );
                }
            }
        }
    }
    let stats = store.stats();
    assert_eq!(stats.cold_freezes, SEEDS * 2, "one cold freeze per sidecar");
    assert_eq!(
        stats.warm_cached_hits,
        SEEDS * 2 * (THREADS.len() as u64 - 1),
        "every later request is fully cached"
    );
    assert_eq!(stats.invalidated_sidecars, 0);
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn warm_equals_cold_on_structured_programs() {
    check_config(&GenConfig::structured(), "structured");
}

#[test]
fn warm_equals_cold_on_general_programs() {
    check_config(&GenConfig::general(), "general");
}

/// The sidecar must survive the full filesystem round trip across store
/// instances (a new process opening the same directory).
#[test]
fn warm_path_survives_store_reopen() {
    let spec = generate_program(&GenConfig::general(), 7);
    let (trace, _) = record_spec(&spec);
    let mut first = temp_store("reopen");
    let root = first.root().to_path_buf();
    first.put_trace("t", &trace).expect("stores");
    let cold = replay_stored(&mut first, "t", ReplayAlgorithm::MultiBagsPlus, 2);
    drop(first);

    let mut second = Store::open(&root).expect("reopens");
    let warm = replay_stored(&mut second, "t", ReplayAlgorithm::MultiBagsPlus, 2);
    assert_eq!(warm.path, Some(DetectionPath::WarmCached));
    assert_eq!(warm.report(), cold.report());
    assert_eq!(second.stats().cold_freezes, 0);
    std::fs::remove_dir_all(&root).ok();
}

/// Each algorithm gets its own sidecar; serving one never invalidates the
/// other.
#[test]
fn per_algorithm_sidecars_are_independent() {
    let spec = generate_program(&GenConfig::structured(), 3);
    let (trace, _) = record_spec(&spec);
    let mut store = temp_store("peralgo");
    store.put_trace("t", &trace).expect("stores");
    replay_stored(&mut store, "t", ReplayAlgorithm::MultiBags, 1);
    replay_stored(&mut store, "t", ReplayAlgorithm::MultiBagsPlus, 1);
    let mb = replay_stored(&mut store, "t", ReplayAlgorithm::MultiBags, 1);
    let mbp = replay_stored(&mut store, "t", ReplayAlgorithm::MultiBagsPlus, 1);
    assert!(mb.path.is_some_and(DetectionPath::is_warm));
    assert!(mbp.path.is_some_and(DetectionPath::is_warm));
    assert!(store.sidecar_path("t", ReplayAlgorithm::MultiBags).exists());
    assert!(store
        .sidecar_path("t", ReplayAlgorithm::MultiBagsPlus)
        .exists());
    std::fs::remove_dir_all(store.root()).ok();
}
