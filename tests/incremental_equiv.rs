//! Incremental re-detection ≡ full from-scratch detection.
//!
//! The acceptance property: for random generated programs split at random
//! append points, storing the prefix, detecting (`Config::replay_stored`),
//! appending the suffix and re-detecting **incrementally** yields a report
//! byte-identical to cold full detection of the extended trace — at
//! P ∈ {1, 4}, for both freezable algorithms, in both future regimes,
//! including multi-chunk append chains.

use futurerd::{par_replay_detect, Config, DetectionPath, Store, Trace};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_runtime::trace::record_spec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every call gets its own directory: the two `#[test]`s run concurrently
/// in one process, so a shared dir would let one test wipe the other's
/// live store mid-run.
fn temp_store(tag: &str) -> Store {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "futurerd-increq-{}-{tag}-{unique}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    Store::open(dir).expect("store opens")
}

/// Stores `trace[..cut]`, detects, appends the rest in `chunks` pieces
/// re-detecting after each, and checks the final report against cold
/// detection of the full trace.
fn check_split(
    trace: &Trace,
    cut: usize,
    chunks: usize,
    algorithm: ReplayAlgorithm,
    threads: usize,
    context: &str,
) {
    let mut store = temp_store("case");
    let config = Config::new().algorithm(algorithm).threads(threads);
    let mut prefix = Trace::new();
    prefix.extend_events(&trace.events()[..cut]);
    store.put_trace("t", &prefix).expect("prefix is canonical");
    let first = config
        .replay_stored(&mut store, "t")
        .expect("prefix detects");
    assert_eq!(first.path, Some(DetectionPath::Cold), "{context}");

    // Append the suffix in `chunks` roughly equal pieces, re-detecting
    // after each append (every re-detection must take the incremental
    // path — the sidecar is valid for the previous prefix).
    let suffix = &trace.events()[cut..];
    let chunk = suffix.len().div_ceil(chunks.max(1)).max(1);
    let mut last = None;
    for (i, piece) in suffix.chunks(chunk).enumerate() {
        let (_, complete) = store.append_events("t", piece).expect("append validates");
        let detection = config
            .replay_stored(&mut store, "t")
            .expect("incremental detects");
        assert!(
            matches!(detection.path, Some(DetectionPath::Incremental { .. })),
            "{context} chunk {i}: {:?}",
            detection.path
        );
        last = Some((detection, complete));
    }
    let (last, complete) = match last {
        Some(last) => last,
        None => return, // cut == len: nothing to append
    };
    assert!(complete, "{context}: full trace must be complete");

    // Byte-identical to the cold two-pass engine on the extended trace.
    let cold = par_replay_detect(trace, algorithm, threads).expect("canonical");
    assert_eq!(last.report(), &cold, "{context}");
    assert_eq!(last.report().to_string(), cold.to_string(), "{context}");

    // And the refreshed sidecar is warm for the extended trace.
    let warm = config.replay_stored(&mut store, "t").expect("warm");
    assert_eq!(warm.path, Some(DetectionPath::WarmCached), "{context}");
    assert_eq!(warm.report(), &cold, "{context}");
    let stats = store.stats();
    assert_eq!(stats.invalidated_sidecars, 0, "{context}");
    assert!(stats.incremental_refreezes >= 1, "{context}");
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn prop_incremental_equals_full_detection() {
    let mut rng = StdRng::seed_from_u64(0x57_0e_e1);
    for case in 0..24 {
        let seed: u64 = rng.gen();
        let general: bool = rng.gen();
        let cfg = GenConfig {
            max_depth: rng.gen_range(2u32..7),
            max_actions: rng.gen_range(2u32..9),
            num_locations: rng.gen_range(1u32..20),
            general_futures: general,
            ..GenConfig::structured()
        };
        let spec = generate_program(&cfg, seed);
        let (trace, _) = record_spec(&spec);
        let cut = rng.gen_range(0..trace.len());
        let chunks = rng.gen_range(1usize..4);
        let algorithm = if rng.gen() {
            ReplayAlgorithm::MultiBags
        } else {
            ReplayAlgorithm::MultiBagsPlus
        };
        for threads in [1usize, 4] {
            check_split(
                &trace,
                cut,
                chunks,
                algorithm,
                threads,
                &format!(
                    "case {case} seed {seed} general {general} cut {cut}/{} chunks {chunks} {algorithm} P={threads}",
                    trace.len()
                ),
            );
        }
    }
}

/// Every cut point of one small program, both algorithms — the exhaustive
/// complement to the randomized sweep above.
#[test]
fn incremental_equals_full_at_every_cut_of_a_small_program() {
    let spec = generate_program(
        &GenConfig {
            max_depth: 3,
            max_actions: 4,
            num_locations: 4,
            general_futures: true,
            ..GenConfig::structured()
        },
        11,
    );
    let (trace, _) = record_spec(&spec);
    for cut in 0..trace.len() {
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            check_split(
                &trace,
                cut,
                1,
                algorithm,
                1,
                &format!("exhaustive cut {cut}/{} {algorithm}", trace.len()),
            );
        }
    }
}
