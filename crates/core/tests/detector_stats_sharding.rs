//! The `DetectorStats` sharding contract (see the `shadow_pages` field
//! docs in `futurerd_core::stats`): summing per-worker counters reproduces
//! the sequential detector's statistics **field-for-field, except
//! `shadow_pages`**, on both parallel engines.
//!
//! * Pass-2 partitions (`merge_outcomes_stats`): pages are per-partition
//!   tables keyed by the global granule, so a page straddling a partition
//!   boundary is counted once per partition touching it. A sharded run may
//!   therefore report more pages than the sequential detector, never
//!   fewer, and exactly as many when a single partition covers the whole
//!   granule space.
//! * One-shot workers (`par_replay_with`): each keeps every `P`-th granule
//!   in consecutive slots of its own table, so the page total depends on
//!   how the touched pages line up and is not pinned here (the one-shot
//!   worker tests bound it on a dense array).

use futurerd_core::detector::RaceDetector;
use futurerd_core::parallel::{
    detect_frozen_outcomes, merge_outcomes_stats, par_replay_with, IncrementalFreezer, StdExecutor,
};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_core::stats::DetectorStats;
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::record_spec;

fn sequential_stats(trace: &Trace, algorithm: ReplayAlgorithm) -> DetectorStats {
    let (_, _, stats) = match algorithm {
        ReplayAlgorithm::MultiBags => trace
            .replay(RaceDetector::<futurerd_core::reachability::MultiBags>::structured())
            .into_parts(),
        ReplayAlgorithm::MultiBagsPlus => trace
            .replay(RaceDetector::<futurerd_core::reachability::MultiBagsPlus>::general())
            .into_parts(),
        other => panic!("unfreezable algorithm in sharding test: {other}"),
    };
    stats
}

fn sharded_stats(trace: &Trace, algorithm: ReplayAlgorithm, threads: usize) -> DetectorStats {
    let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable algorithm");
    freezer.extend(trace.events());
    let index = freezer.snapshot_index();
    let outcomes = detect_frozen_outcomes(&index, freezer.accesses(), threads, &StdExecutor);
    let (_, stats) = merge_outcomes_stats(outcomes);
    stats
}

fn one_shot_stats(trace: &Trace, algorithm: ReplayAlgorithm, threads: usize) -> DetectorStats {
    let (_, detected) =
        par_replay_with(trace, algorithm, threads, &StdExecutor).expect("canonical trace");
    detected.expect("a paper algorithm").1
}

/// Every seeded trace, with the algorithms meant for its regime.
fn cases() -> Vec<(String, Trace, ReplayAlgorithm)> {
    let mut cases = Vec::new();
    for (config, tag) in [
        (GenConfig::structured(), "structured"),
        (GenConfig::general(), "general"),
    ] {
        for seed in 0..8u64 {
            let spec = generate_program(&config, seed);
            let (trace, _) = record_spec(&spec);
            for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
                if tag == "general" && algorithm == ReplayAlgorithm::MultiBags {
                    // MultiBags is unsound on general futures; its stats
                    // still shard consistently, but keep the matrix to the
                    // regimes each algorithm is meant for.
                    continue;
                }
                cases.push((
                    format!("{tag} seed {seed} {algorithm}"),
                    trace.clone(),
                    algorithm,
                ));
            }
        }
    }
    cases
}

/// Every field but `shadow_pages` equals the sequential detector's.
fn assert_counters_match(par: DetectorStats, seq: DetectorStats, ctx: &str) {
    assert_eq!(par.read_checks, seq.read_checks, "{ctx}: read_checks");
    assert_eq!(par.write_checks, seq.write_checks, "{ctx}: write_checks");
    assert_eq!(
        par.readers_recorded, seq.readers_recorded,
        "{ctx}: readers_recorded"
    );
    assert_eq!(
        par.readers_cleared, seq.readers_cleared,
        "{ctx}: readers_cleared"
    );
    assert_eq!(par.races_found, seq.races_found, "{ctx}: races_found");
}

#[test]
fn sharded_stats_equal_sequential_except_shadow_pages() {
    for (tag, trace, algorithm) in cases() {
        let seq = sequential_stats(&trace, algorithm);
        for threads in [1, 2, 3, 8] {
            let par = sharded_stats(&trace, algorithm, threads);
            let ctx = format!("{tag} P={threads}");
            assert_counters_match(par, seq, &ctx);
            assert!(
                par.shadow_pages >= seq.shadow_pages,
                "{ctx}: sharding can only duplicate boundary pages \
                 (par {} < seq {})",
                par.shadow_pages,
                seq.shadow_pages
            );
            if threads == 1 {
                assert_eq!(
                    par.shadow_pages, seq.shadow_pages,
                    "{ctx}: one partition sees every page exactly once"
                );
            }
        }
    }
}

#[test]
fn one_shot_stats_equal_sequential_except_shadow_pages() {
    for (tag, trace, algorithm) in cases() {
        let seq = sequential_stats(&trace, algorithm);
        // One thread is the single pass itself.
        assert_eq!(one_shot_stats(&trace, algorithm, 1), seq, "{tag} P=1");
        for threads in [2, 3, 8] {
            let par = one_shot_stats(&trace, algorithm, threads);
            assert_counters_match(par, seq, &format!("{tag} P={threads}"));
        }
    }
}
