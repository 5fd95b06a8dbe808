//! Integration tests of the `futurerd` facade: the one-call entry points and
//! the `Config` builder must agree with the underlying crates driven
//! directly, across real workloads.

use futurerd::{Algorithm, Analysis, Config, DetectionPath, ReachStats, Trace};
use futurerd_core::detector::RaceDetector;
use futurerd_core::reachability::{MultiBags, MultiBagsPlus};
use futurerd_core::replay::{replay_detect, replay_observer, ReplayAlgorithm};
use futurerd_runtime::run_program;
use futurerd_workloads::{lcs, mm};

#[path = "support/fixtures.rs"]
mod fixtures;
use fixtures::fixture_traces;

/// The reachability stats of the paper's single pass, driven directly.
fn single_pass_reach_stats(trace: &Trace, algorithm: ReplayAlgorithm) -> ReachStats {
    let stats = match algorithm {
        ReplayAlgorithm::MultiBags => {
            replay_observer(trace, RaceDetector::new(MultiBags::new())).map(|d| d.reach_stats())
        }
        ReplayAlgorithm::MultiBagsPlus => {
            replay_observer(trace, RaceDetector::new(MultiBagsPlus::new())).map(|d| d.reach_stats())
        }
        other => panic!("{other} is not an engine algorithm"),
    };
    stats.expect("canonical trace")
}

#[test]
fn one_shot_replay_matches_sessions_and_replay_detect_on_the_fixture_corpus() {
    for (name, trace) in fixture_traces() {
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let sequential = replay_detect(&trace, algorithm).expect("canonical trace");
            for threads in [1, 2, 8] {
                let tag = format!("{name} {algorithm} P={threads}");
                let config = Config::new().algorithm(algorithm).threads(threads);
                let one_shot = config.replay(&trace).expect("canonical trace");
                let mut session = config.session();
                session.ingest(trace.events()).expect("canonical trace");
                let chunk = session.report().expect("complete stream reports");

                let rendered = one_shot.report().to_string();
                assert_eq!(rendered, chunk.report().to_string(), "{tag}: vs session");
                assert_eq!(rendered, sequential.to_string(), "{tag}: vs replay_detect");
                assert_eq!(one_shot.summary, chunk.summary, "{tag}");
                assert_eq!(one_shot.path, Some(DetectionPath::Cold), "{tag}");
                if threads == 1 {
                    // The single pass meters R like any sequential run, and
                    // its access history matches the P=1 engine's exactly.
                    assert_eq!(
                        one_shot.reach_stats,
                        Some(single_pass_reach_stats(&trace, algorithm)),
                        "{tag}"
                    );
                    assert_eq!(one_shot.detector_stats, chunk.detector_stats, "{tag}");
                } else {
                    assert_eq!(one_shot.reach_stats, None, "{tag}: engines do not meter R");
                }
            }
        }
    }
}

#[test]
fn facade_matches_direct_detector_on_lcs() {
    let input = lcs::LcsInput::generate(32, 11);

    let facade = futurerd::detect_structured(|cx| lcs::structured(cx, &input, 8));
    let (direct_value, direct_det, direct_summary) =
        run_program(RaceDetector::<MultiBags>::structured(), |cx| {
            lcs::structured(cx, &input, 8)
        });

    assert_eq!(facade.value, direct_value);
    assert_eq!(facade.summary, direct_summary);
    assert_eq!(
        facade.report().race_count(),
        direct_det.report().race_count()
    );
    assert!(facade.is_race_free());
}

#[test]
fn facade_general_matches_direct_detector_on_general_lcs() {
    let input = lcs::LcsInput::generate(32, 12);

    let facade = futurerd::detect_general(|cx| lcs::general(cx, &input, 8));
    let (direct_value, direct_det, _) =
        run_program(RaceDetector::<MultiBagsPlus>::general(), |cx| {
            lcs::general(cx, &input, 8)
        });

    assert_eq!(facade.value, direct_value);
    assert!(facade.is_race_free() && direct_det.report().is_race_free());
    let facade_stats = facade.reach_stats.unwrap();
    let direct_stats = direct_det.reach_stats();
    assert_eq!(facade_stats.queries, direct_stats.queries);
    assert_eq!(facade_stats.attached_sets, direct_stats.attached_sets);
}

#[test]
fn facade_finds_seeded_races_with_every_suitable_algorithm() {
    let input = lcs::LcsInput::generate(32, 13);
    for algorithm in [
        Algorithm::MultiBags,
        Algorithm::MultiBagsPlus,
        Algorithm::GraphOracle,
    ] {
        let d = Config::new()
            .algorithm(algorithm)
            .run(|cx| lcs::structured_with_race(cx, &input, 8));
        assert!(!d.is_race_free(), "{algorithm:?} missed the seeded race");
    }
}

#[test]
fn analysis_levels_form_a_strictly_widening_pipeline() {
    let input = mm::MmInput::generate(12, 3);

    let baseline = Config::general()
        .analysis(Analysis::Baseline)
        .run(|cx| mm::general(cx, &input, 4));
    let reach = Config::general()
        .analysis(Analysis::Reachability)
        .run(|cx| mm::general(cx, &input, 4));
    let instr = Config::general()
        .analysis(Analysis::Instrumentation)
        .run(|cx| mm::general(cx, &input, 4));
    let full = Config::general()
        .analysis(Analysis::Full)
        .run(|cx| mm::general(cx, &input, 4));

    // Same computation in every configuration.
    for d in [&reach, &instr, &full] {
        assert_eq!(d.value, baseline.value);
        assert_eq!(d.summary.strands, baseline.summary.strands);
    }

    // State grows monotonically with the analysis level.
    assert!(baseline.reach_stats.is_none() && baseline.report.is_none());
    assert!(reach.reach_stats.is_some() && reach.report.is_none());
    assert!(instr.reach_stats.is_some() && instr.report.is_none());
    assert!(full.reach_stats.is_some() && full.report.is_some());
    // Only the full detector issues reachability *queries* (from the access
    // history); the lighter analyses just maintain the structure.
    assert_eq!(reach.reach_stats.unwrap().queries, 0);
    assert!(full.reach_stats.unwrap().queries > 0);
    assert!(full.detector_stats.unwrap().write_checks > 0);
}
