//! Replays the committed regression corpus in `tests/fixtures/` on every
//! `cargo test` run: each minimized trace must keep its recorded
//! ground-truth verdict, the differential matrix must stay free of real
//! bugs on it, and the parallel engine, sessions and the store must stay
//! byte-identical to sequential replay.

use futurerd::{Config, Store};
use futurerd_core::parallel::par_replay_detect;
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::trace::Trace;
use futurerd_fuzz::classify_sequential;
use futurerd_fuzz::fixture::load_fixtures;
use futurerd_fuzz::DivergenceKind;
use std::collections::BTreeSet;
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

#[test]
fn committed_corpus_covers_the_required_regimes() {
    let fixtures = load_fixtures(&corpus_dir()).expect("tests/fixtures must load");
    assert!(
        fixtures.len() >= 10,
        "the committed corpus holds at least 10 fixtures, found {}",
        fixtures.len()
    );
    let shapes: BTreeSet<&str> = fixtures.iter().map(|f| f.expect.shape.as_str()).collect();
    for required in [
        "structured",
        "general",
        "pipeline",
        "speculation",
        "planted",
        "kn",
    ] {
        assert!(shapes.contains(required), "no {required} fixture committed");
    }
    // The k≈n fixtures keep their adversarial regime: futures touched more
    // than once, so MultiBags+ pays its attached-bag machinery.
    for fixture in fixtures.iter().filter(|f| f.expect.shape == "kn") {
        assert!(fixture.trace.has_futures(), "{}", fixture.name);
        assert!(!fixture.trace.is_single_touch(), "{}", fixture.name);
    }
}

#[test]
fn every_fixture_keeps_its_recorded_verdict() {
    for fixture in load_fixtures(&corpus_dir()).expect("tests/fixtures must load") {
        let name = &fixture.name;
        fixture
            .trace
            .validate()
            .unwrap_or_else(|e| panic!("{name}: fixture trace not canonical: {e}"));
        assert_eq!(fixture.trace.len(), fixture.expect.events, "{name}");
        let oracle = replay_detect_unchecked(&fixture.trace, ReplayAlgorithm::GraphOracle);
        assert_eq!(oracle.race_count(), fixture.expect.oracle_races, "{name}");
        let mut granules: Vec<u64> = oracle.racy_granules().collect();
        granules.sort_unstable();
        assert_eq!(granules, fixture.expect.racy_granules, "{name}");
    }
}

#[test]
fn every_fixture_fuzzes_clean_and_parallel_matches_sequential() {
    for fixture in load_fixtures(&corpus_dir()).expect("tests/fixtures must load") {
        let name = &fixture.name;
        for divergence in classify_sequential(&fixture.trace, None) {
            assert_eq!(
                divergence.kind,
                DivergenceKind::KnownApproximation,
                "{name}: {divergence}"
            );
        }
        for algorithm in ReplayAlgorithm::ALL {
            if !algorithm.runnable_for(&fixture.trace) {
                continue;
            }
            let sequential = replay_detect_unchecked(&fixture.trace, algorithm);
            let parallel = par_replay_detect(&fixture.trace, algorithm, 2)
                .unwrap_or_else(|e| panic!("{name}: parallel {algorithm} failed: {e}"));
            assert_eq!(parallel, sequential, "{name}: {algorithm} P=2 diverged");
        }
    }
}

#[test]
fn every_fixture_matches_sequential_through_sessions_and_the_store() {
    let dir = std::env::temp_dir().join(format!("futurerd-corpus-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = Store::open(&dir).expect("store opens");
    for fixture in load_fixtures(&corpus_dir()).expect("tests/fixtures must load") {
        let (name, trace) = (&fixture.name, &fixture.trace);
        let events = trace.events();
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let sequential = replay_detect_unchecked(trace, algorithm);
            // A session reporting after every event: each report is the
            // sequential verdict on its prefix, resumed from the last.
            for threads in [1, 2] {
                let tag = format!("{name} {algorithm} P={threads}");
                let mut session = Config::new()
                    .algorithm(algorithm.into())
                    .threads(threads)
                    .session();
                for (at, event) in events.iter().enumerate() {
                    session
                        .ingest(std::slice::from_ref(event))
                        .expect("canonical");
                    let report = session.report().expect("prefix reports");
                    let mut prefix = Trace::new();
                    prefix.extend_events(&events[..=at]);
                    assert_eq!(
                        report.report(),
                        &replay_detect_unchecked(&prefix, algorithm),
                        "{tag}: prefix of {} events",
                        at + 1
                    );
                }
            }
            // The store, through stored sessions: cold, warm, and
            // incremental after an append.
            let stored = Config::new().algorithm(algorithm.into()).threads(2);
            let entry = format!("{name}-{}", algorithm.name().replace('+', "p"));
            let cut = events.len() / 2;
            let mut prefix = Trace::new();
            prefix.extend_events(&events[..cut]);
            store.put_trace(&entry, &prefix).expect("stores");
            stored
                .replay_stored(&mut store, &entry)
                .expect("cold prefix");
            store
                .append_events(&entry, &events[cut..])
                .expect("appends");
            let incremental = stored
                .replay_stored(&mut store, &entry)
                .expect("incremental");
            let warm = stored.replay_stored(&mut store, &entry).expect("warm");
            assert_eq!(
                incremental.report(),
                &sequential,
                "{name} {algorithm}: incremental"
            );
            assert_eq!(warm.report(), &sequential, "{name} {algorithm}: warm");
            let path = warm.path.expect("stored reports carry their path");
            assert!(path.is_warm(), "{name} {algorithm}: {path}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_escape_fixture_documents_the_multibags_regime_boundary() {
    // escape-031 is the trace the fuzzer found when `sound_for` still
    // equated "structured" with "single-touch": a single-touch handle
    // escapes its creating task's scope, and MultiBags reports a race the
    // oracle disproves. It must stay classified as a known approximation —
    // and keep disagreeing, so the regime boundary stays documented.
    let fixtures = load_fixtures(&corpus_dir()).expect("tests/fixtures must load");
    let fixture = fixtures
        .iter()
        .find(|f| f.name == "escape-031")
        .expect("the escape-031 fixture is committed");
    assert!(fixture.trace.is_single_touch());
    assert!(!fixture.trace.is_structured());
    assert!(!ReplayAlgorithm::MultiBags.sound_for(&fixture.trace));
    let multibags = replay_detect_unchecked(&fixture.trace, ReplayAlgorithm::MultiBags);
    let oracle = replay_detect_unchecked(&fixture.trace, ReplayAlgorithm::GraphOracle);
    let mb: BTreeSet<u64> = multibags.racy_granules().collect();
    let or: BTreeSet<u64> = oracle.racy_granules().collect();
    assert_ne!(mb, or, "the false positive must keep reproducing");
    assert!(or.is_empty() && !mb.is_empty(), "spurious, not missed");
}
