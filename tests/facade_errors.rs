//! Error-path coverage of the facade: misuse at every entry point —
//! non-canonical streams, empty sessions, algorithm × trace mismatches,
//! corrupted on-disk state — returns a typed [`futurerd::Error`] (or a
//! sensible empty verdict), and never panics.

use futurerd::{record, Algorithm, Config, Cx, Error, Store, Trace, TraceError};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::trace::TraceEvent;
use futurerd_dag::{FunctionId, StrandId};

#[path = "support/fixtures.rs"]
mod fixtures;
use fixtures::fixture_traces;

fn racy_body(cx: &mut Cx) -> u32 {
    let mut cell = futurerd::ShadowCell::new(cx, 0u32);
    cx.spawn(|cx| cell.set(cx, 1));
    let v = cell.get(cx);
    cx.sync();
    v
}

fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!(
        "futurerd-facade-errors-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    Store::open(dir).expect("store opens")
}

#[test]
fn ingest_rejects_non_canonical_order_with_a_typed_error() {
    // A stream that does not open with ProgramStart violates the canonical
    // serial-DF invariant at position 0.
    let mut session = Config::structured().session();
    let err = session
        .ingest(&[TraceEvent::StrandStart {
            strand: StrandId(0),
            function: FunctionId(0),
        }])
        .expect_err("a headerless stream is not canonical");
    assert!(err.is_trace(), "{err}");
    // The session is poisoned at a known position; re-ingesting anything is
    // refused the same way, not accepted and not a panic.
    assert!(session
        .ingest(&[TraceEvent::ProgramStart {
            root: FunctionId(0),
            first: StrandId(0),
        }])
        .is_err());
    assert!(session.is_empty(), "nothing before the bad event is kept");
}

#[test]
fn mid_stream_corruption_keeps_the_valid_prefix_reporting() {
    let recorded = record(racy_body);
    let events = recorded.trace.events();
    let cut = events.len() / 2;
    let mut session = Config::structured().session();
    session.ingest(&events[..cut]).unwrap();
    // Replaying the stream from the top mid-stream is out of order.
    let err = session.ingest(events).expect_err("duplicate prefix");
    assert!(err.is_trace(), "{err}");
    // The prefix ingested before the corruption still serves reports.
    let detection = session.report().expect("prefix reports stay available");
    assert_eq!(session.len(), cut);
    let _ = detection.race_count();
}

#[test]
fn report_on_an_empty_session_is_an_empty_verdict_not_a_panic() {
    for config in [
        Config::structured(),
        Config::general(),
        Config::new().algorithm(Algorithm::GraphOracle),
        Config::new().algorithm(Algorithm::SpBags),
        Config::structured().threads(4),
    ] {
        let mut session = config.session();
        let detection = session
            .report()
            .expect("an empty execution has an empty verdict");
        assert_eq!(detection.race_count(), 0);
        assert!(detection.is_race_free());
    }
}

#[test]
fn spbags_on_futures_via_sessions_is_unsupported() {
    let futures = record(|cx| {
        let fut = cx.create_future(|_| 1u32);
        cx.get_future(fut)
    });
    let mut session = Config::new().algorithm(Algorithm::SpBags).session();
    // Ingest accepts the canonical stream — the algorithm × trace mismatch
    // surfaces at report time as a configuration refusal.
    session.ingest(futures.trace.events()).unwrap();
    let err = session.report().expect_err("SP-Bags has no future moves");
    assert!(err.is_unsupported(), "{err}");
    // The conservative variant consumes the same stream, marked approximate.
    let mut session = Config::new()
        .algorithm(Algorithm::SpBagsConservative)
        .session();
    session.ingest(futures.trace.events()).unwrap();
    let detection = session.report().unwrap();
    assert!(detection.report().is_approximate());
}

#[test]
fn open_session_on_a_missing_entry_is_a_store_error() {
    let mut store = temp_store("missing");
    let err = Config::structured()
        .open_session(&mut store, "never-put")
        .expect_err("no such entry");
    assert!(err.is_store(), "{err}");
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn corrupted_trace_file_is_a_typed_error_through_open_session() {
    let mut store = temp_store("bad-trace");
    store.put_trace("t", &record(racy_body).trace).unwrap();
    // Clobber the FRDTRACE container: bad magic, bad payload.
    std::fs::write(store.trace_path("t"), b"not a trace at all").unwrap();
    let err = Config::structured()
        .open_session(&mut store, "t")
        .expect_err("garbage is not a trace");
    assert!(err.is_trace() || err.is_store(), "{err}");
    // A truncated container (valid magic, cut payload) is also typed.
    let bytes = record(racy_body).trace.to_bytes();
    std::fs::write(store.trace_path("t"), &bytes[..bytes.len() / 2]).unwrap();
    let err = Config::structured()
        .open_session(&mut store, "t")
        .expect_err("a truncated trace must not decode");
    assert!(err.is_trace() || err.is_store(), "{err}");
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn corrupted_sidecar_falls_back_to_cold_with_the_right_verdict() {
    let recorded = record(racy_body);
    let mut store = temp_store("bad-sidecar");
    store.put_trace("t", &recorded.trace).unwrap();
    // First session persists an FRDIDX sidecar on report.
    let mut session = Config::structured().open_session(&mut store, "t").unwrap();
    let expected = session.report().unwrap();
    drop(session);
    let sidecar = store.sidecar_path("t", ReplayAlgorithm::MultiBags);
    assert!(sidecar.exists(), "report persisted the index");

    // Garbage sidecar: a re-opened session must treat it as absent (cold
    // resume), not crash or serve a wrong verdict from it.
    std::fs::write(&sidecar, b"FRDIDX?? definitely not an index").unwrap();
    let mut session = Config::structured().open_session(&mut store, "t").unwrap();
    let detection = session.report().expect("cold fallback still reports");
    assert_eq!(detection.race_count(), expected.race_count());
    assert_eq!(
        detection.report().to_string(),
        expected.report().to_string()
    );
    drop(session);

    // Truncated sidecar: same fallback.
    let bytes = std::fs::read(&sidecar).unwrap();
    std::fs::write(&sidecar, &bytes[..bytes.len().min(16)]).unwrap();
    let mut session = Config::structured().open_session(&mut store, "t").unwrap();
    assert_eq!(
        session.report().unwrap().race_count(),
        expected.race_count()
    );
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn one_shot_replay_refusals_on_the_fixture_corpus() {
    let mut futures_fixtures = 0;
    for (name, trace) in fixture_traces() {
        // Every fixture without its ProgramEnd: a canonical but incomplete
        // stream, which one-shot replay rejects at the stream's end.
        let mut cut = Trace::new();
        cut.extend_events(&trace.events()[..trace.len() - 1]);
        for algorithm in [Algorithm::MultiBags, Algorithm::MultiBagsPlus] {
            for threads in [1, 2, 8] {
                let tag = format!("{name} {algorithm:?} P={threads}");
                let config = Config::new().algorithm(algorithm).threads(threads);
                match config.replay(&cut) {
                    Err(Error::Trace(TraceError::Invariant { index, .. })) => {
                        assert_eq!(index, cut.len(), "{tag}")
                    }
                    other => panic!("{tag}: expected an incomplete-stream error, got {other:?}"),
                }
            }
        }
        if !trace.has_futures() {
            continue;
        }
        futures_fixtures += 1;
        for threads in [1, 2, 8] {
            let tag = format!("{name} P={threads}");
            let err = Config::new()
                .algorithm(Algorithm::SpBags)
                .threads(threads)
                .replay(&trace)
                .expect_err("SP-Bags has no future moves");
            assert!(err.is_unsupported(), "{tag}: {err}");
            let detection = Config::new()
                .algorithm(Algorithm::SpBagsConservative)
                .threads(threads)
                .replay(&trace)
                .expect("the conservative fallback consumes futures");
            assert!(detection.report().is_approximate(), "{tag}");
        }
    }
    assert!(futures_fixtures > 0, "the corpus must hold futures traces");
}
