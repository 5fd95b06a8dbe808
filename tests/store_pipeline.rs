//! Facade-level exercise of the detection store: `Config::store`, warm
//! replay via `Config::replay_stored`, append → incremental re-detection,
//! sidecar invalidation, and batch runs (`futurerd::run_batch`) — against
//! real recorded programs and hand-built prefixes.

use futurerd::{
    Algorithm, BatchJob, Config, DetectionPath, FunctionId, MemAddr, ShadowArray, ShadowCell,
    Store, StoreError, StrandId, Trace, TraceEvent,
};
use futurerd_core::replay::ReplayAlgorithm;
use futurerd_dag::events::{ForkInfo, SpawnEvent, SyncEvent};
use std::time::{Duration, SystemTime};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "futurerd-store-pipeline-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn racy_program(cx: &mut futurerd::Cx) -> u32 {
    let mut buffer = ShadowArray::new(cx, 8, 0u32);
    let producer = cx.create_future(|cx| {
        for i in 0..8 {
            buffer.set(cx, i, i as u32);
        }
    });
    let early = buffer.get(cx, 0); // races with the producer's writes
    cx.get_future(producer);
    early
}

/// The first 8 events of a racy fork-join program: a spawned child writes
/// a cell and the continuation reads it. Still executing — a canonical
/// prefix that [`sync_tail`] completes.
fn racy_trace() -> Trace {
    let root = FunctionId(0);
    let child = FunctionId(1);
    let x = MemAddr(0x1000);
    let mut t = Trace::new();
    t.push(TraceEvent::ProgramStart {
        root,
        first: StrandId(0),
    });
    t.push(TraceEvent::StrandStart {
        strand: StrandId(0),
        function: root,
    });
    t.push(TraceEvent::Spawn(SpawnEvent {
        parent: root,
        child,
        fork_strand: StrandId(0),
        cont_strand: StrandId(2),
        child_first_strand: StrandId(1),
    }));
    t.push(TraceEvent::StrandStart {
        strand: StrandId(1),
        function: child,
    });
    t.push(TraceEvent::Write {
        strand: StrandId(1),
        addr: x,
        size: 4,
    });
    t.push(TraceEvent::Return {
        function: child,
        last: StrandId(1),
    });
    t.push(TraceEvent::StrandStart {
        strand: StrandId(2),
        function: root,
    });
    t.push(TraceEvent::Read {
        strand: StrandId(2),
        addr: x,
        size: 4,
    });
    t
}

/// The 4 access-free events that finish [`racy_trace`]: the root syncs the
/// child and returns.
fn sync_tail() -> [TraceEvent; 4] {
    [
        TraceEvent::Sync(SyncEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        }),
        TraceEvent::StrandStart {
            strand: StrandId(3),
            function: FunctionId(0),
        },
        TraceEvent::Return {
            function: FunctionId(0),
            last: StrandId(3),
        },
        TraceEvent::ProgramEnd { last: StrandId(3) },
    ]
}

/// Warm replay through the store is byte-identical to direct (cold) replay
/// for every freezable algorithm at P ∈ {1, 2, 8}.
#[test]
fn warm_replay_matches_cold_replay_across_thread_counts() {
    let recorded = futurerd::record(racy_program);
    let dir = temp_dir("warm");
    let mut store = Config::store(&dir).expect("store opens");
    store.put_trace("racy", &recorded.trace).expect("stores");

    for algorithm in [Algorithm::MultiBags, Algorithm::MultiBagsPlus] {
        for threads in [1usize, 2, 8] {
            let config = Config::new().algorithm(algorithm).threads(threads);
            let cold = config.replay(&recorded.trace).expect("direct replay");
            let stored = config
                .replay_stored(&mut store, "racy")
                .expect("stored replay");
            assert_eq!(
                stored.report().witnesses(),
                cold.report().witnesses(),
                "{algorithm:?} P={threads}"
            );
            assert_eq!(
                stored.report().to_string(),
                cold.report().to_string(),
                "{algorithm:?} P={threads} (rendered)"
            );
            assert_eq!(stored.summary, cold.summary);
        }
    }
    // 2 algorithms × 3 thread counts: first request per algorithm is cold,
    // the rest are served from the sidecar.
    assert_eq!(store.stats().cold_freezes, 2);
    assert_eq!(store.stats().warm_cached_hits, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unfreezable_algorithms_are_typed_errors() {
    let recorded = futurerd::record(racy_program);
    let dir = temp_dir("unfreezable");
    let mut store = Config::store(&dir).expect("store opens");
    store.put_trace("racy", &recorded.trace).expect("stores");
    for algorithm in [
        Algorithm::SpBags,
        Algorithm::SpBagsConservative,
        Algorithm::GraphOracle,
    ] {
        let err = Config::new()
            .algorithm(algorithm)
            .replay_stored(&mut store, "racy")
            .expect_err("no frozen form");
        assert!(
            matches!(err, futurerd::Error::Store(StoreError::Unfreezable(_))),
            "{algorithm:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Record a program in two stages (simulating a growing execution): the
/// store re-detects incrementally after the append and matches a
/// from-scratch replay of the full trace.
#[test]
fn append_and_incremental_redetect_through_the_facade() {
    let recorded = futurerd::record(|cx| {
        let mut cell = ShadowCell::new(cx, 0u32);
        cx.spawn(|cx| cell.set(cx, 1));
        let racy = cell.get(cx);
        cx.sync();
        racy
    });
    let full = &recorded.trace;
    let cut = full.len() / 2;
    let mut prefix = Trace::new();
    prefix.extend_events(&full.events()[..cut]);

    let dir = temp_dir("append");
    let config = Config::structured().threads(2);
    let mut store = Config::store(&dir).expect("store opens");
    let (_, complete) = store.put_trace("grow", &prefix).expect("prefix stores");
    assert!(!complete);
    let first = config
        .replay_stored(&mut store, "grow")
        .expect("prefix detects");
    assert_eq!(first.path, Some(DetectionPath::Cold));

    let (_, complete) = store
        .append_events("grow", &full.events()[cut..])
        .expect("append validates");
    assert!(complete);
    let incremental = config
        .replay_stored(&mut store, "grow")
        .expect("incremental");
    assert!(matches!(
        incremental.path,
        Some(DetectionPath::Incremental { .. })
    ));

    let direct = Config::structured().replay(full).expect("direct");
    assert_eq!(
        incremental.report().witnesses(),
        direct.report().witnesses()
    );
    assert_eq!(
        incremental.report().to_string(),
        direct.report().to_string()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_path_reuses_the_sidecar() {
    let dir = temp_dir("reuse");
    let mut store = Store::open(&dir).expect("store opens");
    let (_, complete) = store.put_trace("t", &racy_trace()).expect("stores");
    assert!(!complete, "trace is a prefix");
    let cold = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("cold");
    assert_eq!(cold.path, Some(DetectionPath::Cold));
    assert_eq!(cold.race_count(), 1);
    let warm = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("warm");
    assert_eq!(warm.path, Some(DetectionPath::WarmCached));
    assert_eq!(warm.report(), cold.report());
    assert_eq!(store.stats().cold_freezes, 1);
    assert_eq!(store.stats().warm_cached_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_triggers_the_incremental_path() {
    let dir = temp_dir("incr");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("t", &racy_trace()).expect("stores");
    Config::general()
        .replay_stored(&mut store, "t")
        .expect("cold");
    // Append a second racy read on a *different* granule plus the rest of
    // the program.
    let mut suffix = vec![TraceEvent::Read {
        strand: StrandId(2),
        addr: MemAddr(0x9000),
        size: 4,
    }];
    suffix.extend(sync_tail());
    let (_, complete) = store.append_events("t", &suffix).expect("appends");
    assert!(complete);
    let inc = Config::general()
        .replay_stored(&mut store, "t")
        .expect("incremental");
    assert!(
        matches!(
            inc.path,
            Some(DetectionPath::Incremental {
                appended_events: 5,
                ..
            })
        ),
        "{:?}",
        inc.path
    );
    // Byte-identical to cold full detection of the extended trace.
    let cold_dir = temp_dir("incr-cold");
    let mut cold_store = Store::open(&cold_dir).expect("store opens");
    let full = store.load_trace("t").expect("loads");
    cold_store.put_trace("t", &full).expect("stores");
    let cold = Config::general()
        .replay_stored(&mut cold_store, "t")
        .expect("cold");
    assert_eq!(cold.path, Some(DetectionPath::Cold));
    assert_eq!(inc.report(), cold.report());
    assert_eq!(inc.report().to_string(), cold.report().to_string());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cold_dir).ok();
}

/// Appending events without memory accesses still moves the stored state
/// forward: the report is incremental (nothing reruns), the sidecar is
/// refrozen at the new trace length, and the next open is fully cached.
#[test]
fn access_free_appends_refresh_the_sidecar() {
    let dir = temp_dir("access-free");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("t", &racy_trace()).expect("stores");
    let cold = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("cold");
    assert_eq!(cold.path, Some(DetectionPath::Cold));

    let (_, complete) = store.append_events("t", &sync_tail()).expect("appends");
    assert!(complete);
    let appended = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("incremental");
    assert!(
        matches!(
            appended.path,
            Some(DetectionPath::Incremental {
                appended_events: 4,
                rerun: 0,
                ..
            })
        ),
        "{:?}",
        appended.path
    );
    assert_eq!(appended.report(), cold.report());
    let sidecar = std::fs::read(store.sidecar_path("t", ReplayAlgorithm::MultiBags))
        .expect("sidecar written");
    let sidecar = futurerd::store::decode_sidecar(&sidecar).expect("sidecar decodes");
    assert_eq!(sidecar.freeze.pos as usize, racy_trace().len() + 4);

    let again = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("warm");
    assert_eq!(again.path, Some(DetectionPath::WarmCached));
    let stats = store.stats();
    assert_eq!(
        (
            stats.cold_freezes,
            stats.incremental_refreezes,
            stats.warm_cached_hits
        ),
        (1, 1, 1)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A report that ingested nothing persists its sidecar but leaves the
/// trace file alone; a report after an ingest rewrites both.
#[test]
fn persisting_rewrites_the_trace_only_after_an_ingest() {
    let dir = temp_dir("persist");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("t", &racy_trace()).expect("stores");
    let trace_path = store.trace_path("t");
    let backdate = || {
        let stamp = SystemTime::UNIX_EPOCH + Duration::from_secs(86_400);
        std::fs::File::options()
            .write(true)
            .open(&trace_path)
            .and_then(|file| file.set_modified(stamp))
            .expect("backdates the trace file");
        stamp
    };
    let modified = || {
        std::fs::metadata(&trace_path)
            .and_then(|meta| meta.modified())
            .expect("trace file metadata")
    };

    let stamp = backdate();
    let cold = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("cold");
    assert_eq!(cold.path, Some(DetectionPath::Cold));
    assert!(store.sidecar_path("t", ReplayAlgorithm::MultiBags).exists());
    assert_eq!(modified(), stamp, "a cold report rewrote the stored trace");

    let mut session = Config::structured()
        .open_session(&mut store, "t")
        .expect("opens");
    session.ingest(&sync_tail()).expect("ingests");
    session.report().expect("reports");
    drop(session);
    assert_ne!(modified(), stamp, "the ingested events were not persisted");
    assert_eq!(store.load_trace("t").expect("loads").len(), 12);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_sidecars_invalidate_to_cold() {
    let dir = temp_dir("corrupt");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("t", &racy_trace()).expect("stores");
    let first = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("cold");
    let sidecar = store.sidecar_path("t", ReplayAlgorithm::MultiBags);
    let mut bytes = std::fs::read(&sidecar).expect("sidecar written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&sidecar, &bytes).expect("rewrites");
    let again = Config::structured()
        .replay_stored(&mut store, "t")
        .expect("re-detects");
    assert_eq!(again.path, Some(DetectionPath::Cold));
    assert_eq!(again.report(), first.report());
    assert_eq!(store.stats().invalidated_sidecars, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_runs_jobs_in_deterministic_order() {
    let dir = temp_dir("batch-order");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("b", &racy_trace()).expect("stores");
    store.put_trace("a", &racy_trace()).expect("stores");
    let jobs = [
        ("b", ReplayAlgorithm::MultiBagsPlus, 2),
        ("a", ReplayAlgorithm::MultiBags, 1),
        ("missing", ReplayAlgorithm::MultiBags, 1),
        ("a", ReplayAlgorithm::MultiBagsPlus, 2),
    ]
    .map(|(trace, algorithm, threads)| BatchJob {
        trace: trace.to_string(),
        algorithm,
        threads,
    });
    let manifest = futurerd::run_batch(&mut store, jobs.to_vec()).expect("batch runs");
    assert!(!manifest.all_ok(), "the missing trace must be recorded");
    let order: Vec<&str> = manifest
        .records
        .iter()
        .map(|r| r.job.trace.as_str())
        .collect();
    assert_eq!(order, ["a", "a", "b", "missing"]);
    let rendered = manifest.to_string();
    assert!(rendered.contains("digest="), "{rendered}");
    assert!(
        rendered
            .contains("\nmissing multibags P=1: FAILED no trace named 'missing' in the store\n"),
        "{rendered}"
    );
    let on_disk = std::fs::read_to_string(store.manifest_path()).expect("manifest");
    assert_eq!(on_disk, rendered);
    // Re-running the same jobs yields the same digests (warm paths).
    let again = futurerd::run_batch(&mut store, jobs.to_vec()).expect("batch reruns");
    for (a, b) in manifest.records.iter().zip(&again.records) {
        match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.digest, y.digest);
                assert!(y.path.is_warm(), "{:?}", y.path);
            }
            (Err(_), Err(_)) => {}
            other => panic!("outcome class changed: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch runs each (trace, algorithm, threads) job as one stored-session
/// report and renders a deterministic manifest.
#[test]
fn batch_service_produces_a_deterministic_manifest() {
    let racy = futurerd::record(racy_program);
    let clean = futurerd::record(|cx| {
        let cell = ShadowCell::new(cx, 3u32);
        let fut = cx.create_future(|cx| cell.get(cx));
        cx.get_future(fut)
    });
    let dir = temp_dir("batch");
    let mut store = Store::open(&dir).expect("store opens");
    store.put_trace("racy", &racy.trace).expect("stores");
    store.put_trace("clean", &clean.trace).expect("stores");

    let mut jobs = Vec::new();
    for name in ["racy", "clean"] {
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            for threads in [1usize, 4] {
                jobs.push(BatchJob {
                    trace: name.to_string(),
                    algorithm,
                    threads,
                });
            }
        }
    }
    let first = futurerd::run_batch(&mut store, jobs.clone()).expect("batch runs");
    assert!(first.all_ok(), "{first}");
    assert_eq!(first.records.len(), 8);

    // Same jobs again: everything warm, digests identical.
    let second = futurerd::run_batch(&mut store, jobs).expect("batch reruns");
    for (a, b) in first.records.iter().zip(&second.records) {
        let (a, b) = (
            a.outcome.as_ref().expect("first run ok"),
            b.outcome.as_ref().expect("second run ok"),
        );
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.races, b.races);
        assert!(b.path.is_warm(), "{:?}", b.path);
    }
    let manifest_file = std::fs::read_to_string(dir.join("batch-manifest.txt")).expect("written");
    assert_eq!(manifest_file, second.to_string());
    std::fs::remove_dir_all(&dir).ok();
}
