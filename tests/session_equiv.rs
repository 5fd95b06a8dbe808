//! Session-equivalence properties: `Session::ingest` over **any** chunking
//! of an event stream — including one event at a time — followed by
//! `report()` yields a detection byte-identical to one-shot
//! `Config::replay` of the concatenated trace, at P ∈ {1, 4}, for both
//! paper algorithms, over seeded generated programs in both regimes.
//!
//! Also asserts the session cost model: a session kept live across appends
//! pays the freeze exactly once — every report after the first is served
//! warm or incrementally (`DetectionPath` never returns to `Cold`), and a
//! store-backed session accounts exactly one cold freeze across its whole
//! life, reopen included.
//!
//! The long-horizon cases follow one execution of more than 10^5 events
//! through a report after every chunk: every report after the first resumes
//! the partitions the previous one left, and checkpoints along the chain
//! match a one-chunk session on the same prefix.
//!
//! Past the report's witness cap, every merging path (one-shot workers,
//! chunked and stored sessions) must equal the single pass exactly.

use futurerd::parallel::{par_replay_detect_with, StdExecutor};
use futurerd::replay::replay_detect;
use futurerd::{Algorithm, Config, Detection, DetectionPath, DetectorStats, ShadowArray, Trace};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_runtime::trace::record_spec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 6;
const ALGORITHMS: [Algorithm; 2] = [Algorithm::MultiBags, Algorithm::MultiBagsPlus];
const THREADS: [usize; 2] = [1, 4];

/// Splits `len` into random chunk lengths (1 ≤ chunk ≤ 7, biased small so
/// single-event chunks are common).
fn random_chunking(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut rest = len;
    while rest > 0 {
        let take = rng.gen_range(1usize..8).min(rest);
        sizes.push(take);
        rest -= take;
    }
    sizes
}

fn seeded_traces() -> Vec<(String, futurerd::Trace)> {
    let mut traces = Vec::new();
    for (tag, config) in [
        ("structured", GenConfig::structured()),
        ("general", GenConfig::general()),
    ] {
        for seed in 0..SEEDS {
            let spec = generate_program(&config, seed);
            let (trace, _) = record_spec(&spec);
            traces.push((format!("{tag} seed {seed}"), trace));
        }
    }
    traces
}

#[test]
fn session_ingest_over_any_chunking_matches_one_shot_replay() {
    let mut rng = StdRng::seed_from_u64(0x5e55_10e5);
    for (tag, trace) in seeded_traces() {
        for algorithm in ALGORITHMS {
            for threads in THREADS {
                let config = Config::new().algorithm(algorithm).threads(threads);
                let one_shot = config.replay(&trace).expect("canonical trace");
                let mut whole = config.session();
                whole.ingest(trace.events()).expect("canonical trace");
                let whole = whole.report().expect("session reports");
                // One-shot replay at P>1 deals granules round-robin while a
                // session partitions them into ranges, so only the shadow
                // page count may differ between the two.
                let pages = |stats: Option<DetectorStats>| {
                    stats.map(|stats| DetectorStats {
                        shadow_pages: 0,
                        ..stats
                    })
                };
                assert_eq!(
                    pages(whole.detector_stats),
                    pages(one_shot.detector_stats),
                    "{tag}: {algorithm:?} P={threads}"
                );
                if threads == 1 {
                    assert_eq!(whole.detector_stats, one_shot.detector_stats, "{tag}");
                }
                // Three random chunkings plus the all-singletons worst case.
                let mut chunkings: Vec<Vec<usize>> = (0..3)
                    .map(|_| random_chunking(&mut rng, trace.len()))
                    .collect();
                chunkings.push(vec![1; trace.len()]);
                for (case, chunking) in chunkings.iter().enumerate() {
                    let mut session = config.session();
                    let mut at = 0;
                    for &size in chunking {
                        session
                            .ingest(&trace.events()[at..at + size])
                            .expect("canonical prefix");
                        at += size;
                    }
                    assert!(session.is_complete(), "{tag}: chunking consumed the trace");
                    let detection = session.report().expect("session reports");
                    assert_eq!(
                        detection.report().to_string(),
                        one_shot.report().to_string(),
                        "{tag}: {algorithm:?} P={threads} chunking #{case} diverged"
                    );
                    assert_eq!(detection.summary, one_shot.summary, "{tag}");
                    assert_eq!(
                        detection.detector_stats, whole.detector_stats,
                        "{tag}: aggregated stats must not depend on chunking"
                    );
                }
            }
        }
    }
}

#[test]
fn live_sessions_never_pay_a_second_freeze() {
    let mut rng = StdRng::seed_from_u64(0xf00d_f00d);
    for (tag, trace) in seeded_traces() {
        for algorithm in ALGORITHMS {
            let config = Config::new().algorithm(algorithm).threads(4);
            let one_shot = config.replay(&trace).expect("canonical trace");
            let mut session = config.session();
            let mut at = 0;
            let mut reports = 0;
            for size in random_chunking(&mut rng, trace.len()) {
                session
                    .ingest(&trace.events()[at..at + size])
                    .expect("canonical prefix");
                at += size;
                // Report on roughly every third chunk: each report must be
                // cold exactly once (the first), then strictly warm or
                // incremental — a live session re-freezes nothing.
                if reports == 0 || rng.gen_range(0u32..3) == 0 {
                    let detection = session.report().expect("prefix reports");
                    let path = detection.path.expect("replay paths are routed");
                    if reports == 0 {
                        assert_eq!(path, DetectionPath::Cold, "{tag}");
                    } else {
                        assert_ne!(path, DetectionPath::Cold, "{tag}: report #{reports}");
                    }
                    reports += 1;
                }
            }
            let last = session.report().expect("final report");
            if reports > 0 {
                assert_ne!(last.path, Some(DetectionPath::Cold), "{tag}");
            }
            assert_eq!(
                last.report().to_string(),
                one_shot.report().to_string(),
                "{tag}: {algorithm:?} final report diverged"
            );
        }
    }
}

#[test]
fn stored_sessions_account_one_cold_freeze_across_reopens() {
    let spec = generate_program(&GenConfig::general(), 11);
    let (trace, _) = record_spec(&spec);
    let one_shot = Config::general().replay(&trace).expect("canonical");

    let dir = std::env::temp_dir().join(format!(
        "futurerd-session-equiv-{}-reopen",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = Config::store(&dir).expect("store opens");
    let cut = trace.len() / 3;
    let mut prefix = futurerd::Trace::new();
    prefix.extend_events(&trace.events()[..cut]);
    store.put_trace("grow", &prefix).expect("stores");

    // Session 1: cold freeze of the prefix, one incremental append.
    let mut session = Config::general()
        .threads(4)
        .open_session(&mut store, "grow")
        .expect("opens");
    assert_eq!(
        session.report().expect("prefix").path,
        Some(DetectionPath::Cold)
    );
    let mid = 2 * trace.len() / 3;
    session.ingest(&trace.events()[cut..mid]).expect("appends");
    assert!(matches!(
        session.report().expect("incremental").path,
        Some(DetectionPath::Incremental { .. })
    ));
    drop(session);

    // Session 2 resumes from the persisted sidecar: warm, then incremental.
    let mut session = Config::general()
        .threads(4)
        .open_session(&mut store, "grow")
        .expect("reopens");
    assert_eq!(
        session.report().expect("warm").path,
        Some(DetectionPath::WarmCached)
    );
    session.ingest(&trace.events()[mid..]).expect("appends");
    let last = session.report().expect("final");
    assert!(matches!(last.path, Some(DetectionPath::Incremental { .. })));
    drop(session);

    assert_eq!(
        last.report().to_string(),
        one_shot.report().to_string(),
        "stored session diverged from one-shot replay"
    );
    let stats = store.stats();
    assert_eq!(
        stats.cold_freezes, 1,
        "the freeze must be paid exactly once across the entry's life: {stats:?}"
    );
    assert_eq!(stats.incremental_refreezes, 2);
    assert_eq!(stats.warm_cached_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rounds of [`long_trace`]: ten events each, so the trace passes 10^5.
const LONG_ROUNDS: usize = 10_050;
/// Slots of the shared array [`long_trace`] touches (four shadow pages).
const SLOTS: usize = 4 * 4096;
/// Reports per long chain, one after every chunk.
const LONG_CHUNKS: usize = 128;
/// Chunks between two checkpoints of a long chain.
const CHECKPOINT_EVERY: usize = 16;

/// A seeded xorshift stream of slot indices below `SLOTS >> shift`.
fn slot_stream(seed: u64, shift: u32) -> impl FnMut() -> usize {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as usize % (SLOTS >> shift)
    }
}

/// A long execution over one shared array. Each round spawns a child that
/// reads one slot and writes another while the continuation does the same,
/// then syncs; every fourth continuation reads the slot its child wrote, a
/// race. Every 64th round also creates a future that writes a slot and is
/// got 32 rounds later; continuations read that slot in between, races
/// that span rounds (and chunks). The first `hot_from` rounds draw slots
/// from the whole array, later rounds from its first 1/1024th, so the
/// access histogram drifts there.
fn long_trace(rounds: usize, hot_from: usize) -> Trace {
    let recorded = futurerd::record(|cx| {
        let mut slots = ShadowArray::new(cx, SLOTS, 0u32);
        let mut wide = slot_stream(0x5eed_1057, 0);
        let mut hot = slot_stream(0x0407_5107, 10);
        let mut pending = None;
        for round in 0..rounds {
            let next = if round < hot_from {
                &mut wide
            } else {
                &mut hot
            };
            let (a, b, c, d) = (next(), next(), next(), next());
            cx.spawn(|cx| {
                let v = slots.get(cx, a);
                slots.set(cx, b, v + 1);
            });
            let v = slots.get(cx, if round % 4 == 0 { b } else { c });
            slots.set(cx, d, v + 1);
            cx.sync();
            match (round % 64, pending.take()) {
                (0, None) => {
                    let future = cx.create_future(|cx| slots.set(cx, a, 7));
                    pending = Some((future, a));
                }
                (32, Some((future, _))) => cx.get_future(future),
                (_, Some((future, slot))) => {
                    if round % 8 == 4 {
                        let _ = slots.get(cx, slot);
                    }
                    pending = Some((future, slot));
                }
                (_, None) => {}
            }
        }
        if let Some((future, _)) = pending {
            cx.get_future(future);
        }
    });
    recorded.trace
}

/// The report of a one-chunk session on the first `len` events.
fn one_chunk(config: Config, trace: &Trace, len: usize) -> Detection<()> {
    let mut session = config.session();
    session
        .ingest(&trace.events()[..len])
        .expect("canonical prefix");
    session.report().expect("prefix reports")
}

/// `(rerun, resumed, rebalanced)` of an incremental report.
fn incremental(path: Option<DetectionPath>, tag: &str) -> (usize, usize, bool) {
    match path {
        Some(DetectionPath::Incremental {
            rerun,
            resumed,
            rebalanced,
            ..
        }) => (rerun, resumed, rebalanced),
        other => panic!("{tag}: expected an incremental report, got {other:?}"),
    }
}

#[test]
fn long_chains_of_resumed_reports_match_one_chunk_sessions() {
    let trace = long_trace(LONG_ROUNDS, LONG_ROUNDS);
    assert!(trace.len() >= 100_000, "{} events", trace.len());
    let events = trace.events();
    let chunk = events.len().div_ceil(LONG_CHUNKS);
    let checkpoints: Vec<usize> = (1..=LONG_CHUNKS / CHECKPOINT_EVERY)
        .map(|i| (i * CHECKPOINT_EVERY * chunk).min(events.len()))
        .collect();
    assert!(checkpoints.len() >= 8);
    for algorithm in ALGORITHMS {
        let reference: Vec<Detection<()>> = checkpoints
            .iter()
            .map(|&len| one_chunk(Config::new().algorithm(algorithm), &trace, len))
            .collect();
        let last = reference.last().expect("checkpoints");
        assert!(
            last.race_count() > 1000,
            "{algorithm:?}: {}",
            last.race_count()
        );
        for threads in THREADS {
            let config = Config::new().algorithm(algorithm).threads(threads);
            let mut session = config.session();
            let mut checked = 0;
            for (i, piece) in events.chunks(chunk).enumerate() {
                let tag = format!("{algorithm:?} P={threads} report #{i}");
                session.ingest(piece).expect("canonical prefix");
                let detection = session.report().expect("prefix reports");
                if i == 0 {
                    assert_eq!(detection.path, Some(DetectionPath::Cold), "{tag}");
                } else {
                    let (rerun, resumed, rebalanced) = incremental(detection.path, &tag);
                    assert!(!rebalanced, "{tag}: a uniform histogram does not drift");
                    assert!(rerun > 0, "{tag}");
                    assert_eq!(resumed, rerun, "{tag}: every touched partition resumes");
                }
                let Some(at) = checkpoints.iter().position(|&len| len == session.len()) else {
                    continue;
                };
                let want = &reference[at];
                assert_eq!(
                    detection.report().to_string(),
                    want.report().to_string(),
                    "{tag}: diverged from a one-chunk session at {} events",
                    session.len()
                );
                if threads == 1 {
                    assert_eq!(detection.detector_stats, want.detector_stats, "{tag}");
                }
                checked += 1;
            }
            assert_eq!(checked, checkpoints.len(), "{algorithm:?} P={threads}");
        }
    }
}

#[test]
fn drifting_chains_rebuild_rebalanced_partitions_mid_chain() {
    let rounds = 2_000;
    let trace = long_trace(rounds, rounds / 3);
    let events = trace.events();
    let chunk = events.len().div_ceil(40);
    for algorithm in ALGORITHMS {
        let config = Config::new().algorithm(algorithm).threads(4);
        let mut session = config.session();
        let mut rebuilt_mid_chain = 0;
        for (i, piece) in events.chunks(chunk).enumerate() {
            let tag = format!("{algorithm:?} report #{i}");
            session.ingest(piece).expect("canonical prefix");
            let detection = session.report().expect("prefix reports");
            let mut check = i % 8 == 7 || session.is_complete();
            if i > 0 {
                let (rerun, resumed, rebalanced) = incremental(detection.path, &tag);
                assert!(resumed <= rerun, "{tag}");
                if rebalanced {
                    // New ranges have no history to resume from.
                    assert!(resumed < rerun, "{tag}: {:?}", detection.path);
                    rebuilt_mid_chain += 1;
                    check = true;
                } else {
                    assert_eq!(resumed, rerun, "{tag}");
                }
            }
            if check {
                let want = one_chunk(config, &trace, session.len());
                assert_eq!(
                    detection.report().to_string(),
                    want.report().to_string(),
                    "{tag}: diverged at {} events",
                    session.len()
                );
            }
        }
        assert!(
            rebuilt_mid_chain > 0,
            "{algorithm:?}: the histogram never drifted"
        );
    }
}

#[test]
fn reopened_stored_sessions_rebuild_once_then_resume() {
    let trace = long_trace(3_000, 3_000);
    let events = trace.events();
    let dir = std::env::temp_dir().join(format!(
        "futurerd-session-equiv-{}-resume",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = Config::store(&dir).expect("store opens");
    let cut = events.len() / 2;
    let mut prefix = Trace::new();
    prefix.extend_events(&events[..cut]);
    store.put_trace("grow", &prefix).expect("stores");
    for algorithm in ALGORITHMS {
        let config = Config::new().algorithm(algorithm).threads(4);
        let mut session = config.open_session(&mut store, "grow").expect("opens");
        session.report().expect("cold prefix");
        drop(session);

        // Reopened: the sidecar's outcomes carry no shadow state, so the
        // first append rebuilds what it touches and later appends resume.
        let mut session = config.open_session(&mut store, "grow").expect("reopens");
        let appends = 4;
        let step = (events.len() - cut).div_ceil(appends);
        for (i, piece) in events[session.len()..].chunks(step).enumerate() {
            let tag = format!("{algorithm:?} append #{i}");
            session.ingest(piece).expect("canonical prefix");
            let detection = session.report().expect("appended prefix reports");
            let (rerun, resumed, _) = incremental(detection.path, &tag);
            assert!(rerun > 0, "{tag}");
            if i == 0 {
                assert_eq!(resumed, 0, "{tag}: cached partitions are rebuilt");
            } else {
                assert_eq!(resumed, rerun, "{tag}: rebuilt partitions resume");
            }
            let want = one_chunk(config, &trace, session.len());
            assert!(want.race_count() > 100, "{tag}: {}", want.race_count());
            assert_eq!(
                detection.report().to_string(),
                want.report().to_string(),
                "{tag}: diverged at {} events",
                session.len()
            );
        }
        assert!(session.is_complete());
        drop(session);
        // The next algorithm's sidecar starts from the same stored prefix.
        store
            .put_trace("grow", &prefix)
            .expect("restores the prefix");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Racy cells of [`capped_trace`]: more than the 1,024 witnesses a
/// [`futurerd::RaceReport`] keeps.
const CAPPED_CELLS: usize = 1_100;

/// A spawned child writes every cell of an array and the continuation
/// reads them all before the sync: one racy granule per cell.
fn capped_trace() -> Trace {
    futurerd::record(|cx| {
        let mut cells = ShadowArray::new(cx, CAPPED_CELLS, 0u32);
        cx.spawn(|cx| {
            for i in 0..CAPPED_CELLS {
                cells.set(cx, i, 1);
            }
        });
        for i in 0..CAPPED_CELLS {
            let _ = cells.get(cx, i);
        }
        cx.sync();
    })
    .trace
}

#[test]
fn every_path_matches_the_single_pass_past_the_witness_cap() {
    let trace = capped_trace();
    let events = trace.events();
    let dir = std::env::temp_dir().join(format!(
        "futurerd-session-equiv-{}-capped",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = Config::store(&dir).expect("store opens");
    store.put_trace("capped", &trace).expect("stores");
    for algorithm in ALGORITHMS {
        let sequential = replay_detect(&trace, algorithm).expect("canonical trace");
        assert_eq!(sequential.race_count(), CAPPED_CELLS, "{algorithm:?}");
        assert_eq!(sequential.witnesses().len(), 1_024, "{algorithm:?}");
        let config = Config::new().algorithm(algorithm);
        let mut reports = Vec::new();
        for workers in [2, 3] {
            let report = par_replay_detect_with(&trace, algorithm, workers, &StdExecutor)
                .expect("canonical trace");
            reports.push((format!("one-shot P={workers}"), report));
        }
        let replayed = config.threads(2).replay(&trace).expect("canonical trace");
        reports.push(("Config::replay P=2".into(), replayed.report().clone()));
        for threads in THREADS {
            let mut session = config.threads(threads).session();
            for chunk in events.chunks(events.len().div_ceil(5)) {
                session.ingest(chunk).expect("canonical prefix");
                session.report().expect("prefix reports");
            }
            let detection = session.report().expect("session reports");
            reports.push((
                format!("chunked session P={threads}"),
                detection.report().clone(),
            ));
        }
        for want in [DetectionPath::Cold, DetectionPath::WarmCached] {
            let detection = config
                .threads(2)
                .replay_stored(&mut store, "capped")
                .expect("stored replay");
            assert_eq!(detection.path, Some(want), "{algorithm:?}");
            reports.push((
                format!("replay_stored {want:?}"),
                detection.report().clone(),
            ));
        }
        for (path, report) in reports {
            assert_eq!(report, sequential, "{algorithm:?}: {path}");
            assert_eq!(report.race_count(), CAPPED_CELLS, "{algorithm:?}: {path}");
            assert_eq!(report.witnesses().len(), 1_024, "{algorithm:?}: {path}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
