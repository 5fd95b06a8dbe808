//! The benchmark table (`futurerd_bench::kernels`): its ids, filters and
//! smoke rows, the measure loop, and the results document a sweep writes.
//! Only the measure-loop tests run a kernel (a counter or a busy-wait);
//! the others list ids, which runs no setup.

use futurerd_bench::json::Json;
use futurerd_bench::kernels::{measure, Row, Sampling, Table, SMOKE_MIN_ITERS, SWEEP_NOTE};
use futurerd_bench::regress::{format_results_doc, load_results, BenchResult};
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// The ids `filter` selects, in table order. Runs no setup.
fn ids(filter: &str) -> Vec<String> {
    let table = Table::all();
    table
        .rows()
        .filter(|r| r.matches(filter))
        .map(|r| r.id.clone())
        .collect()
}

fn cross(prefixes: &[&str], names: &[&str]) -> Vec<String> {
    let mut ids = Vec::new();
    for prefix in prefixes {
        for name in names {
            ids.push(format!("{prefix}/{name}"));
        }
    }
    ids
}

#[test]
fn measure_loop_makes_samples_times_iters_calls() {
    let sampling = Sampling {
        samples: 3,
        warm_up: Duration::ZERO,
        target: Duration::from_secs(1),
        min_iters: 1,
        max_iters: 4,
    };
    let mut calls = 0u32;
    let result = measure("unit/count", &sampling, || {
        calls += 1;
        // One warm-up call, then 3 samples of 4: only the last sleeps.
        if calls > 1 + 2 * 4 {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert_eq!(calls, 1 + 3 * 4);
    assert_eq!(result.id, "unit/count");
    assert_eq!((result.samples, result.iters_per_sample), (3, 4));
    assert!(result.max_ns >= 200_000, "{result:?}");
    assert!(result.min_ns < 200_000, "{result:?}");
    assert!(result.min_ns <= result.mean_ns && result.mean_ns <= result.max_ns);
}

/// Busy-waits `d`: a kernel of known cost that no timer slack stretches.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn samples_are_sized_from_the_median_warm_up_call() {
    let steady = Duration::from_micros(50);
    let target = Duration::from_millis(5);
    let sampling = Sampling {
        samples: 3,
        warm_up: Duration::from_millis(20),
        target,
        min_iters: 1,
        max_iters: u32::MAX,
    };
    let mut first = true;
    let result = measure("unit/cold_first_call", &sampling, || {
        // The first call costs 100 times the steady one.
        spin(if std::mem::take(&mut first) {
            steady * 100
        } else {
            steady
        });
    });
    // The fastest sample is the one host noise disturbed least.
    let sample = Duration::from_nanos(result.min_ns * u64::from(result.iters_per_sample));
    assert!(
        target / 2 <= sample && sample <= target * 2,
        "a {sample:?} sample against a {target:?} target: {result:?}"
    );
}

#[test]
fn smoke_samples_time_fast_rows_over_several_calls() {
    let result = measure("unit/fast", &Sampling::smoke(2), || {
        spin(Duration::from_micros(25));
    });
    assert!(result.iters_per_sample >= SMOKE_MIN_ITERS, "{result:?}");
    assert!(result.iters_per_sample >= 10, "{result:?}");
}

#[test]
fn bench_names_select_what_their_bench_files_ran() {
    let fig8 = cross(
        &[
            "fig8_basecase_sweep/lcs_B32",
            "fig8_basecase_sweep/lcs_B16",
            "fig8_basecase_sweep/lcs_B8",
            "fig8_basecase_sweep/sw_B16",
            "fig8_basecase_sweep/sw_B8",
            "fig8_basecase_sweep/mm_B16",
            "fig8_basecase_sweep/mm_B8",
            "fig8_basecase_sweep/mm_B4",
        ],
        &["multibags", "multibags_plus"],
    );
    assert_eq!(ids("fig8_basecase"), fig8);
    let trace = cross(
        &[
            "fig_trace_record_vs_replay/lcs",
            "fig_trace_record_vs_replay/sw",
            "fig_trace_record_vs_replay/bst",
            "fig_trace_record_vs_replay/dedup",
        ],
        &["record", "replay", "inprocess", "encode", "decode"],
    );
    assert_eq!(ids("fig_trace"), trace);
    let mut scaling = cross(
        &["substrate_dsu/union_find_chain"],
        &["1000", "10000", "100000"],
    );
    scaling.extend(cross(
        &[
            "substrate_rgraph/closure_chain",
            "substrate_rgraph/closure_chain_reversed",
        ],
        &["64", "256", "1024"],
    ));
    for n in ["64", "128", "256"] {
        scaling.extend(cross(
            &[
                "scaling_lcs_full_detection/multibags",
                "scaling_lcs_full_detection/multibags_plus",
            ],
            &[n],
        ));
    }
    assert_eq!(ids("fig_scaling"), scaling);
    assert_eq!(ids("fig_store").len(), 8);
}

#[test]
fn filter_selects_by_bench_name_or_id_substring() {
    let row = Row {
        bench: "fig8_basecase",
        id: "fig8_basecase_sweep/lcs_B32/multibags".to_string(),
        smoke: true,
    };
    for filter in [
        "fig8_basecase",
        "lcs_B32",
        "B32/multi",
        "fig8_basecase_sweep/lcs_B32/multibags",
    ] {
        assert!(row.matches(filter), "{filter}");
    }
    for filter in [
        "fig_trace",
        "lcs_B16",
        "multibags_plus",
        "fig8_basecase_sweep/lcs_B32/multibags/x",
    ] {
        assert!(!row.matches(filter), "{filter}");
    }
    assert_eq!(
        ids("lcs_B32"),
        [
            "fig8_basecase_sweep/lcs_B32/multibags",
            "fig8_basecase_sweep/lcs_B32/multibags_plus"
        ]
    );
    assert_eq!(ids("substrate_dsu").len(), 3);
    assert!(ids("no-such-row").is_empty());
    // Results documents are filtered the same way, ids unknown to the
    // table by substring only.
    let table = Table::all();
    assert!(table.selects("fig_scaling", "substrate_rgraph/closure_chain/64"));
    assert!(!table.selects("fig_scaling", "fig_store/multibags/freeze"));
    assert!(table.selects("B32", "g/lcs_B32/x"));
    assert!(!table.selects("fig_scaling", "g/lcs_B32/x"));
}

#[test]
fn ids_are_unique_and_cover_the_checked_in_baseline() {
    let table = Table::all();
    let rows: Vec<&Row> = table.rows().collect();
    assert_eq!(rows.len(), 144);
    let unique: HashSet<&str> = rows.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(unique.len(), rows.len(), "an id appears twice");
    let benches: BTreeSet<&str> = rows.iter().map(|r| r.bench).collect();
    assert_eq!(
        benches.into_iter().collect::<Vec<_>>(),
        [
            "fig6_structured",
            "fig7_general",
            "fig8_basecase",
            "fig_freeze_par",
            "fig_kn_adversarial",
            "fig_par_detect",
            "fig_scaling",
            "fig_session",
            "fig_store",
            "fig_trace",
        ]
    );
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    for result in load_results(baseline).expect("baseline loads").results {
        assert!(
            unique.contains(result.id.as_str()),
            "baseline id {} is no row",
            result.id
        );
    }
}

#[test]
fn smoke_rows_are_the_regress_ids() {
    let table = Table::all();
    let smoke: Vec<&str> = table
        .rows()
        .filter(|r| r.smoke)
        .map(|r| r.id.as_str())
        .collect();
    assert_eq!(
        smoke,
        [
            "fig8_basecase_sweep/lcs_B32/multibags",
            "fig8_basecase_sweep/lcs_B32/multibags_plus",
            "fig_trace_record_vs_replay/lcs/record",
            "fig_trace_record_vs_replay/lcs/replay",
            "fig_trace_record_vs_replay/lcs/encode",
            "fig_trace_record_vs_replay/lcs/decode",
            "fig_par_detect/multibags/seq",
            "fig_par_detect/multibags/freeze",
            "fig_par_detect/multibags/par/P2",
            "fig_store/multibags/freeze",
            "fig_store/multibags/warm_load",
            "fig_session/multibags/one_shot",
            "fig_session/multibags/session_follow_8",
            "fig_kn_adversarial/n64/multibags",
            "fig_kn_adversarial/n64/multibags_plus",
            "fig_kn_adversarial/n64/freeze_seq",
            "fig_freeze_par/n64/seq",
        ]
    );
}

#[test]
fn sweep_document_round_trips_through_load_results() {
    let results = vec![
        BenchResult {
            id: "fig_store/multibags/freeze".to_string(),
            mean_ns: 500_000,
            min_ns: 450_000,
            max_ns: 610_000,
            samples: 10,
            iters_per_sample: 300,
        },
        BenchResult {
            id: "substrate_dsu/union_find_chain/1000".to_string(),
            mean_ns: 9_000,
            min_ns: 8_700,
            max_ns: 9_900,
            samples: 10,
            iters_per_sample: 16_000,
        },
    ];
    let doc = format_results_doc(&results, SWEEP_NOTE, false);
    let parsed = Json::parse(&doc).expect("the document is JSON");
    assert_eq!(parsed.get("note").and_then(Json::as_str), Some(SWEEP_NOTE));
    let host = parsed.get("host").expect("host block");
    assert!(host.get("cpus").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let dir = std::env::temp_dir().join(format!("futurerd-sweep-doc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.json");
    std::fs::write(&path, doc).unwrap();
    let loaded = load_results(path.to_str().unwrap()).unwrap();
    assert_eq!(loaded.results, results);
    std::fs::remove_dir_all(&dir).ok();
}
