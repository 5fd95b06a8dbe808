//! End-to-end CLI check for the timeline exporters: `futurerd-trace
//! replay --trace-out` must emit a valid Chrome-trace JSON document whose
//! summed top-level stage durations reconcile — nanosecond for nanosecond
//! — with the aggregate totals the same run writes via `--metrics-out`.
//!
//! Runs the real binary (`CARGO_BIN_EXE_futurerd-trace`) against a
//! freshly recorded trace in a temp directory, then cross-checks the two
//! artifacts with the in-crate JSON reader.

use futurerd_bench::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_futurerd-trace")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futurerd-cli-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(trace_bin())
        .args(args)
        .output()
        .expect("spawn futurerd-trace");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn record_fixture(dir: &Path) -> PathBuf {
    let trace = dir.join("fixture.frd");
    let (stdout, stderr, ok) = run(&[
        "record",
        "--workload",
        "lcs",
        "--mode",
        "general",
        "--size",
        "tiny",
        "--seed",
        "11",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "record failed\nstdout: {stdout}\nstderr: {stderr}");
    assert!(trace.exists(), "record did not write {}", trace.display());
    trace
}

/// The verdict line of a replay's stdout, without the trailing
/// "(elapsed)" that differs run to run.
fn verdict(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .find(|l| l.contains("racy granules"))
        .map(|l| l.split("  (").next().unwrap_or(l).trim_end().to_string())
}

/// `(type, name)` of every row of a JSON-lines metrics export.
fn metric_rows(path: &Path) -> BTreeSet<(String, String)> {
    let text = std::fs::read_to_string(path).expect("metrics written");
    text.lines()
        .map(|line| {
            let row = Json::parse(line).expect("JSON-lines metrics");
            let field = |key: &str| row.get(key).unwrap().as_str().unwrap().to_string();
            (field("type"), field("name"))
        })
        .collect()
}

/// Per-stage `(total_dur_ns, count)` summed from the Chrome-trace "X"
/// events, using the exact `args.dur_ns` payload (the `dur` field is
/// microseconds and only carries 3 decimals).
fn chrome_stage_totals(doc: &Json) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for event in doc.get("traceEvents").unwrap().as_arr().unwrap() {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = event.get("name").unwrap().as_str().unwrap().to_string();
        let args = event.get("args").expect("X events carry exact ns args");
        let dur_ns = args.get("dur_ns").unwrap().as_u64().unwrap();
        let start_ns = args.get("start_ns").unwrap().as_u64().unwrap();
        let end_ns = args.get("end_ns").unwrap().as_u64().unwrap();
        assert_eq!(end_ns - start_ns, dur_ns, "{name}: inconsistent ns args");
        let entry = totals.entry(name).or_insert((0, 0));
        entry.0 += dur_ns;
        entry.1 += 1;
    }
    totals
}

#[test]
fn replay_trace_out_is_valid_chrome_json_and_reconciles_with_metrics() {
    let dir = temp_dir("reconcile");
    let trace = record_fixture(&dir);
    let timeline_path = dir.join("timeline.json");
    let metrics_path = dir.join("metrics.json");

    let (stdout, stderr, ok) = run(&[
        "replay",
        "--input",
        trace.to_str().unwrap(),
        "--algorithm",
        "multibags+",
        "--threads",
        "2",
        "--trace-out",
        timeline_path.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(ok, "replay failed\nstdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("timeline written to"),
        "missing timeline confirmation in: {stdout}"
    );

    // The timeline artifact parses as one JSON document of the Chrome
    // trace-event object form, with thread-name metadata and complete
    // ("X") events.
    let timeline_text = std::fs::read_to_string(&timeline_path).expect("timeline written");
    let doc = Json::parse(&timeline_text).expect("valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")),
        "thread_name metadata events missing"
    );
    assert_eq!(
        doc.get("otherData")
            .and_then(|d| d.get("dropped"))
            .and_then(Json::as_u64),
        Some(0),
        "a default-capacity ring must not drop on this workload"
    );

    // Every X event is internally consistent and lands on a declared tid.
    let declared_tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    for event in events {
        if event.get("ph").and_then(Json::as_str) == Some("X") {
            let tid = event.get("tid").unwrap().as_u64().unwrap();
            assert!(
                declared_tids.contains(&tid),
                "X event on undeclared tid {tid}"
            );
        }
    }

    // Reconciliation: the journal's per-stage sums equal the metrics
    // snapshot's totals exactly for the disjoint top-level stages (both
    // views are written from the same measurement at span close).
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let mut aggregate: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for line in metrics_text.lines() {
        let row = Json::parse(line).expect("JSON-lines metrics");
        if row.get("type").and_then(Json::as_str) != Some("stage") {
            continue;
        }
        aggregate.insert(
            row.get("name").unwrap().as_str().unwrap().to_string(),
            (
                row.get("total_ns").unwrap().as_u64().unwrap(),
                row.get("count").unwrap().as_u64().unwrap(),
            ),
        );
    }
    let journal = chrome_stage_totals(&doc);
    // A one-shot replay at P=2 runs two single passes: nothing freezes.
    assert!(
        !journal.contains_key("freeze") && !aggregate.contains_key("freeze"),
        "a one-shot replay must not freeze: {journal:?}"
    );
    for stage in ["validate", "detect", "merge"] {
        let (journal_ns, journal_count) = journal
            .get(stage)
            .copied()
            .unwrap_or_else(|| panic!("stage '{stage}' missing from the Chrome trace"));
        let (aggregate_ns, aggregate_count) = aggregate
            .get(stage)
            .copied()
            .unwrap_or_else(|| panic!("stage '{stage}' missing from the metrics export"));
        assert_eq!(
            journal_ns, aggregate_ns,
            "{stage}: Chrome-trace total diverged from --metrics-out total"
        );
        assert_eq!(
            journal_count, aggregate_count,
            "{stage}: interval count diverged from span count"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timeline_flag_prints_text_timeline_without_changing_verdict() {
    let dir = temp_dir("text");
    let trace = record_fixture(&dir);

    let trace_arg = trace.to_str().unwrap();
    let (plain, _, ok) = run(&["replay", "--input", trace_arg, "--algorithm", "multibags"]);
    assert!(ok, "plain replay failed");
    let (with_timeline, _, ok) = run(&[
        "replay",
        "--input",
        trace_arg,
        "--algorithm",
        "multibags",
        "--timeline",
    ]);
    assert!(ok, "replay --timeline failed");

    // The text timeline renders the aligned interval table after the
    // report; the detection verdict line itself is unchanged.
    assert!(
        with_timeline.contains("thread") && with_timeline.contains("stage"),
        "timeline table header missing in: {with_timeline}"
    );
    assert_eq!(
        verdict(&plain),
        verdict(&with_timeline),
        "verdict line changed under --timeline"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observed_single_thread_replay_runs_the_same_single_pass() {
    let dir = temp_dir("single-pass");
    let trace = record_fixture(&dir);
    let trace_arg = trace.to_str().unwrap();
    let metrics_path = dir.join("metrics.json");

    let (plain, _, ok) = run(&["replay", "--input", trace_arg, "--algorithm", "multibags+"]);
    assert!(ok, "plain replay failed");
    let (observed, stderr, ok) = run(&[
        "replay",
        "--input",
        trace_arg,
        "--algorithm",
        "multibags+",
        "--threads",
        "1",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
    ]);
    assert!(
        ok,
        "observed replay failed\nstdout: {observed}\nstderr: {stderr}"
    );

    // Recording attributes the single pass instead of rerouting it
    // through the two-pass engine: validate and detect, no freeze.
    let rows = metric_rows(&metrics_path);
    let stage = |name: &str| rows.contains(&("stage".to_string(), name.to_string()));
    assert!(stage("validate") && stage("detect"), "{rows:?}");
    assert!(!stage("freeze"), "a P=1 replay must not freeze: {rows:?}");
    for gauge in ["reach.queries", "detector.read_checks"] {
        assert!(
            rows.contains(&("metric".to_string(), gauge.to_string())),
            "{gauge} missing: {rows:?}"
        );
    }
    assert!(verdict(&plain).is_some(), "no verdict line in: {plain}");
    assert_eq!(
        verdict(&plain),
        verdict(&observed),
        "verdict line changed under --metrics-out"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `futurerd-trace profile t.trace | head -2`: a reader that goes away
/// ends the run quietly (status 0, no panic) instead of panicking on the
/// broken pipe.
#[test]
fn profile_exits_quietly_when_stdout_closes() {
    let dir = temp_dir("pipe");
    let trace = record_fixture(&dir);
    let mut child = Command::new(trace_bin())
        .args(["profile", trace.to_str().unwrap(), "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn futurerd-trace");
    // Close the read end before the child has loaded the trace.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for futurerd-trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
