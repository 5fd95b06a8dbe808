//! Self-tests for the `futurerd-trace regress` harness, via the real
//! binary: a fresh self-baseline must compare clean (exit 0), and a
//! planted regression (`--inflate`, the harness's self-test knob) must be
//! caught and fail the run (nonzero exit) — the same invariants the CI
//! regress step relies on to know the harness itself still works.

use futurerd_bench::json::Json;
use futurerd_bench::regress::{compare, load_results, noise_margin, BenchResult, Verdict};
use std::path::PathBuf;
use std::process::Command;

fn trace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_futurerd-trace")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futurerd-regress-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct Run {
    stdout: String,
    stderr: String,
    code: Option<i32>,
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Run {
    let out = Command::new(trace_bin())
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn futurerd-trace");
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code(),
    }
}

fn repo_baseline() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_baseline.json")
}

/// One real smoke measurement (the cheapest group keeps this test fast),
/// saved as a fresh baseline document via `--out`. The comparison this
/// run prints (against the checked-in baseline) is incidental — machine
/// noise may flag it either way — only the written document matters here.
fn fresh_baseline(dir: &PathBuf) -> PathBuf {
    let baseline = dir.join("baseline.json");
    let run = run_in(
        dir,
        &[
            "regress",
            "--against",
            repo_baseline().to_str().unwrap(),
            "--bench",
            "fig8_basecase",
            "--samples",
            "3",
            "--out",
            baseline.to_str().unwrap(),
            "--no-trajectory",
        ],
    );
    assert!(
        baseline.exists(),
        "--out did not write a baseline\nstdout: {}\nstderr: {}",
        run.stdout,
        run.stderr
    );
    baseline
}

#[test]
fn self_baseline_passes_and_planted_regression_fails() {
    let dir = temp_dir("cli");
    let baseline = fresh_baseline(&dir);
    let baseline_arg = baseline.to_str().unwrap();

    // Comparing the measured document against itself is the harness's
    // self-consistency check: identical numbers, zero regressions, exit 0.
    let clean = run_in(
        &dir,
        &[
            "regress",
            "--against",
            baseline_arg,
            "--from",
            baseline_arg,
            "--no-trajectory",
        ],
    );
    assert_eq!(
        clean.code,
        Some(0),
        "self-comparison must pass\nstdout: {}\nstderr: {}",
        clean.stdout,
        clean.stderr
    );
    assert!(
        !clean.stdout.contains("REGRESSED"),
        "self-comparison flagged a regression: {}",
        clean.stdout
    );

    // Planting a 10x slowdown on the same document must be caught: every
    // compared id regresses and the exit code goes nonzero.
    let planted = run_in(
        &dir,
        &[
            "regress",
            "--against",
            baseline_arg,
            "--from",
            baseline_arg,
            "--inflate",
            "10",
            "--no-trajectory",
        ],
    );
    assert_ne!(
        planted.code,
        Some(0),
        "a 10x planted regression must fail the run\nstdout: {}",
        planted.stdout
    );
    assert!(
        planted.stdout.contains("REGRESSED"),
        "planted regression not reported: {}",
        planted.stdout
    );
    assert!(
        planted.stderr.contains("regress: FAILED"),
        "failure summary missing on stderr: {}",
        planted.stderr
    );

    // The trajectory sidecar: a comparison WITHOUT --no-trajectory appends
    // exactly one parseable JSON line recording the verdict counts.
    let logged = run_in(
        &dir,
        &["regress", "--against", baseline_arg, "--from", baseline_arg],
    );
    assert_eq!(logged.code, Some(0), "logged self-comparison must pass");
    let trajectory = dir.join("BENCH_trajectory.jsonl");
    let text = std::fs::read_to_string(&trajectory).expect("trajectory appended");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one trajectory entry expected");
    let entry = Json::parse(lines[0]).expect("trajectory line is JSON");
    assert_eq!(entry.get("regressed").and_then(Json::as_u64), Some(0));
    assert!(entry.get("ids").and_then(Json::as_u64).unwrap_or(0) > 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_baseline_is_an_error_not_a_pass() {
    let dir = temp_dir("missing");
    let run = run_in(
        &dir,
        &[
            "regress",
            "--against",
            "no-such-baseline.json",
            "--from",
            "no-such-run.json",
            "--no-trajectory",
        ],
    );
    assert_ne!(
        run.code,
        Some(0),
        "a missing baseline must not pass silently: {}",
        run.stdout
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checked_in_baseline_loads_and_verdict_logic_is_noise_aware() {
    // The repo's real baseline document must stay loadable by the harness.
    let doc = load_results(repo_baseline().to_str().unwrap()).expect("checked-in baseline loads");
    assert!(
        doc.results.len() >= 89,
        "baseline unexpectedly small: {} ids",
        doc.results.len()
    );

    // Verdicts honor the per-id noise margin derived from the baseline's
    // own spread: inside the margin is Ok, beyond it regresses, a missing
    // id is New.
    let base = BenchResult {
        id: "g/b/v".to_string(),
        mean_ns: 100_000,
        min_ns: 90_000,
        max_ns: 110_000,
        samples: 10,
        iters_per_sample: 1,
    };
    // 2x the 20% spread is 0.4, floored at MIN_MARGIN.
    let margin = noise_margin(&base);
    assert_eq!(margin, 0.5);
    let at = |mean_ns: u64| BenchResult {
        mean_ns,
        ..base.clone()
    };
    let verdict = |run: &BenchResult| {
        compare(std::slice::from_ref(&base), std::slice::from_ref(run))[0].verdict
    };
    let mean = base.mean_ns as f64;
    assert_eq!(
        verdict(&at((mean * (1.0 + margin) * 0.99) as u64)),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&at((mean * (1.0 + margin) * 1.05) as u64)),
        Verdict::Regressed
    );
    let unknown = BenchResult {
        id: "g/b/unknown".to_string(),
        ..base.clone()
    };
    assert_eq!(
        compare(std::slice::from_ref(&base), std::slice::from_ref(&unknown))[0].verdict,
        Verdict::New
    );
}
