//! Performance-regression harness: re-run the fig benches in smoke mode
//! and compare against a recorded baseline.
//!
//! `futurerd-trace regress --against BENCH_baseline.json` drives this
//! module. A *smoke run* re-measures a representative subset of every
//! baseline bench group's ids with the exact kernels the criterion
//! benches use (same traces, same seeds, same measured routine), but with
//! a handful of one-iteration samples instead of criterion's calibrated
//! sampling — seconds instead of minutes, coarse but comparable. The
//! comparison is noise-aware: each id's tolerance comes from the
//! baseline's own min/max sample spread (never below ±50%, since a smoke
//! sample is noisier than a calibrated one), so one-off scheduler blips
//! do not fail CI while genuine slowdowns (the planted-regression test
//! inflates a run 10×) reliably do. Every run can append one line to the
//! `BENCH_trajectory.jsonl` perf trajectory, which is how the repo's perf
//! history finally accumulates.

use crate::json::Json;
use crate::{bench_params, run_config, Algorithm, Config};
use futurerd_core::parallel::{par_replay_detect, FreezeAssist, IncrementalFreezer, ReachIndex};
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_runtime::trace::{record_spec, TraceRecorder};
use futurerd_store::{decode_sidecar, Store};
use futurerd_workloads::fuzzgen::adversarial_kn;
use futurerd_workloads::{run_workload, FutureMode, WorkloadKind};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One measured (or loaded) benchmark id, the same shape the vendored
/// criterion shim appends under `FUTURERD_BENCH_JSON`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Full benchmark id, `group/function/value` (criterion's path form).
    pub id: String,
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of samples behind the mean.
    pub samples: u32,
    /// Iterations per sample (1 for smoke runs).
    pub iters_per_sample: u32,
}

/// A loaded results document: `BENCH_baseline.json` or a `--out` file.
#[derive(Debug, Clone)]
pub struct ResultsDoc {
    /// All results, in document order.
    pub results: Vec<BenchResult>,
}

/// Loads a results document (the checked-in baseline and `regress --out`
/// files share the shape: a JSON object with a `results` array).
///
/// A document that lists one id twice is an error naming the id:
/// [`compare`] matches by id, so a second copy would be silently ignored.
pub fn load_results(path: &str) -> Result<ResultsDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"results\" array"))?;
    let mut results = Vec::with_capacity(rows.len());
    let mut seen = std::collections::HashSet::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let field = |name: &str| {
            row.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{path}: results[{i}] missing numeric \"{name}\""))
        };
        let id = row
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: results[{i}] missing \"id\""))?;
        if !seen.insert(id) {
            return Err(format!("{path}: results[{i}] repeats id \"{id}\""));
        }
        results.push(BenchResult {
            id: id.to_string(),
            mean_ns: field("mean_ns")?,
            min_ns: field("min_ns")?,
            max_ns: field("max_ns")?,
            samples: field("samples")? as u32,
            iters_per_sample: field("iters_per_sample")? as u32,
        });
    }
    Ok(ResultsDoc { results })
}

/// Renders results as a baseline-shaped JSON document (what `--out`
/// writes, and what `--against`/`--from` read back).
pub fn format_results_doc(results: &[BenchResult], note: &str) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"note\": \"{note}\",");
    let _ = writeln!(out, "  \"recorded_unix\": {unix},");
    let _ = writeln!(out, "  \"smoke\": true,");
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}, \"iters_per_sample\": {}}}{comma}",
            r.id, r.mean_ns, r.min_ns, r.max_ns, r.samples, r.iters_per_sample
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Smoke kernels
// ---------------------------------------------------------------------------

/// The bench groups the smoke runner covers (the baseline's id prefixes).
pub const SMOKE_GROUPS: [&str; 7] = [
    "fig8_basecase_sweep",
    "fig_trace_record_vs_replay",
    "fig_par_detect",
    "fig_store",
    "fig_session",
    "fig_kn_adversarial",
    "fig_freeze_par",
];

/// Maps a `--bench` name onto the baseline id prefix: bench *file* names
/// (`fig8_basecase`, `fig_trace`, as listed in the baseline's `benches`
/// array) resolve to their criterion group names; group names pass
/// through.
pub fn resolve_group(bench: &str) -> &str {
    match bench {
        "fig8_basecase" => "fig8_basecase_sweep",
        "fig_trace" => "fig_trace_record_vs_replay",
        other => other,
    }
}

/// The same large seeded genprog traces `fig_par_detect` / `fig_store` /
/// `fig_session` measure on.
fn big_trace(general: bool, seed: u64) -> Trace {
    let scale = std::env::var("FUTURERD_SCALE")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    let cfg = if general {
        GenConfig {
            max_depth: 9 + scale.ilog2(),
            max_actions: 14,
            num_locations: 96 * scale,
            max_accesses: 12,
            general_futures: true,
            w_compute: 10,
            w_get: 2,
            w_create: 2,
            w_spawn: 3,
            w_sync: 1,
        }
    } else {
        GenConfig {
            max_depth: 7 + scale.ilog2(),
            max_actions: 10,
            num_locations: 64 * scale,
            max_accesses: 6,
            ..GenConfig::structured()
        }
    };
    let (trace, _) = record_spec(&generate_program(&cfg, seed));
    trace
}

/// Times `kernel` with `samples` samples (after one calibrating warmup
/// iteration) and folds the per-iteration times into a [`BenchResult`].
/// Sub-50µs kernels get multiple iterations per sample so the smoke
/// numbers measure the kernel, not the timer.
fn measure(id: &str, samples: u32, mut kernel: impl FnMut() -> u64) -> BenchResult {
    let warmup = Instant::now();
    black_box(kernel());
    let warmup_ns = u64::try_from(warmup.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let iters = (50_000 / warmup_ns.max(1)).clamp(1, 200) as u32;
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(kernel());
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        times.push((ns / u64::from(iters)).max(1));
    }
    let total: u64 = times.iter().sum();
    BenchResult {
        id: id.to_string(),
        mean_ns: (total / u64::from(samples)).max(1),
        min_ns: *times.iter().min().unwrap(),
        max_ns: *times.iter().max().unwrap(),
        samples,
        iters_per_sample: iters,
    }
}

/// Re-measures the smoke subset of one bench group. Each kernel is the
/// measured routine of the corresponding criterion bench (same seeds,
/// same traces); the subset per group is fixed and representative, not
/// exhaustive — [`smoke_results`] logs the coverage.
fn smoke_group(group: &str, samples: u32) -> Vec<BenchResult> {
    let m = |id: String, kernel: &mut dyn FnMut() -> u64| measure(&id, samples, &mut *kernel);
    match group {
        "fig8_basecase_sweep" => {
            let params = bench_params(WorkloadKind::Lcs).with_base(32);
            [
                (Algorithm::MultiBags, "multibags"),
                (Algorithm::MultiBagsPlus, "multibags_plus"),
            ]
            .into_iter()
            .map(|(alg, label)| {
                m(format!("{group}/lcs_B32/{label}"), &mut || {
                    run_config(
                        WorkloadKind::Lcs,
                        FutureMode::Structured,
                        alg,
                        Config::Reachability,
                        &params,
                    )
                    .1
                })
            })
            .collect()
        }
        "fig_trace_record_vs_replay" => {
            let params = bench_params(WorkloadKind::Lcs);
            let record = || {
                let (recorder, _) = run_workload(
                    WorkloadKind::Lcs,
                    FutureMode::Structured,
                    &params,
                    TraceRecorder::new(),
                );
                recorder.into_trace()
            };
            let trace = record();
            let bytes = trace.to_bytes();
            vec![
                m(format!("{group}/lcs/record"), &mut || record().len() as u64),
                m(format!("{group}/lcs/replay"), &mut || {
                    replay_detect_unchecked(&trace, ReplayAlgorithm::MultiBags).race_count() as u64
                }),
                m(format!("{group}/lcs/encode"), &mut || {
                    trace.to_bytes().len() as u64
                }),
                m(format!("{group}/lcs/decode"), &mut || {
                    Trace::from_bytes(&bytes).expect("own encoding").len() as u64
                }),
            ]
        }
        "fig_par_detect" => {
            let trace = big_trace(false, 0xf19);
            let algorithm = ReplayAlgorithm::MultiBags;
            vec![
                m(format!("{group}/multibags/seq"), &mut || {
                    replay_detect_unchecked(&trace, algorithm).race_count() as u64
                }),
                m(format!("{group}/multibags/freeze"), &mut || {
                    ReachIndex::freeze(&trace, algorithm)
                        .expect("canonical trace")
                        .expect("freezable algorithm")
                        .num_attached_sets() as u64
                }),
                m(format!("{group}/multibags/par/P2"), &mut || {
                    par_replay_detect(&trace, algorithm, 2)
                        .expect("canonical trace")
                        .race_count() as u64
                }),
            ]
        }
        "fig_store" => {
            let trace = big_trace(false, 0xf19);
            let algorithm = ReplayAlgorithm::MultiBags;
            let dir =
                std::env::temp_dir().join(format!("futurerd-regress-store-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let mut store = Store::open(&dir).expect("store opens");
            store.put_trace("t", &trace).expect("trace stores");
            futurerd::Config::new()
                .algorithm(algorithm.into())
                .replay_stored(&mut store, "t")
                .expect("cold detect");
            let sidecar_bytes =
                std::fs::read(store.sidecar_path("t", algorithm)).expect("sidecar written");
            let results = vec![
                m(format!("{group}/multibags/freeze"), &mut || {
                    let mut fz = IncrementalFreezer::new(algorithm).expect("freezable");
                    fz.extend(trace.events());
                    fz.accesses().len() as u64
                }),
                m(format!("{group}/multibags/warm_load"), &mut || {
                    let sidecar = decode_sidecar(&sidecar_bytes).expect("valid sidecar");
                    let fz = IncrementalFreezer::from_raw(sidecar.freeze).expect("valid state");
                    let index = fz.snapshot_index();
                    fz.accesses().len() as u64 + index.num_attached_sets() as u64
                }),
            ];
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
            results
        }
        "fig_session" => {
            let trace = big_trace(false, 0xf19);
            let config = futurerd::Config::new().algorithm(futurerd::Algorithm::MultiBags);
            let chunks = 8usize;
            let chunk_len = trace.len().div_ceil(chunks);
            vec![
                m(format!("{group}/multibags/one_shot"), &mut || {
                    config.replay(&trace).expect("canonical").race_count() as u64
                }),
                m(
                    format!("{group}/multibags/session_follow_{chunks}"),
                    &mut || {
                        let mut session = config.session();
                        let mut races = 0;
                        for chunk in trace.events().chunks(chunk_len) {
                            session.ingest(chunk).expect("canonical prefix");
                            races = session.report().expect("prefix reports").race_count();
                        }
                        races as u64
                    },
                ),
            ]
        }
        "fig_kn_adversarial" => {
            let program = adversarial_kn(64, 0xbead);
            let (trace, _) = record_spec(&program.spec);
            vec![
                m(format!("{group}/n64/multibags"), &mut || {
                    replay_detect_unchecked(&trace, ReplayAlgorithm::MultiBags).race_count() as u64
                }),
                m(format!("{group}/n64/multibags_plus"), &mut || {
                    replay_detect_unchecked(&trace, ReplayAlgorithm::MultiBagsPlus).race_count()
                        as u64
                }),
                m(format!("{group}/n64/freeze_seq"), &mut || {
                    ReachIndex::freeze(&trace, ReplayAlgorithm::MultiBagsPlus)
                        .expect("canonical trace")
                        .expect("freezable algorithm")
                        .num_attached_sets() as u64
                }),
            ]
        }
        "fig_freeze_par" => {
            let scale = std::env::var("FUTURERD_SCALE")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(1)
                .max(1);
            let n = 64 * scale;
            let program = adversarial_kn(n, 0xfeed);
            let (trace, _) = record_spec(&program.spec);
            let algorithm = ReplayAlgorithm::MultiBagsPlus;
            let pool = futurerd::ThreadPool::shared(2);
            vec![
                m(format!("{group}/n{n}/seq"), &mut || {
                    ReachIndex::freeze(&trace, algorithm)
                        .expect("canonical trace")
                        .expect("freezable algorithm")
                        .num_attached_sets() as u64
                }),
                m(format!("{group}/n{n}/assist/P2"), &mut || {
                    let executor = futurerd::PoolExecutor(&pool);
                    let assist = FreezeAssist::new(2, &executor);
                    ReachIndex::freeze_assisted(&trace, algorithm, &assist)
                        .expect("canonical trace")
                        .expect("freezable algorithm")
                        .num_attached_sets() as u64
                }),
            ]
        }
        _ => Vec::new(),
    }
}

/// Runs the smoke subset of every group (or just `filter`'s group) and
/// returns the measured results. `log` receives one coverage line per
/// group so partial coverage is visible, never silent.
pub fn smoke_results(
    filter: Option<&str>,
    samples: u32,
    mut log: impl FnMut(&str),
) -> Vec<BenchResult> {
    let wanted = filter.map(resolve_group);
    let mut results = Vec::new();
    for group in SMOKE_GROUPS {
        if wanted.is_some_and(|w| w != group) {
            continue;
        }
        let start = Instant::now();
        let rows = smoke_group(group, samples);
        log(&format!(
            "{group}: {} smoke id(s) in {:.2?}",
            rows.len(),
            start.elapsed()
        ));
        results.extend(rows);
    }
    results
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Outcome of comparing one run id against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise margin.
    Ok,
    /// Faster than the margin allows — worth a look, never a failure.
    Improved,
    /// Slower than the noise-aware threshold: a regression.
    Regressed,
    /// The baseline has no entry for this id.
    New,
}

impl Verdict {
    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::New => "new",
        }
    }
}

/// One compared id.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark id.
    pub id: String,
    /// The baseline mean, when the id exists there.
    pub baseline_mean_ns: Option<u64>,
    /// This run's mean.
    pub run_mean_ns: u64,
    /// `run / baseline` (1.0 for [`Verdict::New`]).
    pub ratio: f64,
    /// The relative tolerance the verdict used.
    pub margin: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The floor on every id's relative tolerance: smoke samples are noisier
/// than the baseline's calibrated ones, so anything under +50% is noise.
pub const MIN_MARGIN: f64 = 0.5;

/// Noise-aware tolerance for one baseline entry: twice the baseline's own
/// relative sample spread `(max - min) / mean`, floored at [`MIN_MARGIN`].
pub fn noise_margin(base: &BenchResult) -> f64 {
    let mean = base.mean_ns.max(1) as f64;
    let spread = base.max_ns.saturating_sub(base.min_ns) as f64 / mean;
    (2.0 * spread).max(MIN_MARGIN)
}

/// Compares a run against the baseline, id by id. Baseline ids the run
/// did not measure are simply not compared (the smoke subset is partial
/// by design); run ids absent from the baseline come back as `New`.
pub fn compare(baseline: &[BenchResult], run: &[BenchResult]) -> Vec<Comparison> {
    run.iter()
        .map(|r| {
            let base = baseline.iter().find(|b| b.id == r.id);
            match base {
                Some(base) => {
                    let margin = noise_margin(base);
                    let ratio = r.mean_ns as f64 / base.mean_ns.max(1) as f64;
                    let verdict = if ratio > 1.0 + margin {
                        Verdict::Regressed
                    } else if ratio < 1.0 / (1.0 + margin) {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    };
                    Comparison {
                        id: r.id.clone(),
                        baseline_mean_ns: Some(base.mean_ns),
                        run_mean_ns: r.mean_ns,
                        ratio,
                        margin,
                        verdict,
                    }
                }
                None => Comparison {
                    id: r.id.clone(),
                    baseline_mean_ns: None,
                    run_mean_ns: r.mean_ns,
                    ratio: 1.0,
                    margin: 0.0,
                    verdict: Verdict::New,
                },
            }
        })
        .collect()
}

/// Renders the comparison as an aligned table plus a one-line summary.
pub fn format_comparison(comparisons: &[Comparison]) -> String {
    let mut out = String::new();
    let id_w = comparisons
        .iter()
        .map(|c| c.id.len())
        .chain(["id".len()])
        .max()
        .unwrap();
    let _ = writeln!(
        out,
        "{:<id_w$}  {:>12}  {:>12}  {:>7}  {:>7}  verdict",
        "id", "baseline", "run", "ratio", "margin"
    );
    for c in comparisons {
        let base = c
            .baseline_mean_ns
            .map(futurerd_obs::fmt_duration_ns)
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<id_w$}  {:>12}  {:>12}  {:>6.2}x  {:>6.0}%  {}",
            c.id,
            base,
            futurerd_obs::fmt_duration_ns(c.run_mean_ns),
            c.ratio,
            c.margin * 100.0,
            c.verdict.label(),
        );
    }
    let count = |v: Verdict| comparisons.iter().filter(|c| c.verdict == v).count();
    let worst = comparisons
        .iter()
        .filter(|c| c.baseline_mean_ns.is_some())
        .map(|c| c.ratio)
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "regress: {} id(s) compared — {} ok, {} improved, {} new, {} regressed (worst ratio {:.2}x)",
        comparisons.len(),
        count(Verdict::Ok),
        count(Verdict::Improved),
        count(Verdict::New),
        count(Verdict::Regressed),
        worst,
    );
    out
}

/// Formats one perf-trajectory JSONL entry for this comparison.
pub fn trajectory_entry(against: &str, source: &str, comparisons: &[Comparison]) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let count = |v: Verdict| comparisons.iter().filter(|c| c.verdict == v).count();
    let worst = comparisons
        .iter()
        .filter(|c| c.baseline_mean_ns.is_some())
        .map(|c| c.ratio)
        .fold(0.0f64, f64::max);
    format!(
        "{{\"unix\":{unix},\"against\":\"{against}\",\"source\":\"{source}\",\"ids\":{},\"ok\":{},\"improved\":{},\"new\":{},\"regressed\":{},\"worst_ratio\":{worst:.4}}}\n",
        comparisons.len(),
        count(Verdict::Ok),
        count(Verdict::Improved),
        count(Verdict::New),
        count(Verdict::Regressed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, mean: u64, min: u64, max: u64) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
            samples: 5,
            iters_per_sample: 1,
        }
    }

    #[test]
    fn margin_floors_at_fifty_percent() {
        // Tight baseline spread: the floor applies.
        assert_eq!(noise_margin(&result("a", 1000, 990, 1010)), MIN_MARGIN);
        // Wide spread: 2 * (1500-500)/1000 = 2.0.
        assert!((noise_margin(&result("a", 1000, 500, 1500)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn identical_runs_compare_clean() {
        let base = vec![
            result("g/a", 1000, 900, 1100),
            result("g/b", 5000, 4000, 6000),
        ];
        let comparisons = compare(&base, &base);
        assert!(comparisons.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn planted_regression_is_flagged_and_new_ids_pass() {
        let base = vec![result("g/a", 1000, 900, 1100)];
        let run = vec![result("g/a", 10_000, 9000, 11_000), result("g/c", 7, 6, 8)];
        let comparisons = compare(&base, &run);
        assert_eq!(comparisons[0].verdict, Verdict::Regressed);
        assert_eq!(comparisons[1].verdict, Verdict::New);
        let report = format_comparison(&comparisons);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("1 regressed"));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let base = vec![result("g/a", 10_000, 9000, 11_000)];
        let run = vec![result("g/a", 1000, 900, 1100)];
        assert_eq!(compare(&base, &run)[0].verdict, Verdict::Improved);
    }

    #[test]
    fn results_doc_round_trips_through_the_parser() {
        let rows = vec![result("g/a/x", 1000, 900, 1100), result("g/b/y", 5, 4, 6)];
        let doc = format_results_doc(&rows, "test doc");
        let dir = std::env::temp_dir().join(format!("futurerd-regress-doc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        std::fs::write(&path, doc).unwrap();
        let loaded = load_results(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.results, rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_doc_with_a_repeated_id_is_rejected() {
        let rows = vec![
            result("g/a/x", 1000, 900, 1100),
            result("g/b/y", 5, 4, 6),
            result("g/a/x", 2000, 1900, 2100),
        ];
        let doc = format_results_doc(&rows, "test doc");
        let dir = std::env::temp_dir().join(format!("futurerd-regress-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        std::fs::write(&path, doc).unwrap();
        let err = load_results(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("repeats id \"g/a/x\""), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_aliases_resolve() {
        assert_eq!(resolve_group("fig8_basecase"), "fig8_basecase_sweep");
        assert_eq!(resolve_group("fig_trace"), "fig_trace_record_vs_replay");
        assert_eq!(resolve_group("fig_session"), "fig_session");
    }

    #[test]
    fn trajectory_entry_is_one_json_line() {
        let base = vec![result("g/a", 1000, 900, 1100)];
        let entry = trajectory_entry("BENCH_baseline.json", "smoke", &compare(&base, &base));
        assert!(entry.ends_with('\n'));
        let parsed = Json::parse(entry.trim()).unwrap();
        assert_eq!(parsed.get("ids").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("regressed").unwrap().as_u64(), Some(0));
        assert_eq!(parsed.get("source").unwrap().as_str(), Some("smoke"));
    }
}
