//! Performance-regression harness: re-measure the smoke rows of the
//! benchmark table and compare them against a recorded baseline.
//!
//! `futurerd-trace regress --against BENCH_baseline.json` drives this
//! module. A *smoke run* measures the rows of [`crate::kernels::Table`]
//! marked smoke — the same kernels `cargo bench --bench figs` sweeps,
//! through the same measure loop — but with a handful of ~50 µs samples
//! ([`Sampling::smoke`]) instead of the sweep's calibrated ones: seconds
//! instead of minutes, coarse but comparable. The comparison is
//! noise-aware: each id's tolerance comes from the baseline's own min/max
//! sample spread (never below ±50%, since a smoke sample is noisier than a
//! calibrated one), so one-off scheduler blips do not fail CI while
//! genuine slowdowns (the planted-regression test inflates a run 10×)
//! reliably do. Every run can append one line to the
//! `BENCH_trajectory.jsonl` perf trajectory, which is how the repo's perf
//! history accumulates.

use crate::json::Json;
use crate::kernels::{Row, Sampling, Table};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One measured (or loaded) benchmark id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Full benchmark id, `group/function/value`.
    pub id: String,
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Number of samples behind the mean.
    pub samples: u32,
    /// Iterations per sample.
    pub iters_per_sample: u32,
}

/// A loaded results document: `BENCH_baseline.json`, a `--out` file or
/// a sweep's `FUTURERD_BENCH_JSON` file.
#[derive(Debug, Clone)]
pub struct ResultsDoc {
    /// All results, in document order.
    pub results: Vec<BenchResult>,
}

/// Loads a results document (the checked-in baseline, sweep and
/// `regress --out` files share the shape: a JSON object with a `results`
/// array).
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

/// Renders results as a baseline-shaped JSON document (what a sweep's
/// `FUTURERD_BENCH_JSON` and `regress --out` write, and what
/// `--against`/`--from` read back), stamped with the date, the host, the
/// build profile and `FUTURERD_SCALE`. `note` and the ids are written
/// verbatim, so they must not hold `"` or `\`.
pub fn format_results_doc(results: &[BenchResult], note: &str, smoke: bool) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"note\": \"{note}\",");
    let _ = writeln!(out, "  \"recorded\": \"{}\",", utc_date(unix));
    let _ = writeln!(out, "  \"recorded_unix\": {unix},");
    let _ = writeln!(
        out,
        "  \"host\": {{\"arch\": \"{}\", \"cpus\": {cpus}, \"profile\": \"{profile}\"}},",
        std::env::consts::ARCH
    );
    let _ = writeln!(out, "  \"futurerd_scale\": {},", crate::scale());
    let _ = writeln!(out, "  \"smoke\": {smoke},");
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

/// The UTC calendar date `YYYY-MM-DD` of a Unix time (civil-from-days).
fn utc_date(unix: u64) -> String {
    let z = unix / 86_400 + 719_468;
    let (era, doe) = (z / 146_097, z % 146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = era * 400 + yoe + u64::from(month <= 2);
    format!("{year}-{month:02}-{day:02}")
}

// ---------------------------------------------------------------------------
// Smoke runs
// ---------------------------------------------------------------------------

/// Runs the smoke rows of `table` (those `filter` selects, when given) and
/// returns the measured results. `log` receives one coverage line per
/// bench group so partial coverage is visible, never silent.
pub fn smoke_results(
    table: &Table,
    filter: Option<&str>,
    samples: u32,
    mut log: impl FnMut(&str),
) -> Vec<BenchResult> {
    let wanted = |row: &Row| row.smoke && filter.is_none_or(|f| row.matches(f));
    let mut results = Vec::new();
    // (group, ids, time): each row's time, its cell's setup included,
    // counts towards the group of its id.
    let mut groups: Vec<(String, usize, Duration)> = Vec::new();
    let mut mark = Instant::now();
    table.run(wanted, &Sampling::smoke(samples), |result| {
        let group = result.id.split('/').next().unwrap_or_default();
        let elapsed = mark.elapsed();
        match groups.last_mut() {
            Some((last, ids, time)) if last == group => {
                *ids += 1;
                *time += elapsed;
            }
            _ => groups.push((group.to_string(), 1, elapsed)),
        }
        results.push(result);
        mark = Instant::now();
    });
    for (group, ids, time) in groups {
        log(&format!("{group}: {ids} smoke id(s) in {time:.2?}"));
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
        let doc = format_results_doc(&rows, "test doc", true);
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
        let doc = format_results_doc(&rows, "test doc", true);
        let dir = std::env::temp_dir().join(format!("futurerd-regress-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        std::fs::write(&path, doc).unwrap();
        let err = load_results(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("repeats id \"g/a/x\""), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_dates_are_utc_calendar_dates() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_800_000_000), "2027-01-15");
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
