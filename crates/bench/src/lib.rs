//! Benchmark harness for reproducing the tables and figures of
//! *Efficient Race Detection with Futures* (PPoPP 2019), Section 6.
//!
//! The paper evaluates FutureRD with four configurations per benchmark
//! (baseline / reachability / instrumentation / full), once for structured
//! futures with MultiBags (Figure 6), once for general futures with
//! MultiBags+ (Figure 7), and then compares the two reachability structures
//! on structured programs while shrinking the base case (Figure 8).
//!
//! Two front ends regenerate those results:
//!
//! * `cargo run --release -p futurerd-bench --bin tables -- all` prints the
//!   paper-style tables (times, per-row overheads, geometric means);
//! * `cargo bench -p futurerd-bench --bench figs [-- <filter>]` times every
//!   row of the benchmark table in [`kernels`] — the same configurations
//!   plus the trace, engine, store and session kernels — with calibrated
//!   sampling; `futurerd-trace regress` times its smoke rows through the
//!   same measure loop and compares them against `BENCH_baseline.json`.
//!
//! Absolute times are not comparable to the paper (different host, different
//! substrate: library-level instrumentation instead of compiler
//! instrumentation, scaled-down inputs); the *shape* — which configuration
//! costs what, and how MultiBags+ degrades as the number of `get_fut`s grows
//! — is what the harness reproduces. Input sizes can be scaled with the
//! `FUTURERD_SCALE` environment variable (1 = defaults, 2 = 2× larger
//! problem sizes, ...).
//!
//! ## Quick start
//!
//! Time one (workload, mode, algorithm, configuration) cell directly:
//!
//! ```
//! use futurerd_bench::{run_config, Algorithm, Config};
//! use futurerd_workloads::{FutureMode, WorkloadKind, WorkloadParams};
//!
//! let params = WorkloadParams::tiny();
//! let (time, checksum, stats) = run_config(
//!     WorkloadKind::Lcs,
//!     FutureMode::Structured,
//!     Algorithm::MultiBags,
//!     Config::Full,
//!     &params,
//! );
//! assert!(time.as_nanos() > 0 && checksum != 0);
//! assert!(stats.unwrap().queries > 0); // full detection queried reachability
//! ```

#![warn(missing_docs)]

pub mod checksuite;
pub mod json;
pub mod kernels;
pub mod regress;

use futurerd_core::detector::{InstrumentationOnly, RaceDetector, ReachabilityOnly};
use futurerd_core::reachability::{MultiBags, MultiBagsPlus};
use futurerd_core::ReachStats;
use futurerd_dag::NullObserver;
use futurerd_workloads::{run_workload, FutureMode, WorkloadKind, WorkloadParams};
use std::time::{Duration, Instant};

/// The four measurement configurations of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Run without any detection state.
    Baseline,
    /// Maintain the reachability structure only.
    Reachability,
    /// Reachability + memory-access instrumentation (no access history).
    Instrumentation,
    /// Full race detection.
    Full,
}

impl Config {
    /// All configurations in table order.
    pub const ALL: [Config; 4] = [
        Config::Baseline,
        Config::Reachability,
        Config::Instrumentation,
        Config::Full,
    ];

    /// Column label used in the tables.
    pub fn label(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Reachability => "reachability",
            Config::Instrumentation => "instr",
            Config::Full => "full",
        }
    }
}

/// Which reachability algorithm drives the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// MultiBags (structured futures).
    MultiBags,
    /// MultiBags+ (general futures).
    MultiBagsPlus,
}

impl Algorithm {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::MultiBags => "MultiBags",
            Algorithm::MultiBagsPlus => "MultiBags+",
        }
    }
}

/// The input scale factor, `FUTURERD_SCALE` (default and minimum 1).
pub(crate) fn scale() -> usize {
    std::env::var("FUTURERD_SCALE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Writes `args` to stdout for the command-line front ends. When the
/// reader has gone away (`futurerd-trace profile t.trace | head -2`) the
/// process ends quietly with status 0; any other stdout error is reported
/// in one line on stderr and exits with status 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Benchmark-input sizes used for the tables. These are scaled-down versions
/// of the paper's inputs so a full table regenerates in seconds rather than
/// hours; scale them with `FUTURERD_SCALE`.
pub fn bench_params(kind: WorkloadKind) -> WorkloadParams {
    let scale = scale();
    let base = WorkloadParams::default();
    match kind {
        // Paper: N = 16k, B = sqrt(N).
        WorkloadKind::Lcs => WorkloadParams {
            n: 256 * scale,
            base: 16 * scale,
            ..base
        },
        // Paper: N = 2048, B = sqrt(N); Θ(n³) work keeps n modest here.
        WorkloadKind::Sw => WorkloadParams {
            n: 64 * scale,
            base: 8 * scale,
            ..base
        },
        // Paper: N = 2048, B = sqrt(N).
        WorkloadKind::Mm => WorkloadParams {
            n: 48 * scale,
            base: 8 * scale,
            ..base
        },
        // Paper: trees of 8e6 / 4e6 nodes.
        WorkloadKind::Bst => WorkloadParams {
            bst_sizes: (6000 * scale, 3000 * scale),
            base: 64,
            ..base
        },
        // Paper: 10 ultrasound frames.
        WorkloadKind::Heartwall => WorkloadParams {
            heartwall: (10, 16 * scale, 64),
            ..base
        },
        // Paper: PARSEC input "large".
        WorkloadKind::Dedup => WorkloadParams {
            dedup: (96 * scale, 256),
            ..base
        },
    }
}

/// Times one run of a workload under the given configuration. Returns the
/// wall-clock time, the result checksum and (when a reachability structure
/// was involved) its work statistics.
pub fn run_config(
    kind: WorkloadKind,
    mode: FutureMode,
    algorithm: Algorithm,
    config: Config,
    params: &WorkloadParams,
) -> (Duration, u64, Option<ReachStats>) {
    let start = Instant::now();
    match (config, algorithm) {
        (Config::Baseline, _) => {
            let (_, result) = run_workload(kind, mode, params, NullObserver);
            (start.elapsed(), result.checksum, None)
        }
        (Config::Reachability, Algorithm::MultiBags) => {
            let (obs, result) = run_workload(
                kind,
                mode,
                params,
                ReachabilityOnly::<MultiBags>::structured(),
            );
            (start.elapsed(), result.checksum, Some(obs.stats()))
        }
        (Config::Reachability, Algorithm::MultiBagsPlus) => {
            let (obs, result) = run_workload(
                kind,
                mode,
                params,
                ReachabilityOnly::<MultiBagsPlus>::general(),
            );
            (start.elapsed(), result.checksum, Some(obs.stats()))
        }
        (Config::Instrumentation, Algorithm::MultiBags) => {
            let (obs, result) = run_workload(
                kind,
                mode,
                params,
                InstrumentationOnly::<MultiBags>::structured(),
            );
            (start.elapsed(), result.checksum, Some(obs.stats()))
        }
        (Config::Instrumentation, Algorithm::MultiBagsPlus) => {
            let (obs, result) = run_workload(
                kind,
                mode,
                params,
                InstrumentationOnly::<MultiBagsPlus>::general(),
            );
            (start.elapsed(), result.checksum, Some(obs.stats()))
        }
        (Config::Full, Algorithm::MultiBags) => {
            let (obs, result) =
                run_workload(kind, mode, params, RaceDetector::<MultiBags>::structured());
            assert!(
                obs.report().is_race_free(),
                "{kind} {mode}: unexpected race: {}",
                obs.report()
            );
            (start.elapsed(), result.checksum, Some(obs.reach_stats()))
        }
        (Config::Full, Algorithm::MultiBagsPlus) => {
            let (obs, result) =
                run_workload(kind, mode, params, RaceDetector::<MultiBagsPlus>::general());
            assert!(
                obs.report().is_race_free(),
                "{kind} {mode}: unexpected race: {}",
                obs.report()
            );
            (start.elapsed(), result.checksum, Some(obs.reach_stats()))
        }
    }
}

/// Times a run, repeating it enough times to smooth out timer noise for very
/// short configurations, and returns the mean duration.
pub fn run_config_timed(
    kind: WorkloadKind,
    mode: FutureMode,
    algorithm: Algorithm,
    config: Config,
    params: &WorkloadParams,
    repeats: u32,
) -> Duration {
    let repeats = repeats.max(1);
    let mut total = Duration::ZERO;
    for _ in 0..repeats {
        let (t, _, _) = run_config(kind, mode, algorithm, config, params);
        total += t;
    }
    total / repeats
}

/// One row of a Figure 6 / Figure 7 style table.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Time per configuration, in table order.
    pub times: [Duration; 4],
}

impl OverheadRow {
    /// Overhead of configuration `i` relative to the baseline.
    pub fn overhead(&self, i: usize) -> f64 {
        self.times[i].as_secs_f64() / self.times[0].as_secs_f64().max(1e-12)
    }
}

/// Geometric mean of a sequence of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut product = 1.0f64;
    let mut count = 0usize;
    for v in values {
        product *= v;
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        product.powf(1.0 / count as f64)
    }
}

/// Builds the rows of Figure 6 (structured futures, MultiBags) or Figure 7
/// (general futures, MultiBags+), depending on `mode`/`algorithm`.
pub fn overhead_table(mode: FutureMode, algorithm: Algorithm, repeats: u32) -> Vec<OverheadRow> {
    WorkloadKind::ALL
        .iter()
        .map(|&kind| {
            let params = bench_params(kind);
            let times = [
                run_config_timed(kind, mode, algorithm, Config::Baseline, &params, repeats),
                run_config_timed(
                    kind,
                    mode,
                    algorithm,
                    Config::Reachability,
                    &params,
                    repeats,
                ),
                run_config_timed(
                    kind,
                    mode,
                    algorithm,
                    Config::Instrumentation,
                    &params,
                    repeats,
                ),
                run_config_timed(kind, mode, algorithm, Config::Full, &params, repeats),
            ];
            OverheadRow {
                bench: kind.name(),
                times,
            }
        })
        .collect()
}

/// Formats a Figure 6/7 style table as text.
pub fn format_overhead_table(title: &str, rows: &[OverheadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>20} {:>20} {:>20}",
        "bench", "baseline", "reachability", "instr", "full"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>10.2}ms {:>13.2}ms ({:>4.2}x) {:>13.2}ms ({:>4.2}x) {:>13.2}ms ({:>5.2}x)",
            row.bench,
            row.times[0].as_secs_f64() * 1e3,
            row.times[1].as_secs_f64() * 1e3,
            row.overhead(1),
            row.times[2].as_secs_f64() * 1e3,
            row.overhead(2),
            row.times[3].as_secs_f64() * 1e3,
            row.overhead(3),
        );
    }
    let reach_gm = geomean(rows.iter().map(|r| r.overhead(1)));
    let full_gm = geomean(rows.iter().map(|r| r.overhead(3)));
    let _ = writeln!(
        out,
        "geomean overhead: reachability {reach_gm:.2}x, full {full_gm:.2}x"
    );
    out
}

/// One row of the Figure 8 table (base-case sweep on structured programs).
#[derive(Debug, Clone)]
pub struct BaseCaseRow {
    /// Benchmark and base-case label, e.g. `lcs (B=32)`.
    pub label: String,
    /// Baseline time.
    pub baseline: Duration,
    /// MultiBags reachability-only time.
    pub multibags: Duration,
    /// MultiBags+ reachability-only time.
    pub multibags_plus: Duration,
    /// Number of `get_fut` operations (`k`).
    pub gets: u64,
    /// Bytes used by MultiBags+'s reachability matrix `R`.
    pub r_bytes: u64,
}

/// Builds the Figure 8 sweep: lcs / sw / mm with shrinking base cases, all
/// three configurations in the *reachability* configuration, structured
/// futures (MultiBags+ pays its k² price even though the program is
/// structured — exactly the effect Figure 8 isolates).
pub fn base_case_table(repeats: u32) -> Vec<BaseCaseRow> {
    let sweep: [(WorkloadKind, &[usize]); 3] = [
        (WorkloadKind::Lcs, &[32, 16, 8]),
        (WorkloadKind::Sw, &[16, 8]),
        (WorkloadKind::Mm, &[16, 8, 4]),
    ];
    let mut rows = Vec::new();
    for (kind, bases) in sweep {
        for &b in bases {
            let params = bench_params(kind).with_base(b);
            let baseline = run_config_timed(
                kind,
                FutureMode::Structured,
                Algorithm::MultiBags,
                Config::Baseline,
                &params,
                repeats,
            );
            let multibags = run_config_timed(
                kind,
                FutureMode::Structured,
                Algorithm::MultiBags,
                Config::Reachability,
                &params,
                repeats,
            );
            let (mbp_time, _, stats) = {
                let mut best = Duration::MAX;
                let mut stats = None;
                for _ in 0..repeats.max(1) {
                    let (t, c, s) = run_config(
                        kind,
                        FutureMode::Structured,
                        Algorithm::MultiBagsPlus,
                        Config::Reachability,
                        &params,
                    );
                    if t < best {
                        best = t;
                        stats = s;
                    }
                    let _ = c;
                }
                (best, 0u64, stats)
            };
            let (gets, r_bytes) = {
                let (_, result) = run_workload(
                    kind,
                    FutureMode::Structured,
                    &params,
                    futurerd_dag::NullObserver,
                );
                (
                    result.summary.gets,
                    stats.map(|s| s.r_bytes).unwrap_or_default(),
                )
            };
            rows.push(BaseCaseRow {
                label: format!("{} (B={})", kind.name(), b),
                baseline,
                multibags,
                multibags_plus: mbp_time,
                gets,
                r_bytes,
            });
        }
    }
    rows
}

/// Formats the Figure 8 table.
pub fn format_base_case_table(rows: &[BaseCaseRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: reachability maintenance, MultiBags vs MultiBags+ (structured programs, shrinking base case)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>20} {:>20} {:>10} {:>12}",
        "bench", "baseline", "MultiBags", "MultiBags+", "k (gets)", "R bytes"
    );
    for r in rows {
        let base = r.baseline.as_secs_f64().max(1e-12);
        let _ = writeln!(
            out,
            "{:<14} {:>10.2}ms {:>13.2}ms ({:>4.2}x) {:>13.2}ms ({:>4.2}x) {:>10} {:>12}",
            r.label,
            r.baseline.as_secs_f64() * 1e3,
            r.multibags.as_secs_f64() * 1e3,
            r.multibags.as_secs_f64() / base,
            r.multibags_plus.as_secs_f64() * 1e3,
            r.multibags_plus.as_secs_f64() / base,
            r.gets,
            r.r_bytes,
        );
    }
    out
}

/// One row of the complexity-scaling ablation (Theorems 4.1 / 5.1): how the
/// number of disjoint-set operations and attached sets grows with the input.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Description of the measured point.
    pub label: String,
    /// Memory accesses performed.
    pub accesses: u64,
    /// `get_fut` operations (`k`).
    pub gets: u64,
    /// Disjoint-set operations performed by the reachability structure.
    pub dsu_ops: u64,
    /// Attached sets created (MultiBags+ only, 0 for MultiBags).
    pub attached_sets: u64,
}

/// Measures the operation counts backing the complexity claims, for a sweep
/// of lcs sizes under both algorithms (full detection).
pub fn scaling_table() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in &[64usize, 128, 256] {
        for (alg, mode) in [
            (Algorithm::MultiBags, FutureMode::Structured),
            (Algorithm::MultiBagsPlus, FutureMode::General),
        ] {
            let params = bench_params(WorkloadKind::Lcs).with_n(n).with_base(16);
            let (obs_stats, summary) = match alg {
                Algorithm::MultiBags => {
                    let (obs, result) = run_workload(
                        WorkloadKind::Lcs,
                        mode,
                        &params,
                        RaceDetector::<MultiBags>::structured(),
                    );
                    (obs.reach_stats(), result.summary)
                }
                Algorithm::MultiBagsPlus => {
                    let (obs, result) = run_workload(
                        WorkloadKind::Lcs,
                        mode,
                        &params,
                        RaceDetector::<MultiBagsPlus>::general(),
                    );
                    (obs.reach_stats(), result.summary)
                }
            };
            rows.push(ScalingRow {
                label: format!("lcs n={n} {}", alg.label()),
                accesses: summary.accesses(),
                gets: summary.gets,
                dsu_ops: obs_stats.dsu_ops(),
                attached_sets: obs_stats.attached_sets,
            });
        }
    }
    rows
}

/// Formats the scaling ablation.
pub fn format_scaling_table(rows: &[ScalingRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Complexity ablation (Theorems 4.1 / 5.1): operation counts vs input size"
    );
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>10} {:>12} {:>14} {:>16}",
        "point", "accesses", "k (gets)", "dsu ops", "attached sets", "dsu ops/access"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>10} {:>12} {:>14} {:>16.3}",
            r.label,
            r.accesses,
            r.gets,
            r.dsu_ops,
            r.attached_sets,
            r.dsu_ops as f64 / r.accesses.max(1) as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(std::iter::empty::<f64>()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_config_checksums_match_across_configurations() {
        let kind = WorkloadKind::Lcs;
        let params = WorkloadParams::tiny();
        let mut checksums = Vec::new();
        for config in Config::ALL {
            let (_, checksum, _) = run_config(
                kind,
                FutureMode::Structured,
                Algorithm::MultiBags,
                config,
                &params,
            );
            checksums.push(checksum);
        }
        assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn full_config_reports_reach_stats() {
        let params = WorkloadParams::tiny();
        let (_, _, stats) = run_config(
            WorkloadKind::Dedup,
            FutureMode::General,
            Algorithm::MultiBagsPlus,
            Config::Full,
            &params,
        );
        let stats = stats.expect("full config must expose reachability stats");
        assert!(stats.queries > 0);
        assert!(stats.attached_sets > 0);
    }

    #[test]
    fn table_formatting_includes_every_benchmark() {
        // Use tiny parameters through the public API by formatting a table
        // built from synthetic rows (formatting only; no timing).
        let rows: Vec<OverheadRow> = WorkloadKind::ALL
            .iter()
            .map(|k| OverheadRow {
                bench: k.name(),
                times: [
                    Duration::from_millis(10),
                    Duration::from_millis(11),
                    Duration::from_millis(30),
                    Duration::from_millis(200),
                ],
            })
            .collect();
        let text = format_overhead_table("Figure 6", &rows);
        for k in WorkloadKind::ALL {
            assert!(text.contains(k.name()));
        }
        assert!(text.contains("geomean"));
    }

    #[test]
    fn config_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            Config::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
