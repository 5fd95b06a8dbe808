//! `futurerd-trace` — record, replay and differentially check execution
//! traces of the benchmark workloads.
//!
//! ```text
//! # Record a workload's execution into a trace file:
//! cargo run --release -p futurerd-bench --bin futurerd-trace -- \
//!     record --workload lcs --mode structured --out lcs.trace
//!
//! # Replay a trace file through one or all detectors (no re-execution):
//! cargo run --release -p futurerd-bench --bin futurerd-trace -- \
//!     replay --input lcs.trace --algorithm all
//!
//! # Record + replay + cross-check against in-process detection:
//! cargo run --release -p futurerd-bench --bin futurerd-trace -- \
//!     diff --workload bst --mode general
//!
//! # Differentially fuzz the whole detector matrix on generated programs:
//! cargo run --release -p futurerd-bench --bin futurerd-trace -- \
//!     fuzz --seeds 500
//! ```
//!
//! `diff` exits non-zero if any replayed verdict differs from the verdict of
//! running the same detector in-process, or if any sound algorithm
//! disagrees with the ground-truth oracle. SP-Bags aborts on futures by
//! design, so for the futures-based workloads it is reported as
//! not-runnable (identically in-process and on replay) rather than run.
//!
//! `fuzz` generates seeded racy programs (see `futurerd_workloads::fuzzgen`)
//! and runs every detector through every serving path — sequential replay,
//! one-shot parallel replay, streaming sessions under random chunkings,
//! and persistent-store round-trips — against the ground-truth oracle. Every
//! divergence is classified: known approximations (the fork-join baseline on
//! futures, MultiBags on multi-touch traces) are quantified, anything else
//! is a real bug and the command exits non-zero.

use futurerd_bench::{out, outln};
use futurerd_core::detector::RaceDetector;
use futurerd_core::parallel::{oneshot_workers, par_replay_detect};
use futurerd_core::reachability::{
    GraphOracle, MultiBags, MultiBagsPlus, SpBags, SpBagsConservative,
};
use futurerd_core::replay::{replay_detect_unchecked, ApproximationError, ReplayAlgorithm};
use futurerd_core::RaceReport;
use futurerd_dag::trace::Trace;
use futurerd_fuzz::{run_fuzz, FuzzOptions};
use futurerd_runtime::trace::TraceRecorder;
use futurerd_store::{BatchJob, Store};
use futurerd_workloads::{lcs, run_workload, FutureMode, WorkloadKind, WorkloadParams};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: futurerd-trace <record|replay|diff|batch|follow|fuzz|profile|regress|lint|check> [options]\n\
         \n\
         record --workload <{names}> --mode <structured|general> --out <path>\n\
        \x20       [--size <tiny|default>] [--seed <u64>] [--racy]\n\
         replay --input <path> [--algorithm <multibags|multibags+|spbags|spbags-cons|oracle|all>]\n\
        \x20       [--threads <n>] [--metrics[=text|json|prom]] [--metrics-out <path>]\n\
        \x20       [--trace-out <path>] [--timeline]\n\
         diff   --workload <name> --mode <mode> [--size <tiny|default>] [--seed <u64>] [--racy]\n\
         batch  <dir> [--algorithm <multibags|multibags+|all>] [--threads <n>]\n\
        \x20       [--metrics[=text|json|prom]] [--metrics-out <path>] [--trace-out <path>]\n\
         follow --workload <name> --mode <mode> [--algorithm <multibags|multibags+>]\n\
        \x20       [--threads <n>] [--chunks <n>] [--store <dir>] [--size ...] [--seed ...] [--racy]\n\
        \x20       [--metrics[=text|json|prom]] [--metrics-out <path>] [--trace-out <path>]\n\
         fuzz   [--seeds <n>] [--minutes <m>] [--emit-corpus <dir> [--per-shape <n>]]\n\
        \x20       [--metrics[=text|json|prom]] [--metrics-out <path>]\n\
         profile <trace> [--algorithm <multibags|multibags+>] [--threads <n>] [--json]\n\
        \x20       [--trace-out <path>]\n\
         regress --against <baseline.json> [--bench <name>] [--out <run.json>]\n\
        \x20       [--from <run.json>] [--samples <n>] [--inflate <factor>]\n\
        \x20       [--trajectory <path>] [--no-trajectory]\n\
         lint   [--root <workspace>] [--self-test]\n\
         check  [--preemptions <n>] [--max-executions <n>] [--skip-planted]\n\
         \n\
         --racy uses the workload's seeded-race variant (lcs only): the\n\
         recorded trace then carries a real determinacy race to detect.\n\
         --threads N runs detection on N workers (MultiBags / MultiBags+;\n\
         the report is identical at any thread count). One-shot replay\n\
         runs N single passes over the trace, each with its own\n\
         reachability structure and the access history of every N-th\n\
         granule; nothing is frozen, and N stops at the core count, since\n\
         every pass repeats the reachability work. follow and batch freeze\n\
         reachability for the two-pass engine.\n\
         batch treats <dir> as a futurerd-store detection store: every\n\
         *.trace in it is replayed under the selected freezable algorithms,\n\
         one stored-session report per job, served warm from its FRDIDX\n\
         sidecar when one is valid; the deterministic result manifest is\n\
         printed and written to <dir>/batch-manifest.txt.\n\
         follow simulates a growing execution: the workload's event stream\n\
         is fed to one long-lived detection session in --chunks appends\n\
         (default 8), re-detecting after each — the first report freezes\n\
         cold, every later one is incremental (only partitions the appended\n\
         suffix touched re-run). With --store the session is persistent:\n\
         state resumes from and refreshes the trace's FRDIDX sidecar. The\n\
         final verdict is cross-checked against one-shot replay.\n\
         fuzz differentially checks every detector × serving path on seeded\n\
         generated programs (default 100 seeds; --minutes caps wall-clock).\n\
         Divergences are classified; any real bug makes the exit non-zero.\n\
         --emit-corpus shrinks the first racy seeds of every generator shape\n\
         into tests/fixtures-style regression fixtures instead of fuzzing.\n\
         --metrics turns the futurerd-obs span/metric recorder on for the\n\
         run and prints the merged snapshot afterwards — as an aligned text\n\
         table (default), JSON-lines, or a Prometheus exposition. Recording\n\
         never changes verdicts: reports are byte-identical on and off.\n\
         --metrics-out writes that snapshot to a file instead of stdout\n\
         (JSON-lines unless --metrics says otherwise).\n\
         --trace-out additionally records the interval timeline journal and\n\
         writes it as Chrome-trace JSON (chrome://tracing, Perfetto);\n\
         --timeline prints the journal as an aligned text timeline.\n\
         Observing never reroutes: replay at P=1 runs the same single pass\n\
         with or without these flags, attributed as validate and detect.\n\
         profile replays <trace> at P=1 (the single pass) and P=N (N single\n\
         passes; N from --threads, else FUTURERD_PAR_THREADS, else the\n\
         machine's parallelism, and at most the core count), 5 runs each\n\
         in alternation, and prints\n\
         each stage's median time with its min and max over the runs:\n\
         validate, detect (detect.partition per worker), merge vs wall\n\
         clock. --json emits one machine-readable JSON line per profiled\n\
         thread count instead of the tables.\n\
         lint runs the workspace invariant linter (token-level, no rustc):\n\
         unsafe allowlist + SAFETY comments, obs names against the\n\
         futurerd-obs manifest, Relaxed orderings on policed atomics,\n\
         Instant::now placement. Exit 0 ⇔ clean. --self-test lints the\n\
         fabricated seeded-violation sources and fails unless every rule\n\
         fires (CI's guard against a silently broken linter).\n\
         check explores the shipped lock-free cores (chunk-index claim,\n\
         latches, timeline journal, metrics registry) on the model shim —\n\
         exhaustively at 2–3 threads unless --preemptions bounds the\n\
         context switches. Planted-bug twins run first and must each be\n\
         caught with a replayable schedule (--skip-planted omits them).\n\
         Any invariant-violating schedule prints a replayable trace and\n\
         the exit is non-zero.\n\
         regress re-measures the smoke rows of the benchmark table (the\n\
         kernels cargo bench --bench figs sweeps, in short samples) and\n\
         compares means against --against with noise-aware thresholds\n\
         derived from the baseline's own min/max spread; --bench keeps the\n\
         ids of one bench name or id substring. It appends one line to the\n\
         BENCH_trajectory.jsonl perf trajectory and exits non-zero when\n\
         anything regressed. --from compares a saved --out document\n\
         instead of re-measuring; --inflate <factor> scales the run's\n\
         times (a harness self-test knob, used by CI to plant a known\n\
         regression).",
        names = WorkloadKind::ALL.map(|k| k.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_workload(name: &str) -> WorkloadKind {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload '{name}'");
            usage()
        })
}

fn parse_mode(name: &str) -> FutureMode {
    match name {
        "structured" => FutureMode::Structured,
        "general" => FutureMode::General,
        other => {
            eprintln!("unknown mode '{other}'");
            usage()
        }
    }
}

/// Export format selected by `--metrics[=text|json|prom]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Json,
    Prom,
}

fn parse_metrics_format(name: &str) -> MetricsFormat {
    match name {
        "text" => MetricsFormat::Text,
        "json" => MetricsFormat::Json,
        "prom" => MetricsFormat::Prom,
        other => {
            eprintln!("unknown metrics format '{other}' (expected text, json or prom)");
            usage()
        }
    }
}

/// Renders the current `futurerd-obs` snapshot in the selected format.
fn render_metrics(format: MetricsFormat) -> String {
    let snapshot = futurerd_obs::snapshot();
    match format {
        MetricsFormat::Text => futurerd_obs::export_text(&snapshot),
        MetricsFormat::Json => futurerd_obs::export_json_lines(&snapshot),
        MetricsFormat::Prom => futurerd_obs::export_prometheus(&snapshot),
    }
}

#[derive(Debug)]
struct Options {
    workload: Option<WorkloadKind>,
    mode: FutureMode,
    out: Option<String>,
    input: Option<String>,
    algorithm: Option<String>,
    params: WorkloadParams,
    racy: bool,
    threads: usize,
    chunks: usize,
    store: Option<String>,
    metrics: Option<MetricsFormat>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    timeline: bool,
    json: bool,
    seeds: u64,
    minutes: Option<u64>,
    emit_corpus: Option<String>,
    per_shape: usize,
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        workload: None,
        mode: FutureMode::Structured,
        out: None,
        input: None,
        algorithm: None,
        params: WorkloadParams::tiny(),
        racy: false,
        threads: 1,
        chunks: 8,
        store: None,
        metrics: None,
        metrics_out: None,
        trace_out: None,
        timeline: false,
        json: false,
        seeds: 100,
        minutes: None,
        emit_corpus: None,
        per_shape: 2,
    };
    let mut size_default = false;
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {flag} needs a value");
                usage()
            })
        };
        let parse_count = |flag: &str, value: String| {
            value
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a positive integer");
                    usage()
                })
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(parse_workload(&value())),
            "--mode" => opts.mode = parse_mode(&value()),
            "--out" => opts.out = Some(value()),
            "--input" => opts.input = Some(value()),
            "--algorithm" => opts.algorithm = Some(value()),
            "--size" => match value().as_str() {
                "tiny" => size_default = false,
                "default" => size_default = true,
                other => {
                    eprintln!("unknown size '{other}'");
                    usage()
                }
            },
            "--seed" => {
                seed = Some(value().parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--seed needs an unsigned integer");
                    usage()
                }))
            }
            "--racy" => opts.racy = true,
            "--store" => opts.store = Some(value()),
            "--metrics" => opts.metrics = Some(MetricsFormat::Text),
            flag if flag.starts_with("--metrics=") => {
                opts.metrics = Some(parse_metrics_format(&flag["--metrics=".len()..]));
            }
            "--metrics-out" => opts.metrics_out = Some(value()),
            "--trace-out" => opts.trace_out = Some(value()),
            "--timeline" => opts.timeline = true,
            "--json" => opts.json = true,
            "--seeds" => opts.seeds = parse_count(flag, value()),
            "--minutes" => opts.minutes = Some(parse_count(flag, value())),
            "--emit-corpus" => opts.emit_corpus = Some(value()),
            "--per-shape" => opts.per_shape = parse_count(flag, value()) as usize,
            "--chunks" => {
                opts.chunks = value()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--chunks needs a positive integer");
                        usage()
                    })
            }
            "--threads" => {
                opts.threads = value()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        usage()
                    })
            }
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if size_default {
        opts.params = WorkloadParams::default();
    }
    if let Some(seed) = seed {
        opts.params.seed = seed;
    }
    opts
}

/// Turns the recorders the parsed flags ask for on, before the command
/// runs: `--metrics`/`--metrics-out` enable the span/metric recorder,
/// `--trace-out`/`--timeline` additionally enable the interval journal.
fn enable_observability(opts: &Options) {
    if opts.metrics.is_some() || opts.metrics_out.is_some() {
        futurerd_obs::set_enabled(true);
    }
    if opts.trace_out.is_some() || opts.timeline {
        futurerd_obs::set_timeline_enabled(true);
    }
}

/// Emits the recorded observability artifacts after the command ran:
/// the metrics snapshot (to `--metrics-out` or stdout) and the interval
/// timeline (`--timeline` text to stdout, `--trace-out` Chrome-trace
/// JSON to a file). Returns `false` when a file could not be written.
fn emit_observability(opts: &Options) -> bool {
    let mut ok = true;
    if let Some(path) = &opts.metrics_out {
        // File artifacts default to JSON-lines (one parseable object per
        // row) unless --metrics picked a format explicitly.
        let rendered = render_metrics(opts.metrics.unwrap_or(MetricsFormat::Json));
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("cannot write metrics to {path}: {e}");
            ok = false;
        } else {
            outln!("metrics written to {path}");
        }
    } else if let Some(format) = opts.metrics {
        out!("{}", render_metrics(format));
    }
    if opts.trace_out.is_some() || opts.timeline {
        let timeline = futurerd_obs::timeline();
        if opts.timeline {
            out!("{}", futurerd_obs::export_timeline_text(&timeline));
        }
        if let Some(path) = &opts.trace_out {
            if let Err(e) = std::fs::write(path, futurerd_obs::export_chrome_trace(&timeline)) {
                eprintln!("cannot write timeline to {path}: {e}");
                ok = false;
            } else {
                let threads = timeline.utilization().len();
                outln!(
                    "timeline written to {path}: {} interval(s) across {} thread(s), {} dropped",
                    timeline.intervals.len(),
                    threads,
                    timeline.dropped,
                );
            }
        }
    }
    ok
}

/// Runs `workload`/`mode` under an arbitrary observer — either the regular
/// harness variant or (with `--racy`) the seeded-race variant.
fn run_observed<O: futurerd_dag::Observer>(
    workload: WorkloadKind,
    mode: FutureMode,
    params: &WorkloadParams,
    racy: bool,
    observer: O,
) -> (O, u64) {
    if racy {
        if workload != WorkloadKind::Lcs {
            eprintln!("--racy is only available for the lcs workload");
            usage()
        }
        let input = lcs::LcsInput::generate(params.n, params.seed);
        let (value, observer, _) = futurerd_runtime::run_program(observer, |cx| {
            lcs::structured_with_race(cx, &input, params.base)
        });
        (observer, value as u64)
    } else {
        let (observer, result) = run_workload(workload, mode, params, observer);
        (observer, result.checksum)
    }
}

/// Records `workload`/`mode` under a [`TraceRecorder`] and returns the trace
/// plus the run's checksum and wall-clock time.
fn record_trace(
    workload: WorkloadKind,
    mode: FutureMode,
    params: &WorkloadParams,
    racy: bool,
) -> (Trace, u64, std::time::Duration) {
    let start = Instant::now();
    let (recorder, checksum) = run_observed(workload, mode, params, racy, TraceRecorder::new());
    let elapsed = start.elapsed();
    (recorder.into_trace(), checksum, elapsed)
}

/// Runs `workload`/`mode` in-process under the full detector for
/// `algorithm`. SP-Bags is only attempted on futures-free executions.
fn detect_in_process(
    workload: WorkloadKind,
    mode: FutureMode,
    params: &WorkloadParams,
    racy: bool,
    algorithm: ReplayAlgorithm,
) -> RaceReport {
    match algorithm {
        ReplayAlgorithm::MultiBags => run_observed(
            workload,
            mode,
            params,
            racy,
            RaceDetector::<MultiBags>::structured(),
        )
        .0
        .into_report(),
        ReplayAlgorithm::MultiBagsPlus => run_observed(
            workload,
            mode,
            params,
            racy,
            RaceDetector::<MultiBagsPlus>::general(),
        )
        .0
        .into_report(),
        ReplayAlgorithm::SpBags => run_observed(
            workload,
            mode,
            params,
            racy,
            RaceDetector::new(SpBags::new()),
        )
        .0
        .into_report(),
        ReplayAlgorithm::SpBagsConservative => run_observed(
            workload,
            mode,
            params,
            racy,
            RaceDetector::new(SpBagsConservative::new()),
        )
        .0
        .into_report(),
        ReplayAlgorithm::GraphOracle => run_observed(
            workload,
            mode,
            params,
            racy,
            RaceDetector::new(GraphOracle::new()),
        )
        .0
        .into_report(),
    }
}

fn verdict_line(algorithm: ReplayAlgorithm, report: &RaceReport, elapsed: std::time::Duration) {
    outln!(
        "  {:<11} {:>4} racy granules, {:>6} observations   ({:.2?})",
        algorithm.name(),
        report.race_count(),
        report.total_observations(),
        elapsed
    );
}

fn cmd_record(opts: &Options) -> ExitCode {
    let Some(workload) = opts.workload else {
        eprintln!("record needs --workload");
        usage()
    };
    let Some(out) = &opts.out else {
        eprintln!("record needs --out");
        usage()
    };
    let (trace, checksum, elapsed) = record_trace(workload, opts.mode, &opts.params, opts.racy);
    let counts = match trace.validate() {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("recorded trace failed validation (bug): {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = trace.save(out) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    outln!(
        "recorded {workload} ({mode}) in {elapsed:.2?}: {events} events, {counts}",
        mode = opts.mode,
        events = trace.len(),
    );
    outln!("checksum {checksum:#x}; wrote {bytes} bytes to {out}");
    ExitCode::SUCCESS
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let Some((dir, rest)) = args.split_first() else {
        eprintln!("batch needs a store directory");
        usage()
    };
    if dir.starts_with("--") {
        eprintln!("batch needs the store directory before any flags");
        usage()
    }
    let opts = parse_options(rest);
    enable_observability(&opts);
    let algorithms: Vec<ReplayAlgorithm> = match opts.algorithm.as_deref() {
        None | Some("all") => vec![ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus],
        Some(name) => match ReplayAlgorithm::parse(name) {
            Some(algorithm) if algorithm.freezable() => vec![algorithm],
            Some(algorithm) => {
                eprintln!("{algorithm}: no frozen reachability form, the store cannot serve it");
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("unknown algorithm '{name}'");
                usage()
            }
        },
    };
    let mut store = match Store::open(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open store at {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = match store.trace_names() {
        Ok(names) => names,
        Err(e) => {
            eprintln!("cannot list {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if names.is_empty() {
        eprintln!("no *.trace files in {dir}");
        return ExitCode::FAILURE;
    }
    let jobs: Vec<BatchJob> = names
        .iter()
        .flat_map(|name| {
            algorithms.iter().map(|&algorithm| BatchJob {
                trace: name.clone(),
                algorithm,
                threads: opts.threads,
            })
        })
        .collect();
    let start = Instant::now();
    let queued = jobs.len();
    let manifest = match futurerd::run_batch(&mut store, jobs) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("batch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    out!("{manifest}");
    let stats = store.stats();
    outln!(
        "{queued} job(s) in {:.2?}: {} cold freeze(s), {} warm load(s), {} fully cached, {} incremental; manifest written to {dir}/batch-manifest.txt",
        start.elapsed(),
        stats.cold_freezes,
        stats.warm_index_loads,
        stats.warm_cached_hits,
        stats.incremental_refreezes,
    );
    outln!(
        "store: {} partition(s) rerun, {} reused, {} rebalance(s), {} invalidated sidecar(s)",
        stats.partitions_rerun,
        stats.partitions_reused,
        stats.rebalances,
        stats.invalidated_sidecars,
    );
    if futurerd_obs::enabled() {
        stats.export_metrics("store");
    }
    let emitted = emit_observability(&opts);
    if manifest.all_ok() && emitted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads and decodes a trace file for the commands that start from one.
/// Also returns the line they print about it: the file's size and the time
/// it took to load, so decoding shows up next to detection.
fn load_timed(path: &str) -> Result<(Trace, String), futurerd_dag::trace::TraceError> {
    let start = Instant::now();
    let bytes = std::fs::read(path)?;
    let trace = Trace::from_bytes(&bytes)?;
    let line = format!(
        "  trace file: {} bytes, loaded in {:.2?}",
        bytes.len(),
        start.elapsed()
    );
    Ok((trace, line))
}

fn cmd_replay(opts: &Options) -> ExitCode {
    let Some(input) = &opts.input else {
        eprintln!("replay needs --input");
        usage()
    };
    let (trace, loaded) = match load_timed(input) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let counts = match trace.validate() {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("{input} is not a canonical serial-DF trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!("{input}: {events} events, {counts}", events = trace.len());
    outln!("{loaded}");
    let (algorithms, explicit): (Vec<ReplayAlgorithm>, bool) = match opts.algorithm.as_deref() {
        None | Some("all") => (ReplayAlgorithm::ALL.to_vec(), false),
        Some(name) => match ReplayAlgorithm::parse(name) {
            Some(algorithm) => (vec![algorithm], true),
            None => {
                eprintln!("unknown algorithm '{name}'");
                usage()
            }
        },
    };
    for algorithm in algorithms {
        if !algorithm.runnable_for(&trace) {
            if explicit {
                // The user asked for this specific detector and it cannot
                // run: that is a failure, not a skip.
                eprintln!(
                    "{}: not runnable, the trace uses futures (SP-Bags aborts by design)",
                    algorithm.name()
                );
                return ExitCode::FAILURE;
            }
            outln!(
                "  {:<11} not runnable: the trace uses futures (SP-Bags aborts by design)",
                algorithm.name()
            );
            continue;
        }
        let start = Instant::now();
        // The facade's one-shot replay: the single pass at P=1 (recording
        // or not — observing never reroutes), P single passes above it.
        let workers = oneshot_workers(opts.threads);
        let sharded = workers > 1 && algorithm.freezable();
        let config = futurerd::Config::new()
            .algorithm(algorithm.into())
            .threads(opts.threads);
        let detection = match config.replay(&trace) {
            Ok(detection) => detection,
            Err(e) => {
                eprintln!("replay failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = detection.report();
        verdict_line(algorithm, report, start.elapsed());
        if sharded {
            outln!("              ({workers} single passes, granules dealt round-robin)");
        } else if opts.threads > 1 {
            outln!("              (not a paper algorithm: replayed in one single pass)");
        }
        if report.is_approximate() {
            outln!("              (approximate verdict: fork-join baseline on a futures trace)");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(opts: &Options) -> ExitCode {
    let Some(workload) = opts.workload else {
        eprintln!("diff needs --workload");
        usage()
    };
    let (trace, _, record_time) = record_trace(workload, opts.mode, &opts.params, opts.racy);
    if let Err(e) = trace.validate() {
        eprintln!("recorded trace failed validation (bug): {e}");
        return ExitCode::FAILURE;
    }
    outln!(
        "{workload} ({mode}): recorded {events} events in {record_time:.2?}",
        mode = opts.mode,
        events = trace.len(),
    );
    let mut failures = 0u32;
    let mut oracle_report = None;
    let mut sound_reports: Vec<(ReplayAlgorithm, RaceReport)> = Vec::new();
    let mut approximate_reports: Vec<(ReplayAlgorithm, RaceReport)> = Vec::new();
    for algorithm in ReplayAlgorithm::ALL {
        if !algorithm.runnable_for(&trace) {
            outln!(
                "  {:<11} not runnable on futures (identically in-process and on replay)",
                algorithm.name()
            );
            continue;
        }
        let start = Instant::now();
        let replayed = replay_detect_unchecked(&trace, algorithm);
        let replay_time = start.elapsed();
        let direct = detect_in_process(workload, opts.mode, &opts.params, opts.racy, algorithm);
        let matches = replayed.race_count() == direct.race_count()
            && replayed.total_observations() == direct.total_observations()
            && replayed.witnesses() == direct.witnesses();
        verdict_line(algorithm, &replayed, replay_time);
        if matches {
            outln!("              replay == in-process ✓");
        } else {
            outln!(
                "              MISMATCH: in-process found {} racy granules / {} observations",
                direct.race_count(),
                direct.total_observations()
            );
            failures += 1;
        }
        if algorithm == ReplayAlgorithm::GraphOracle {
            oracle_report = Some(replayed);
        } else if algorithm.sound_for(&trace) {
            sound_reports.push((algorithm, replayed));
        } else {
            approximate_reports.push((algorithm, replayed));
        }
    }
    // The oracle replays last; compare the other algorithms against it once
    // its verdict is in (replaying it eagerly up front would pay the most
    // expensive detector twice). Counts alone cannot distinguish equal-sized
    // but different racy-granule sets, so every comparison measures the full
    // sets: granules the oracle found that the algorithm missed, and
    // granules the algorithm reported that the oracle did not.
    let mut genuine_missed = 0usize;
    let mut genuine_spurious = 0usize;
    let mut approx_missed = 0usize;
    let mut approx_spurious = 0usize;
    if let Some(oracle) = &oracle_report {
        // Approximate baselines (conservative SP-Bags on futures, MultiBags
        // on multi-touch traces) are not held to agreement — quantify their
        // error instead, the number the paper's algorithms exist to remove.
        for (algorithm, report) in &approximate_reports {
            let error = ApproximationError::measure(*algorithm, report, oracle);
            approx_missed += error.missed;
            approx_spurious += error.spurious;
            outln!(
                "  {:<11} approximate vs oracle: {} racy granule(s) missed, {} spurious (by design, not a failure)",
                algorithm.name(),
                error.missed,
                error.spurious,
            );
        }
        // A sound algorithm must agree with the oracle exactly: any missed
        // or spurious granule is a genuine divergence, not an approximation.
        for (algorithm, report) in &sound_reports {
            let error = ApproximationError::measure(*algorithm, report, oracle);
            if error.missed == 0 && error.spurious == 0 {
                continue;
            }
            outln!(
                "  {:<11} MISMATCH vs oracle: {} racy granule(s) missed, {} spurious",
                algorithm.name(),
                error.missed,
                error.spurious,
            );
            genuine_missed += error.missed;
            genuine_spurious += error.spurious;
            failures += 1;
        }
    }
    outln!(
        "diff: {failures} genuine divergence(s) ({genuine_missed} missed / {genuine_spurious} spurious racy granules), {} known approximation(s) ({approx_missed} missed / {approx_spurious} spurious) => {}",
        approximate_reports.len(),
        if failures == 0 { "AGREE" } else { "DIVERGED" },
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} verdict mismatch(es)");
        ExitCode::FAILURE
    }
}

/// Drives one long-lived detection session over a growing execution: the
/// recorded event stream is ingested in `--chunks` appends, re-detecting
/// after each. Prints one line per append with the serving path, then
/// cross-checks the final verdict against one-shot replay.
fn cmd_follow(opts: &Options) -> ExitCode {
    let Some(workload) = opts.workload else {
        eprintln!("follow needs --workload");
        usage()
    };
    let algorithm = match opts.algorithm.as_deref() {
        None | Some("multibags") => futurerd::Algorithm::MultiBags,
        Some("multibags+") => futurerd::Algorithm::MultiBagsPlus,
        Some(other) => {
            eprintln!("follow serves the freezable algorithms only (got '{other}')");
            usage()
        }
    };
    let (trace, _, record_time) = record_trace(workload, opts.mode, &opts.params, opts.racy);
    if let Err(e) = trace.validate() {
        eprintln!("recorded trace failed validation (bug): {e}");
        return ExitCode::FAILURE;
    }
    let events = trace.events();
    outln!(
        "{workload} ({mode}): recorded {n} events in {record_time:.2?}; following in {chunks} chunk(s), {algorithm:?} P={threads}",
        mode = opts.mode,
        n = events.len(),
        chunks = opts.chunks,
        threads = opts.threads,
    );

    let config = futurerd::Config::new()
        .algorithm(algorithm)
        .threads(opts.threads);
    let mut store: Option<futurerd::Store> = None;
    let mut session = match &opts.store {
        Some(dir) => {
            let mut opened = match futurerd::Config::store(dir) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("cannot open store at {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let name = format!("follow-{}-{}", workload.name(), opts.mode);
            // Seed an empty entry only on first use — an existing entry is
            // the previous run's persisted state and the session resumes
            // from it (warm, from the FRDIDX sidecar).
            let seed_empty = |store: &mut futurerd::Store| {
                store.put_trace(&name, &futurerd_dag::trace::Trace::new())
            };
            if !opened.trace_path(&name).exists() {
                if let Err(e) = seed_empty(&mut opened) {
                    eprintln!("cannot seed store entry '{name}': {e}");
                    return ExitCode::FAILURE;
                }
            }
            // The stored stream must be a prefix of this recording (the
            // workloads are deterministic, so a matching run resumes); a
            // diverged entry — different params under the same name — is
            // reset rather than poisoned. Check the trace file directly so
            // the reset happens before the (borrowing) session opens.
            match opened.load_trace(&name) {
                Ok(stored)
                    if stored.len() > events.len()
                        || stored.events() != &events[..stored.len()] =>
                {
                    outln!("  stored entry '{name}' diverged from this recording; resetting");
                    if let Err(e) = seed_empty(&mut opened) {
                        eprintln!("cannot reset store entry '{name}': {e}");
                        return ExitCode::FAILURE;
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("cannot read store entry '{name}': {e}");
                    return ExitCode::FAILURE;
                }
            }
            match config.open_session(store.insert(opened), &name) {
                Ok(session) => session,
                Err(e) => {
                    eprintln!("cannot open stored session '{name}': {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => config.session(),
    };
    if !session.is_empty() {
        outln!(
            "  resuming stored session at {} event(s) already ingested",
            session.len()
        );
    }

    let chunk_len = events.len().div_ceil(opts.chunks);
    let start = Instant::now();
    let events = &events[session.len()..]; // only the part not yet ingested
    for (i, chunk) in events.chunks(chunk_len.max(1)).enumerate() {
        let ingest_start = Instant::now();
        if let Err(e) = session.ingest(chunk) {
            eprintln!("append {i} refused: {e}");
            return ExitCode::FAILURE;
        }
        let detection = match session.report() {
            Ok(detection) => detection,
            Err(e) => {
                eprintln!("report after append {i} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        outln!(
            "  +{:>6} ev → {:>7} total: {:>3} racy granules   [{}]   ({:.2?})",
            chunk.len(),
            session.len(),
            detection.race_count(),
            detection
                .path
                .map(|p| p.to_string())
                .unwrap_or_else(|| "unrouted".into()),
            ingest_start.elapsed(),
        );
    }
    let follow_time = start.elapsed();

    // The whole point of sessions: the final incremental verdict is
    // byte-identical to one-shot replay of the full trace.
    let one_shot = match config.replay(&trace) {
        Ok(detection) => detection,
        Err(e) => {
            eprintln!("one-shot replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let last = match session.report() {
        Ok(detection) => detection,
        Err(e) => {
            eprintln!("final report failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if last.report().to_string() != one_shot.report().to_string() {
        eprintln!(
            "MISMATCH: followed session found {} racy granules, one-shot replay {}",
            last.race_count(),
            one_shot.race_count()
        );
        return ExitCode::FAILURE;
    }
    outln!(
        "followed {} events in {follow_time:.2?}; final verdict == one-shot replay ✓",
        events.len()
    );
    // The session holds the store borrow; release it so the aggregate
    // serving statistics can be read out for satellite visibility.
    drop(session);
    if let Some(store) = &store {
        let stats = store.stats();
        outln!(
            "  store: {} cold freeze(s), {} warm load(s), {} fully cached, {} incremental ({} partition(s) rerun, {} reused, {} rebalance(s), {} invalidated sidecar(s))",
            stats.cold_freezes,
            stats.warm_index_loads,
            stats.warm_cached_hits,
            stats.incremental_refreezes,
            stats.partitions_rerun,
            stats.partitions_reused,
            stats.rebalances,
            stats.invalidated_sidecars,
        );
        stats.export_metrics("store");
    }
    ExitCode::SUCCESS
}

/// Differentially fuzzes the detector matrix on seeded generated programs,
/// or (with `--emit-corpus`) regenerates the minimized fixture corpus.
fn cmd_fuzz(opts: &Options) -> ExitCode {
    if let Some(dir) = &opts.emit_corpus {
        let start = Instant::now();
        return match futurerd_fuzz::fixture::emit_corpus(std::path::Path::new(dir), opts.per_shape)
        {
            Ok(written) => {
                outln!(
                    "wrote {} minimized fixture(s) to {dir} in {:.2?}: {}",
                    written.len(),
                    start.elapsed(),
                    written.join(" ")
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot emit corpus into {dir}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let fuzz_opts = FuzzOptions {
        deadline: opts
            .minutes
            .map(|m| Instant::now() + Duration::from_secs(m * 60)),
        ..FuzzOptions::default()
    };
    let start = Instant::now();
    let summary = run_fuzz(0..opts.seeds, &fuzz_opts);
    for bug in &summary.real_bugs {
        eprintln!("  {bug}");
    }
    outln!("{} ({:.2?})", summary.summary_line(), start.elapsed());
    if summary.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs of each profiled configuration; the tables print medians over
/// them, because one run of a few milliseconds is one noisy sample.
const PROFILE_RUNS: usize = 5;

/// One profiled configuration over its runs: each run's wall clock, its
/// accounted top-level time, and every stage's span count and total.
#[derive(Default)]
struct ProfilePoint {
    walls: Vec<u64>,
    accounted: Vec<u64>,
    stages: std::collections::BTreeMap<String, Vec<(u64, u64)>>,
}

impl ProfilePoint {
    fn record(&mut self, wall: Duration, snapshot: &futurerd_obs::Snapshot) {
        self.walls
            .push(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
        self.accounted
            .push(snapshot.total_ns_of(&futurerd_obs::timeline::TOP_STAGES));
        for row in &snapshot.stages {
            self.stages
                .entry(row.name.clone())
                .or_default()
                .push((row.stats.count, row.stats.total_ns));
        }
    }

    /// Every stage with its median span count and the median, lowest and
    /// highest of its per-run totals, in name order.
    fn stage_medians(&self) -> Vec<(&str, u64, u64, u64, u64)> {
        self.stages
            .iter()
            .map(|(name, runs)| {
                let counts: Vec<u64> = runs.iter().map(|&(count, _)| count).collect();
                let totals: Vec<u64> = runs.iter().map(|&(_, total)| total).collect();
                let (min, max) = (totals.iter().min(), totals.iter().max());
                (
                    name.as_str(),
                    median_u64(&counts),
                    median_u64(&totals),
                    min.copied().unwrap_or(0),
                    max.copied().unwrap_or(0),
                )
            })
            .collect()
    }
}

/// The median of `values` (the upper one of an even count); 0 when empty.
fn median_u64(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// Prints one profile table: every recorded stage with its span count and
/// the median / min / max of its per-run totals, plus how much of the
/// median wall clock the four disjoint coordinator stages account for.
fn print_profile(threads: usize, point: &ProfilePoint) {
    let wall_ns = median_u64(&point.walls);
    let path = if threads == 1 {
        "the single pass".to_string()
    } else {
        format!("{threads} single passes, granules dealt round-robin")
    };
    outln!(
        "P={threads} ({path}): median wall {} over {} runs",
        futurerd_obs::fmt_duration_ns(wall_ns),
        point.walls.len()
    );
    outln!(
        "  {:<24} {:>7} {:>12} {:>12} {:>12}",
        "stage",
        "count",
        "median",
        "min",
        "max"
    );
    for (name, count, median, min, max) in point.stage_medians() {
        outln!(
            "  {:<24} {:>7} {:>12} {:>12} {:>12}",
            name,
            count,
            futurerd_obs::fmt_duration_ns(median),
            futurerd_obs::fmt_duration_ns(min),
            futurerd_obs::fmt_duration_ns(max),
        );
    }
    let accounted = median_u64(&point.accounted);
    let pct = if wall_ns == 0 {
        100.0
    } else {
        100.0 * accounted as f64 / wall_ns as f64
    };
    outln!(
        "  validate+freeze+detect+merge: {} of {} wall ({pct:.1}%)",
        futurerd_obs::fmt_duration_ns(accounted),
        futurerd_obs::fmt_duration_ns(wall_ns),
    );
}

/// Renders one profiled configuration as a machine-readable JSON line
/// (stages in name order; `median_total_ns` is the median of the stage's
/// per-run totals, `min_total_ns` / `max_total_ns` the lowest and highest).
fn profile_json_line(threads: usize, point: &ProfilePoint) -> String {
    let stages: Vec<String> = point
        .stage_medians()
        .into_iter()
        .map(|(name, count, median, min, max)| {
            format!(
                "{{\"name\":\"{name}\",\"count\":{count},\"median_total_ns\":{median},\"min_total_ns\":{min},\"max_total_ns\":{max}}}"
            )
        })
        .collect();
    format!(
        "{{\"threads\":{threads},\"runs\":{},\"wall_ns\":{},\"accounted_ns\":{},\"stages\":[{}]}}",
        point.walls.len(),
        median_u64(&point.walls),
        median_u64(&point.accounted),
        stages.join(",")
    )
}

/// Replays one trace at P=1 (the single pass) and P=N (one-shot parallel
/// replay) with the span recorder on, [`PROFILE_RUNS`] times each in
/// alternation, and prints the median stage-time breakdown for each — as
/// text tables, or with `--json` as one JSON line per thread count.
fn cmd_profile(args: &[String]) -> ExitCode {
    let Some((path, rest)) = args.split_first() else {
        eprintln!("profile needs a trace file");
        usage()
    };
    if path.starts_with("--") {
        eprintln!("profile needs the trace file before any flags");
        usage()
    }
    let opts = parse_options(rest);
    let algorithm = match opts.algorithm.as_deref() {
        None | Some("multibags") => ReplayAlgorithm::MultiBags,
        Some("multibags+") => ReplayAlgorithm::MultiBagsPlus,
        Some(other) => {
            eprintln!("profile drives the paper's algorithms only (got '{other}')");
            usage()
        }
    };
    let (trace, loaded) = match load_timed(path) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Default P: --threads wins, then FUTURERD_PAR_THREADS (the knob the
    // test suites honor), then one pass per core; one-shot replay runs no
    // more passes than cores either way.
    let n = oneshot_workers(if opts.threads > 1 {
        opts.threads
    } else {
        std::env::var("FUTURERD_PAR_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(usize::MAX)
    });
    // Status goes to stderr in --json mode so stdout stays parseable.
    let status = |line: String| {
        if opts.json {
            eprintln!("{line}");
        } else {
            outln!("{line}");
        }
    };
    status(format!(
        "{path}: {} events; profiling {} at P=1 and P={n}, {PROFILE_RUNS} runs each",
        trace.len(),
        algorithm.name(),
    ));
    status(loaded);
    futurerd_obs::set_enabled(true);
    enable_observability(&opts);
    let threads: &[usize] = if n == 1 { &[1] } else { &[1, n] };
    let mut points: Vec<ProfilePoint> = threads.iter().map(|_| ProfilePoint::default()).collect();
    let mut race_counts = Vec::new();
    // Alternate the configurations run by run, so a drifting host slows
    // both alike.
    for _ in 0..PROFILE_RUNS {
        for (&threads, point) in threads.iter().zip(&mut points) {
            futurerd_obs::reset();
            let start = Instant::now();
            let report = match par_replay_detect(&trace, algorithm, threads) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("replay at P={threads} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            point.record(start.elapsed(), &futurerd_obs::snapshot());
            race_counts.push(report.race_count());
        }
    }
    for (&threads, point) in threads.iter().zip(&points) {
        if opts.json {
            outln!("{}", profile_json_line(threads, point));
        } else {
            print_profile(threads, point);
        }
    }
    if race_counts.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("MISMATCH: verdict changed with thread count (bug)");
        return ExitCode::FAILURE;
    }
    if opts.json {
        outln!(
            "{{\"verdict\":{{\"races\":{},\"consistent\":true}}}}",
            race_counts[0]
        );
    } else {
        outln!(
            "verdict: {} racy granules (identical at every P) ✓",
            race_counts[0]
        );
    }
    // profile resets the recorders before every run, so the journal
    // emitted here covers the last run (P=n).
    if !emit_observability(&opts) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `regress`: re-measure the smoke rows of the benchmark table (or load a
/// saved run with `--from`), compare against `--against` with noise-aware
/// thresholds, append a perf-trajectory entry, and fail on regressions.
fn cmd_regress(args: &[String]) -> ExitCode {
    use futurerd_bench::{kernels::Table, regress};
    let mut against: Option<String> = None;
    let mut bench: Option<String> = None;
    let mut out: Option<String> = None;
    let mut from: Option<String> = None;
    let mut samples: u32 = 5;
    let mut inflate: f64 = 1.0;
    let mut trajectory: Option<String> = None;
    let mut no_trajectory = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--against" => against = Some(value()),
            "--bench" => bench = Some(value()),
            "--out" => out = Some(value()),
            "--from" => from = Some(value()),
            "--samples" => {
                samples = value()
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--samples needs a positive integer");
                        usage()
                    })
            }
            "--inflate" => {
                inflate = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|&f| f > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--inflate needs a positive factor");
                        usage()
                    })
            }
            "--trajectory" => trajectory = Some(value()),
            "--no-trajectory" => no_trajectory = true,
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    let Some(against) = against else {
        eprintln!("regress needs --against <baseline.json>");
        usage()
    };
    let baseline = match regress::load_results(&against) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let table = Table::all();
    let selected = |id: &str| bench.as_deref().is_none_or(|b| table.selects(b, id));
    let mut run = match &from {
        Some(path) => match regress::load_results(path) {
            Ok(doc) => doc.results,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            regress::smoke_results(&table, bench.as_deref(), samples, |line| outln!("  {line}"))
        }
    };
    run.retain(|r| selected(&r.id));
    if run.is_empty() {
        eprintln!(
            "regress: nothing to compare{}",
            bench
                .map(|b| format!(" for --bench {b}"))
                .unwrap_or_default()
        );
        return ExitCode::FAILURE;
    }
    if inflate != 1.0 {
        outln!("  (--inflate {inflate}: scaling this run's times — harness self-test)");
        for r in &mut run {
            let scale = |ns: u64| ((ns as f64) * inflate).min(u64::MAX as f64) as u64;
            r.mean_ns = scale(r.mean_ns);
            r.min_ns = scale(r.min_ns);
            r.max_ns = scale(r.max_ns);
        }
    }
    if let Some(path) = &out {
        let doc = regress::format_results_doc(&run, "futurerd-trace regress smoke run", true);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outln!("  run results written to {path}");
    }
    let baseline_ids: Vec<_> = baseline
        .results
        .iter()
        .filter(|r| selected(&r.id))
        .cloned()
        .collect();
    let comparisons = regress::compare(&baseline_ids, &run);
    out!("{}", regress::format_comparison(&comparisons));
    outln!(
        "  (smoke subset: {} of {} baseline id(s) re-measured; full sweep: cargo bench -p futurerd-bench --bench figs)",
        comparisons
            .iter()
            .filter(|c| c.baseline_mean_ns.is_some())
            .count(),
        baseline_ids.len(),
    );
    if !no_trajectory {
        let path = trajectory.unwrap_or_else(|| "BENCH_trajectory.jsonl".to_string());
        let source = if from.is_some() { "from" } else { "smoke" };
        let entry = regress::trajectory_entry(&against, source, &comparisons);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, entry.as_bytes()));
        match appended {
            Ok(()) => outln!("  trajectory entry appended to {path}"),
            Err(e) => {
                eprintln!("cannot append trajectory entry to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if comparisons
        .iter()
        .any(|c| c.verdict == regress::Verdict::Regressed)
    {
        eprintln!("regress: FAILED (regressions above the noise-aware threshold)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `lint`: run the workspace invariant linter (token-level, no rustc).
///
/// Exit status is the gate: 0 when the tree is clean, 1 with a rendered
/// violation list otherwise. `--self-test` instead lints the fabricated
/// seeded-violation sources and fails unless every rule fires — CI runs
/// it first so a silently broken linter cannot green the gate.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root = String::from(".");
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = it.next().unwrap_or_else(|| usage()).clone(),
            "--self-test" => self_test = true,
            _ => usage(),
        }
    }
    let config = futurerd_check::lint::LintConfig::repo();
    let manifest = futurerd_obs::names::MANIFEST;
    if self_test {
        let report = futurerd_check::lint::seeded_violations(manifest, &config);
        let mut missing = Vec::new();
        for rule in futurerd_check::lint::Rule::ALL {
            if !report.violations.iter().any(|v| v.rule == rule) {
                missing.push(rule);
            }
        }
        if missing.is_empty() {
            outln!(
                "lint self-test: every rule fired on the seeded sources ({} violations)",
                report.violations.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("lint self-test: rules failed to fire on seeded sources: {missing:?}");
        eprintln!("{}", report.render());
        return ExitCode::FAILURE;
    }
    match futurerd_check::lint::lint_workspace(std::path::Path::new(&root), manifest, &config) {
        Ok(report) if report.ok() => {
            outln!("lint: clean");
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprint!("{}", report.render());
            eprintln!("lint: {} violation(s)", report.violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: cannot read workspace under {root}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `check`: explore the shipped lock-free cores under the model shim.
///
/// Runs the planted-bug self-tests first (the explorer must catch every
/// deliberately broken twin and hand back a replayable schedule), then
/// the real-core suite. Any schedule violating a protocol invariant
/// prints a replayable counterexample trace and exits non-zero.
fn cmd_check(args: &[String]) -> ExitCode {
    let mut config = futurerd_check::model::Config::exhaustive();
    let mut planted = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preemptions" => {
                let n = it.next().unwrap_or_else(|| usage());
                config.preemption_bound = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--max-executions" => {
                let n = it.next().unwrap_or_else(|| usage());
                config.max_executions = n.parse().unwrap_or_else(|_| usage());
            }
            "--skip-planted" => planted = false,
            _ => usage(),
        }
    }
    // The planted bodies panic on purpose inside the explorer (that is
    // what "caught" means); keep the default hook from spraying
    // backtraces and report payloads ourselves.
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = false;
    if planted {
        for (name, run) in futurerd_check::selftest::all() {
            match std::panic::catch_unwind(run) {
                Ok(cex) => outln!(
                    "check planted:{name}: caught after {} executions (schedule len {})",
                    cex.executions,
                    cex.schedule.len()
                ),
                Err(payload) => {
                    eprintln!(
                        "check planted:{name}: explorer MISSED the planted bug\n{}",
                        panic_message(&payload)
                    );
                    failed = true;
                }
            }
        }
    }
    for (name, run) in futurerd_bench::checksuite::all() {
        let config = config.clone();
        match std::panic::catch_unwind(move || run(&config)) {
            Ok(stats) => outln!(
                "check {name}: pass ({} executions, {} transitions, {} pruned)",
                stats.executions,
                stats.transitions,
                stats.pruned
            ),
            Err(payload) => {
                eprintln!("check {name}: FAIL\n{}", panic_message(&payload));
                failed = true;
            }
        }
    }
    let _ = std::panic::take_hook();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Human text of a caught panic payload (the rendered counterexample).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    if command == "lint" {
        return cmd_lint(rest);
    }
    if command == "check" {
        return cmd_check(rest);
    }
    if command == "batch" {
        return cmd_batch(rest);
    }
    if command == "profile" {
        return cmd_profile(rest);
    }
    if command == "regress" {
        return cmd_regress(rest);
    }
    let opts = parse_options(rest);
    enable_observability(&opts);
    let code = match command.as_str() {
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "diff" => cmd_diff(&opts),
        "follow" => cmd_follow(&opts),
        "fuzz" => cmd_fuzz(&opts),
        _ => usage(),
    };
    if !emit_observability(&opts) && code == ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    code
}
