//! The benchmark table: every benchmark id of the workspace as one row,
//! and the one measure loop that times them.
//!
//! A row names its bench (one of ten names: `fig8_basecase`, `fig_trace`,
//! `fig_store`, ...), its id (`group/function/parameter`) and whether
//! `futurerd-trace regress` measures it by default (`smoke`). Rows sharing
//! inputs form a *cell*, whose setup (recording a trace, opening a store)
//! runs once, before the first of its selected rows, and never when none
//! is selected; listing the rows ([`Table::rows`]) runs no setup at all.
//! `cargo bench -p futurerd-bench --bench figs [-- <filter>]` sweeps the
//! rows a filter selects ([`Row::matches`]: a bench name or an id
//! substring) under [`Sampling::SWEEP`]; `regress` measures the smoke rows
//! under [`Sampling::smoke`]. Input sizes scale with `FUTURERD_SCALE`.

use crate::regress::BenchResult;
use crate::{bench_params, run_config, scale, Algorithm, Config};
use futurerd_core::detector::RaceDetector;
use futurerd_core::parallel::{par_replay_detect, IncrementalFreezer, ReachIndex};
use futurerd_core::reachability::{MultiBags, MultiBagsPlus, RGraph};
use futurerd_core::replay::{replay_detect_unchecked, ReplayAlgorithm};
use futurerd_dag::genprog::{generate_program, GenConfig};
use futurerd_dag::trace::Trace;
use futurerd_dsu::DisjointSets;
use futurerd_runtime::trace::{record_spec, TraceRecorder};
use futurerd_store::{decode_sidecar, Store};
use futurerd_workloads::fuzzgen::adversarial_kn;
use futurerd_workloads::{run_workload, FutureMode, WorkloadKind, WorkloadParams};
use std::fmt::Display;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How [`measure`] samples a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Timed samples per row.
    pub samples: u32,
    /// Untimed single iterations run until this much time has passed
    /// (always at least one); the median sets the iterations per sample.
    pub warm_up: Duration,
    /// Wall-clock time one sample aims for.
    pub target: Duration,
    /// Floor on the iterations of one sample.
    pub min_iters: u32,
    /// Cap on the iterations of one sample.
    pub max_iters: u32,
}

/// Iterations every smoke sample runs at least: a row faster than the
/// 50 µs target would otherwise be timed over one or two calls, too few
/// to average out a timer tick or a cold cache line.
pub const SMOKE_MIN_ITERS: u32 = 10;

impl Sampling {
    /// `cargo bench`: 10 samples of about 150 ms (a 1.5 s budget) after a
    /// 300 ms warm-up.
    pub const SWEEP: Sampling = Sampling {
        samples: 10,
        warm_up: Duration::from_millis(300),
        target: Duration::from_millis(150),
        min_iters: 1,
        max_iters: u32::MAX,
    };

    /// `regress`: `samples` samples of about 50 µs, at least
    /// [`SMOKE_MIN_ITERS`] and at most 200 iterations each, after one
    /// warm-up iteration.
    pub fn smoke(samples: u32) -> Sampling {
        Sampling {
            samples,
            warm_up: Duration::ZERO,
            target: Duration::from_micros(50),
            min_iters: SMOKE_MIN_ITERS,
            max_iters: 200,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Times `kernel`: warms up, fits the iterations of one sample to the
/// target, then folds `samples` samples of per-iteration times into a
/// [`BenchResult`] (mean, fastest and slowest sample).
///
/// The fit divides the target by the median warm-up iteration, not the
/// slowest: the first call is usually the slowest by far (cold caches,
/// first allocations), and sizing from it leaves samples far short of
/// the target.
pub fn measure<O>(id: &str, sampling: &Sampling, mut kernel: impl FnMut() -> O) -> BenchResult {
    let warm_up = Instant::now();
    let mut warm = Vec::new();
    loop {
        let start = Instant::now();
        black_box(kernel());
        warm.push(nanos(start.elapsed()).max(1));
        if warm_up.elapsed() >= sampling.warm_up {
            break;
        }
    }
    warm.sort_unstable();
    let per_iter = warm[warm.len() / 2];
    let iters = (nanos(sampling.target) / per_iter)
        .max(u64::from(sampling.min_iters))
        .clamp(1, u64::from(sampling.max_iters.max(1)));
    let samples = sampling.samples.max(1);
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(kernel());
        }
        times.push((nanos(start.elapsed()) / iters).max(1));
    }
    BenchResult {
        id: id.to_string(),
        mean_ns: (times.iter().sum::<u64>() / u64::from(samples)).max(1),
        min_ns: *times.iter().min().unwrap(),
        max_ns: *times.iter().max().unwrap(),
        samples,
        iters_per_sample: iters as u32,
    }
}

/// One benchmark id of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The bench the row belongs to (`fig8_basecase`, `fig_trace`, ...).
    pub bench: &'static str,
    /// Full id, `group/function/parameter`.
    pub id: String,
    /// Whether `futurerd-trace regress` measures the row by default.
    pub smoke: bool,
}

impl Row {
    /// Whether `filter` selects this row: it is the row's bench name or a
    /// substring of its id.
    pub fn matches(&self, filter: &str) -> bool {
        self.bench == filter || self.id.contains(filter)
    }
}

/// A row's id and the run's sampling, handed to the row's kernel: it runs
/// its per-row setup, then [`Meter::iter`] on the timed routine.
struct Meter<'a>(&'a str, &'a Sampling);

impl Meter<'_> {
    fn iter<O>(&self, routine: impl FnMut() -> O) -> BenchResult {
        measure(self.0, self.1, routine)
    }
}

type Kernel<S> = Box<dyn Fn(&mut S, &Meter) -> BenchResult>;

/// Rows sharing one setup, whose state `S` their kernels measure on.
struct Cell<S> {
    bench: &'static str,
    prefix: String,
    setup: Box<dyn Fn() -> S>,
    rows: Vec<Row>,
    kernels: Vec<Kernel<S>>,
}

impl<S: 'static> Cell<S> {
    fn new(
        bench: &'static str,
        prefix: impl Into<String>,
        setup: impl Fn() -> S + 'static,
    ) -> Self {
        Cell {
            bench,
            prefix: prefix.into(),
            setup: Box::new(setup),
            rows: Vec::new(),
            kernels: Vec::new(),
        }
    }

    /// Adds the row `prefix/name`.
    fn row(
        mut self,
        name: impl Display,
        kernel: impl Fn(&mut S, &Meter) -> BenchResult + 'static,
    ) -> Self {
        let id = format!("{}/{name}", self.prefix);
        self.rows.push(Row {
            bench: self.bench,
            id,
            smoke: false,
        });
        self.kernels.push(Box::new(kernel));
        self
    }

    /// Sets the smoke flag of the rows `prefix/name` of `names` to `on`.
    fn smoke(mut self, on: bool, names: &[&str]) -> Self {
        for name in names {
            let id = format!("{}/{name}", self.prefix);
            let row = self.rows.iter_mut().find(|r| r.id == id);
            row.expect("smoke row exists").smoke = on;
        }
        self
    }
}

/// The object-safe face of a [`Cell`], whatever its state type.
trait Rows {
    fn rows(&self) -> &[Row];
    fn run(
        &self,
        wanted: &dyn Fn(&Row) -> bool,
        sampling: &Sampling,
        done: &mut dyn FnMut(BenchResult),
    );
}

impl<S> Rows for Cell<S> {
    fn rows(&self) -> &[Row] {
        &self.rows
    }

    fn run(
        &self,
        wanted: &dyn Fn(&Row) -> bool,
        sampling: &Sampling,
        done: &mut dyn FnMut(BenchResult),
    ) {
        let mut state = None;
        for (row, kernel) in self.rows.iter().zip(&self.kernels) {
            if wanted(row) {
                let state = state.get_or_insert_with(|| (self.setup)());
                done(kernel(state, &Meter(&row.id, sampling)));
            }
        }
    }
}

type Cells = Vec<Box<dyn Rows>>;

/// Every benchmark row of the workspace, in sweep order.
pub struct Table {
    cells: Cells,
}

impl Table {
    /// Builds the table of every row. Runs no setup: traces, stores and
    /// pools are made only when [`Table::run`] reaches a selected row.
    pub fn all() -> Table {
        let mut cells = Cells::new();
        fig6_fig7(&mut cells);
        fig8_basecase(&mut cells);
        fig_trace(&mut cells);
        fig_par_detect(&mut cells);
        fig_store(&mut cells);
        fig_session(&mut cells);
        fig_kn_adversarial(&mut cells);
        fig_freeze_par(&mut cells);
        fig_scaling(&mut cells);
        Table { cells }
    }

    /// Every row, in sweep order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.cells.iter().flat_map(|cell| cell.rows())
    }

    /// Whether `filter` selects the id `id` of a results document: it is
    /// a substring of the id, or the bench name of the id's row.
    pub fn selects(&self, filter: &str, id: &str) -> bool {
        id.contains(filter) || self.rows().any(|r| r.id == id && r.bench == filter)
    }

    /// Measures every row `wanted` accepts, in table order, handing each
    /// result to `done` as it is measured.
    pub fn run(
        &self,
        wanted: impl Fn(&Row) -> bool,
        sampling: &Sampling,
        mut done: impl FnMut(BenchResult),
    ) {
        for cell in &self.cells {
            cell.run(&wanted, sampling, &mut done);
        }
    }
}

/// The note of a sweep's results document.
pub const SWEEP_NOTE: &str = "cargo bench sweep of the futurerd-bench kernel table \
    (crates/bench/src/kernels.rs documents what each group measures). Regenerate from the \
    repository root with: FUTURERD_SCALE=1 FUTURERD_BENCH_JSON=$PWD/BENCH_baseline.json \
    cargo bench -p futurerd-bench --bench figs, on an otherwise idle host.";

/// `cargo bench --bench figs`: measures the rows `filter` selects (all
/// rows without one) under [`Sampling::SWEEP`], printing one line per row.
pub fn sweep(filter: Option<&str>) -> Vec<BenchResult> {
    let mut results = Vec::new();
    let wanted = |row: &Row| filter.is_none_or(|f| row.matches(f));
    Table::all().run(wanted, &Sampling::SWEEP, |r| {
        let ns = futurerd_obs::fmt_duration_ns;
        let (mean, min, max) = (ns(r.mean_ns), ns(r.min_ns), ns(r.max_ns));
        crate::outln!(
            "{:<60} mean {mean:>12} min {min:>12} max {max:>12} ({} samples x {} iters)",
            r.id,
            r.samples,
            r.iters_per_sample,
        );
        results.push(r);
    });
    results
}

/// The large seeded genprog traces `fig_par_detect`, `fig_store` and
/// `fig_session` measure on.
fn big_trace(general: bool, seed: u64) -> Trace {
    let scale = scale() as u32;
    let cfg = if general {
        // Access-dense general futures (~90 accesses per get): the regime
        // real workloads live in, where detection — not the k² closure
        // freeze — dominates and sharding pays off.
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

/// The big-trace cells: MultiBags on the structured trace, MultiBags+ on
/// the general one (seeds picked so both are ≥ ~24k events at scale 1).
const BIG_CELLS: [(ReplayAlgorithm, bool, u64); 2] = [
    (ReplayAlgorithm::MultiBags, false, 0xf19),
    (ReplayAlgorithm::MultiBagsPlus, true, 0x2a),
];

/// A row timing one `run_config` configuration on the cell's inputs.
fn config_row(
    kind: WorkloadKind,
    mode: FutureMode,
    algorithm: Algorithm,
    config: Config,
) -> impl Fn(&mut WorkloadParams, &Meter) -> BenchResult {
    move |params, m| m.iter(|| run_config(kind, mode, algorithm, config, params).1)
}

fn freeze_seq(trace: &Trace, algorithm: ReplayAlgorithm) -> usize {
    let index = ReachIndex::freeze(trace, algorithm).expect("canonical trace");
    index.expect("freezable algorithm").num_attached_sets()
}

/// Figures 6 and 7: every workload under the four configurations, with
/// MultiBags on structured futures and MultiBags+ on general ones.
fn fig6_fig7(cells: &mut Cells) {
    for algorithm in [Algorithm::MultiBags, Algorithm::MultiBagsPlus] {
        let (bench, group, mode) = match algorithm {
            Algorithm::MultiBags => (
                "fig6_structured",
                "fig6_structured_multibags",
                FutureMode::Structured,
            ),
            Algorithm::MultiBagsPlus => (
                "fig7_general",
                "fig7_general_multibags_plus",
                FutureMode::General,
            ),
        };
        for kind in WorkloadKind::ALL {
            let mut cell = Cell::new(bench, format!("{group}/{}", kind.name()), move || {
                bench_params(kind)
            });
            for config in Config::ALL {
                cell = cell.row(config.label(), config_row(kind, mode, algorithm, config));
            }
            cells.push(Box::new(cell));
        }
    }
}

/// Figure 8: MultiBags vs MultiBags+ reachability maintenance on
/// structured programs while the base case (and so `k`, the number of
/// `get_fut` operations) varies.
fn fig8_basecase(cells: &mut Cells) {
    let sweep: [(WorkloadKind, &[usize]); 3] = [
        (WorkloadKind::Lcs, &[32, 16, 8]),
        (WorkloadKind::Sw, &[16, 8]),
        (WorkloadKind::Mm, &[16, 8, 4]),
    ];
    for (kind, bases) in sweep {
        for &base in bases {
            let prefix = format!("fig8_basecase_sweep/{}_B{base}", kind.name());
            let reach = |algorithm| {
                config_row(
                    kind,
                    FutureMode::Structured,
                    algorithm,
                    Config::Reachability,
                )
            };
            let cell = Cell::new("fig8_basecase", prefix, move || {
                bench_params(kind).with_base(base)
            })
            .row("multibags", reach(Algorithm::MultiBags))
            .row("multibags_plus", reach(Algorithm::MultiBagsPlus))
            .smoke(
                (kind, base) == (WorkloadKind::Lcs, 32),
                &["multibags", "multibags_plus"],
            );
            cells.push(Box::new(cell));
        }
    }
}

/// The recorded trace of one workload, its bytes and its inputs.
struct Recorded {
    params: WorkloadParams,
    trace: Trace,
    bytes: Vec<u8>,
}

fn record(kind: WorkloadKind, mode: FutureMode, params: &WorkloadParams) -> Trace {
    let (recorder, _) = run_workload(kind, mode, params, TraceRecorder::new());
    recorder.into_trace()
}

/// Trace pipeline costs per workload: `record` (run under a
/// `TraceRecorder`, no detection), `replay` (the designated full detector
/// on the recorded trace), `inprocess` (single-pass execution + full
/// detection, the baseline of the split), `encode` (`Trace::to_bytes`) and
/// `decode` (`Trace::from_bytes`, the first layer of every stored replay).
fn fig_trace(cells: &mut Cells) {
    for kind in [
        WorkloadKind::Lcs,
        WorkloadKind::Sw,
        WorkloadKind::Bst,
        WorkloadKind::Dedup,
    ] {
        let (mode, algorithm) = match kind {
            WorkloadKind::Lcs | WorkloadKind::Sw => {
                (FutureMode::Structured, ReplayAlgorithm::MultiBags)
            }
            _ => (FutureMode::General, ReplayAlgorithm::MultiBagsPlus),
        };
        let cell = Cell::new(
            "fig_trace",
            format!("fig_trace_record_vs_replay/{}", kind.name()),
            move || {
                let params = bench_params(kind);
                let trace = record(kind, mode, &params);
                let bytes = trace.to_bytes();
                Recorded {
                    params,
                    trace,
                    bytes,
                }
            },
        )
        .row("record", move |s: &mut Recorded, m| {
            m.iter(|| record(kind, mode, &s.params).len())
        })
        .row("replay", move |s, m| {
            m.iter(|| replay_detect_unchecked(&s.trace, algorithm).race_count())
        })
        .row("inprocess", move |s, m| {
            m.iter(|| match mode {
                FutureMode::Structured => {
                    let detector = RaceDetector::<MultiBags>::structured();
                    run_workload(kind, mode, &s.params, detector)
                        .0
                        .report()
                        .race_count()
                }
                FutureMode::General => {
                    let detector = RaceDetector::<MultiBagsPlus>::general();
                    run_workload(kind, mode, &s.params, detector)
                        .0
                        .report()
                        .race_count()
                }
            })
        })
        .row("encode", |s, m| m.iter(|| s.trace.to_bytes().len()))
        .row("decode", |s, m| {
            m.iter(|| Trace::from_bytes(&s.bytes).expect("own encoding").len())
        })
        .smoke(
            kind == WorkloadKind::Lcs,
            &["record", "replay", "encode", "decode"],
        );
        cells.push(Box::new(cell));
    }
}

/// Parallel detection costs on the big traces: the single pass without
/// validation (`seq`), the two-pass engine's freeze alone (`freeze`, what
/// sessions and the store pay before detecting) and one-shot parallel
/// replay, validation included, asked for P ∈ {1, 2, 4, 8} threads (P=1
/// is the single pass; past the core count the rows run one pass per
/// core).
fn fig_par_detect(cells: &mut Cells) {
    for (algorithm, general, seed) in BIG_CELLS {
        let prefix = format!("fig_par_detect/{}", algorithm.name());
        let mut cell = Cell::new("fig_par_detect", prefix, move || big_trace(general, seed))
            .row("seq", move |trace, m| {
                m.iter(|| replay_detect_unchecked(trace, algorithm).race_count())
            })
            .row("freeze", move |trace, m| {
                m.iter(|| freeze_seq(trace, algorithm))
            });
        for threads in [1usize, 2, 4, 8] {
            cell = cell.row(format!("par/P{threads}"), move |trace, m| {
                m.iter(|| {
                    par_replay_detect(trace, algorithm, threads)
                        .expect("canonical trace")
                        .race_count()
                })
            });
        }
        let cell = cell.smoke(
            algorithm == ReplayAlgorithm::MultiBags,
            &["seq", "freeze", "par/P2"],
        );
        cells.push(Box::new(cell));
    }
}

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A store holding the big trace as `t`, detected cold once so its
/// sidecar exists.
struct Stored {
    trace: Trace,
    config: futurerd::Config,
    store: Store,
    sidecar: Vec<u8>,
    // Last, so the directory goes after the store is closed.
    _dir: TempDir,
}

/// Detection-store economics on the big traces: `freeze` (cold pass 1),
/// `warm_load` (decode the sidecar, rebuild the freezer and its access
/// stream from the trace, snapshot the index; must stay cheaper than
/// `freeze`), `warm_detect` (a warm `Config::replay_stored` round trip) and
/// `incremental` (a stored replay after ~5% of the trace was appended:
/// suffix refreeze, touched-partition re-runs and the sidecar rewrite).
fn fig_store(cells: &mut Cells) {
    for (algorithm, general, seed) in BIG_CELLS {
        let cell = Cell::new(
            "fig_store",
            format!("fig_store/{}", algorithm.name()),
            move || {
                let name = format!(
                    "futurerd-fig-store-{}-{}",
                    algorithm.name(),
                    std::process::id()
                );
                let dir = std::env::temp_dir().join(name);
                std::fs::remove_dir_all(&dir).ok();
                let trace = big_trace(general, seed);
                let config = futurerd::Config::new().algorithm(algorithm);
                let mut store = Store::open(&dir).expect("store opens");
                store.put_trace("t", &trace).expect("trace stores");
                config.replay_stored(&mut store, "t").expect("cold detect");
                let sidecar =
                    std::fs::read(store.sidecar_path("t", algorithm)).expect("sidecar written");
                Stored {
                    trace,
                    config,
                    store,
                    sidecar,
                    _dir: TempDir(dir),
                }
            },
        )
        .row("freeze", move |s: &mut Stored, m| {
            m.iter(|| {
                let mut fz = IncrementalFreezer::new(algorithm).expect("freezable");
                fz.extend(s.trace.events());
                fz.accesses().len()
            })
        })
        .row("warm_load", |s, m| {
            m.iter(|| {
                let sidecar = decode_sidecar(&s.sidecar).expect("valid sidecar");
                let prefix = &s.trace.events()[..sidecar.freeze.pos as usize];
                let fz = IncrementalFreezer::from_raw(sidecar.freeze, prefix).expect("valid state");
                let index = fz.snapshot_index();
                (fz.accesses().len(), index.num_attached_sets())
            })
        })
        .row("warm_detect", |s, m| {
            m.iter(|| {
                s.config
                    .replay_stored(&mut s.store, "t")
                    .expect("warm detect")
                    .race_count()
            })
        })
        .row("incremental", move |s, m| {
            // A sidecar frozen at 95% of the trace, the trace file already
            // holding all of it: each iteration restores that sidecar and
            // re-detects.
            let mut prefix = Trace::new();
            prefix.extend_events(&s.trace.events()[..s.trace.len() * 95 / 100]);
            s.store.put_trace("t2", &prefix).expect("prefix stores");
            s.config
                .replay_stored(&mut s.store, "t2")
                .expect("prefix detect");
            let sidecar_path = s.store.sidecar_path("t2", algorithm);
            let prefix_sidecar = std::fs::read(&sidecar_path).expect("sidecar written");
            s.store
                .put_trace("t2", &s.trace)
                .expect("full trace stores");
            m.iter(|| {
                std::fs::write(&sidecar_path, &prefix_sidecar).expect("restore sidecar");
                let report = s.config.replay_stored(&mut s.store, "t2");
                report.expect("incremental detect").race_count()
            })
        })
        .smoke(
            algorithm == ReplayAlgorithm::MultiBags,
            &["freeze", "warm_load"],
        );
        cells.push(Box::new(cell));
    }
}

/// Appends per verdict in `fig_session`.
const CHUNKS: usize = 8;

/// Session economics on a growing execution: the big trace fed in
/// [`CHUNKS`] appends with a verdict after each. `one_shot` is one
/// `Config::replay` of the whole trace; `session_follow` is one session
/// ingesting every chunk and reporting after each (the freeze is paid
/// once, spread over the appends); `replay_each` is the pre-session client
/// re-detecting the growing prefix from scratch per verdict, which
/// `session_follow` must beat.
fn fig_session(cells: &mut Cells) {
    for (algorithm, general, seed) in BIG_CELLS {
        let name = match algorithm {
            ReplayAlgorithm::MultiBags => "multibags",
            _ => "multibags_plus",
        };
        let config = futurerd::Config::new().algorithm(algorithm);
        let cell = Cell::new("fig_session", format!("fig_session/{name}"), move || {
            big_trace(general, seed)
        })
        .row("one_shot", move |trace, m| {
            m.iter(|| config.replay(trace).expect("canonical").race_count())
        })
        .row(format!("session_follow_{CHUNKS}"), move |trace, m| {
            let chunk_len = trace.len().div_ceil(CHUNKS);
            m.iter(|| {
                let mut session = config.session();
                let mut races = 0;
                for chunk in trace.events().chunks(chunk_len) {
                    session.ingest(chunk).expect("canonical prefix");
                    races = session.report().expect("prefix reports").race_count();
                }
                races
            })
        })
        .row(format!("replay_each_{CHUNKS}"), move |trace, m| {
            let chunk_len = trace.len().div_ceil(CHUNKS);
            m.iter(|| {
                let mut races = 0;
                let mut prefix = Trace::new();
                for chunk in trace.events().chunks(chunk_len) {
                    prefix.extend_events(chunk);
                    // Growing prefixes are not complete traces; a
                    // pre-session client re-runs a fresh session per
                    // verdict (one-shot replay requires completeness).
                    let mut one_shot = config.session();
                    one_shot.ingest(prefix.events()).expect("canonical prefix");
                    races = one_shot.report().expect("reports").race_count();
                }
                races
            })
        })
        .smoke(
            algorithm == ReplayAlgorithm::MultiBags,
            &["one_shot", "session_follow_8"],
        );
        cells.push(Box::new(cell));
    }
}

/// Adversarial `k ≈ n` sweep (`k = 2n - 2`, the fuzz generator's
/// worst-case chain): MultiBags+ pays its O(k²) attached-bag reachability
/// maintenance, while plain MultiBags (approximate on these multi-touch
/// traces) and conservative SP-Bags stay near-linear. `freeze_seq`
/// isolates pass 1.
fn fig_kn_adversarial(cells: &mut Cells) {
    let plus = ReplayAlgorithm::MultiBagsPlus;
    for n in [16usize, 32, 64, 128] {
        let trace = move || record_spec(&adversarial_kn(n, 0xbead).spec).0;
        let mut cell = Cell::new(
            "fig_kn_adversarial",
            format!("fig_kn_adversarial/n{n}"),
            trace,
        );
        for (algorithm, label) in [
            (ReplayAlgorithm::MultiBags, "multibags"),
            (ReplayAlgorithm::MultiBagsPlus, "multibags_plus"),
            (ReplayAlgorithm::SpBagsConservative, "spbags_cons"),
        ] {
            cell = cell.row(label, move |trace, m| {
                m.iter(|| replay_detect_unchecked(trace, algorithm))
            });
        }
        let cell = cell
            .row("freeze_seq", move |trace, m| {
                m.iter(|| freeze_seq(trace, plus))
            })
            .smoke(n == 64, &["multibags", "multibags_plus", "freeze_seq"]);
        cells.push(Box::new(cell));
    }
}

/// Pass-1 freeze cost for MultiBags+ on get-dense adversarial `k ≈ n`
/// traces, where timed-closure stamping dominates. Pass 1 runs on the
/// calling thread at every thread count, so one row per size.
fn fig_freeze_par(cells: &mut Cells) {
    let plus = ReplayAlgorithm::MultiBagsPlus;
    for n in [64usize, 128, 256] {
        let scaled = n * scale();
        let trace = move || record_spec(&adversarial_kn(scaled, 0xfeed).spec).0;
        let cell = Cell::new("fig_freeze_par", format!("fig_freeze_par/n{scaled}"), trace)
            .row("seq", move |trace, m| m.iter(|| freeze_seq(trace, plus)));
        cells.push(Box::new(cell.smoke(n == 64, &["seq"])));
    }
}

/// Complexity ablation: the reachability substrates (disjoint sets and the
/// transitive-closure dag `R`) behind Theorems 4.1 and 5.1, plus a
/// detection-scaling sweep on `lcs`.
fn fig_scaling(cells: &mut Cells) {
    let mut dsu = Cell::new("fig_scaling", "substrate_dsu/union_find_chain", || ());
    for n in [1_000usize, 10_000, 100_000] {
        dsu = dsu.row(n, move |_, m| {
            m.iter(|| {
                let mut dsu = DisjointSets::with_capacity(n);
                let ids: Vec<_> = (0..n).map(|_| dsu.make_set()).collect();
                for w in ids.windows(2) {
                    dsu.union(w[0], w[1]);
                }
                let mut hits = 0u64;
                for &e in &ids {
                    if dsu.find(e) == dsu.find(ids[0]) {
                        hits += 1;
                    }
                }
                hits
            })
        });
    }
    cells.push(Box::new(dsu));
    // Built tail-first, every arc of the chain lands on a node that already
    // has successors, so each one takes `R`'s descendant scan.
    for (prefix, tail_first) in [
        ("substrate_rgraph/closure_chain", false),
        ("substrate_rgraph/closure_chain_reversed", true),
    ] {
        let mut rgraph = Cell::new("fig_scaling", prefix, || ());
        for k in [64usize, 256, 1024] {
            rgraph = rgraph.row(k, move |_, m| {
                m.iter(|| {
                    let mut g = RGraph::new();
                    let nodes: Vec<_> = (0..k).map(|_| g.add_node()).collect();
                    for i in 0..k - 1 {
                        let i = if tail_first { k - 2 - i } else { i };
                        g.add_arc(nodes[i], nodes[i + 1]);
                    }
                    g.reaches(nodes[0], nodes[k - 1])
                })
            });
        }
        cells.push(Box::new(rgraph));
    }
    let lcs = WorkloadKind::Lcs;
    for n in [64usize, 128, 256] {
        let full = |mode, algorithm| config_row(lcs, mode, algorithm, Config::Full);
        let cell = Cell::new("fig_scaling", "scaling_lcs_full_detection", move || {
            bench_params(lcs).with_n(n).with_base(16)
        })
        .row(
            format!("multibags/{n}"),
            full(FutureMode::Structured, Algorithm::MultiBags),
        )
        .row(
            format!("multibags_plus/{n}"),
            full(FutureMode::General, Algorithm::MultiBagsPlus),
        );
        cells.push(Box::new(cell));
    }
}
