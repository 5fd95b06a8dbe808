//! Differential fuzzing for the FutureRD detectors.
//!
//! The paper's claim (conf_ppopp_UtterbackAFL19, Sections 4–5) is that
//! MultiBags and MultiBags+ answer exactly the reachability queries a
//! ground-truth dag oracle answers, at amortized-constant cost. This crate
//! is the harness that attacks the claim continuously: per seed it draws an
//! adversarially shaped racy program
//! ([`futurerd_workloads::fuzzgen`]), records its canonical trace, and
//! differentials **every detector over every detection path** against the
//! [`GraphOracle`](futurerd_core::reachability::GraphOracle):
//!
//! * sequential replay of each algorithm, classified against the oracle's
//!   racy-granule set — a sound algorithm that strays is a
//!   [`DivergenceKind::RealBug`]; an unsound-but-runnable one (conservative
//!   SP-Bags on futures, MultiBags on multi-touch) is quantified and
//!   recorded as [`DivergenceKind::KnownApproximation`];
//! * one-shot parallel replay (`par_replay_detect_with`) at exactly
//!   P ∈ {1, 2, 8} workers, which must be *byte-identical* to sequential
//!   replay (witnesses, granule set, and observation totals) — any
//!   difference is a real bug regardless of algorithm soundness;
//! * the facade's one-shot [`Config::replay`] at the same widths (the
//!   single pass at P=1, one single pass per worker above it, at most one
//!   per core), held to the same byte-identity bar;
//! * streaming [`Session`](futurerd::Session)s over random chunkings of the
//!   same events, with a mid-stream report to force the incremental path;
//! * persistent store round-trips through stored sessions
//!   ([`Config::replay_stored`]): put a prefix, detect, append the rest,
//!   re-detect (incremental), re-detect again (warm cache) — the last two
//!   must agree with cold sequential replay.
//!
//! When a real bug is found, [`shrink`] minimizes the failing trace by
//! spec-level strand pruning plus event-range bisection — re-validating the
//! canonical serial-DF order after every candidate — and [`fixture`] emits
//! it as a self-contained regression fixture (FRDTRACE bytes + expected
//! verdict) for `tests/fixtures/`.
//!
//! The harness checks itself: [`Mutation`] plants a bug in one detector
//! (dropping every race, or inventing one), and the crate's tests assert
//! the matrix catches it and shrinks it to a fixture of ≤ 64 events.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixture;
pub mod shrink;

use futurerd::{Config, Store};
use futurerd_core::parallel::{par_replay_detect_with, StdExecutor};
use futurerd_core::races::{AccessKind, Race, RaceReport};
use futurerd_core::replay::{replay_detect_unchecked, ApproximationError, ReplayAlgorithm};
use futurerd_dag::genprog::{Action, FunctionSpec, ProgramSpec};
use futurerd_dag::trace::{Trace, TraceEvent};
use futurerd_dag::{MemAddr, StrandId};
use futurerd_runtime::trace::record_spec;
use futurerd_workloads::fuzzgen::{generate_fuzz_program, FuzzProgram, FuzzShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// A deliberately planted detector bug — the harness's self-test hook. The
/// mutation corrupts the *sequential* verdict of one algorithm before
/// classification, emulating a detector defect; the differential matrix
/// must flag it as a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The algorithm reports no races at all (misses everything).
    DropAllRaces(ReplayAlgorithm),
    /// The algorithm invents a race on a granule nothing ever touched.
    SpuriousRace(ReplayAlgorithm),
}

/// How a divergence from the oracle is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// An algorithm running outside its sound program class strayed from
    /// the oracle — expected, quantified, not a failure.
    KnownApproximation,
    /// A sound algorithm (or a supposedly byte-identical detection path)
    /// disagreed with its reference. This fails the fuzz run.
    RealBug,
}

/// One observed divergence between a detector (on some detection path) and
/// its reference verdict.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the generated program.
    pub seed: u64,
    /// Generator shape of the program.
    pub shape: FuzzShape,
    /// The algorithm that diverged.
    pub algorithm: ReplayAlgorithm,
    /// The detection path that produced the divergent verdict
    /// (`"sequential"`, `"par(P=2)"`, `"oneshot(P=1)"`,
    /// `"session(chunking=1,threads=2)"`,
    /// `"store(incremental)"`, ...).
    pub path: String,
    /// The classification.
    pub kind: DivergenceKind,
    /// Racy granules the reference found that this verdict missed.
    pub missed: usize,
    /// Granules this verdict reported racy that the reference did not.
    pub spurious: usize,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DivergenceKind::KnownApproximation => "known-approximation",
            DivergenceKind::RealBug => "REAL BUG",
        };
        write!(
            f,
            "[{kind}] seed {} ({}) {} via {}: {} missed, {} spurious — {}",
            self.seed,
            self.shape,
            self.algorithm,
            self.path,
            self.missed,
            self.spurious,
            self.detail
        )
    }
}

/// Knobs for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Parallel-engine and one-shot replay widths to check (each must be
    /// byte-identical to sequential replay).
    pub threads: Vec<usize>,
    /// Random session chunkings per seed.
    pub chunkings: u32,
    /// Exercise persistent-store round-trips (put prefix → detect → append
    /// → incremental detect → warm detect).
    pub store_checks: bool,
    /// Directory for the round-trip store; `None` uses a per-process temp
    /// directory that is removed when the run finishes.
    pub store_dir: Option<PathBuf>,
    /// Plant a detector bug (self-test of the harness).
    pub mutation: Option<Mutation>,
    /// Stop drawing new seeds after this instant (for `--minutes` budgets).
    pub deadline: Option<Instant>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            threads: vec![1, 2, 8],
            chunkings: 2,
            store_checks: true,
            store_dir: None,
            mutation: None,
            deadline: None,
        }
    }
}

/// What one seed produced.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Generator shape drawn for the seed.
    pub shape: FuzzShape,
    /// Events in the recorded trace.
    pub events: usize,
    /// Distinct racy granules per the ground-truth oracle.
    pub oracle_races: usize,
    /// Every divergence observed across the detector × path matrix.
    pub divergences: Vec<Divergence>,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds actually run (the deadline may cut a range short).
    pub seeds_run: u64,
    /// Total events replayed.
    pub events: u64,
    /// Total distinct racy granules the oracle found.
    pub oracle_races: u64,
    /// Divergences classified as known approximations.
    pub known_approximations: u64,
    /// Racy granules missed across the known approximations.
    pub approx_missed: u64,
    /// Spurious racy granules across the known approximations.
    pub approx_spurious: u64,
    /// Divergences classified as real bugs — must be empty for a clean run.
    pub real_bugs: Vec<Divergence>,
    /// Seeds per generator shape.
    pub per_shape: BTreeMap<&'static str, u64>,
}

impl FuzzSummary {
    /// True if no divergence was left unexplained: every one is a known
    /// approximation.
    pub fn clean(&self) -> bool {
        self.real_bugs.is_empty()
    }

    /// The one-line verdict printed by the CLI, with the divergent racy
    /// granules classified per kind (known approximation vs real bug) and
    /// direction (missed vs spurious).
    pub fn summary_line(&self) -> String {
        let shapes: Vec<String> = self
            .per_shape
            .iter()
            .map(|(shape, count)| format!("{shape}:{count}"))
            .collect();
        let bug_missed: usize = self.real_bugs.iter().map(|d| d.missed).sum();
        let bug_spurious: usize = self.real_bugs.iter().map(|d| d.spurious).sum();
        format!(
            "fuzz: {} seed(s) [{}], {} events, {} oracle racy granules, {} known approximation(s) ({} missed / {} spurious), {} real bug(s) ({} missed / {} spurious) => {}",
            self.seeds_run,
            shapes.join(" "),
            self.events,
            self.oracle_races,
            self.known_approximations,
            self.approx_missed,
            self.approx_spurious,
            self.real_bugs.len(),
            bug_missed,
            bug_spurious,
            if self.clean() { "CLEAN" } else { "DIVERGED" },
        )
    }
}

/// Runs the full differential matrix over a seed range. Stops early at
/// [`FuzzOptions::deadline`].
pub fn run_fuzz(seeds: std::ops::Range<u64>, opts: &FuzzOptions) -> FuzzSummary {
    let (mut store, temp_dir) = if opts.store_checks {
        let (dir, temp) = match &opts.store_dir {
            Some(dir) => (dir.clone(), None),
            None => {
                let dir = std::env::temp_dir().join(format!(
                    "futurerd-fuzz-{}-{}",
                    std::process::id(),
                    seeds.start
                ));
                (dir.clone(), Some(dir))
            }
        };
        (Store::open(&dir).ok(), temp)
    } else {
        (None, None)
    };

    let mut summary = FuzzSummary::default();
    for seed in seeds {
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let outcome = fuzz_seed(seed, opts, store.as_mut());
        summary.seeds_run += 1;
        summary.events += outcome.events as u64;
        summary.oracle_races += outcome.oracle_races as u64;
        *summary.per_shape.entry(outcome.shape.name()).or_default() += 1;
        for divergence in outcome.divergences {
            match divergence.kind {
                DivergenceKind::KnownApproximation => {
                    summary.known_approximations += 1;
                    summary.approx_missed += divergence.missed as u64;
                    summary.approx_spurious += divergence.spurious as u64;
                }
                DivergenceKind::RealBug => summary.real_bugs.push(divergence),
            }
        }
    }
    drop(store);
    if let Some(dir) = temp_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    summary
}

/// Runs the differential matrix for one seed.
pub fn fuzz_seed(seed: u64, opts: &FuzzOptions, store: Option<&mut Store>) -> SeedOutcome {
    let program = generate_fuzz_program(seed);
    let (trace, _) = record_spec(&program.spec);
    let mut outcome = SeedOutcome {
        seed,
        shape: program.shape,
        events: trace.len(),
        oracle_races: 0,
        divergences: Vec::new(),
    };

    if let Err(err) = trace.validate() {
        outcome.divergences.push(Divergence {
            seed,
            shape: program.shape,
            algorithm: ReplayAlgorithm::GraphOracle,
            path: "recorder".to_string(),
            kind: DivergenceKind::RealBug,
            missed: 0,
            spurious: 0,
            detail: format!("recorded trace is not canonical: {err}"),
        });
        return outcome;
    }

    let oracle = replay_detect_unchecked(&trace, ReplayAlgorithm::GraphOracle);
    outcome.oracle_races = oracle.race_count();

    // Planted races are a ground-truth lower bound: the oracle itself is on
    // trial here — a planted granule it misses is a bug in the ground truth.
    for granule in planted_granules(&program) {
        if !oracle.is_racy(MemAddr(granule * MemAddr::GRANULARITY)) {
            outcome.divergences.push(Divergence {
                seed,
                shape: program.shape,
                algorithm: ReplayAlgorithm::GraphOracle,
                path: "sequential".to_string(),
                kind: DivergenceKind::RealBug,
                missed: 1,
                spurious: 0,
                detail: format!("oracle missed the planted race on granule {granule}"),
            });
        }
    }

    // Sequential verdict of every runnable algorithm, classified against
    // the oracle.
    for divergence in classify_sequential(&trace, opts.mutation) {
        outcome.divergences.push(Divergence {
            seed,
            shape: program.shape,
            ..divergence
        });
    }

    // Parallel engine and the facade's one-shot replay: byte-identical to
    // sequential replay at every width, soundness notwithstanding
    // (determinism is unconditional).
    for algorithm in ReplayAlgorithm::ALL {
        if !algorithm.runnable_for(&trace) {
            continue;
        }
        let sequential = replay_detect_unchecked(&trace, algorithm);
        for &threads in &opts.threads {
            let paths = [
                (
                    "par",
                    par_replay_detect_with(&trace, algorithm, threads, &StdExecutor)
                        .map_err(|e| e.to_string()),
                ),
                (
                    "oneshot",
                    oneshot_report(&trace, algorithm, threads).map_err(|e| e.to_string()),
                ),
            ];
            for (name, result) in paths {
                let path = format!("{name}(P={threads})");
                match result {
                    Ok(report) if report == sequential => {}
                    Ok(report) => outcome.divergences.push(path_bug(
                        seed,
                        program.shape,
                        algorithm,
                        path,
                        &report,
                        &sequential,
                    )),
                    Err(err) => outcome.divergences.push(Divergence {
                        seed,
                        shape: program.shape,
                        algorithm,
                        path,
                        kind: DivergenceKind::RealBug,
                        missed: 0,
                        spurious: 0,
                        detail: format!("{name} replay failed on a valid trace: {err}"),
                    }),
                }
            }
        }
    }

    // Streaming sessions over random chunkings, reporting after every chunk
    // so that each report resumes from the last: the final report against
    // sequential replay of the trace, and one intermediate report against
    // sequential replay of its prefix.
    for algorithm in ReplayAlgorithm::ALL {
        if !algorithm.runnable_for(&trace) {
            continue;
        }
        let sequential = replay_detect_unchecked(&trace, algorithm);
        for chunking in 0..opts.chunkings {
            let threads = if chunking % 2 == 0 { 1 } else { 2 };
            let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(chunking) << 32) ^ 0xc09c);
            match session_report(&trace, algorithm, threads, &mut rng) {
                Ok(chain) => {
                    let mut checks = vec![(
                        format!("session(chunking={chunking},threads={threads})"),
                        chain.last,
                        sequential.clone(),
                    )];
                    if let Some((len, report)) = chain.prefix {
                        let mut prefix = Trace::new();
                        prefix.extend_events(&trace.events()[..len]);
                        checks.push((
                            format!("session-prefix(chunking={chunking},threads={threads})"),
                            report,
                            replay_detect_unchecked(&prefix, algorithm),
                        ));
                    }
                    for (path, got, want) in checks {
                        if got != want {
                            outcome.divergences.push(path_bug(
                                seed,
                                program.shape,
                                algorithm,
                                path,
                                &got,
                                &want,
                            ));
                        }
                    }
                }
                Err(err) => outcome.divergences.push(Divergence {
                    seed,
                    shape: program.shape,
                    algorithm,
                    path: format!("session(chunking={chunking},threads={threads})"),
                    kind: DivergenceKind::RealBug,
                    missed: 0,
                    spurious: 0,
                    detail: format!("session failed on a valid stream: {err}"),
                }),
            }
        }
    }

    // Persistent store round-trips (freezable algorithms only: the store
    // rejects the rest by design).
    if let Some(store) = store {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5703);
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let tag = if algorithm == ReplayAlgorithm::MultiBags {
                "mb"
            } else {
                "mbp"
            };
            let name = format!("s{seed}-{tag}");
            match store_roundtrip(store, &name, &trace, algorithm, &mut rng) {
                Ok(mismatches) => {
                    for (path, report) in mismatches {
                        let sequential = replay_detect_unchecked(&trace, algorithm);
                        outcome.divergences.push(path_bug(
                            seed,
                            program.shape,
                            algorithm,
                            path,
                            &report,
                            &sequential,
                        ));
                    }
                }
                Err(err) => outcome.divergences.push(Divergence {
                    seed,
                    shape: program.shape,
                    algorithm,
                    path: "store".to_string(),
                    kind: DivergenceKind::RealBug,
                    missed: 0,
                    spurious: 0,
                    detail: format!("store round-trip failed: {err}"),
                }),
            }
        }
    }

    outcome
}

/// Single-process classification: replays every runnable algorithm
/// (applying the planted [`Mutation`], if any) and measures each verdict
/// against the oracle's racy-granule set. The `seed`/`shape` fields of the
/// returned divergences are placeholders — [`fuzz_seed`] fills them in;
/// the shrinker uses this directly as its failure predicate.
pub fn classify_sequential(trace: &Trace, mutation: Option<Mutation>) -> Vec<Divergence> {
    let oracle = replay_detect_unchecked(trace, ReplayAlgorithm::GraphOracle);
    let mut divergences = Vec::new();
    for algorithm in ReplayAlgorithm::ALL {
        if algorithm == ReplayAlgorithm::GraphOracle || !algorithm.runnable_for(trace) {
            continue;
        }
        let report = detect_mutated(trace, algorithm, mutation);
        let error = ApproximationError::measure(algorithm, &report, &oracle);
        if error.is_exact() {
            continue;
        }
        let sound = algorithm.sound_for(trace);
        divergences.push(Divergence {
            seed: 0,
            shape: FuzzShape::Structured,
            algorithm,
            path: "sequential".to_string(),
            kind: if sound {
                DivergenceKind::RealBug
            } else {
                DivergenceKind::KnownApproximation
            },
            missed: error.missed,
            spurious: error.spurious,
            detail: if sound {
                format!("sound algorithm diverged from the oracle ({error})")
            } else {
                format!("approximate verdict outside the sound class ({error})")
            },
        });
    }
    divergences
}

/// True if the trace still exhibits a sequential real-bug divergence — the
/// shrinker's failure predicate.
pub fn has_real_bug(trace: &Trace, mutation: Option<Mutation>) -> bool {
    classify_sequential(trace, mutation)
        .iter()
        .any(|d| d.kind == DivergenceKind::RealBug)
}

/// Replays `algorithm` and applies the planted mutation to its verdict.
fn detect_mutated(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    mutation: Option<Mutation>,
) -> RaceReport {
    let mut report = replay_detect_unchecked(trace, algorithm);
    match mutation {
        Some(Mutation::DropAllRaces(target)) if target == algorithm => {
            let approximate = report.is_approximate();
            report = RaceReport::default();
            if approximate {
                report.mark_approximate();
            }
        }
        Some(Mutation::SpuriousRace(target)) if target == algorithm => {
            report.record(Race {
                addr: MemAddr(0xdead_0000),
                prior_strand: StrandId(0),
                prior_kind: AccessKind::Write,
                current_strand: StrandId(0),
                current_kind: AccessKind::Write,
            });
        }
        _ => {}
    }
    report
}

/// Builds the real-bug divergence for a detection path whose report failed
/// the byte-identity check against sequential replay.
fn path_bug(
    seed: u64,
    shape: FuzzShape,
    algorithm: ReplayAlgorithm,
    path: String,
    got: &RaceReport,
    want: &RaceReport,
) -> Divergence {
    let error = ApproximationError::measure(algorithm, got, want);
    let detail = if error.is_exact() {
        format!(
            "same racy granules but different reports (witnesses/observations): \
             {} vs {} observation(s)",
            got.total_observations(),
            want.total_observations()
        )
    } else {
        format!("path verdict differs from sequential replay ({error})")
    };
    Divergence {
        seed,
        shape,
        algorithm,
        path,
        kind: DivergenceKind::RealBug,
        missed: error.missed,
        spurious: error.spurious,
        detail,
    }
}

/// The facade's one-shot replay of the whole trace at `threads`.
fn oneshot_report(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    threads: usize,
) -> Result<RaceReport, futurerd::Error> {
    let detection = Config::new()
        .algorithm(algorithm)
        .threads(threads)
        .replay(trace)?;
    Ok(detection
        .report
        .expect("full-analysis replays always carry a report"))
}

/// The reports of one chained session: the last one, over the whole
/// trace, and one intermediate one with the length of its prefix.
struct SessionChain {
    last: RaceReport,
    prefix: Option<(usize, RaceReport)>,
}

/// Feeds the trace into a streaming session in random chunks with a report
/// after every chunk, keeping the first report at or after a random cut
/// that is not the end, and then reports once more on the whole trace.
fn session_report(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    threads: usize,
    rng: &mut StdRng,
) -> Result<SessionChain, futurerd::Error> {
    let events = trace.events();
    let mut session = Config::new()
        .algorithm(algorithm)
        .threads(threads)
        .session();
    let report = |session: &mut futurerd::Session<'_>| -> Result<RaceReport, futurerd::Error> {
        Ok(session
            .report()?
            .report
            .expect("full-analysis sessions always carry a report"))
    };
    let mid = rng.gen_range(0..=events.len());
    let mut prefix = None;
    let mut at = 0;
    while at < events.len() {
        let max_step = (events.len() / 3).max(1).min(events.len() - at);
        let step = rng.gen_range(1..=max_step);
        session.ingest(&events[at..at + step])?;
        at += step;
        let report = report(&mut session)?;
        if prefix.is_none() && at >= mid && at < events.len() {
            prefix = Some((at, report));
        }
    }
    Ok(SessionChain {
        last: report(&mut session)?,
        prefix,
    })
}

/// One store round-trip through stored sessions: put a random prefix,
/// detect cold, append the rest, detect incrementally, detect again warm.
/// Returns the reports of the final-state paths that must match sequential
/// replay.
fn store_roundtrip(
    store: &mut Store,
    name: &str,
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    rng: &mut StdRng,
) -> Result<Vec<(String, RaceReport)>, futurerd::Error> {
    let sequential = replay_detect_unchecked(trace, algorithm);
    let config = Config::new().algorithm(algorithm).threads(2);
    let events = trace.events();
    let split = rng.gen_range(1..events.len());
    let mut prefix = Trace::new();
    prefix.extend_events(&events[..split]);
    store.put_trace(name, &prefix)?;
    // The cold prefix verdict is not compared (the prefix is a different
    // stream); it exists to leave a sidecar the append outgrows.
    config.replay_stored(store, name)?;
    store.append_events(name, &events[split..])?;
    let incremental = config.replay_stored(store, name)?;
    let warm = config.replay_stored(store, name)?;
    let mut mismatches = Vec::new();
    for detection in [incremental, warm] {
        let path = detection.path.unwrap_or(futurerd::DetectionPath::Cold);
        let report = detection
            .report
            .expect("full-analysis sessions always carry a report");
        if report != sequential {
            mismatches.push((format!("store({path})"), report));
        }
    }
    Ok(mismatches)
}

/// Resolves the granules of a program's planted locations by probing: a
/// one-compute spec with the same location count writes exactly the planted
/// locations, and the recorded `Write` events carry their addresses (the
/// bump allocator is deterministic, so the probe and the real run place the
/// shadow array identically).
pub fn planted_granules(program: &FuzzProgram) -> Vec<u64> {
    if program.planted.is_empty() {
        return Vec::new();
    }
    let probe = ProgramSpec {
        root: FunctionSpec {
            actions: vec![Action::Compute {
                reads: Vec::new(),
                writes: program.planted.clone(),
            }],
        },
        num_locations: program.spec.num_locations,
        num_futures: 0,
        structured: true,
    };
    let (trace, _) = record_spec(&probe);
    trace
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Write { addr, .. } => Some(addr.granule()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_range_runs_clean() {
        let opts = FuzzOptions {
            threads: vec![1, 2],
            chunkings: 1,
            store_checks: false,
            ..FuzzOptions::default()
        };
        let summary = run_fuzz(0..30, &opts);
        assert_eq!(summary.seeds_run, 30);
        assert!(summary.clean(), "{:#?}", summary.real_bugs);
        assert!(summary.oracle_races > 0, "the generator must produce races");
        assert_eq!(summary.per_shape.len(), FuzzShape::ALL.len());
        assert!(summary.summary_line().contains("CLEAN"));
    }

    #[test]
    fn store_roundtrips_run_clean() {
        let opts = FuzzOptions {
            threads: vec![2],
            chunkings: 0,
            store_checks: true,
            ..FuzzOptions::default()
        };
        let summary = run_fuzz(100..112, &opts);
        assert!(summary.clean(), "{:#?}", summary.real_bugs);
    }

    #[test]
    fn planted_granules_match_the_oracle() {
        let program = futurerd_workloads::fuzzgen::generate_shaped(FuzzShape::PlantedRaces, 4);
        let granules = planted_granules(&program);
        assert_eq!(granules.len(), program.planted.len());
        let (trace, _) = record_spec(&program.spec);
        let oracle = replay_detect_unchecked(&trace, ReplayAlgorithm::GraphOracle);
        for granule in granules {
            assert!(oracle.is_racy(MemAddr(granule * MemAddr::GRANULARITY)));
        }
    }

    #[test]
    fn dropped_races_are_flagged_as_a_real_bug() {
        let mutation = Some(Mutation::DropAllRaces(ReplayAlgorithm::MultiBagsPlus));
        let opts = FuzzOptions {
            threads: vec![1],
            chunkings: 0,
            store_checks: false,
            mutation,
            ..FuzzOptions::default()
        };
        let summary = run_fuzz(0..12, &opts);
        assert!(
            !summary.clean(),
            "a detector that reports nothing must be caught"
        );
        let bug = &summary.real_bugs[0];
        assert_eq!(bug.algorithm, ReplayAlgorithm::MultiBagsPlus);
        assert_eq!(bug.kind, DivergenceKind::RealBug);
        assert!(bug.missed > 0);
        assert!(bug.to_string().contains("REAL BUG"));
    }

    #[test]
    fn spurious_races_are_flagged_as_a_real_bug() {
        let mutation = Some(Mutation::SpuriousRace(ReplayAlgorithm::MultiBags));
        // Structured seeds keep MultiBags sound, so the invented granule is
        // a real bug, not an approximation.
        let program = generate_fuzz_program(0);
        assert_eq!(program.shape, FuzzShape::Structured);
        let (trace, _) = record_spec(&program.spec);
        if !ReplayAlgorithm::MultiBags.sound_for(&trace) {
            panic!("seed 0 must draw a structured program for this test");
        }
        let divergences = classify_sequential(&trace, mutation);
        let bug = divergences
            .iter()
            .find(|d| d.kind == DivergenceKind::RealBug)
            .expect("the spurious granule must surface");
        assert_eq!(bug.algorithm, ReplayAlgorithm::MultiBags);
        assert!(bug.spurious > 0);
    }

    #[test]
    fn conservative_spbags_divergences_are_classified_not_fatal() {
        // The speculation shape always races through futures, where the
        // conservative fallback is unsound: its divergences must be
        // classified as known approximations, never real bugs.
        let mut saw_approximation = false;
        for seed in 0..30u64 {
            let program =
                futurerd_workloads::fuzzgen::generate_shaped(FuzzShape::Speculation, seed);
            let (trace, _) = record_spec(&program.spec);
            for divergence in classify_sequential(&trace, None) {
                assert_eq!(
                    divergence.kind,
                    DivergenceKind::KnownApproximation,
                    "{divergence}"
                );
                saw_approximation = true;
            }
        }
        assert!(
            saw_approximation,
            "speculation must expose the baseline's error"
        );
    }
}
