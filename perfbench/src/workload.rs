//! Workload inputs, their set-up, and the timed end-to-end round. Every
//! timed call goes through the facade entry points the public API keeps:
//! `Config::run`, `Config::replay`, and `Config::session` /
//! `Config::open_session` with `ingest` / `report`.

use crate::alloc::HeapWatch;
use crate::clock::Clock;
use futurerd::{Algorithm, Config, Cx, Detection, FutureHandle, RaceReport, ShadowArray};
use futurerd::{Store, Trace};
use futurerd_dag::genprog::{Action, FunctionSpec, FutId, ProgramSpec};
use futurerd_dag::trace::TraceEvent;
use futurerd_workloads::fuzzgen::{generate_shaped, FuzzShape};
use futurerd_workloads::{bst, dedup, heartwall, lcs, mm, sw};
use futurerd_workloads::{reference_checksum, FutureMode, WorkloadKind, WorkloadParams};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Input scale, fixed so that every commit measures the same inputs: the
/// `bench_params` shapes of `futurerd-bench` at `FUTURERD_SCALE=1`.
const SCALE: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six paper benchmarks, structured futures, MultiBags.
    Fig6Structured,
    /// The six paper benchmarks, general futures, MultiBags+.
    Fig7General,
    /// One structured and one general execution, streamed in fine chunks.
    Follow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig6Structured,
        Workload::Fig7General,
        Workload::Follow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Structured => "fig6-structured",
            Workload::Fig7General => "fig7-general",
            Workload::Follow => "follow",
        }
    }

    /// How each execution is streamed: chunks per execution, and how many
    /// of the last chunks are appended to the stored prefix.
    fn streaming(self) -> (usize, usize) {
        match self {
            Workload::Fig6Structured | Workload::Fig7General => (2, 1),
            Workload::Follow => (24, 3),
        }
    }
}

/// Operation accounting: a wrong verdict or an `Err` is a failed
/// operation, and its round contributes no timing sample.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(message) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{what}: {message}"));
                false
            }
        }
    }
}

/// Checks that a report names exactly the expected racy granules (sorted).
pub fn check_races(report: Option<&RaceReport>, want: &[u64]) -> Result<(), String> {
    let report = report.ok_or("full detection returned no report")?;
    let mut found: Vec<u64> = report.racy_granules().collect();
    found.sort_unstable();
    if found == want {
        Ok(())
    } else {
        Err(format!(
            "{} racy granules, expected {}: {found:?} vs {want:?}",
            found.len(),
            want.len()
        ))
    }
}

/// One program's generated input.
#[derive(Debug)]
pub enum Body {
    Lcs(lcs::LcsInput, usize),
    Sw(sw::SwInput, usize),
    Mm(mm::MmInput, usize),
    Bst(bst::BstInput, usize),
    Heartwall(heartwall::HeartwallInput),
    Dedup(dedup::DedupInput),
    /// `lcs::structured_with_race`: a diagonal tile read before its join.
    LcsRace(lcs::LcsInput, usize),
    /// A generated program with planted races (general futures).
    Spec(ProgramSpec),
}

impl Body {
    fn new(kind: WorkloadKind, p: &WorkloadParams) -> Self {
        match kind {
            WorkloadKind::Lcs => Body::Lcs(lcs::LcsInput::generate(p.n, p.seed), p.base),
            WorkloadKind::Sw => Body::Sw(sw::SwInput::generate(p.n, p.seed), p.base),
            WorkloadKind::Mm => Body::Mm(mm::MmInput::generate(p.n, p.seed), p.base),
            WorkloadKind::Bst => Body::Bst(
                bst::BstInput::generate(p.bst_sizes.0, p.bst_sizes.1, p.seed),
                p.base,
            ),
            WorkloadKind::Heartwall => {
                let (frames, points, dim) = p.heartwall;
                Body::Heartwall(heartwall::HeartwallInput::generate(
                    frames, points, dim, p.seed,
                ))
            }
            WorkloadKind::Dedup => {
                Body::Dedup(dedup::DedupInput::generate(p.dedup.0, p.dedup.1, p.seed))
            }
        }
    }

    /// Runs the program on the facade's context and returns its checksum.
    pub fn run(&self, cx: &mut Cx, mode: FutureMode) -> u64 {
        use FutureMode::{General, Structured};
        match (self, mode) {
            (Body::Lcs(i, b), Structured) => lcs::structured(cx, i, *b) as u64,
            (Body::Lcs(i, b), General) => lcs::general(cx, i, *b) as u64,
            (Body::Sw(i, b), Structured) => sw::structured(cx, i, *b) as u64,
            (Body::Sw(i, b), General) => sw::general(cx, i, *b) as u64,
            (Body::Mm(i, b), Structured) => mm::structured(cx, i, *b),
            (Body::Mm(i, b), General) => mm::general(cx, i, *b),
            (Body::Bst(i, b), Structured) => bst::structured(cx, i, *b),
            (Body::Bst(i, b), General) => bst::general(cx, i, *b),
            (Body::Heartwall(i), Structured) => heartwall::structured(cx, i),
            (Body::Heartwall(i), General) => heartwall::general(cx, i),
            (Body::Dedup(i), Structured) => dedup::structured(cx, i),
            (Body::Dedup(i), General) => dedup::general(cx, i),
            (Body::LcsRace(i, b), _) => lcs::structured_with_race(cx, i, *b) as u64,
            (Body::Spec(spec), _) => run_spec(cx, spec),
        }
    }
}

/// The `bench_params` shapes at [`SCALE`], with the run's seed.
fn params(kind: WorkloadKind, seed: u64) -> WorkloadParams {
    let s = SCALE;
    let base = WorkloadParams {
        seed,
        ..WorkloadParams::default()
    };
    match kind {
        WorkloadKind::Lcs => WorkloadParams {
            n: 256 * s,
            base: 16 * s,
            ..base
        },
        WorkloadKind::Sw => WorkloadParams {
            n: 64 * s,
            base: 8 * s,
            ..base
        },
        WorkloadKind::Mm => WorkloadParams {
            n: 48 * s,
            base: 8 * s,
            ..base
        },
        WorkloadKind::Bst => WorkloadParams {
            bst_sizes: (6000 * s, 3000 * s),
            base: 64,
            ..base
        },
        WorkloadKind::Heartwall => WorkloadParams {
            heartwall: (10, 16 * s, 64),
            ..base
        },
        WorkloadKind::Dedup => WorkloadParams {
            dedup: (96 * s, 256),
            ..base
        },
    }
}

/// One program of a workload: its input, its recorded execution, and the
/// answers its verdicts are checked against, all fixed at set-up.
#[derive(Debug)]
pub struct Program {
    pub name: &'static str,
    pub mode: FutureMode,
    pub config: Config,
    pub body: Body,
    /// The serial reference implementation's checksum (`None` for the
    /// planted-race inputs, whose value is not defined by a reference).
    pub checksum: Option<u64>,
    /// The graph oracle's racy granules, sorted (empty: race-free).
    pub races: Vec<u64>,
    /// The recorded execution, encoded.
    pub trace_bytes: Vec<u8>,
    /// The execution cut into chunks, for sessions.
    pub chunks: Vec<Vec<TraceEvent>>,
    /// The racy granules of each chunk-boundary prefix.
    pub prefix_races: Vec<Vec<u64>>,
    /// Memory accesses of the whole execution.
    pub accesses: u64,
}

impl Program {
    fn build(
        name: &'static str,
        mode: FutureMode,
        body: Body,
        checksum: Option<u64>,
        parts: usize,
    ) -> Result<Self, String> {
        let config = match mode {
            FutureMode::Structured => Config::structured(),
            FutureMode::General => Config::general(),
        };
        let recorded = futurerd::record(|cx| body.run(cx, mode));
        if let Some(want) = checksum.filter(|&want| want != recorded.value) {
            return Err(format!(
                "{name}: recorded checksum {}, reference {want}",
                recorded.value
            ));
        }
        let events = recorded.trace.events();
        let chunks: Vec<Vec<TraceEvent>> = events
            .chunks(events.len().div_ceil(parts))
            .map(<[TraceEvent]>::to_vec)
            .collect();
        let (races, prefix_races) = if checksum.is_some() {
            // Race-free by construction, and so is every prefix.
            (Vec::new(), vec![Vec::new(); chunks.len()])
        } else {
            oracle_races(&body, mode, &chunks)?
        };
        Ok(Self {
            name,
            mode,
            config,
            body,
            checksum,
            races,
            trace_bytes: recorded.trace.to_bytes(),
            chunks,
            prefix_races,
            accesses: recorded.summary.reads + recorded.summary.writes,
        })
    }

    /// Checks a live run's value and verdict.
    fn check_live(&self, detection: &Detection<u64>) -> Result<(), String> {
        if let Some(want) = self.checksum.filter(|&want| want != detection.value) {
            return Err(format!("checksum {}, reference {want}", detection.value));
        }
        check_races(detection.report.as_ref(), &self.races)
    }

    /// Checks a session report on the prefix ending with chunk `chunk`.
    fn check_prefix(&self, detection: &Detection<()>, chunk: usize) -> Result<(), String> {
        check_races(detection.report.as_ref(), &self.prefix_races[chunk])?;
        let seen = detection.summary.reads + detection.summary.writes;
        if chunk + 1 == self.chunks.len() && seen != self.accesses {
            return Err(format!("{seen} accesses seen, {} recorded", self.accesses));
        }
        Ok(())
    }
}

/// The graph oracle's racy granules for the whole program (run live) and
/// for every chunk-boundary prefix of its recorded execution.
fn oracle_races(
    body: &Body,
    mode: FutureMode,
    chunks: &[Vec<TraceEvent>],
) -> Result<(Vec<u64>, Vec<Vec<u64>>), String> {
    let oracle = Config::new().algorithm(Algorithm::GraphOracle);
    let granules = |report: Option<&RaceReport>| -> Result<Vec<u64>, String> {
        let mut found: Vec<u64> = report
            .ok_or("the oracle returned no report")?
            .racy_granules()
            .collect();
        found.sort_unstable();
        Ok(found)
    };
    let live = granules(oracle.run(|cx| body.run(cx, mode)).report.as_ref())?;
    if live.is_empty() {
        return Err("the planted-race input has no race under the oracle".into());
    }
    let mut session = oracle.session();
    let mut prefixes = Vec::new();
    for chunk in chunks {
        session.ingest(chunk).map_err(|e| e.to_string())?;
        let detection = session.report().map_err(|e| e.to_string())?;
        prefixes.push(granules(detection.report.as_ref())?);
    }
    Ok((live, prefixes))
}

/// A planted-races program whose base part uses general futures: the
/// first general draw from the seed's sequence.
fn planted_general_program(seed: u64) -> ProgramSpec {
    (0..)
        .map(|i| {
            generate_shaped(
                FuzzShape::PlantedRaces,
                seed.wrapping_mul(1000).wrapping_add(i),
            )
        })
        .find(|program| !program.spec.structured && program.spec.num_futures > 0)
        .expect("half of the planted-races draws are general")
        .spec
}

/// Executes a generated program on the facade's context: one instrumented
/// `u32` cell per location, one `u32` value per future.
fn run_spec(cx: &mut Cx, spec: &ProgramSpec) -> u64 {
    let mut mem = ShadowArray::new(cx, spec.num_locations.max(1) as usize, 0u32);
    let mut futures = HashMap::new();
    u64::from(interp(cx, &spec.root, &mut mem, &mut futures))
}

fn interp(
    cx: &mut Cx,
    body: &FunctionSpec,
    mem: &mut ShadowArray<u32>,
    futures: &mut HashMap<FutId, FutureHandle<u32>>,
) -> u32 {
    let mut steps = 0u32;
    for action in &body.actions {
        steps = steps.wrapping_add(1);
        match action {
            Action::Compute { reads, writes } => {
                let mut acc = 0u32;
                for loc in reads {
                    acc = acc.wrapping_add(mem.get(cx, loc.0 as usize));
                }
                for loc in writes {
                    mem.set(cx, loc.0 as usize, acc.wrapping_add(loc.0));
                }
            }
            Action::Spawn(child) => cx.spawn(|cx| {
                interp(cx, child, &mut *mem, &mut *futures);
            }),
            Action::Sync => cx.sync(),
            Action::CreateFuture(id, child) => {
                let handle = cx.create_future(|cx| interp(cx, child, &mut *mem, &mut *futures));
                futures.insert(*id, handle);
            }
            Action::GetFuture(id) => {
                let handle = futures
                    .get_mut(id)
                    .expect("the generator creates every future before its gets");
                steps = steps.wrapping_add(cx.touch_future(handle));
            }
        }
    }
    steps
}

/// A workload, set up: its programs and the store their executions are
/// appended to.
#[derive(Debug)]
pub struct Fixture {
    pub programs: Vec<Program>,
    /// Detection threads of the parallel replays.
    pub threads: usize,
    /// The first chunk of each execution appended to the store.
    pub store_from: usize,
    pub store_dir: PathBuf,
    /// The primed store's files (each execution's prefix and its sidecar),
    /// written back before every round.
    primed: Vec<(PathBuf, Vec<u8>)>,
}

impl Fixture {
    /// Input generation, recording and encoding, reference answers, the
    /// shared pool, and store priming.
    pub fn build(
        workload: Workload,
        seed: u64,
        threads: usize,
        store_dir: &Path,
    ) -> Result<Self, String> {
        let (chunks, appended) = workload.streaming();
        let figure = |mode: FutureMode| -> Result<Vec<Program>, String> {
            let mut programs = Vec::new();
            for kind in WorkloadKind::ALL {
                let p = params(kind, seed);
                let checksum = Some(reference_checksum(kind, &p));
                programs.push(Program::build(
                    kind.name(),
                    mode,
                    Body::new(kind, &p),
                    checksum,
                    chunks,
                )?);
            }
            let planted = match mode {
                FutureMode::Structured => {
                    let p = params(WorkloadKind::Lcs, seed);
                    Body::LcsRace(lcs::LcsInput::generate(p.n, p.seed), p.base)
                }
                FutureMode::General => Body::Spec(planted_general_program(seed)),
            };
            programs.push(Program::build("planted", mode, planted, None, chunks)?);
            Ok(programs)
        };
        let programs = match workload {
            Workload::Fig6Structured => figure(FutureMode::Structured)?,
            Workload::Fig7General => figure(FutureMode::General)?,
            Workload::Follow => {
                let mut programs = Vec::new();
                for (kind, mode) in [
                    (WorkloadKind::Lcs, FutureMode::Structured),
                    (WorkloadKind::Bst, FutureMode::General),
                ] {
                    let p = params(kind, seed);
                    let checksum = Some(reference_checksum(kind, &p));
                    programs.push(Program::build(
                        kind.name(),
                        mode,
                        Body::new(kind, &p),
                        checksum,
                        chunks,
                    )?);
                }
                programs
            }
        };
        // The process-shared pool that `Config::threads` replays run on.
        futurerd::ThreadPool::shared(threads);

        let store_from = chunks - appended;
        if store_dir.exists() {
            std::fs::remove_dir_all(store_dir).map_err(|e| e.to_string())?;
        }
        let mut store = Store::open(store_dir).map_err(|e| e.to_string())?;
        for program in &programs {
            let mut prefix = Trace::new();
            for chunk in &program.chunks[..store_from] {
                prefix.extend_events(chunk);
            }
            store
                .put_trace(program.name, &prefix)
                .map_err(|e| e.to_string())?;
            let mut session = program
                .config
                .open_session(&mut store, program.name)
                .map_err(|e| e.to_string())?;
            let detection = session.report().map_err(|e| e.to_string())?;
            program.check_prefix(&detection, store_from - 1)?;
        }
        let primed = dir_files(store_dir)?
            .into_iter()
            .map(|path| std::fs::read(&path).map(|bytes| (path, bytes)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Self {
            programs,
            threads,
            store_from,
            store_dir: store_dir.to_path_buf(),
            primed,
        })
    }

    /// Puts the store back into its primed state.
    pub fn restore_store(&self) -> Result<(), String> {
        for path in dir_files(&self.store_dir)? {
            std::fs::remove_file(path).map_err(|e| e.to_string())?;
        }
        for (path, bytes) in &self.primed {
            std::fs::write(path, bytes).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn dir_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    files.sort();
    Ok(files)
}

/// Bytes held by the store's files.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    dir_files(dir)?
        .iter()
        .map(|path| std::fs::metadata(path).map(|m| m.len()))
        .sum::<Result<u64, _>>()
        .map_err(|e| e.to_string())
}

/// One round: the seconds of each call, per program in program order (per
/// chunk for the ephemeral appends), the store's size, and the largest heap
/// peak of any timed call.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub live_s: Vec<f64>,
    pub replay_s: Vec<f64>,
    pub replay_par_s: Vec<f64>,
    pub appends_s: Vec<f64>,
    pub store_append_s: Vec<f64>,
    pub store_reopen_s: Vec<f64>,
    pub store_bytes: u64,
    pub peak_heap: u64,
}

/// Times `f` on `clock`, folding its heap peak into `peak`.
fn timed<R>(peak: &mut u64, clock: Clock, f: impl FnOnce() -> R) -> (R, f64) {
    let heap = HeapWatch::start();
    let timed = clock.time(f);
    *peak = (*peak).max(heap.peak_bytes());
    timed
}

/// Calls every entry point once per program, in a fixed order, checking
/// every verdict. `None` if any call failed. Only the parallel replay runs
/// on more than one thread, so only it is timed on the wall clock.
pub fn round(fx: &Fixture, tally: &mut Tally) -> Option<Round> {
    let mut r = Round::default();
    let mut ok = true;
    for p in &fx.programs {
        let (detection, s) = timed(&mut r.peak_heap, Clock::Cpu, || {
            p.config.run(|cx| p.body.run(cx, p.mode))
        });
        r.live_s.push(s);
        ok &= tally.check(&format!("live {}", p.name), p.check_live(&detection));
    }
    for threads in [1, fx.threads] {
        for p in &fx.programs {
            let config = p.config.threads(threads);
            let (clock, seconds) = if threads == 1 {
                (Clock::Cpu, &mut r.replay_s)
            } else {
                (Clock::Wall, &mut r.replay_par_s)
            };
            let (result, s) = timed(&mut r.peak_heap, clock, || {
                Trace::from_bytes(&p.trace_bytes)
                    .map_err(futurerd::Error::from)
                    .and_then(|trace| config.replay(&trace))
            });
            seconds.push(s);
            let outcome = result
                .map_err(|e| e.to_string())
                .and_then(|d| check_races(d.report.as_ref(), &p.races));
            ok &= tally.check(&format!("replay P={threads} {}", p.name), outcome);
        }
    }
    for p in &fx.programs {
        let mut session = p.config.session();
        for (i, chunk) in p.chunks.iter().enumerate() {
            let (result, s) = timed(&mut r.peak_heap, Clock::Cpu, || {
                session.ingest(chunk).and_then(|()| session.report())
            });
            r.appends_s.push(s);
            let outcome = result
                .map_err(|e| e.to_string())
                .and_then(|d| p.check_prefix(&d, i));
            ok &= tally.check(&format!("append {} #{i}", p.name), outcome);
        }
    }
    if let Err(e) = fx.restore_store() {
        tally.check("store restore", Err(e));
        return None;
    }
    for p in &fx.programs {
        let (outcome, s) = timed(&mut r.peak_heap, Clock::Cpu, || store_append(fx, p));
        r.store_append_s.push(s);
        ok &= tally.check(&format!("store append {}", p.name), outcome);
    }
    for p in &fx.programs {
        let (outcome, s) = timed(&mut r.peak_heap, Clock::Cpu, || store_reopen(fx, p));
        r.store_reopen_s.push(s);
        ok &= tally.check(&format!("store reopen {}", p.name), outcome);
    }
    match dir_bytes(&fx.store_dir) {
        Ok(bytes) => r.store_bytes = bytes,
        Err(e) => ok &= tally.check("store size", Err(e)),
    }
    ok.then_some(r)
}

/// Opens the stored prefix as a persistent session and appends the rest of
/// the execution, reporting (and so writing the sidecar) after each chunk.
fn store_append(fx: &Fixture, p: &Program) -> Result<(), String> {
    let mut store = Store::open(&fx.store_dir).map_err(|e| e.to_string())?;
    let mut session = p
        .config
        .open_session(&mut store, p.name)
        .map_err(|e| e.to_string())?;
    for i in fx.store_from..p.chunks.len() {
        session.ingest(&p.chunks[i]).map_err(|e| e.to_string())?;
        let detection = session.report().map_err(|e| e.to_string())?;
        p.check_prefix(&detection, i)?;
    }
    Ok(())
}

/// Reopens the finished entry through a fresh store handle and reports.
fn store_reopen(fx: &Fixture, p: &Program) -> Result<(), String> {
    let mut store = Store::open(&fx.store_dir).map_err(|e| e.to_string())?;
    let mut session = p
        .config
        .open_session(&mut store, p.name)
        .map_err(|e| e.to_string())?;
    let detection = session.report().map_err(|e| e.to_string())?;
    p.check_prefix(&detection, p.chunks.len() - 1)
}
