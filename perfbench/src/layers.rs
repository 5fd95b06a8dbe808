//! The traced run: the workload's inputs and verdict checks, with a timer
//! around each layer's public call, made from outside the program. All the
//! lower-level calls the benchmark makes live in this module; the
//! end-to-end rounds use only the facade.

use crate::alloc::HeapWatch;
use crate::clock::Clock;
use crate::host::Factors;
use crate::workload::{check_races, Fixture, Program, Tally};
use futurerd::parallel::{
    bucket_accesses, detect_frozen_outcomes, incremental_outcomes, merge_outcomes_stats,
    partition_ranges, FreezeAssist, IncrementalFreezer, PartitionOutcome, StdExecutor,
};
use futurerd::replay::{replay_detect, ReplayAlgorithm};
use futurerd::store::{decode_sidecar, encode_sidecar, hash_events, Sidecar};
use futurerd::{Analysis, DetectionPath, PoolExecutor, PrefixValidator, Store, ThreadPool, Trace};
use futurerd_workloads::FutureMode;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in print order. A workload that
/// does not exercise a layer reports 0 for it.
pub const METRICS: &[(&str, &str)] = &[
    ("exec.baseline_s", "s"),
    ("exec.instrument_s", "s"),
    ("exec.instrument_overhead_x", "x"),
    ("reach.maintain_s", "s"),
    ("reach.overhead_x", "x"),
    ("reach.dsu_ops", "count"),
    ("reach.queries", "count"),
    ("reach.attached_sets", "count"),
    ("reach.r_arcs", "count"),
    ("reach.r_bytes", "bytes"),
    ("history.s", "s"),
    ("history.full_overhead_x", "x"),
    ("history.read_checks", "count"),
    ("history.write_checks", "count"),
    ("history.readers_recorded", "count"),
    ("history.shadow_pages", "count"),
    ("trace.decode_s", "s"),
    ("trace.validate_s", "s"),
    ("trace.events", "count"),
    ("trace.bytes", "bytes"),
    ("replay.seq_s", "s"),
    ("freeze.s", "s"),
    ("freeze.par_s", "s"),
    ("freeze.snapshot_s", "s"),
    ("freeze.closure_entries", "count"),
    ("freeze.granule_accesses", "count"),
    ("shard.partition_s", "s"),
    ("shard.detect_s", "s"),
    ("shard.detect_par_s", "s"),
    ("shard.merge_s", "s"),
    ("pool.executed", "count"),
    ("pool.steals", "count"),
    ("session.ingest_s", "s"),
    ("session.report_s", "s"),
    ("session.validate_s", "s"),
    ("session.freeze_s", "s"),
    ("session.snapshot_s", "s"),
    ("session.pass2_s", "s"),
    ("session.merge_s", "s"),
    ("session.path.cold", "count"),
    ("session.path.incremental", "count"),
    ("session.path.warm_cached", "count"),
    ("session.partitions_rerun", "count"),
    ("session.partitions_reused", "count"),
    ("store.encode_s", "s"),
    ("store.decode_s", "s"),
    ("store.sidecar_bytes", "bytes"),
    ("store.trace_bytes", "bytes"),
    ("store.incremental_refreezes", "count"),
    ("store.partitions_rerun", "count"),
    ("store.partitions_reused", "count"),
    ("alloc.live_mb", "MiB"),
    ("alloc.replay_mb", "MiB"),
    ("alloc.replay_par_mb", "MiB"),
    ("alloc.follow_mb", "MiB"),
    ("unaccounted.replay_s", "s"),
    ("unaccounted.replay_par_s", "s"),
    ("unaccounted.append_s", "s"),
    ("unaccounted.store_append_s", "s"),
    ("unaccounted.store_reopen_s", "s"),
    ("host.reference_s", "s"),
];

/// What one traced round measured: seconds and heap peaks per name, counts
/// per name, and each program's four-configuration live times.
#[derive(Debug, Default)]
pub struct Traced {
    /// Seconds of single-threaded calls, on the CPU clock.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Seconds of two-thread calls, on the wall clock.
    pub wall_seconds: BTreeMap<&'static str, f64>,
    pub peaks: BTreeMap<&'static str, u64>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Per race-free benchmark: baseline, reachability, instrumentation and
    /// full live seconds.
    pub configs: Vec<[f64; 4]>,
}

impl Traced {
    /// Times a single-threaded call (see [`Clock`]).
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_on(Clock::Cpu, name, f)
    }

    fn time_on<R>(&mut self, clock: Clock, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (result, seconds) = clock.time(f);
        let total = match clock {
            Clock::Cpu => &mut self.seconds,
            Clock::Wall => &mut self.wall_seconds,
        };
        *total.entry(name).or_default() += seconds;
        result
    }

    /// As [`Traced::time_on`], also folding the call's heap peak into
    /// `peak`.
    fn time_heap<R>(
        &mut self,
        clock: Clock,
        name: &'static str,
        peak: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let heap = HeapWatch::start();
        let result = self.time_on(clock, name, f);
        let bytes = heap.peak_bytes();
        let slot = self.peaks.entry(peak).or_default();
        *slot = (*slot).max(bytes);
        result
    }

    fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value;
    }
}

fn algorithm(p: &Program) -> ReplayAlgorithm {
    match p.mode {
        FutureMode::Structured => ReplayAlgorithm::MultiBags,
        FutureMode::General => ReplayAlgorithm::MultiBagsPlus,
    }
}

/// One traced round over every program of the workload. `None` if any
/// verdict was wrong or any call failed.
pub fn round(fx: &Fixture, tally: &mut Tally) -> Option<Traced> {
    let mut t = Traced::default();
    let mut ok = true;
    let pool = ThreadPool::shared(fx.threads);
    let pool_before = pool_totals(&pool);
    for p in &fx.programs {
        ok &= live(&mut t, tally, p);
        ok &= replay(&mut t, tally, fx, &pool, p);
        ok &= follow(&mut t, tally, p);
    }
    let (executed, steals) = pool_totals(&pool);
    t.count("pool.executed", executed - pool_before.0);
    t.count("pool.steals", steals - pool_before.1);
    if let Err(e) = fx.restore_store() {
        tally.check("store restore", Err(e));
        return None;
    }
    for p in &fx.programs {
        ok &= store(&mut t, tally, fx, p);
    }
    ok.then_some(t)
}

fn pool_totals(pool: &ThreadPool) -> (u64, u64) {
    pool.worker_stats()
        .iter()
        .fold((0, 0), |(e, s), w| (e + w.executed, s + w.steals))
}

/// The paper's four configurations through `Config::run`, with the
/// reachability and access-history counters of the full one.
fn live(t: &mut Traced, tally: &mut Tally, p: &Program) -> bool {
    let mut ok = true;
    let mut times = [0.0; 4];
    for (slot, analysis) in [
        Analysis::Baseline,
        Analysis::Reachability,
        Analysis::Instrumentation,
        Analysis::Full,
    ]
    .into_iter()
    .enumerate()
    {
        let config = p.config.analysis(analysis);
        let heap = HeapWatch::start();
        let (detection, seconds) = Clock::Cpu.time(|| config.run(|cx| p.body.run(cx, p.mode)));
        times[slot] = seconds;
        let outcome = match analysis {
            Analysis::Full => {
                let peak = t.peaks.entry("alloc.live_mb").or_default();
                *peak = (*peak).max(heap.peak_bytes());
                if let Some(r) = detection.reach_stats {
                    t.count("reach.dsu_ops", r.dsu_ops());
                    t.count("reach.queries", r.queries);
                    t.count("reach.attached_sets", r.attached_sets);
                    t.count("reach.r_arcs", r.r_arcs);
                    t.count("reach.r_bytes", r.r_bytes);
                }
                if let Some(d) = detection.detector_stats {
                    t.count("history.read_checks", d.read_checks);
                    t.count("history.write_checks", d.write_checks);
                    t.count("history.readers_recorded", d.readers_recorded);
                    t.count("history.shadow_pages", d.shadow_pages);
                }
                check_races(detection.report.as_ref(), &p.races)
            }
            _ => match p.checksum {
                Some(want) if want != detection.value => {
                    Err(format!("checksum {}, reference {want}", detection.value))
                }
                _ => Ok(()),
            },
        };
        ok &= tally.check(&format!("traced live {analysis:?} {}", p.name), outcome);
    }
    let [base, reach, instr, full] = times;
    *t.seconds.entry("exec.baseline_s").or_default() += base;
    *t.seconds.entry("reach.maintain_s").or_default() += reach - base;
    *t.seconds.entry("exec.instrument_s").or_default() += instr - reach;
    *t.seconds.entry("history.s").or_default() += full - instr;
    if p.checksum.is_some() {
        t.configs.push(times);
    }
    ok
}

/// Decode, validate, the sequential detector, both freezes and pass 2 at
/// one and at `threads` partitions, next to the facade replays they make
/// up.
fn replay(t: &mut Traced, tally: &mut Tally, fx: &Fixture, pool: &ThreadPool, p: &Program) -> bool {
    let mut ok = true;
    let alg = algorithm(p);
    let bytes = &p.trace_bytes;
    t.count("trace.bytes", bytes.len() as u64);
    let trace = match t.time("trace.decode_s", || Trace::from_bytes(bytes)) {
        Ok(trace) => trace,
        Err(e) => return tally.check(&format!("traced decode {}", p.name), Err(e.to_string())),
    };
    let events = trace.events();
    t.count("trace.events", events.len() as u64);
    let validated = t.time("trace.validate_s", || PrefixValidator::new().extend(events));
    ok &= tally.check(
        &format!("traced validate {}", p.name),
        match validated {
            Ok((_, true)) => Ok(()),
            Ok((_, false)) => Err("stream ended before ProgramEnd".to_string()),
            Err(e) => Err(e.to_string()),
        },
    );
    let sequential = t.time("replay.seq_s", || replay_detect(&trace, alg));
    ok &= tally.check(
        &format!("traced replay_detect {}", p.name),
        sequential
            .map_err(|e| e.to_string())
            .and_then(|report| check_races(Some(&report), &p.races)),
    );

    let Some(mut freezer) = IncrementalFreezer::new(alg) else {
        return tally.check(
            &format!("traced freeze {}", p.name),
            Err("unfreezable".into()),
        );
    };
    t.time("freeze.s", || freezer.extend(events));
    let executor = PoolExecutor(pool);
    let assist = FreezeAssist::new(fx.threads, &executor);
    let mut assisted = IncrementalFreezer::new(alg).expect("freezable above");
    t.time_on(Clock::Wall, "freeze.par_s", || {
        assisted.extend_assisted(events, &assist)
    });
    let index = t.time("freeze.snapshot_s", || freezer.snapshot_index());
    let accesses = freezer.accesses();
    t.count("freeze.closure_entries", index.closure_entries() as u64);
    t.count("freeze.granule_accesses", accesses.len() as u64);

    t.time("shard.partition_s", || {
        let ranges = partition_ranges(accesses, fx.threads);
        bucket_accesses(accesses, &ranges)
    });
    let one = t.time("shard.detect_s", || {
        detect_frozen_outcomes(&index, accesses, 1, &StdExecutor)
    });
    let many = t.time_on(Clock::Wall, "shard.detect_par_s", || {
        detect_frozen_outcomes(&index, accesses, fx.threads, &executor)
    });
    let (merged, _) = t.time("shard.merge_s", || merge_outcomes_stats(many));
    ok &= tally.check(
        &format!("traced pass 2 {}", p.name),
        check_races(Some(&merged), &p.races)
            .and_then(|()| check_races(Some(&merge_outcomes_stats(one).0), &p.races)),
    );

    for (threads, clock, name, peak) in [
        (1, Clock::Cpu, "e2e.replay", "alloc.replay_mb"),
        (
            fx.threads,
            Clock::Wall,
            "e2e.replay_par",
            "alloc.replay_par_mb",
        ),
    ] {
        let config = p.config.threads(threads);
        let result = t.time_heap(clock, name, peak, || {
            Trace::from_bytes(bytes)
                .map_err(futurerd::Error::from)
                .and_then(|trace| config.replay(&trace))
        });
        ok &= tally.check(
            &format!("traced {name} {}", p.name),
            result
                .map_err(|e| e.to_string())
                .and_then(|d| check_races(d.report.as_ref(), &p.races)),
        );
    }
    ok
}

/// The facade's ephemeral session, each append split into ingest and
/// report, next to the same appends rebuilt from the layers a session
/// runs: validate, freeze, snapshot, pass 2 (cold or incremental), merge.
fn follow(t: &mut Traced, tally: &mut Tally, p: &Program) -> bool {
    let mut ok = true;
    let mut session = p.config.session();
    for (i, chunk) in p.chunks.iter().enumerate() {
        let ingested = t.time_heap(Clock::Cpu, "session.ingest_s", "alloc.follow_mb", || {
            session.ingest(chunk)
        });
        let reported = ingested.and_then(|()| {
            t.time_heap(Clock::Cpu, "session.report_s", "alloc.follow_mb", || {
                session.report()
            })
        });
        let outcome = reported.map_err(|e| e.to_string()).and_then(|d| {
            count_path(t, d.path);
            check_races(d.report.as_ref(), &p.prefix_races[i])
        });
        ok &= tally.check(&format!("traced append {} #{i}", p.name), outcome);
    }

    let mut rebuilt = Rebuilt::new(p);
    for (i, chunk) in p.chunks.iter().enumerate() {
        let outcome = rebuilt.append(t, chunk);
        ok &= tally.check(
            &format!("traced layer append {} #{i}", p.name),
            outcome.and_then(|report| check_races(Some(&report), &p.prefix_races[i])),
        );
    }
    ok
}

/// Counts how a session report was served (a first report of a stored
/// prefix counts as cold).
fn count_path(t: &mut Traced, path: Option<DetectionPath>) {
    match path {
        Some(DetectionPath::Cold | DetectionPath::WarmIndex) => t.count("session.path.cold", 1),
        Some(DetectionPath::Incremental { rerun, reused, .. }) => {
            t.count("session.path.incremental", 1);
            t.count("session.partitions_rerun", rerun as u64);
            t.count("session.partitions_reused", reused as u64);
        }
        Some(DetectionPath::WarmCached) => t.count("session.path.warm_cached", 1),
        None => {}
    }
}

/// A session's engine rebuilt from its layers at one thread: the state
/// `Session` keeps between appends.
struct Rebuilt {
    validator: PrefixValidator,
    freezer: IncrementalFreezer,
    outcomes: Option<Vec<PartitionOutcome>>,
    detected: usize,
}

impl Rebuilt {
    fn new(p: &Program) -> Self {
        Self {
            validator: PrefixValidator::new(),
            freezer: IncrementalFreezer::new(algorithm(p))
                .expect("MultiBags and MultiBags+ freeze"),
            outcomes: None,
            detected: 0,
        }
    }

    /// One append: ingest (validate, freeze) then report (snapshot, pass 2,
    /// merge). Returns the merged report.
    fn append(
        &mut self,
        t: &mut Traced,
        chunk: &[futurerd::TraceEvent],
    ) -> Result<futurerd::RaceReport, String> {
        t.time("session.validate_s", || self.validator.extend(chunk))
            .map_err(|e| e.to_string())?;
        t.time("session.freeze_s", || self.freezer.extend(chunk));
        let index = t.time("session.snapshot_s", || self.freezer.snapshot_index());
        let accesses = self.freezer.accesses();
        let outcomes = t.time("session.pass2_s", || match self.outcomes.take() {
            Some(stored) if self.detected == accesses.len() => stored,
            Some(stored) if !stored.is_empty() => {
                let fresh = &accesses[self.detected..];
                incremental_outcomes(&index, accesses, fresh, stored, 1, &StdExecutor).outcomes
            }
            _ => detect_frozen_outcomes(&index, accesses, 1, &StdExecutor),
        });
        let (report, _) = t.time("session.merge_s", || {
            merge_outcomes_stats(outcomes.iter().cloned())
        });
        self.detected = accesses.len();
        self.outcomes = Some(outcomes);
        Ok(report)
    }

    /// The sidecar a persistent session writes for this state.
    fn sidecar(&self, trace: &Trace) -> Sidecar {
        let pos = self.freezer.position() as usize;
        Sidecar {
            trace_hash: hash_events(&trace.events()[..pos]),
            freeze: self.freezer.to_raw(),
            outcomes: self.outcomes.clone(),
        }
    }
}

/// The facade's persistent session (append, then reopen) with the store's
/// counters, next to the sidecar encode and decode it performs.
fn store(t: &mut Traced, tally: &mut Tally, fx: &Fixture, p: &Program) -> bool {
    let mut ok = true;
    let appended = t.time_heap(
        Clock::Cpu,
        "e2e.store_append",
        "alloc.follow_mb",
        || -> Result<_, String> {
            let mut store = Store::open(&fx.store_dir).map_err(|e| e.to_string())?;
            let mut session = p
                .config
                .open_session(&mut store, p.name)
                .map_err(|e| e.to_string())?;
            let mut reports = Vec::new();
            for i in fx.store_from..p.chunks.len() {
                session.ingest(&p.chunks[i]).map_err(|e| e.to_string())?;
                reports.push((i, session.report().map_err(|e| e.to_string())?));
            }
            drop(session);
            Ok((store.stats(), reports))
        },
    );
    let outcome = appended.and_then(|(stats, reports)| {
        t.count("store.incremental_refreezes", stats.incremental_refreezes);
        t.count("store.partitions_rerun", stats.partitions_rerun);
        t.count("store.partitions_reused", stats.partitions_reused);
        reports.iter().try_for_each(|(i, d)| {
            count_path(t, d.path);
            check_races(d.report.as_ref(), &p.prefix_races[*i])
        })
    });
    ok &= tally.check(&format!("traced store append {}", p.name), outcome);

    let reopened = t.time_heap(
        Clock::Cpu,
        "e2e.store_reopen",
        "alloc.follow_mb",
        || -> Result<_, String> {
            let mut store = Store::open(&fx.store_dir).map_err(|e| e.to_string())?;
            let mut session = p
                .config
                .open_session(&mut store, p.name)
                .map_err(|e| e.to_string())?;
            session.report().map_err(|e| e.to_string())
        },
    );
    ok &= tally.check(
        &format!("traced store reopen {}", p.name),
        reopened.and_then(|d| {
            count_path(t, d.path);
            check_races(d.report.as_ref(), p.prefix_races.last().expect("chunks"))
        }),
    );

    // The sidecar of every appended state, encoded as the store writes it,
    // and the final one decoded as a reopen reads it.
    let mut rebuilt = Rebuilt::new(p);
    let mut trace = Trace::new();
    let mut untimed = Traced::default();
    let mut last = Vec::new();
    for (i, chunk) in p.chunks.iter().enumerate() {
        trace.extend_events(chunk);
        let appended = if i >= fx.store_from {
            t.time("e2e.store_layers", || rebuilt.append(&mut untimed, chunk))
        } else {
            rebuilt.append(&mut untimed, chunk)
        };
        if let Err(e) = appended {
            return tally.check(&format!("traced sidecar {}", p.name), Err(e));
        }
        if i >= fx.store_from {
            let sidecar = rebuilt.sidecar(&trace);
            last = t.time("store.encode_s", || encode_sidecar(&sidecar));
        }
    }
    t.count("store.sidecar_bytes", last.len() as u64);
    t.count("store.trace_bytes", trace.to_bytes().len() as u64);
    let decoded = t.time("store.decode_s", || decode_sidecar(&last));
    ok &= tally.check(
        &format!("traced sidecar {}", p.name),
        decoded.map(drop).map_err(|e| e.to_string()),
    );
    ok
}

/// The run's per-layer metrics from its traced rounds: medians of the
/// seconds, counts and heap peaks, the four-configuration geomeans, and the
/// share of each end-to-end call that no timed layer accounts for.
pub fn metrics(
    rounds: &[(Traced, Factors)],
    reference_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let median_of =
        |f: &dyn Fn(&Traced) -> f64| crate::median(rounds.iter().map(|(r, _)| f(r)).collect());
    let seconds = |name: &str| {
        crate::median(
            rounds
                .iter()
                .map(|(r, k)| match r.wall_seconds.get(name) {
                    Some(wall) => k.pair * wall,
                    None => k.cpu * r.seconds.get(name).copied().unwrap_or(0.0),
                })
                .collect(),
        )
    };
    let geomeans: Vec<f64> = (1..4)
        .map(|config| {
            let programs = rounds.first().map_or(0, |(r, _)| r.configs.len());
            let logs: f64 = (0..programs)
                .map(|p| {
                    let time = |c: usize| median_of(&|r| r.configs[p][c]);
                    (time(config) / time(0)).ln()
                })
                .sum();
            (logs / programs.max(1) as f64).exp()
        })
        .collect();
    println!(
        "four-configuration geomeans over {} programs: reachability {:.2}x, \
         instrumentation {:.2}x, full {:.2}x (paper: Fig 6 1.06x/20.5x, Fig 7 1.40x/26x)",
        rounds.first().map_or(0, |(r, _)| r.configs.len()),
        geomeans[0],
        geomeans[1],
        geomeans[2]
    );
    // Each end-to-end call next to the layer calls it is made of: the
    // seconds no timed layer accounts for, and their share.
    let unaccounted: Vec<(&str, f64)> = [
        (
            "replay",
            seconds("e2e.replay"),
            &[
                "trace.decode_s",
                "trace.validate_s",
                "freeze.s",
                "freeze.snapshot_s",
                "shard.detect_s",
                "shard.merge_s",
            ][..],
        ),
        (
            "replay_par",
            seconds("e2e.replay_par"),
            &[
                "trace.decode_s",
                "trace.validate_s",
                "freeze.par_s",
                "freeze.snapshot_s",
                "shard.detect_par_s",
                "shard.merge_s",
            ],
        ),
        (
            "append",
            seconds("session.ingest_s") + seconds("session.report_s"),
            &[
                "session.validate_s",
                "session.freeze_s",
                "session.snapshot_s",
                "session.pass2_s",
                "session.merge_s",
            ],
        ),
        (
            "store_append",
            seconds("e2e.store_append"),
            &["e2e.store_layers", "store.encode_s"],
        ),
        (
            "store_reopen",
            seconds("e2e.store_reopen"),
            &["trace.decode_s", "trace.validate_s", "store.decode_s"],
        ),
    ]
    .into_iter()
    .map(|(call, e2e, layers)| {
        let rest = e2e - layers.iter().map(|name| seconds(name)).sum::<f64>();
        println!(
            "{call}: {e2e:.6} s, of which {rest:.6} s ({:.1}%) outside {}",
            100.0 * rest / e2e,
            layers.join(" + ")
        );
        (call, rest)
    })
    .collect();
    METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "exec.instrument_overhead_x" => geomeans[1],
                "reach.overhead_x" => geomeans[0],
                "history.full_overhead_x" => geomeans[2],
                "host.reference_s" => reference_s,
                _ if name.starts_with("unaccounted.") => unaccounted
                    .iter()
                    .find(|(call, _)| name == format!("unaccounted.{call}_s"))
                    .map_or(0.0, |(_, rest)| *rest),
                _ if unit == "s" => seconds(name),
                _ if unit == "MiB" => {
                    median_of(&|r| r.peaks.get(name).copied().unwrap_or(0) as f64)
                        / (1u64 << 20) as f64
                }
                _ => median_of(&|r| r.counts.get(name).copied().unwrap_or(0) as f64),
            };
            (name, value, unit)
        })
        .collect()
}
