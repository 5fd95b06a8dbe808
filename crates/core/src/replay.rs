//! Offline detection: replay a recorded [`Trace`] through the detectors.
//!
//! Recording decouples *running* a program from *detecting* on it: a trace
//! captured once (see `futurerd-runtime::trace`) can be replayed through
//! every reachability algorithm, repeatedly, without re-executing the
//! workload. Because the detectors are plain [`Observer`]s, replay is just
//! feeding the stored events back in order — but the detectors' amortized
//! bounds and correctness assume the canonical serial-DF event discipline,
//! so every entry point here validates the trace first.
//!
//! [`differential`] is the cross-checking driver: it replays one trace
//! through every algorithm that is *sound* for that trace (SP-Bags only
//! handles fork-join streams; MultiBags requires single-touch futures) and
//! reports any verdict that disagrees with the ground-truth graph oracle.

use crate::detector::RaceDetector;
use crate::races::RaceReport;
use crate::reachability::{GraphOracle, MultiBags, MultiBagsPlus, SpBags, SpBagsConservative};
use futurerd_dag::trace::{Trace, TraceError};
use futurerd_dag::Observer;

/// Which reachability algorithm answers precedence queries — in a live run,
/// a replay, a session or a stored replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplayAlgorithm {
    /// MultiBags (Section 4): structured — single-touch — futures, total
    /// time `O(T1·α(m,n))`.
    #[default]
    MultiBags,
    /// MultiBags+ (Section 5): general futures (multi-touch, escaping),
    /// total time `O((T1+k²)·α(m,n))`.
    MultiBagsPlus,
    /// The classical SP-Bags baseline: fork-join (`spawn`/`sync`) programs
    /// only. Programs that use futures may produce false positives.
    SpBags,
    /// SP-Bags with the conservative futures fallback: `create_fut` is
    /// treated as `spawn` and `get_fut` as `sync`, so it consumes any
    /// program — but on futures its verdict is approximate (reports from
    /// futures traces are [marked](RaceReport::is_approximate)). Quantifies
    /// the fork-join baseline's error, motivating the MultiBags algorithms;
    /// [`differential`] uses it to measure that error on futures programs.
    SpBagsConservative,
    /// The ground-truth graph oracle (explicit transitive closure): exact on
    /// every program, but quadratic space — for tests and ablations.
    GraphOracle,
}

impl ReplayAlgorithm {
    /// Every algorithm, in comparison order.
    pub const ALL: [ReplayAlgorithm; 5] = [
        ReplayAlgorithm::MultiBags,
        ReplayAlgorithm::MultiBagsPlus,
        ReplayAlgorithm::SpBags,
        ReplayAlgorithm::SpBagsConservative,
        ReplayAlgorithm::GraphOracle,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplayAlgorithm::MultiBags => "multibags",
            ReplayAlgorithm::MultiBagsPlus => "multibags+",
            ReplayAlgorithm::SpBags => "spbags",
            ReplayAlgorithm::SpBagsConservative => "spbags-cons",
            ReplayAlgorithm::GraphOracle => "oracle",
        }
    }

    /// Parses a CLI-style name (as produced by [`ReplayAlgorithm::name`]).
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "multibags" | "mb" => ReplayAlgorithm::MultiBags,
            "multibags+" | "mbp" | "multibagsplus" => ReplayAlgorithm::MultiBagsPlus,
            "spbags" | "sp" => ReplayAlgorithm::SpBags,
            "spbags-cons" | "spc" | "spbagsconservative" => ReplayAlgorithm::SpBagsConservative,
            "oracle" | "graph" => ReplayAlgorithm::GraphOracle,
            _ => return None,
        })
    }

    /// True if the algorithm's race verdict is trustworthy for this trace.
    /// Unsound-but-runnable combinations (MultiBags outside the structured
    /// regime — a multi-touch handle, or a single-touch handle escaping its
    /// creating task's scope — and conservative SP-Bags on any futures
    /// trace) still replay, but may report false positives, so
    /// [`differential`] excludes them from agreement checks and quantifies
    /// their error instead.
    pub fn sound_for(self, trace: &Trace) -> bool {
        match self {
            ReplayAlgorithm::MultiBags => trace.is_structured(),
            ReplayAlgorithm::MultiBagsPlus | ReplayAlgorithm::GraphOracle => true,
            ReplayAlgorithm::SpBags | ReplayAlgorithm::SpBagsConservative => !trace.has_futures(),
        }
    }

    /// True if the algorithm can consume this trace at all. SP-Bags aborts
    /// on future constructs (it has no transition for them); everything else
    /// — including its conservative fallback — accepts any canonical stream.
    pub fn runnable_for(self, trace: &Trace) -> bool {
        match self {
            ReplayAlgorithm::SpBags => !trace.has_futures(),
            _ => true,
        }
    }

    /// True if the algorithm has a frozen reachability form, i.e.
    /// [`par_replay_detect`](crate::parallel::par_replay_detect) actually
    /// shards its detection instead of falling back to sequential replay.
    pub fn freezable(self) -> bool {
        matches!(
            self,
            ReplayAlgorithm::MultiBags | ReplayAlgorithm::MultiBagsPlus
        )
    }
}

impl std::fmt::Display for ReplayAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replays a validated trace through an arbitrary observer and returns it.
///
/// This is the low-level hook: it lets a trace drive anything that consumes
/// the event stream (a detector, a dag recorder, statistics collectors).
pub fn replay_observer<O: Observer>(trace: &Trace, observer: O) -> Result<O, TraceError> {
    trace.validate()?;
    Ok(trace.replay(observer))
}

/// Replays a validated trace through a full race detector using `algorithm`
/// and returns the race report.
pub fn replay_detect(trace: &Trace, algorithm: ReplayAlgorithm) -> Result<RaceReport, TraceError> {
    trace.validate()?;
    Ok(replay_detect_unchecked(trace, algorithm))
}

/// As [`replay_detect`], but skips validation — for callers that already
/// validated (e.g. a loop over all algorithms).
pub fn replay_detect_unchecked(trace: &Trace, algorithm: ReplayAlgorithm) -> RaceReport {
    match algorithm {
        ReplayAlgorithm::MultiBags => trace
            .replay(RaceDetector::<MultiBags>::structured())
            .into_report(),
        ReplayAlgorithm::MultiBagsPlus => trace
            .replay(RaceDetector::<MultiBagsPlus>::general())
            .into_report(),
        ReplayAlgorithm::SpBags => trace.replay(RaceDetector::new(SpBags::new())).into_report(),
        ReplayAlgorithm::SpBagsConservative => {
            let mut report = trace
                .replay(RaceDetector::new(SpBagsConservative::new()))
                .into_report();
            if trace.has_futures() {
                // Futures were folded into fork-join constructs: the verdict
                // is approximate by construction.
                report.mark_approximate();
            }
            report
        }
        ReplayAlgorithm::GraphOracle => trace
            .replay(RaceDetector::new(GraphOracle::new()))
            .into_report(),
    }
}

/// One algorithm's verdict on a replayed trace.
#[derive(Debug)]
pub struct ReplayVerdict {
    /// The algorithm that produced the report.
    pub algorithm: ReplayAlgorithm,
    /// Whether the algorithm is sound for this trace (false ⇒ the verdict
    /// may contain false positives and is excluded from agreement checks).
    pub sound: bool,
    /// The race report.
    pub report: RaceReport,
}

/// Replays one trace through every algorithm that can consume it (see
/// [`ReplayAlgorithm::runnable_for`]) and returns the verdicts.
pub fn replay_all(trace: &Trace) -> Result<Vec<ReplayVerdict>, TraceError> {
    trace.validate()?;
    Ok(ReplayAlgorithm::ALL
        .iter()
        .filter(|algorithm| algorithm.runnable_for(trace))
        .map(|&algorithm| ReplayVerdict {
            algorithm,
            sound: algorithm.sound_for(trace),
            report: replay_detect_unchecked(trace, algorithm),
        })
        .collect())
}

/// How far an unsound-but-runnable algorithm's verdict strayed from the
/// ground-truth oracle on one trace — the quantified error of a baseline
/// run outside its sound program class (e.g. conservative SP-Bags on a
/// futures trace).
#[derive(Debug, Clone, Copy)]
pub struct ApproximationError {
    /// The approximate algorithm.
    pub algorithm: ReplayAlgorithm,
    /// Racy granules the oracle found that the algorithm missed (false
    /// negatives).
    pub missed: usize,
    /// Granules the algorithm reported racy that the oracle did not (false
    /// positives).
    pub spurious: usize,
}

impl ApproximationError {
    /// Measures an approximate `report` against the ground-truth `oracle`
    /// report: how many racy granules it missed and how many it invented.
    pub fn measure(
        algorithm: ReplayAlgorithm,
        report: &RaceReport,
        oracle: &RaceReport,
    ) -> ApproximationError {
        let addr_of = |g: u64| futurerd_dag::MemAddr(g * futurerd_dag::MemAddr::GRANULARITY);
        ApproximationError {
            algorithm,
            missed: oracle
                .racy_granules()
                .filter(|&g| !report.is_racy(addr_of(g)))
                .count(),
            spurious: report
                .racy_granules()
                .filter(|&g| !oracle.is_racy(addr_of(g)))
                .count(),
        }
    }

    /// True if the approximate verdict happened to match the oracle exactly.
    pub fn is_exact(&self) -> bool {
        self.missed == 0 && self.spurious == 0
    }
}

impl std::fmt::Display for ApproximationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} racy granule(s) missed, {} spurious",
            self.algorithm, self.missed, self.spurious
        )
    }
}

/// The outcome of the differential replay driver.
#[derive(Debug)]
pub struct DifferentialOutcome {
    /// Per-algorithm verdicts (every runnable algorithm, soundness flagged).
    pub verdicts: Vec<ReplayVerdict>,
    /// Human-readable descriptions of every disagreement between a sound
    /// algorithm and the ground-truth oracle.
    pub disagreements: Vec<String>,
    /// Quantified error of each unsound-but-runnable verdict against the
    /// oracle — how wrong the fork-join baseline is on futures programs.
    pub approximations: Vec<ApproximationError>,
}

impl DifferentialOutcome {
    /// True if every sound algorithm agreed with the oracle.
    pub fn agreed(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// The oracle's distinct-racy-granule count.
    pub fn oracle_race_count(&self) -> usize {
        self.verdicts
            .iter()
            .find(|v| v.algorithm == ReplayAlgorithm::GraphOracle)
            .map(|v| v.report.race_count())
            .expect("oracle always runs")
    }
}

/// Replays one trace through all detectors and cross-checks the verdicts:
/// every algorithm that is sound for the trace must agree with the
/// ground-truth graph oracle on the set of racy granules.
pub fn differential(trace: &Trace) -> Result<DifferentialOutcome, TraceError> {
    let verdicts = replay_all(trace)?;
    let oracle = &verdicts
        .iter()
        .find(|v| v.algorithm == ReplayAlgorithm::GraphOracle)
        .expect("oracle is in ALL")
        .report;
    let mut disagreements = Vec::new();
    let mut approximations = Vec::new();
    for verdict in &verdicts {
        if verdict.algorithm == ReplayAlgorithm::GraphOracle {
            continue;
        }
        if !verdict.sound {
            // Not held to agreement — measure how wrong it was instead.
            approximations.push(ApproximationError::measure(
                verdict.algorithm,
                &verdict.report,
                oracle,
            ));
            continue;
        }
        if verdict.report.race_count() != oracle.race_count() {
            disagreements.push(format!(
                "{}: {} racy granules, oracle found {}",
                verdict.algorithm,
                verdict.report.race_count(),
                oracle.race_count()
            ));
            continue;
        }
        for witness in oracle.witnesses() {
            if !verdict.report.is_racy(witness.addr) {
                disagreements.push(format!(
                    "{}: missed the race on {} (oracle witness: {})",
                    verdict.algorithm, witness.addr, witness
                ));
            }
        }
    }
    Ok(DifferentialOutcome {
        verdicts,
        disagreements,
        approximations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::{
        CreateFutureEvent, ForkInfo, GetFutureEvent, SpawnEvent, SyncEvent,
    };
    use futurerd_dag::trace::TraceEvent;
    use futurerd_dag::{FunctionId, MemAddr, StrandId};

    /// The canonical fork-join trace with one read/write race.
    fn racy_fork_join_trace() -> Trace {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let x = MemAddr(0x1000);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
        });
        t.push(TraceEvent::Spawn(SpawnEvent {
            parent: root,
            child,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: child,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(1),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: child,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(2),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Sync(SyncEvent {
            parent: root,
            child,
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(3),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: root,
            last: StrandId(3),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        t
    }

    #[test]
    fn every_algorithm_finds_the_replayed_race() {
        let trace = racy_fork_join_trace();
        for algorithm in ReplayAlgorithm::ALL {
            let report = replay_detect(&trace, algorithm).expect("valid trace");
            assert_eq!(report.race_count(), 1, "{algorithm}");
        }
    }

    #[test]
    fn differential_agrees_on_fork_join() {
        let outcome = differential(&racy_fork_join_trace()).expect("valid trace");
        assert!(outcome.agreed(), "{:?}", outcome.disagreements);
        assert_eq!(outcome.oracle_race_count(), 1);
        // A pure fork-join trace is sound for all four algorithms.
        assert!(outcome.verdicts.iter().all(|v| v.sound));
    }

    #[test]
    fn replay_rejects_invalid_traces() {
        let mut trace = racy_fork_join_trace();
        trace.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        assert!(replay_detect(&trace, ReplayAlgorithm::GraphOracle).is_err());
        assert!(replay_all(&trace).is_err());
        assert!(differential(&trace).is_err());
    }

    /// root spawns a child that writes `x`, then creates and gets an
    /// unrelated future, then reads `x` *before* syncing the child. The
    /// conservative SP-Bags fallback treats the `get` as a `sync`, falsely
    /// joining the child — so it misses the real race on `x`.
    fn cons_miss_trace() -> Trace {
        let (f0, f1, f2) = (FunctionId(0), FunctionId(1), FunctionId(2));
        let x = MemAddr(0x1000);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root: f0,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: f0,
        });
        t.push(TraceEvent::Spawn(SpawnEvent {
            parent: f0,
            child: f1,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: f1,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(1),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: f1,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: f0,
        });
        t.push(TraceEvent::CreateFuture(CreateFutureEvent {
            parent: f0,
            child: f2,
            creator_strand: StrandId(2),
            cont_strand: StrandId(4),
            child_first_strand: StrandId(3),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: f2,
        });
        t.push(TraceEvent::Return {
            function: f2,
            last: StrandId(3),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(4),
            function: f0,
        });
        t.push(TraceEvent::GetFuture(GetFutureEvent {
            parent: f0,
            future: f2,
            pre_get_strand: StrandId(4),
            getter_strand: StrandId(5),
            future_last_strand: StrandId(3),
            prior_touches: 0,
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(5),
            function: f0,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(5),
            addr: x,
            size: 4,
        });
        t.push(TraceEvent::Sync(SyncEvent {
            parent: f0,
            child: f1,
            pre_join_strand: StrandId(5),
            join_strand: StrandId(6),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(6),
            function: f0,
        });
        t.push(TraceEvent::Return {
            function: f0,
            last: StrandId(6),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(6) });
        t
    }

    #[test]
    fn differential_quantifies_the_conservative_baseline_error() {
        let trace = cons_miss_trace();
        // The exact detectors all see the race; the conservative fallback
        // misses it (it believes the get joined the spawned child).
        assert_eq!(
            replay_detect(&trace, ReplayAlgorithm::GraphOracle)
                .unwrap()
                .race_count(),
            1
        );
        let cons = replay_detect(&trace, ReplayAlgorithm::SpBagsConservative).unwrap();
        assert_eq!(cons.race_count(), 0);
        assert!(cons.is_approximate());
        let outcome = differential(&trace).expect("valid trace");
        assert!(outcome.agreed(), "{:?}", outcome.disagreements);
        let err = outcome
            .approximations
            .iter()
            .find(|a| a.algorithm == ReplayAlgorithm::SpBagsConservative)
            .expect("conservative fallback is unsound on futures traces");
        assert_eq!(err.missed, 1);
        assert_eq!(err.spurious, 0);
        assert!(!err.is_exact());
        assert!(err.to_string().contains("missed"));
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algorithm in ReplayAlgorithm::ALL {
            assert_eq!(ReplayAlgorithm::parse(algorithm.name()), Some(algorithm));
        }
        assert_eq!(ReplayAlgorithm::parse("nope"), None);
    }

    #[test]
    fn replay_observer_drives_arbitrary_observers() {
        let trace = racy_fork_join_trace();
        let recorder =
            replay_observer(&trace, futurerd_dag::DagRecorder::new()).expect("valid trace");
        assert_eq!(recorder.dag().num_strands(), 4);
        assert_eq!(recorder.reads, 2);
        assert_eq!(recorder.writes, 1);
    }
}
