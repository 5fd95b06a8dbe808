//! One-shot parallel replay: `P` copies of the paper's single pass over
//! one shared event stream, with the granules dealt round-robin.
//!
//! The access history is granule-local (see [`super::shard`]), and keeping
//! the reachability structure costs little next to it: the paper measures
//! 1.06× against 20.5× full detection for MultiBags (Fig 6) and 1.40×
//! against 26× for MultiBags+ (Fig 7). So a one-shot request needs no
//! frozen index. Each of `P` workers replays every event through its own
//! copy of the structure the single pass uses, and applies a `Read` or
//! `Write` only to the granules `g` with `g mod P` equal to its number,
//! asking `precedes_current` exactly as the single pass does at that event.
//! Worker `w` keeps granule `g` in slot `g div P` of its own shadow table,
//! so the `P` tables together are about the size of the single pass's.
//! Witnesses carry their event index, the position the freezer gives the
//! same access, and merge as pass 2's do.

use super::freeze::GranuleAccess;
use super::shard::{merge_findings, Findings, Shadow};
use super::DetectExecutor;
use crate::detector::RaceDetector;
use crate::races::RaceReport;
use crate::reachability::Reachability;
use crate::stats::DetectorStats;
use futurerd_dag::trace::{replay_events, TraceEvent};

/// Detects over `events`, a validated trace, with `workers` replicas of
/// the reachability structure `new` builds, on `executor`, and returns the
/// report and the summed access-history counters. One worker runs the
/// single pass itself.
pub(super) fn detect_replicas<R: Reachability>(
    events: &[TraceEvent],
    workers: usize,
    executor: &impl DetectExecutor,
    new: fn() -> R,
) -> (RaceReport, DetectorStats) {
    assert!(
        events.len() < u32::MAX as usize,
        "trace positions are 32-bit; {}-event trace is too large",
        events.len()
    );
    if workers <= 1 {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
        let mut detector = RaceDetector::new(new());
        replay_events(events, &mut detector);
        let (report, _, stats) = detector.into_parts();
        return (report, stats);
    }
    let parts = workers as u64;
    let mut found: Vec<Findings> = (0..workers).map(|_| Findings::default()).collect();
    {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
        let tasks = (0..parts)
            .zip(found.iter_mut())
            .map(|(worker, slot)| {
                Box::new(move || {
                    let _task = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_PARTITION);
                    *slot = replica(new(), events, worker, parts);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        executor.run_batch(tasks);
    }
    merge_findings(found)
}

/// Worker `worker` of `parts`: the single pass over every event through
/// `reach`, with the access history kept only for the granules `g` with
/// `g mod parts == worker`, each in slot `g div parts`.
fn replica<R: Reachability>(
    mut reach: R,
    events: &[TraceEvent],
    worker: u64,
    parts: u64,
) -> Findings {
    let mut shadow = Shadow::default();
    for (pos, event) in (0u32..).zip(events) {
        let (strand, addr, size, is_write) = match *event {
            TraceEvent::Read { strand, addr, size } => (strand, addr, size, false),
            TraceEvent::Write { strand, addr, size } => (strand, addr, size, true),
            _ => {
                replay_events(std::slice::from_ref(event), &mut reach);
                continue;
            }
        };
        // The access's first granule this worker owns, and that granule's
        // slot; from there every `parts`-th granule is this worker's, in
        // the next slot.
        let first = addr.granule();
        let (quotient, rest) = (first / parts, first % parts);
        let (skip, mut slot) = if rest <= worker {
            (worker - rest, quotient)
        } else {
            (worker + parts - rest, quotient + 1)
        };
        for granule in addr
            .granules(size as usize)
            .skip(skip as usize)
            .step_by(parts as usize)
        {
            let acc = GranuleAccess {
                granule,
                pos,
                strand,
                is_write,
            };
            shadow.apply(slot, &acc, |u| reach.precedes_current(u));
            slot += 1;
        }
    }
    shadow.into_findings()
}
