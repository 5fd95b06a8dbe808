//! One-shot parallel replay deals granules, not events: worker `w` of `P`
//! keeps the access history of the granules `g` with `g mod P == w`, in
//! slot `g div P` of its own shadow table.
//!
//! These tests pin what the determinism suites cannot see on their
//! generated programs: a hand-built trace whose wide accesses split across
//! workers inside one event, with races on granules that different workers
//! own, and the size of the workers' shadow tables on a dense array. They
//! run exactly the worker counts they name, past the core count too.

use futurerd_core::parallel::{par_replay_detect_with, par_replay_with, StdExecutor};
use futurerd_core::replay::{replay_detect, ReplayAlgorithm};
use futurerd_core::{AccessKind, Race};
use futurerd_dag::events::{ForkInfo, SpawnEvent, SyncEvent};
use futurerd_dag::trace::{Trace, TraceEvent};
use futurerd_dag::{FunctionId, MemAddr, StrandId};

/// The worker counts the report comparison runs at.
const THREAD_COUNTS: [usize; 4] = [2, 3, 5, 8];

fn read(strand: u32, addr: u64, size: u32) -> TraceEvent {
    TraceEvent::Read {
        strand: StrandId(strand),
        addr: MemAddr(addr),
        size,
    }
}

fn write(strand: u32, addr: u64, size: u32) -> TraceEvent {
    TraceEvent::Write {
        strand: StrandId(strand),
        addr: MemAddr(addr),
        size,
    }
}

/// The root (strands 0, 2, 3) spawns one child (strand 1); `before`,
/// `child`, `cont` and `after` are the accesses of the strands before the
/// spawn, in the child, in the continuation and after the sync.
fn fork_join(
    before: Vec<TraceEvent>,
    child: Vec<TraceEvent>,
    cont: Vec<TraceEvent>,
    after: Vec<TraceEvent>,
) -> Trace {
    let (root, callee) = (FunctionId(0), FunctionId(1));
    let mut t = Trace::new();
    t.push(TraceEvent::ProgramStart {
        root,
        first: StrandId(0),
    });
    t.push(TraceEvent::StrandStart {
        strand: StrandId(0),
        function: root,
    });
    before.into_iter().for_each(|e| t.push(e));
    t.push(TraceEvent::Spawn(SpawnEvent {
        parent: root,
        child: callee,
        fork_strand: StrandId(0),
        cont_strand: StrandId(2),
        child_first_strand: StrandId(1),
    }));
    t.push(TraceEvent::StrandStart {
        strand: StrandId(1),
        function: callee,
    });
    child.into_iter().for_each(|e| t.push(e));
    t.push(TraceEvent::Return {
        function: callee,
        last: StrandId(1),
    });
    t.push(TraceEvent::StrandStart {
        strand: StrandId(2),
        function: root,
    });
    cont.into_iter().for_each(|e| t.push(e));
    t.push(TraceEvent::Sync(SyncEvent {
        parent: root,
        child: callee,
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
    after.into_iter().for_each(|e| t.push(e));
    t.push(TraceEvent::Return {
        function: root,
        last: StrandId(3),
    });
    t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
    t.validate().expect("hand-built trace is canonical");
    t
}

/// 8-, 12- and 1,024-byte accesses, racing across the spawn. Granule `x`
/// starts at byte `4x`; `x = 1025` is odd, so consecutive granules of one
/// access go to different workers at every `P`.
fn wide_access_trace() -> Trace {
    let x = 4 * 1025;
    let y = 4 * 4099;
    let z = 4 * 9001;
    fork_join(
        vec![write(0, x, 8), write(0, z, 12)],
        vec![
            // Granules x+1..=x+3, one write: its granules split across
            // workers, and none of them races yet (strand 0 precedes).
            write(1, x + 4, 12),
            write(1, y, 1024),
            read(1, z + 4, 8),
        ],
        vec![
            // Reads x+2 and x+3 (different workers) against the child's
            // write: two races exposed by one event.
            read(2, x + 8, 8),
            // Overlaps the child's wide write on 192 granules.
            write(2, y + 256, 1024),
            // Writes z..=z+2 against the child's read of z+1 and z+2.
            write(2, z, 12),
            // A second race on an already racy granule.
            write(2, x + 8, 4),
        ],
        vec![read(3, x, 16), write(3, y, 1024), read(3, z, 12)],
    )
}

fn race(granule: u64, prior: (u32, AccessKind), current: (u32, AccessKind)) -> Race {
    Race {
        addr: MemAddr(granule * MemAddr::GRANULARITY),
        prior_strand: StrandId(prior.0),
        prior_kind: prior.1,
        current_strand: StrandId(current.0),
        current_kind: current.1,
    }
}

#[test]
fn wide_accesses_report_as_the_single_pass_at_every_worker_count() {
    use AccessKind::{Read, Write};
    let trace = wide_access_trace();
    for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
        let sequential = replay_detect(&trace, algorithm).expect("canonical");
        // The trace does what it says: one read exposes races on x+2 and
        // x+3, the wide writes race on 192 granules, and one write races
        // on z+1 and z+2, granules different workers own.
        let witnesses = sequential.witnesses();
        assert_eq!(
            witnesses[..2],
            [
                race(1027, (1, Write), (2, Read)),
                race(1028, (1, Write), (2, Read)),
            ],
            "{algorithm}"
        );
        assert_eq!(witnesses[2], race(4099 + 64, (1, Write), (2, Write)));
        assert_eq!(
            witnesses[2 + 192..],
            [
                race(9002, (1, Read), (2, Write)),
                race(9003, (1, Read), (2, Write)),
            ],
            "{algorithm}"
        );
        assert_eq!(sequential.race_count(), 196, "{algorithm}");
        assert_eq!(sequential.total_observations(), 197, "{algorithm}");
        for threads in THREAD_COUNTS {
            let parallel = par_replay_detect_with(&trace, algorithm, threads, &StdExecutor)
                .expect("canonical");
            assert_eq!(
                parallel.witnesses(),
                sequential.witnesses(),
                "{algorithm} P={threads}: witness order"
            );
            assert_eq!(parallel, sequential, "{algorithm} P={threads}");
            assert_eq!(
                parallel.to_string(),
                sequential.to_string(),
                "{algorithm} P={threads}"
            );
        }
    }
}

/// Granules in one dense array of `len` granules from byte `base`: the
/// child writes it 1,024 bytes at a time, the continuation reads it back.
fn dense_array_trace(base: u64, len: u64) -> Trace {
    let wide = 1024u32;
    let chunks = len * MemAddr::GRANULARITY / u64::from(wide);
    let writes = (0..chunks).map(|i| write(1, base + i * u64::from(wide), wide));
    let reads = (0..chunks).map(|i| read(2, base + i * u64::from(wide), wide));
    fork_join(Vec::new(), writes.collect(), reads.collect(), Vec::new())
}

#[test]
fn workers_shadow_tables_together_are_the_single_pass_table() {
    // 100,352 granules (392 KiB) from a boundary of both the single
    // pass's pages and the workers' slot pages (4096 · 4 granules), so each
    // worker's slots start on a page and can spill into at most one page
    // the single pass does not need.
    let trace = dense_array_trace(1 << 22, 4096 * 24 + 2048);
    for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
        let (_, single) = par_replay_with(&trace, algorithm, 1, &StdExecutor).expect("canonical");
        let (single_report, single) = single.expect("a paper algorithm");
        assert_eq!(single.shadow_pages, 25, "{algorithm}");
        let (_, workers) = par_replay_with(&trace, algorithm, 4, &StdExecutor).expect("canonical");
        let (report, workers) = workers.expect("a paper algorithm");
        assert_eq!(report, single_report, "{algorithm}");
        assert!(
            workers.shadow_pages <= single.shadow_pages + 4,
            "{algorithm}: 4 workers hold {} pages, the single pass {}",
            workers.shadow_pages,
            single.shadow_pages
        );
    }
}
