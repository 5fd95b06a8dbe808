//! Trace capture: turning executions into persistent [`Trace`]s.
//!
//! [`TraceRecorder`] is an [`Observer`] that appends every callback of the
//! depth-first eager executor to a [`Trace`] — recording is just another
//! observer, composable with a detector through
//! [`MultiObserver`](futurerd_dag::MultiObserver). The paper's detector runs
//! on one serial depth-first execution, so this is the one capture path:
//! [`record_program`] records a closure, [`record_spec`] a generated program.

use crate::exec::{run_program, Cx, ExecutionSummary};
use crate::spec::run_spec;
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::genprog::ProgramSpec;
use futurerd_dag::ids::{FunctionId, MemAddr, StrandId};
use futurerd_dag::trace::{Trace, TraceEvent};
use futurerd_dag::Observer;

/// An [`Observer`] that records every event into a [`Trace`].
///
/// # Example
///
/// ```
/// use futurerd_runtime::{run_program, TraceRecorder};
///
/// let (_, recorder, summary) = run_program(TraceRecorder::new(), |cx| {
///     cx.spawn(|_| {});
///     cx.sync();
/// });
/// let trace = recorder.into_trace();
/// let counts = trace.validate().expect("executor traces are canonical");
/// assert_eq!(counts.spawns, summary.spawns);
/// assert_eq!(counts.strands, summary.strands);
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder and returns the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Removes and returns the events recorded since the last take, in
    /// stream order — the live end of the
    /// [`EventSource`](futurerd_dag::source::EventSource) abstraction: a
    /// recorder can be polled *while its program is still running* and the
    /// drained increments fed straight into a detection session.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take_events()
    }
}

impl futurerd_dag::source::EventSource for TraceRecorder {
    fn take_events(&mut self) -> Vec<TraceEvent> {
        TraceRecorder::take_events(self)
    }
}

impl Observer for TraceRecorder {
    fn on_program_start(&mut self, root: FunctionId, first_strand: StrandId) {
        self.trace.push(TraceEvent::ProgramStart {
            root,
            first: first_strand,
        });
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.trace
            .push(TraceEvent::StrandStart { strand, function });
    }
    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.trace.push(TraceEvent::Spawn(*ev));
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.trace.push(TraceEvent::CreateFuture(*ev));
    }
    fn on_return(&mut self, function: FunctionId, last_strand: StrandId) {
        self.trace.push(TraceEvent::Return {
            function,
            last: last_strand,
        });
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.trace.push(TraceEvent::Sync(*ev));
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.trace.push(TraceEvent::GetFuture(*ev));
    }
    fn on_read(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.trace.push(TraceEvent::Read {
            strand,
            addr,
            size: size as u32,
        });
    }
    fn on_write(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.trace.push(TraceEvent::Write {
            strand,
            addr,
            size: size as u32,
        });
    }
    fn on_program_end(&mut self, last_strand: StrandId) {
        self.trace
            .push(TraceEvent::ProgramEnd { last: last_strand });
    }
}

/// Runs `body` on the sequential depth-first eager executor while recording
/// its event stream; returns the body's value, the trace, and the execution
/// summary.
pub fn record_program<T>(
    body: impl FnOnce(&mut Cx<TraceRecorder>) -> T,
) -> (T, Trace, ExecutionSummary) {
    let (value, recorder, summary) = run_program(TraceRecorder::new(), body);
    (value, recorder.into_trace(), summary)
}

/// Records the trace of a generated program on the sequential executor.
pub fn record_spec(spec: &ProgramSpec) -> (Trace, ExecutionSummary) {
    let (recorder, summary) = run_spec(spec, TraceRecorder::new());
    (recorder.into_trace(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::ShadowCell;
    use futurerd_dag::genprog::{generate_program, GenConfig};

    #[test]
    fn recorded_trace_validates_and_matches_summary() {
        let (_, trace, summary) = record_program(|cx| {
            let mut cell = ShadowCell::new(cx, 0u32);
            let fut = cx.create_future(|cx| cell.get(cx));
            cx.spawn(|cx| cell.set(cx, 1));
            cx.sync();
            cx.get_future(fut)
        });
        let counts = trace.validate().expect("executor trace is canonical");
        assert_eq!(counts.functions, summary.functions);
        assert_eq!(counts.strands, summary.strands);
        assert_eq!(counts.spawns, summary.spawns);
        assert_eq!(counts.creates, summary.creates);
        assert_eq!(counts.syncs, summary.syncs);
        assert_eq!(counts.gets, summary.gets);
        assert_eq!(counts.reads, summary.reads);
        assert_eq!(counts.writes, summary.writes);
    }

    #[test]
    fn recorded_spec_traces_validate() {
        for cfg in [GenConfig::structured(), GenConfig::general()] {
            for seed in 0..25 {
                let spec = generate_program(&cfg, seed);
                let (trace, summary) = record_spec(&spec);
                let counts = trace
                    .validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(counts.strands, summary.strands, "seed {seed}");
            }
        }
    }
}
