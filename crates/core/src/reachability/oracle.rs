//! Ground-truth reachability maintained from the event stream.
//!
//! [`GraphOracle`] keeps, for every strand, the bitset of strands that can
//! reach it. Because every edge of the computation dag is known the moment
//! its destination strand is created (a property of the event stream), each
//! strand's predecessor set is final at creation time and queries are exact.
//!
//! This is the "just keep the whole graph" comparator: `O(n²/64)` memory and
//! `O(n/64)` work per strand, hopeless for long executions but perfect as
//! the specification in differential tests and as a reference point in the
//! ablation benchmarks.

use super::Reachability;
use crate::bitset::DynBitSet;
use crate::stats::ReachStats;
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::{FunctionId, Observer, StrandId};

/// Exact reachability via per-strand predecessor bitsets.
#[derive(Debug, Default)]
pub struct GraphOracle {
    /// `pred[s]`: strands with a non-empty path to `s`.
    pred: Vec<DynBitSet>,
    current: StrandId,
    queries: u64,
}

impl GraphOracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, strand: StrandId) {
        if self.pred.len() <= strand.index() {
            self.pred.resize_with(strand.index() + 1, DynBitSet::new);
        }
    }

    /// Records the edge `from -> to` (to's predecessors absorb from's).
    fn add_edge(&mut self, from: StrandId, to: StrandId) {
        self.ensure(from);
        self.ensure(to);
        DynBitSet::inherit(&mut self.pred, from.index(), to.index());
    }

    /// True iff `u` strictly precedes `v` in the dag recorded so far.
    pub fn strictly_precedes(&mut self, u: StrandId, v: StrandId) -> bool {
        self.ensure(v);
        self.pred[v.index()].get(u.index())
    }

    /// Number of strands seen.
    pub fn num_strands(&self) -> usize {
        self.pred.len()
    }
}

impl Observer for GraphOracle {
    fn on_strand_start(&mut self, strand: StrandId, _function: FunctionId) {
        self.ensure(strand);
        self.current = strand;
    }

    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.add_edge(ev.fork_strand, ev.child_first_strand);
        self.add_edge(ev.fork_strand, ev.cont_strand);
    }

    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.add_edge(ev.creator_strand, ev.child_first_strand);
        self.add_edge(ev.creator_strand, ev.cont_strand);
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        self.add_edge(ev.child_last_strand, ev.join_strand);
        self.add_edge(ev.pre_join_strand, ev.join_strand);
    }

    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.add_edge(ev.future_last_strand, ev.getter_strand);
        self.add_edge(ev.pre_get_strand, ev.getter_strand);
    }
}

impl Reachability for GraphOracle {
    fn precedes_current(&mut self, u: StrandId) -> bool {
        self.queries += 1;
        let v = self.current;
        u == v || self.strictly_precedes(u, v)
    }

    fn current_strand(&self) -> StrandId {
        self.current
    }

    fn name(&self) -> &'static str {
        "graph-oracle"
    }

    fn stats(&self) -> ReachStats {
        ReachStats {
            queries: self.queries,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::ForkInfo;

    #[test]
    fn fork_join_reachability() {
        let mut o = GraphOracle::new();
        o.on_strand_start(StrandId(0), FunctionId(0));
        o.on_spawn(&SpawnEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        o.on_strand_start(StrandId(1), FunctionId(1));
        assert!(o.precedes_current(StrandId(0)));
        o.on_strand_start(StrandId(2), FunctionId(0));
        assert!(!o.precedes_current(StrandId(1)));
        o.on_sync(&SyncEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(1),
                cont_strand: StrandId(2),
            },
        });
        o.on_strand_start(StrandId(3), FunctionId(0));
        assert!(o.precedes_current(StrandId(1)));
        assert!(o.precedes_current(StrandId(2)));
        assert!(o.precedes_current(StrandId(3)));
        assert_eq!(o.num_strands(), 4);
        assert_eq!(o.name(), "graph-oracle");
    }

    #[test]
    fn future_edges_contribute_paths() {
        let mut o = GraphOracle::new();
        o.on_strand_start(StrandId(0), FunctionId(0));
        o.on_create_future(&CreateFutureEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        o.on_strand_start(StrandId(1), FunctionId(1));
        o.on_strand_start(StrandId(2), FunctionId(0));
        assert!(!o.precedes_current(StrandId(1)));
        o.on_get_future(&GetFutureEvent {
            parent: FunctionId(0),
            future: FunctionId(1),
            pre_get_strand: StrandId(2),
            getter_strand: StrandId(3),
            future_last_strand: StrandId(1),
            prior_touches: 0,
        });
        o.on_strand_start(StrandId(3), FunctionId(0));
        assert!(o.precedes_current(StrandId(1)));
    }
}
