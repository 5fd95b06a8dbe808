//! An explicit computation dag: strands connected by typed edges.
//!
//! The race-detection algorithms never materialize this graph (that is the
//! point of the paper), but the explicit representation is the ground truth
//! for differential tests and statistics.

use crate::ids::{FunctionId, StrandId};
use serde::{Deserialize, Serialize};

/// The kind of a dag edge, following Section 5 of the paper.
///
/// For *structured* futures (Section 4) the paper collapses `Spawn`/`Create`
/// into "spawn edges" and `Join`/`Get` into "join edges"; helpers
/// [`EdgeKind::is_spawn_like`] and [`EdgeKind::is_join_like`] provide that
/// view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Edge between consecutive strands of the same function instance.
    Continue,
    /// Edge from a fork (spawn) node to the first strand of the spawned
    /// child.
    Spawn,
    /// Edge from the last strand of a spawned child to the corresponding
    /// sync node of its parent.
    Join,
    /// Edge from a creator node (ends with `create_fut`) to the first strand
    /// of the future task.
    Create,
    /// Edge from the last strand of a future task to a getter node.
    Get,
}

impl EdgeKind {
    /// True for edges that the structured-futures model treats as "spawn"
    /// edges: [`EdgeKind::Spawn`], [`EdgeKind::Create`] and
    /// [`EdgeKind::Continue`] are the edges a *spawn predecessor* path may
    /// use (spawn + continue); this helper returns true only for the two
    /// fork-like kinds.
    pub fn is_spawn_like(self) -> bool {
        matches!(self, EdgeKind::Spawn | EdgeKind::Create)
    }

    /// True for edges that the structured-futures model treats as "join"
    /// edges ([`EdgeKind::Join`] and [`EdgeKind::Get`]).
    pub fn is_join_like(self) -> bool {
        matches!(self, EdgeKind::Join | EdgeKind::Get)
    }

    /// True for edges that stay within a single series-parallel dag
    /// (everything except [`EdgeKind::Create`] and [`EdgeKind::Get`], which
    /// are the "non-SP" edges of Section 2).
    pub fn is_sp(self) -> bool {
        !matches!(self, EdgeKind::Create | EdgeKind::Get)
    }
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EdgeKind::Continue => "continue",
            EdgeKind::Spawn => "spawn",
            EdgeKind::Join => "join",
            EdgeKind::Create => "create",
            EdgeKind::Get => "get",
        };
        f.write_str(s)
    }
}

/// Per-strand information stored in the dag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrandNode {
    /// The function instance this strand belongs to.
    pub function: FunctionId,
}

/// A directed edge of the computation dag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source strand.
    pub from: StrandId,
    /// Destination strand.
    pub to: StrandId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// An explicit computation dag over strands.
///
/// Strand ids are dense indexes; adding a strand with id `k` implicitly makes
/// room for ids `0..=k`. Unregistered placeholder strands belong to
/// `FunctionId(u32::MAX)` until registered.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dag {
    strands: Vec<StrandNode>,
    registered: Vec<bool>,
    out_edges: Vec<Vec<(StrandId, EdgeKind)>>,
    in_edges: Vec<Vec<(StrandId, EdgeKind)>>,
    edges: Vec<Edge>,
    num_functions: u32,
}

impl Dag {
    /// Creates an empty dag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of strands.
    pub fn num_strands(&self) -> usize {
        self.strands.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct function instances seen.
    pub fn num_functions(&self) -> usize {
        self.num_functions as usize
    }

    /// True if the dag has no strands.
    pub fn is_empty(&self) -> bool {
        self.strands.is_empty()
    }

    fn grow_to(&mut self, strand: StrandId) {
        let need = strand.index() + 1;
        if self.strands.len() < need {
            self.strands.resize(
                need,
                StrandNode {
                    function: FunctionId(u32::MAX),
                },
            );
            self.registered.resize(need, false);
            self.out_edges.resize(need, Vec::new());
            self.in_edges.resize(need, Vec::new());
        }
    }

    /// Registers `strand` as belonging to `function`. Registering the same
    /// strand twice with a different function panics.
    pub fn add_strand(&mut self, strand: StrandId, function: FunctionId) {
        self.grow_to(strand);
        let node = &mut self.strands[strand.index()];
        if self.registered[strand.index()] {
            assert_eq!(
                node.function, function,
                "strand {strand} registered twice with different functions"
            );
            return;
        }
        node.function = function;
        self.registered[strand.index()] = true;
        self.num_functions = self.num_functions.max(function.0 + 1);
    }

    /// True if `strand` has been registered with [`Dag::add_strand`].
    pub fn contains_strand(&self, strand: StrandId) -> bool {
        strand.index() < self.registered.len() && self.registered[strand.index()]
    }

    /// Returns the function a strand belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the strand has not been registered.
    pub fn function_of(&self, strand: StrandId) -> FunctionId {
        assert!(self.contains_strand(strand), "unknown strand {strand}");
        self.strands[strand.index()].function
    }

    /// Adds an edge. Both endpoints are implicitly grown into the strand
    /// table (they may be registered later).
    pub fn add_edge(&mut self, from: StrandId, to: StrandId, kind: EdgeKind) {
        self.grow_to(from);
        self.grow_to(to);
        self.out_edges[from.index()].push((to, kind));
        self.in_edges[to.index()].push((from, kind));
        self.edges.push(Edge { from, to, kind });
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Iterates over all strand ids.
    pub fn strands(&self) -> impl Iterator<Item = StrandId> + '_ {
        (0..self.strands.len() as u32).map(StrandId)
    }

    /// Outgoing edges of a strand.
    pub fn successors(&self, strand: StrandId) -> &[(StrandId, EdgeKind)] {
        self.out_edges
            .get(strand.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Incoming edges of a strand.
    pub fn predecessors(&self, strand: StrandId) -> &[(StrandId, EdgeKind)] {
        self.in_edges
            .get(strand.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Strands with no incoming edges.
    pub fn sources(&self) -> Vec<StrandId> {
        self.strands()
            .filter(|s| self.predecessors(*s).is_empty())
            .collect()
    }

    /// Strands with no outgoing edges.
    pub fn sinks(&self) -> Vec<StrandId> {
        self.strands()
            .filter(|s| self.successors(*s).is_empty())
            .collect()
    }

    /// Counts edges of each kind: `(continue, spawn, join, create, get)`.
    pub fn edge_kind_counts(&self) -> EdgeKindCounts {
        let mut c = EdgeKindCounts::default();
        for e in &self.edges {
            match e.kind {
                EdgeKind::Continue => c.cont += 1,
                EdgeKind::Spawn => c.spawn += 1,
                EdgeKind::Join => c.join += 1,
                EdgeKind::Create => c.create += 1,
                EdgeKind::Get => c.get += 1,
            }
        }
        c
    }

    /// Returns a topological order of all strands.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (which cannot happen for graphs
    /// produced by the recorder, but may for hand-built graphs).
    pub fn topological_order(&self) -> Vec<StrandId> {
        let n = self.strands.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.in_edges[i].len()).collect();
        let mut queue: Vec<StrandId> = (0..n as u32)
            .map(StrandId)
            .filter(|s| indegree[s.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &(v, _) in &self.out_edges[u.index()] {
                indegree[v.index()] -= 1;
                if indegree[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "computation graph contains a cycle");
        order
    }

    /// Checks the structural invariants of a recorded computation dag and
    /// returns a list of violations (empty when consistent): every strand is
    /// registered, every strand has at most two incoming edges (a join/getter
    /// strand joins exactly one child or future), and at most two outgoing
    /// edges other than `Get` edges (a multi-touch future's last strand has
    /// one `Get` edge per touch).
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for s in self.strands() {
            if !self.contains_strand(s) {
                problems.push(format!(
                    "strand {s} referenced by an edge but never registered"
                ));
            }
            if self.predecessors(s).len() > 2 {
                problems.push(format!("strand {s} has more than two incoming edges"));
            }
            let non_get_out = self
                .successors(s)
                .iter()
                .filter(|&&(_, k)| k != EdgeKind::Get)
                .count();
            if non_get_out > 2 {
                problems.push(format!(
                    "strand {s} has more than two non-get outgoing edges"
                ));
            }
        }
        problems
    }
}

/// Per-kind edge counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeKindCounts {
    /// Continue edges.
    pub cont: usize,
    /// Spawn edges.
    pub spawn: usize,
    /// Join edges.
    pub join: usize,
    /// Create (future spawn) edges.
    pub create: usize,
    /// Get (future join) edges.
    pub get: usize,
}

impl EdgeKindCounts {
    /// Number of non-series-parallel edges (create + get).
    pub fn non_sp(&self) -> usize {
        self.create + self.get
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 --spawn--> 1 --join--> 3
        // 0 --cont---> 2 --cont--> 3
        let mut d = Dag::new();
        d.add_strand(StrandId(0), FunctionId(0));
        d.add_strand(StrandId(1), FunctionId(1));
        d.add_strand(StrandId(2), FunctionId(0));
        d.add_strand(StrandId(3), FunctionId(0));
        d.add_edge(StrandId(0), StrandId(1), EdgeKind::Spawn);
        d.add_edge(StrandId(0), StrandId(2), EdgeKind::Continue);
        d.add_edge(StrandId(1), StrandId(3), EdgeKind::Join);
        d.add_edge(StrandId(2), StrandId(3), EdgeKind::Continue);
        d
    }

    #[test]
    fn basic_counts() {
        let d = diamond();
        assert_eq!(d.num_strands(), 4);
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.num_functions(), 2);
        let c = d.edge_kind_counts();
        assert_eq!(c.cont, 2);
        assert_eq!(c.spawn, 1);
        assert_eq!(c.join, 1);
        assert_eq!(c.non_sp(), 0);
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources(), vec![StrandId(0)]);
        assert_eq!(d.sinks(), vec![StrandId(3)]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let d = diamond();
        for e in d.edges() {
            assert!(d
                .successors(e.from)
                .iter()
                .any(|&(t, k)| t == e.to && k == e.kind));
            assert!(d
                .predecessors(e.to)
                .iter()
                .any(|&(f, k)| f == e.from && k == e.kind));
        }
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = diamond();
        let order = d.topological_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; d.num_strands()];
            for (i, s) in order.iter().enumerate() {
                p[s.index()] = i;
            }
            p
        };
        for e in d.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn double_registration_same_function_is_ok() {
        let mut d = diamond();
        d.add_strand(StrandId(0), FunctionId(0));
        assert_eq!(d.num_strands(), 4);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_different_function_panics() {
        let mut d = diamond();
        d.add_strand(StrandId(0), FunctionId(1));
    }

    #[test]
    fn consistency_of_wellformed_dag() {
        assert!(diamond().check_consistency().is_empty());
    }

    #[test]
    fn edge_kind_predicates() {
        assert!(EdgeKind::Spawn.is_spawn_like());
        assert!(EdgeKind::Create.is_spawn_like());
        assert!(!EdgeKind::Join.is_spawn_like());
        assert!(EdgeKind::Join.is_join_like());
        assert!(EdgeKind::Get.is_join_like());
        assert!(EdgeKind::Continue.is_sp());
        assert!(EdgeKind::Spawn.is_sp());
        assert!(!EdgeKind::Create.is_sp());
        assert!(!EdgeKind::Get.is_sp());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection_panics() {
        let mut d = Dag::new();
        d.add_strand(StrandId(0), FunctionId(0));
        d.add_strand(StrandId(1), FunctionId(0));
        d.add_edge(StrandId(0), StrandId(1), EdgeKind::Continue);
        d.add_edge(StrandId(1), StrandId(0), EdgeKind::Continue);
        d.topological_order();
    }
}
