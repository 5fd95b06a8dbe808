//! The reachability dag `R` over attached sets, with an incrementally
//! maintained transitive closure.
//!
//! MultiBags+ keeps `R` small (O(k) nodes for k `get_fut` operations) and
//! pays O(k) per arc insertion to keep the closure exact, so queries are
//! O(1). FutureRD represents the closure as bit vectors and propagates
//! reachability with parallel bit operations; this implementation does the
//! same with [`DynBitSet`].
//!
//! Only one direction of the closure is kept: row `b` holds the nodes that
//! reach `b`, so `reaches(a, b)` reads bit `a` of it, and each node has a
//! has-successor flag. An arc into a node without successors — the common
//! case, since most arcs point at a set the event just created — is one
//! word-parallel row OR; an arc into a node with successors also updates
//! its descendants, found by an O(k) probe scan (see [`RGraph::add_arc`]).

use crate::bitset::DynBitSet;
use serde::{Deserialize, Serialize};

/// Identifier of a node of `R` (an attached set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RNodeId(pub u32);

impl RNodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A dag with an exact, incrementally maintained transitive closure.
#[derive(Debug, Clone, Default)]
pub struct RGraph {
    /// `pred[i]`: nodes with a (non-empty) path to `i`.
    pred: Vec<DynBitSet>,
    /// `has_succ[i]`: an arc leaves `i`, so some row may hold bit `i`.
    has_succ: Vec<bool>,
    arcs: u64,
}

impl RGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.pred.len()
    }

    /// Number of arcs added (not counting arcs already implied by the
    /// closure, which are still stored but not re-counted).
    pub fn num_arcs(&self) -> u64 {
        self.arcs
    }

    /// The graph whose closure is `rows` (row `b` holds the nodes that reach
    /// `b`), with no arcs counted. A node has successors iff some row holds
    /// its bit. The rows must be a closure, without a diagonal bit.
    pub fn from_rows(pred: Vec<DynBitSet>) -> Self {
        let mut reached = DynBitSet::new();
        pred.iter().for_each(|row| reached.union_with(row));
        let has_succ = (0..pred.len()).map(|i| reached.get(i)).collect();
        Self {
            pred,
            has_succ,
            arcs: 0,
        }
    }

    /// The closure rows: row `b` holds the nodes with a path to `b`.
    pub fn rows(&self) -> &[DynBitSet] {
        &self.pred
    }

    /// Adds a node with no arcs and returns its id.
    pub fn add_node(&mut self) -> RNodeId {
        let id = RNodeId(self.pred.len() as u32);
        self.pred.push(DynBitSet::new());
        self.has_succ.push(false);
        id
    }

    /// Adds an arc `from -> to` and updates the transitive closure.
    ///
    /// Row `to` inherits row `from` plus bit `from`. If `to` already has
    /// successors, so does every row holding bit `to` (every descendant of
    /// `to`), found by an O(k) probe of bit `to` in each row. The scan is
    /// needed because arcs do not always point forward in creation order:
    /// at a sync whose branches are both attached (Figure 4, lines 33–40)
    /// the fork's set `rf` can be newer than the first child strand's set
    /// `rs1`, which by then has descendants of its own.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the arc would create a cycle; the
    /// execution order guarantees arcs always point forward in time.
    pub fn add_arc(&mut self, from: RNodeId, to: RNodeId) {
        self.add_arc_with(from, to, |_, _| {});
    }

    /// [`add_arc`](Self::add_arc), calling `hook(rows, d)` just before row
    /// `d` inherits row `from`, so that a caller can see what each row gains
    /// ([`DynBitSet::for_each_gain`]). The freezer stamps positions this way.
    pub fn add_arc_with(
        &mut self,
        from: RNodeId,
        to: RNodeId,
        mut hook: impl FnMut(&[DynBitSet], usize),
    ) {
        debug_assert!(
            from != to && !self.reaches(to, from),
            "arc {from}->{to} would create a cycle in R"
        );
        self.arcs += 1;
        if self.reaches(from, to) {
            return;
        }
        let (from, to) = (from.index(), to.index());
        hook(&self.pred, to);
        DynBitSet::inherit(&mut self.pred, from, to);
        if self.has_succ[to] {
            for d in 0..self.pred.len() {
                if self.pred[d].get(to) {
                    hook(&self.pred, d);
                    DynBitSet::inherit(&mut self.pred, from, d);
                }
            }
        }
        self.has_succ[from] = true;
    }

    /// True iff there is a non-empty path `from -> to`.
    pub fn reaches(&self, from: RNodeId, to: RNodeId) -> bool {
        self.pred
            .get(to.index())
            .is_some_and(|row| row.get(from.index()))
    }

    /// Approximate heap usage of the closure in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.has_succ.capacity() + self.pred.iter().map(DynBitSet::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_reachability() {
        let g = RGraph::new();
        assert_eq!(g.num_nodes(), 0);
        assert!(!g.reaches(RNodeId(0), RNodeId(1)));
    }

    #[test]
    fn direct_arc_is_reachable() {
        let mut g = RGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_arc(a, b);
        assert!(g.reaches(a, b));
        assert!(!g.reaches(b, a));
        assert!(!g.reaches(a, a));
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn closure_is_transitive_in_both_directions() {
        let mut g = RGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node()).collect();
        // chain 0->1->2 and 3->4->5, then bridge 2->3.
        g.add_arc(n[0], n[1]);
        g.add_arc(n[1], n[2]);
        g.add_arc(n[3], n[4]);
        g.add_arc(n[4], n[5]);
        assert!(!g.reaches(n[0], n[5]));
        g.add_arc(n[2], n[3]);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(g.reaches(n[i], n[j]), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn diamond_reachability() {
        let mut g = RGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_arc(a, b);
        g.add_arc(a, c);
        g.add_arc(b, d);
        g.add_arc(c, d);
        assert!(g.reaches(a, d));
        assert!(!g.reaches(b, c));
        assert!(!g.reaches(c, b));
    }

    #[test]
    fn redundant_arcs_do_not_break_closure() {
        let mut g = RGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_arc(a, b);
        g.add_arc(b, c);
        g.add_arc(a, c); // already implied
        assert!(g.reaches(a, c));
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn closure_matches_floyd_warshall_on_random_dags() {
        // Deterministic pseudo-random dag: arcs only from lower to higher
        // ids, compare against a Floyd–Warshall closure.
        let n = 40usize;
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = RGraph::new();
        let nodes: Vec<_> = (0..n).map(|_| g.add_node()).collect();
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if next() % 10 < 2 {
                    g.add_arc(nodes[i], nodes[j]);
                    adj[i][j] = true;
                }
            }
        }
        let adj = floyd_warshall(adj);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(g.reaches(nodes[i], nodes[j]), adj[i][j], "({i},{j})");
            }
        }
    }

    /// Floyd–Warshall closure of `adj` (`adj[i][j]`: an arc `i -> j`).
    fn floyd_warshall(mut adj: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        let n = adj.len();
        for k in 0..n {
            for i in 0..n {
                if adj[i][k] {
                    for j in 0..n {
                        if adj[k][j] {
                            adj[i][j] = true;
                        }
                    }
                }
            }
        }
        adj
    }

    #[test]
    fn closure_matches_floyd_warshall_under_shuffled_arcs() {
        // Arcs that land on nodes which already have successors take the
        // descendant scan: random dags whose topological order is a shuffle
        // of the node ids, with the arcs inserted in shuffled order, checked
        // against Floyd–Warshall at every quarter of the insertions.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..8 {
            let n = 40 + (next() % 161) as usize;
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut arcs = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % (n as u64) < 3 {
                        arcs.push((order[i], order[j]));
                    }
                }
            }
            for i in (1..arcs.len()).rev() {
                arcs.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut g = RGraph::new();
            let nodes: Vec<_> = (0..n).map(|_| g.add_node()).collect();
            let mut adj = vec![vec![false; n]; n];
            let checkpoints = [
                arcs.len() / 4,
                arcs.len() / 2,
                3 * arcs.len() / 4,
                arcs.len(),
            ];
            for (inserted, &(a, b)) in arcs.iter().enumerate() {
                g.add_arc(nodes[a], nodes[b]);
                adj[a][b] = true;
                if checkpoints.contains(&(inserted + 1)) {
                    let closure = floyd_warshall(adj.clone());
                    for i in 0..n {
                        for j in 0..n {
                            assert_eq!(
                                g.reaches(nodes[i], nodes[j]),
                                closure[i][j],
                                "n={n}, after {} arcs: ({i},{j})",
                                inserted + 1
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn heap_bytes_grows_with_nodes() {
        let mut g = RGraph::new();
        let a = g.add_node();
        for _ in 0..200 {
            let b = g.add_node();
            g.add_arc(a, b);
        }
        assert!(g.heap_bytes() > 0);
    }
}
