//! The MultiBags+ algorithm (Section 5 of the paper): reachability for
//! programs that mix fork-join parallelism with *general* (possibly
//! multi-touch) futures.
//!
//! MultiBags+ maintains three cooperating structures:
//!
//! * `DSP` — the MultiBags bags over the series-parallel skeleton: `spawn`
//!   is treated like `create_fut` and `sync` like `get_fut`, but nothing
//!   happens at a real `get_fut`. If a strand is in an S-bag it is
//!   sequentially before the current strand via SP edges alone.
//! * `DNSP` — a second disjoint-set structure grouping strands into
//!   *attached* sets (which appear in `R`) and *unattached* sets (complete
//!   series-parallel subdags with no incident non-SP edges, which carry an
//!   attached-predecessor and possibly an attached-successor pointer used as
//!   proxies when querying `R`).
//! * `R` — a dag over the attached sets with an exact transitive closure
//!   ([`RGraph`]), recording reachability that flows through `create_fut` /
//!   `get_fut` edges.
//!
//! The update rules follow Figure 4 of the paper; the query follows
//! Figure 3. Only O(k) attached sets are ever created (k = number of
//! `get_fut`s), giving the `O((T1 + k²)·α(m,n))` bound of Theorem 5.1.

use super::multibags::MultiBags;
use super::rgraph::{RGraph, RNodeId};
use super::Reachability;
use crate::stats::ReachStats;
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::{FunctionId, Observer, StrandId};
use futurerd_dsu::{ElementId, TaggedDisjointSets};

/// The state of a `DNSP` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NspTag {
    /// The set appears in `R` as `rnode`.
    Attached {
        /// Node of `R` representing this set.
        rnode: RNodeId,
    },
    /// A complete series-parallel subdag with no incident non-SP edges.
    Unattached {
        /// Attached set all of whose strands precede every strand of this
        /// set (with no intervening non-SP edge); used as the query proxy
        /// for the *destination* side.
        att_pred: RNodeId,
        /// Attached set containing the join that follows this subdag, once
        /// it has executed; used as the query proxy for the *source* side.
        att_succ: Option<RNodeId>,
    },
}

/// Reachability for general futures (Section 5).
#[derive(Debug)]
pub struct MultiBagsPlus {
    /// The series-parallel bags (`DSP`).
    dsp: MultiBags,
    /// The non-SP disjoint sets (`DNSP`).
    dnsp: TaggedDisjointSets<NspTag>,
    /// `DNSP` element of each strand, indexed by strand id.
    nsp_elem: Vec<Option<ElementId>>,
    /// The reachability dag over attached sets.
    r: RGraph,
    current: StrandId,
    queries: u64,
    /// Times a set the algorithm expected to be attached was attachified
    /// defensively (should stay zero; see `ReachStats`).
    unexpected_attachifies: u64,
}

impl Default for MultiBagsPlus {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiBagsPlus {
    /// Creates the reachability structure for general futures.
    pub fn new() -> Self {
        Self {
            dsp: MultiBags::dsp_for_multibags_plus(),
            dnsp: TaggedDisjointSets::new(),
            nsp_elem: Vec::new(),
            r: RGraph::new(),
            current: StrandId::default(),
            queries: 0,
            unexpected_attachifies: 0,
        }
    }

    /// Number of attached sets (nodes of `R`) created so far.
    pub fn num_attached_sets(&self) -> usize {
        self.r.num_nodes()
    }

    fn elem(&self, strand: StrandId) -> ElementId {
        // INVARIANT: every strand is registered in DNSP by the event that
        // creates it (program start, spawn, create_fut, get_fut, sync), and
        // a canonical event stream creates a strand before naming it.
        self.nsp_elem
            .get(strand.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("strand {strand} is not registered in DNSP"))
    }

    fn register(&mut self, strand: StrandId, elem: ElementId) {
        if self.nsp_elem.len() <= strand.index() {
            self.nsp_elem.resize(strand.index() + 1, None);
        }
        debug_assert!(
            self.nsp_elem[strand.index()].is_none(),
            "strand {strand} registered twice in DNSP"
        );
        self.nsp_elem[strand.index()] = Some(elem);
    }

    fn make_unattached(&mut self, strand: StrandId, att_pred: RNodeId) {
        let elem = self.dnsp.make_set(NspTag::Unattached {
            att_pred,
            att_succ: None,
        });
        self.register(strand, elem);
    }

    fn make_attached(&mut self, strand: StrandId) -> RNodeId {
        let rnode = self.r.add_node();
        let elem = self.dnsp.make_set(NspTag::Attached { rnode });
        self.register(strand, elem);
        rnode
    }

    fn is_attached(&mut self, strand: StrandId) -> bool {
        let elem = self.elem(strand);
        matches!(*self.dnsp.tag(elem), NspTag::Attached { .. })
    }

    /// The attached-predecessor proxy of a strand's set: the set's own `R`
    /// node when attached, its `attPred` otherwise.
    fn att_pred_proxy(&mut self, strand: StrandId) -> RNodeId {
        let elem = self.elem(strand);
        match *self.dnsp.tag(elem) {
            NspTag::Attached { rnode } => rnode,
            NspTag::Unattached { att_pred, .. } => att_pred,
        }
    }

    /// The attached-successor proxy of a strand's set: the set's own `R`
    /// node when attached, its `attSucc` otherwise (None if not yet set).
    fn att_succ_proxy(&mut self, strand: StrandId) -> Option<RNodeId> {
        let elem = self.elem(strand);
        match *self.dnsp.tag(elem) {
            NspTag::Attached { rnode } => Some(rnode),
            NspTag::Unattached { att_succ, .. } => att_succ,
        }
    }

    /// `Attachify(u)` (Figure 4, lines 18–22): if the set containing `u` is
    /// unattached, add it to `R` with an arc from its attached predecessor.
    fn attachify(&mut self, strand: StrandId) -> RNodeId {
        let elem = self.elem(strand);
        match *self.dnsp.tag(elem) {
            NspTag::Attached { rnode } => rnode,
            NspTag::Unattached { att_pred, .. } => {
                let rnode = self.r.add_node();
                self.r.add_arc(att_pred, rnode);
                self.dnsp.set_tag(elem, NspTag::Attached { rnode });
                rnode
            }
        }
    }

    /// Returns the `R` node of a set the algorithm expects to already be
    /// attached. If it is not (which the paper's invariants say cannot
    /// happen), the set is attachified defensively and the event counted.
    fn expect_attached(&mut self, strand: StrandId) -> RNodeId {
        if !self.is_attached(strand) {
            self.unexpected_attachifies += 1;
        }
        self.attachify(strand)
    }

    /// Unions the set containing `victim` into the set containing `winner`
    /// (keeping the winner's tag), as in `Union(DNSP, winner, victim)`.
    fn union_into(&mut self, winner: StrandId, victim: StrandId) {
        let w = self.elem(winner);
        let v = self.elem(victim);
        self.dnsp.union_into(w, v);
    }

    /// Creates the `DNSP` element for a join strand `j` and unions it into
    /// the set containing `host` (Figure 4, lines 32 and 45).
    fn make_strand_in_set_of(&mut self, j: StrandId, host: StrandId) {
        let host_elem = self.elem(host);
        // The placeholder tag is discarded by the union (the host's tag
        // wins); use the host's current tag shape to avoid inventing state.
        let placeholder = *self.dnsp.tag(host_elem);
        let j_elem = self.dnsp.make_set(placeholder);
        self.register(j, j_elem);
        self.dnsp.union_into(host_elem, j_elem);
    }
}

impl Observer for MultiBagsPlus {
    fn on_program_start(&mut self, root: FunctionId, first_strand: StrandId) {
        self.dsp.on_program_start(root, first_strand);
        // Figure 4, line 1: the first strand goes into an attached set with
        // no predecessor.
        self.make_attached(first_strand);
    }

    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.dsp.on_strand_start(strand, function);
        self.current = strand;
    }

    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.dsp.on_spawn(ev);
        // Figure 4, lines 3–6: the continuation and the child's first strand
        // start new unattached sets whose attached predecessor is inherited
        // from the forking strand.
        let pred = self.att_pred_proxy(ev.fork_strand);
        self.make_unattached(ev.cont_strand, pred);
        self.make_unattached(ev.child_first_strand, pred);
    }

    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.dsp.on_create_future(ev);
        // Figure 4, lines 8–12.
        let ru = self.attachify(ev.creator_strand);
        let rv = self.make_attached(ev.cont_strand);
        self.r.add_arc(ru, rv);
        let rw = self.make_attached(ev.child_first_strand);
        self.r.add_arc(ru, rw);
    }

    fn on_return(&mut self, function: FunctionId, last_strand: StrandId) {
        self.dsp.on_return(function, last_strand);
    }

    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.dsp.on_get_future(ev);
        // Figure 4, lines 14–17.
        let ru = self.attachify(ev.pre_get_strand);
        let rv = self.make_attached(ev.getter_strand);
        self.r.add_arc(ru, rv);
        // The future's last strand is guaranteed to be in an attached set.
        let rw = self.expect_attached(ev.future_last_strand);
        self.r.add_arc(rw, rv);
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        self.dsp.on_sync(ev);
        // Figure 4, lines 24–46.
        let f = ev.fork.pre_fork_strand;
        let s1 = ev.fork.child_first_strand;
        let s2 = ev.fork.cont_strand;
        let j = ev.join_strand;
        let t1 = ev.child_last_strand;
        let t2 = ev.pre_join_strand;

        let t1_attached = self.is_attached(t1);
        let t2_attached = self.is_attached(t2);

        if !t1_attached && !t2_attached {
            // Lines 29–32: no non-SP edges below this join — fold the whole
            // parallel composition into the set containing the fork strand.
            self.union_into(f, t1);
            self.union_into(f, t2);
            self.make_strand_in_set_of(j, f);
        } else if t1_attached && t2_attached {
            // Lines 33–40: both branches contain non-SP edges.
            let rf = self.attachify(f);
            let rs1 = self.expect_attached(s1);
            let rs2 = self.expect_attached(s2);
            self.r.add_arc(rf, rs1);
            self.r.add_arc(rf, rs2);
            let rj = self.make_attached(j);
            let rt1 = self.expect_attached(t1);
            let rt2 = self.expect_attached(t2);
            self.r.add_arc(rt1, rj);
            self.r.add_arc(rt2, rj);
        } else {
            // Lines 41–46: exactly one branch contains non-SP edges.
            let (ta, tu, sa) = if t1_attached {
                (t1, t2, s1)
            } else {
                (t2, t1, s2)
            };
            if !self.is_attached(f) {
                // Union(DNSP, sa, f): grow the attached branch's source set
                // backwards over the fork strand's set.
                self.union_into(sa, f);
            }
            // Union(DNSP, ta, Make-Set(j)).
            self.make_strand_in_set_of(j, ta);
            // Find(DNSP, tu).attSucc = Find(DNSP, j).
            let rj = self.expect_attached(j);
            let tu_elem = self.elem(tu);
            if let NspTag::Unattached { att_succ, .. } = self.dnsp.tag_mut(tu_elem) {
                *att_succ = Some(rj);
            }
        }
    }

    fn on_program_end(&mut self, last_strand: StrandId) {
        self.dsp.on_program_end(last_strand);
    }
}

impl Reachability for MultiBagsPlus {
    fn precedes_current(&mut self, u: StrandId) -> bool {
        self.queries += 1;
        let v = self.current;
        if u == v {
            return true;
        }
        // Figure 3, lines 1–2: the SP bags answer all queries whose path
        // uses no get edge.
        if self.dsp.in_s_bag(u) {
            return true;
        }
        // Lines 3–5: proxy for the destination.
        let sv = self.att_pred_proxy(v);
        // Lines 6–9: proxy for the source.
        let su = match self.att_succ_proxy(u) {
            Some(r) => r,
            None => return false,
        };
        // Line 10: consult the transitive closure of R.
        self.r.reaches(su, sv)
    }

    fn current_strand(&self) -> StrandId {
        self.current
    }

    fn name(&self) -> &'static str {
        "multibags+"
    }

    fn stats(&self) -> ReachStats {
        let mut s = ReachStats {
            queries: self.queries + self.dsp.stats().queries,
            attached_sets: self.r.num_nodes() as u64,
            r_arcs: self.r.num_arcs(),
            r_bytes: self.r.heap_bytes() as u64,
            unexpected_attachifies: self.unexpected_attachifies,
            ..Default::default()
        };
        s.absorb_dsu(self.dnsp.counters());
        let dsp_stats = self.dsp.stats();
        s.make_sets += dsp_stats.make_sets;
        s.unions += dsp_stats.unions;
        s.finds += dsp_stats.finds;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::ForkInfo;

    /// Root creates a future, continues (parallel), then gets it.
    #[test]
    fn future_parallel_until_get() {
        let root = FunctionId(0);
        let fut = FunctionId(1);
        let (s0, sf, s_cont, s_get) = (StrandId(0), StrandId(1), StrandId(2), StrandId(3));
        let mut mbp = MultiBagsPlus::new();
        mbp.on_program_start(root, s0);
        mbp.on_strand_start(s0, root);
        mbp.on_create_future(&CreateFutureEvent {
            parent: root,
            child: fut,
            creator_strand: s0,
            cont_strand: s_cont,
            child_first_strand: sf,
        });
        mbp.on_strand_start(sf, fut);
        assert!(mbp.precedes_current(s0));
        mbp.on_return(fut, sf);
        mbp.on_strand_start(s_cont, root);
        // The future body is parallel with the continuation.
        assert!(!mbp.precedes_current(sf));
        assert!(mbp.precedes_current(s0));
        mbp.on_get_future(&GetFutureEvent {
            parent: root,
            future: fut,
            pre_get_strand: s_cont,
            getter_strand: s_get,
            future_last_strand: sf,
            prior_touches: 0,
        });
        mbp.on_strand_start(s_get, root);
        // After the get, the future body precedes us — via R, not via DSP.
        assert!(mbp.precedes_current(sf));
        assert!(mbp.precedes_current(s_cont));
        assert_eq!(mbp.stats().unexpected_attachifies, 0);
        assert!(mbp.num_attached_sets() >= 4);
    }

    /// Pure fork-join program: no attached sets beyond the initial one.
    #[test]
    fn fork_join_only_keeps_r_small() {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let (s0, sc, s_cont, s_join) = (StrandId(0), StrandId(1), StrandId(2), StrandId(3));
        let mut mbp = MultiBagsPlus::new();
        mbp.on_program_start(root, s0);
        mbp.on_strand_start(s0, root);
        mbp.on_spawn(&SpawnEvent {
            parent: root,
            child,
            fork_strand: s0,
            cont_strand: s_cont,
            child_first_strand: sc,
        });
        mbp.on_strand_start(sc, child);
        mbp.on_return(child, sc);
        mbp.on_strand_start(s_cont, root);
        assert!(!mbp.precedes_current(sc));
        mbp.on_sync(&SyncEvent {
            parent: root,
            child,
            pre_join_strand: s_cont,
            join_strand: s_join,
            child_last_strand: sc,
            fork: ForkInfo {
                pre_fork_strand: s0,
                child_first_strand: sc,
                cont_strand: s_cont,
            },
        });
        mbp.on_strand_start(s_join, root);
        assert!(mbp.precedes_current(sc));
        assert!(mbp.precedes_current(s_cont));
        // A series-parallel program creates no attached sets beyond the
        // program's initial one (k = 0 ⇒ |R| = O(1)).
        assert_eq!(mbp.num_attached_sets(), 1);
        assert_eq!(mbp.stats().unexpected_attachifies, 0);
    }

    /// `R` keeps one direction of its closure, so its rows stay within one
    /// bit per pair of attached sets: on the default bst general program
    /// (the one `futurerd-trace record` captures; 684 attached sets) the
    /// closure takes at most `sets² / 8` bytes.
    #[test]
    fn closure_keeps_one_bit_per_pair_on_bst() {
        use futurerd_workloads::{run_workload, FutureMode, WorkloadKind, WorkloadParams};
        let params = WorkloadParams::tiny();
        let (mbp, _) = run_workload(
            WorkloadKind::Bst,
            FutureMode::General,
            &params,
            MultiBagsPlus::new(),
        );
        let stats = mbp.stats();
        assert!(
            8 * stats.r_bytes <= stats.attached_sets.pow(2),
            "{} attached sets, {} closure bytes",
            stats.attached_sets,
            stats.r_bytes
        );
    }

    #[test]
    fn name_and_stats_are_exposed() {
        let mut mbp = MultiBagsPlus::new();
        mbp.on_program_start(FunctionId(0), StrandId(0));
        mbp.on_strand_start(StrandId(0), FunctionId(0));
        assert_eq!(mbp.name(), "multibags+");
        assert!(mbp.precedes_current(StrandId(0)));
        assert_eq!(mbp.stats().attached_sets, 1);
    }
}
