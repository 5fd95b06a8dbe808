//! The MultiBags algorithm (Section 4 of the paper): reachability for
//! programs with *structured* futures.
//!
//! Every function instance `F` that has been created and not yet joined owns
//! a *bag* — a set in a disjoint-set structure — labelled either `S_F` or
//! `P_F`:
//!
//! * while `F` is active all of its strands are in `S_F`;
//! * when `F` returns, `S_F` is relabelled `P_F` (this is the crucial
//!   difference from SP-Bags, which unions the returning child's S-bag into
//!   the parent's P-bag);
//! * when `F` is joined (`get_fut`, or `sync` for a spawned child), `P_F` is
//!   unioned into the joining function's S-bag.
//!
//! The invariant (Theorem 4.2): a previously executed strand is in an S-bag
//! iff it is sequentially before the currently executing strand. A race
//! query is therefore a single `find` plus a tag inspection.
//!
//! For structured futures `spawn`/`sync` are just `create_fut`/`get_fut`
//! (Section 4, "Notation"), so this structure treats the two pairs of events
//! identically. The same code also serves as the `DSP` component of
//! MultiBags+ by disabling the union performed at `get_fut`
//! ([`MultiBags::dsp_for_multibags_plus`]).

use super::Reachability;
use crate::stats::ReachStats;
use futurerd_dag::events::{GetFutureEvent, SyncEvent};
use futurerd_dag::{FunctionId, Observer, StrandId};
use futurerd_dsu::{ElementId, TaggedDisjointSets};

/// The label of a bag: the S-bag or P-bag of a particular function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bag {
    /// `S_F`: strands known to be sequentially before the current strand.
    S(FunctionId),
    /// `P_F`: strands of a completed, not-yet-joined function.
    P(FunctionId),
}

impl Bag {
    fn is_s(self) -> bool {
        matches!(self, Bag::S(_))
    }
}

/// Reachability for structured futures in `O(α(m,n))` amortized per
/// operation.
#[derive(Debug)]
pub struct MultiBags {
    bags: TaggedDisjointSets<Bag>,
    /// Disjoint-set element of each strand (indexed by strand id).
    elem_of: Vec<Option<ElementId>>,
    /// A strand known to be in each function's bag (its first strand),
    /// indexed by function id.
    first_strand: Vec<Option<StrandId>>,
    current: StrandId,
    /// Whether `sync`/`get_fut` union the child's P-bag into the joining
    /// function's S-bag. True for MultiBags proper; for the `DSP` structure
    /// inside MultiBags+ the union is performed at `sync` but *not* at
    /// `get_fut`.
    union_on_get: bool,
    queries: u64,
}

// `MultiBags::new()`, not the `DSP` variant MultiBags+ keeps inside.
impl Default for MultiBags {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiBags {
    /// Creates the reachability structure for structured futures.
    pub fn new() -> Self {
        Self::with_union_on_get(true)
    }

    /// Creates the `DSP` variant used inside MultiBags+: identical, except
    /// that nothing happens on `get_fut` (Section 5, "Reachability data
    /// structures").
    pub(crate) fn dsp_for_multibags_plus() -> Self {
        Self::with_union_on_get(false)
    }

    fn with_union_on_get(union_on_get: bool) -> Self {
        Self {
            bags: TaggedDisjointSets::new(),
            elem_of: Vec::new(),
            first_strand: Vec::new(),
            current: StrandId::default(),
            union_on_get,
            queries: 0,
        }
    }

    fn elem(&self, strand: StrandId) -> ElementId {
        self.elem_of
            .get(strand.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("strand {strand} has not started executing"))
    }

    fn function_member(&self, function: FunctionId) -> StrandId {
        self.first_strand
            .get(function.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("function {function} has not started executing"))
    }

    /// True if `strand` is currently in an S-bag. This is the raw query of
    /// Figure 1 in the paper.
    pub fn in_s_bag(&mut self, strand: StrandId) -> bool {
        let elem = self.elem(strand);
        self.bags.tag(elem).is_s()
    }

    /// The bag ownership of a strand, for tests reproducing Figure 2:
    /// returns `(is_s_bag, owning_function)`.
    pub fn bag_of(&mut self, strand: StrandId) -> (bool, FunctionId) {
        let elem = self.elem(strand);
        match *self.bags.tag(elem) {
            Bag::S(f) => (true, f),
            Bag::P(f) => (false, f),
        }
    }

    fn join_child(&mut self, parent: FunctionId, child: FunctionId) {
        let parent_member = self.function_member(parent);
        let child_member = self.function_member(child);
        let parent_elem = self.elem(parent_member);
        let child_elem = self.elem(child_member);
        // S_F = Union(S_F, P_G): the merged set keeps the parent's S tag.
        self.bags.union_into(parent_elem, child_elem);
    }
}

impl Observer for MultiBags {
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        if self.elem_of.len() <= strand.index() {
            self.elem_of.resize(strand.index() + 1, None);
        }
        if self.first_strand.len() <= function.index() {
            self.first_strand.resize(function.index() + 1, None);
        }
        let elem = self.bags.make_set(Bag::S(function));
        self.elem_of[strand.index()] = Some(elem);
        match self.first_strand[function.index()] {
            None => {
                // First strand of the function: this set *is* S_F.
                self.first_strand[function.index()] = Some(strand);
            }
            Some(first) => {
                // Subsequent strand: union it into the existing S_F (the
                // function is necessarily still active).
                let first_elem = self.elem(first);
                self.bags.union_into(first_elem, elem);
            }
        }
        self.current = strand;
    }

    fn on_return(&mut self, function: FunctionId, _last_strand: StrandId) {
        // P_G = S_G: relabel the bag.
        let member = self.function_member(function);
        let elem = self.elem(member);
        self.bags.set_tag(elem, Bag::P(function));
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        // sync is get_fut on a spawned child (Section 4 notation); both
        // MultiBags and the DSP of MultiBags+ perform the union here.
        self.join_child(ev.parent, ev.child);
    }

    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        if self.union_on_get {
            self.join_child(ev.parent, ev.future);
        }
    }
}

impl Reachability for MultiBags {
    fn precedes_current(&mut self, u: StrandId) -> bool {
        self.queries += 1;
        self.in_s_bag(u)
    }

    fn current_strand(&self) -> StrandId {
        self.current
    }

    fn name(&self) -> &'static str {
        if self.union_on_get {
            "multibags"
        } else {
            "multibags-dsp"
        }
    }

    fn stats(&self) -> ReachStats {
        let mut s = ReachStats {
            queries: self.queries,
            ..Default::default()
        };
        s.absorb_dsu(self.bags.counters());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::{CreateFutureEvent, ForkInfo};

    /// Drive the observer by hand through: root creates future G, continues,
    /// then gets it.
    #[test]
    fn future_strands_move_from_s_to_p_and_back_to_s() {
        let root = FunctionId(0);
        let fut = FunctionId(1);
        let (s0, sg, s_cont, s_get) = (StrandId(0), StrandId(1), StrandId(2), StrandId(3));
        let mut mb = MultiBags::new();

        mb.on_program_start(root, s0);
        mb.on_strand_start(s0, root);
        mb.on_create_future(&CreateFutureEvent {
            parent: root,
            child: fut,
            creator_strand: s0,
            cont_strand: s_cont,
            child_first_strand: sg,
        });
        mb.on_strand_start(sg, fut);
        // While the future executes, the creator strand is in an S bag.
        assert!(mb.in_s_bag(s0));
        assert!(mb.in_s_bag(sg));
        mb.on_return(fut, sg);
        mb.on_strand_start(s_cont, root);
        // After the future returned but before get: its strands are in a P
        // bag (parallel with the continuation).
        assert!(!mb.in_s_bag(sg));
        assert!(mb.in_s_bag(s0));
        mb.on_get_future(&GetFutureEvent {
            parent: root,
            future: fut,
            pre_get_strand: s_cont,
            getter_strand: s_get,
            future_last_strand: sg,
            prior_touches: 0,
        });
        mb.on_strand_start(s_get, root);
        // After the get the future's strands are sequentially before us.
        assert!(mb.in_s_bag(sg));
        assert_eq!(mb.bag_of(sg), (true, root));
    }

    #[test]
    fn spawned_child_parallel_until_sync() {
        let root = FunctionId(0);
        let child = FunctionId(1);
        let (s0, sc, s_cont, s_join) = (StrandId(0), StrandId(1), StrandId(2), StrandId(3));
        let mut mb = MultiBags::new();
        mb.on_strand_start(s0, root);
        mb.on_strand_start(sc, child);
        mb.on_return(child, sc);
        mb.on_strand_start(s_cont, root);
        assert!(!mb.precedes_current(sc));
        assert!(mb.precedes_current(s0));
        assert!(mb.precedes_current(s_cont));
        mb.on_sync(&SyncEvent {
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
        mb.on_strand_start(s_join, root);
        assert!(mb.precedes_current(sc));
        assert_eq!(mb.current_strand(), s_join);
    }

    #[test]
    fn dsp_variant_ignores_get_future() {
        let root = FunctionId(0);
        let fut = FunctionId(1);
        let (s0, sg, s_cont, s_get) = (StrandId(0), StrandId(1), StrandId(2), StrandId(3));
        let mut dsp = MultiBags::dsp_for_multibags_plus();
        dsp.on_strand_start(s0, root);
        dsp.on_strand_start(sg, fut);
        dsp.on_return(fut, sg);
        dsp.on_strand_start(s_cont, root);
        dsp.on_get_future(&GetFutureEvent {
            parent: root,
            future: fut,
            pre_get_strand: s_cont,
            getter_strand: s_get,
            future_last_strand: sg,
            prior_touches: 0,
        });
        dsp.on_strand_start(s_get, root);
        // DSP does not union at get_fut, so the future's strand stays in a P
        // bag even though it now precedes the getter.
        assert!(!dsp.in_s_bag(sg));
        assert_eq!(dsp.name(), "multibags-dsp");
    }

    #[test]
    fn stats_count_queries_and_dsu_ops() {
        let mut mb = MultiBags::new();
        mb.on_strand_start(StrandId(0), FunctionId(0));
        mb.on_strand_start(StrandId(1), FunctionId(0));
        let _ = mb.precedes_current(StrandId(0));
        let stats = mb.stats();
        assert_eq!(stats.queries, 1);
        assert!(stats.make_sets >= 2);
        assert!(stats.unions >= 1);
    }

    #[test]
    #[should_panic(expected = "has not started executing")]
    fn querying_unknown_strand_panics() {
        let mut mb = MultiBags::new();
        mb.on_strand_start(StrandId(0), FunctionId(0));
        mb.precedes_current(StrandId(5));
    }
}
