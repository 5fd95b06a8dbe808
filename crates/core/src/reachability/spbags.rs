//! The classical SP-Bags algorithm \[Feng & Leiserson 1997\] for pure
//! fork-join (series-parallel) programs.
//!
//! Included as the baseline the paper builds on and contrasts with
//! (Section 1 and Section 4: "The algorithm looks similar to SP-Bags ...
//! The main difference is that when the function G returns, its S-bag S_G is
//! renamed as P_G; in SP-bags, S_G would be unioned with P_F, the parent
//! function of G"). SP-Bags is *only* correct for programs whose dag is
//! series-parallel; feeding it `create_fut`/`get_fut` events panics.

use super::Reachability;
use crate::stats::ReachStats;
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SyncEvent};
use futurerd_dag::{FunctionId, Observer, StrandId};
use futurerd_dsu::{ElementId, TaggedDisjointSets};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpBag {
    S(FunctionId),
    P(FunctionId),
}

/// Per-function bookkeeping: a member strand of its S-bag and (if non-empty)
/// of its P-bag.
#[derive(Debug, Clone, Copy, Default)]
struct FunctionBags {
    s_member: Option<StrandId>,
    p_member: Option<StrandId>,
}

/// SP-Bags reachability for fork-join programs.
#[derive(Debug, Default)]
pub struct SpBags {
    bags: TaggedDisjointSets<SpBag>,
    elem_of: Vec<Option<ElementId>>,
    functions: Vec<FunctionBags>,
    /// Parent of each function (needed to move a returning child's S-bag
    /// into the parent's P-bag).
    parent_of: Vec<Option<FunctionId>>,
    current: StrandId,
    queries: u64,
}

impl SpBags {
    /// Creates an SP-Bags structure.
    pub fn new() -> Self {
        Self::default()
    }

    fn elem(&self, strand: StrandId) -> ElementId {
        // INVARIANT: a strand gets its element when it starts; queries name
        // only strands that have started (the `Reachability` contract) and a
        // canonical event stream starts a strand before an event names it.
        self.elem_of
            .get(strand.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("strand {strand} has not started executing"))
    }

    fn bags_of(&mut self, function: FunctionId) -> &mut FunctionBags {
        if self.functions.len() <= function.index() {
            self.functions
                .resize(function.index() + 1, FunctionBags::default());
        }
        &mut self.functions[function.index()]
    }

    /// True if `strand` is currently in an S-bag.
    pub fn in_s_bag(&mut self, strand: StrandId) -> bool {
        let elem = self.elem(strand);
        matches!(*self.bags.tag(elem), SpBag::S(_))
    }

    /// Records that `child` is a child function of `parent` (needed when the
    /// child returns, to move its S-bag into the parent's P-bag).
    fn note_child(&mut self, parent: FunctionId, child: FunctionId) {
        if self.parent_of.len() <= child.index() {
            self.parent_of.resize(child.index() + 1, None);
        }
        self.parent_of[child.index()] = Some(parent);
    }

    /// The `sync` transition: S_F = S_F ∪ P_F; P_F = ∅.
    fn sync_parent(&mut self, parent: FunctionId) {
        let bags = self.bags_of(parent);
        let (s_member, p_member) = (bags.s_member, bags.p_member);
        if let (Some(s), Some(p)) = (s_member, p_member) {
            let s_elem = self.elem(s);
            let p_elem = self.elem(p);
            self.bags.union_into(s_elem, p_elem);
        }
        self.bags_of(parent).p_member = None;
    }
}

impl Observer for SpBags {
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        if self.elem_of.len() <= strand.index() {
            self.elem_of.resize(strand.index() + 1, None);
        }
        let elem = self.bags.make_set(SpBag::S(function));
        self.elem_of[strand.index()] = Some(elem);
        let bags = self.bags_of(function);
        match bags.s_member {
            None => bags.s_member = Some(strand),
            Some(first) => {
                let first_elem = self.elem(first);
                self.bags.union_into(first_elem, elem);
            }
        }
        self.current = strand;
    }

    fn on_spawn(&mut self, ev: &futurerd_dag::events::SpawnEvent) {
        // Record the parent so the child's return can move its S-bag.
        self.note_child(ev.parent, ev.child);
    }

    fn on_return(&mut self, function: FunctionId, _last: StrandId) {
        // SP-Bags: P_parent = P_parent ∪ S_child.
        let Some(Some(parent)) = self.parent_of.get(function.index()).copied() else {
            // The root function returning at program end has no parent.
            return;
        };
        let child_member = match self.bags_of(function).s_member {
            Some(m) => m,
            None => return,
        };
        let child_elem = self.elem(child_member);
        let parent_bags = self.bags_of(parent);
        match parent_bags.p_member {
            None => {
                parent_bags.p_member = Some(child_member);
                self.bags.set_tag(child_elem, SpBag::P(parent));
            }
            Some(p_member) => {
                let p_elem = self.elem(p_member);
                self.bags.union_into(p_elem, child_elem);
            }
        }
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        // SP-Bags: S_F = S_F ∪ P_F; P_F = ∅.
        self.sync_parent(ev.parent);
    }

    fn on_create_future(&mut self, _ev: &CreateFutureEvent) {
        // INVARIANT: SP-Bags is fork-join only, and feeding it futures panics
        // by contract (module docs); replay callers check `runnable_for`, and
        // the facade's replay returns `Error::Unsupported` instead.
        panic!("SP-Bags cannot race detect programs that use futures");
    }

    fn on_get_future(&mut self, _ev: &GetFutureEvent) {
        // INVARIANT: as for `on_create_future`; a get needs a future.
        panic!("SP-Bags cannot race detect programs that use futures");
    }
}

impl Reachability for SpBags {
    fn precedes_current(&mut self, u: StrandId) -> bool {
        self.queries += 1;
        self.in_s_bag(u)
    }

    fn current_strand(&self) -> StrandId {
        self.current
    }

    fn name(&self) -> &'static str {
        "sp-bags"
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

/// SP-Bags with a *conservative futures fallback*: `create_fut` is treated
/// like `spawn` and `get_fut` like `sync`, so the classical fork-join
/// algorithm can consume any canonical trace instead of aborting on future
/// constructs.
///
/// This is deliberately wrong on futures — a `get` joins the getter with
/// *every* returned-but-unjoined child of the getting function, not just the
/// touched future, and non-SP reachability through future handles is
/// invisible to the bags — so on futures-bearing streams the verdict may
/// both miss real races and report spurious ones. Its purpose is to let the
/// differential driver *quantify* that error against the ground-truth
/// oracle (motivating the paper's algorithms); reports produced from
/// futures traces are marked
/// [approximate](crate::races::RaceReport::is_approximate). On pure
/// fork-join streams it behaves exactly like [`SpBags`].
#[derive(Debug, Default)]
pub struct SpBagsConservative {
    inner: SpBags,
}

impl SpBagsConservative {
    /// Creates the conservative fallback structure.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for SpBagsConservative {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        self.inner.on_program_start(root, first);
    }
    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.inner.on_strand_start(strand, function);
    }
    fn on_spawn(&mut self, ev: &futurerd_dag::events::SpawnEvent) {
        self.inner.on_spawn(ev);
    }
    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        // Conservative: a created future is just a spawned child.
        self.inner.note_child(ev.parent, ev.child);
    }
    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        self.inner.on_return(function, last);
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.inner.on_sync(ev);
    }
    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        // Conservative: a get joins the getting function with its whole
        // P-bag, as a sync would.
        self.inner.sync_parent(ev.parent);
    }
    fn on_program_end(&mut self, last: StrandId) {
        self.inner.on_program_end(last);
    }
}

impl Reachability for SpBagsConservative {
    fn precedes_current(&mut self, u: StrandId) -> bool {
        self.inner.precedes_current(u)
    }

    fn current_strand(&self) -> StrandId {
        self.inner.current_strand()
    }

    fn name(&self) -> &'static str {
        "sp-bags-cons"
    }

    fn stats(&self) -> ReachStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futurerd_dag::events::{ForkInfo, SpawnEvent};

    fn spawn_ev(parent: u32, child: u32, fork: u32, cont: u32, first: u32) -> SpawnEvent {
        SpawnEvent {
            parent: FunctionId(parent),
            child: FunctionId(child),
            fork_strand: StrandId(fork),
            cont_strand: StrandId(cont),
            child_first_strand: StrandId(first),
        }
    }

    fn sync_ev(parent: u32, child: u32, pre: u32, join: u32, child_last: u32) -> SyncEvent {
        SyncEvent {
            parent: FunctionId(parent),
            child: FunctionId(child),
            pre_join_strand: StrandId(pre),
            join_strand: StrandId(join),
            child_last_strand: StrandId(child_last),
            fork: ForkInfo {
                pre_fork_strand: StrandId(0),
                child_first_strand: StrandId(first_strand_placeholder()),
                cont_strand: StrandId(pre),
            },
        }
    }

    fn first_strand_placeholder() -> u32 {
        1
    }

    #[test]
    fn spawned_child_is_parallel_until_sync() {
        let mut sp = SpBags::new();
        sp.on_program_start(FunctionId(0), StrandId(0));
        sp.on_strand_start(StrandId(0), FunctionId(0));
        sp.on_spawn(&spawn_ev(0, 1, 0, 2, 1));
        sp.on_strand_start(StrandId(1), FunctionId(1));
        assert!(sp.precedes_current(StrandId(0)));
        sp.on_return(FunctionId(1), StrandId(1));
        sp.on_strand_start(StrandId(2), FunctionId(0));
        assert!(!sp.precedes_current(StrandId(1)));
        assert!(sp.precedes_current(StrandId(0)));
        sp.on_sync(&sync_ev(0, 1, 2, 3, 1));
        sp.on_strand_start(StrandId(3), FunctionId(0));
        assert!(sp.precedes_current(StrandId(1)));
        assert!(sp.precedes_current(StrandId(2)));
        assert_eq!(sp.name(), "sp-bags");
        assert!(sp.stats().queries >= 4);
    }

    #[test]
    fn two_spawned_children_are_parallel_with_each_other_until_sync() {
        let mut sp = SpBags::new();
        sp.on_strand_start(StrandId(0), FunctionId(0));
        // spawn child 1
        sp.on_spawn(&spawn_ev(0, 1, 0, 2, 1));
        sp.on_strand_start(StrandId(1), FunctionId(1));
        sp.on_return(FunctionId(1), StrandId(1));
        sp.on_strand_start(StrandId(2), FunctionId(0));
        // spawn child 2
        sp.on_spawn(&spawn_ev(0, 2, 2, 4, 3));
        sp.on_strand_start(StrandId(3), FunctionId(2));
        // While child 2 runs, child 1 must look parallel.
        assert!(!sp.precedes_current(StrandId(1)));
        sp.on_return(FunctionId(2), StrandId(3));
        sp.on_strand_start(StrandId(4), FunctionId(0));
        assert!(!sp.precedes_current(StrandId(1)));
        assert!(!sp.precedes_current(StrandId(3)));
        sp.on_sync(&sync_ev(0, 2, 4, 5, 3));
        sp.on_strand_start(StrandId(5), FunctionId(0));
        assert!(sp.precedes_current(StrandId(1)));
        assert!(sp.precedes_current(StrandId(3)));
    }

    #[test]
    #[should_panic(expected = "cannot race detect programs that use futures")]
    fn future_events_panic() {
        let mut sp = SpBags::new();
        sp.on_strand_start(StrandId(0), FunctionId(0));
        sp.on_create_future(&CreateFutureEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
    }

    #[test]
    fn conservative_fallback_treats_create_get_as_spawn_sync() {
        // root creates a future, continues (parallel), then gets it — the
        // conservative structure must survive the stream and order the
        // future's strand before the getter.
        let mut sp = SpBagsConservative::new();
        sp.on_program_start(FunctionId(0), StrandId(0));
        sp.on_strand_start(StrandId(0), FunctionId(0));
        sp.on_create_future(&CreateFutureEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        sp.on_strand_start(StrandId(1), FunctionId(1));
        sp.on_return(FunctionId(1), StrandId(1));
        sp.on_strand_start(StrandId(2), FunctionId(0));
        // Parallel with the continuation, as with a spawned child.
        assert!(!sp.precedes_current(StrandId(1)));
        sp.on_get_future(&GetFutureEvent {
            parent: FunctionId(0),
            future: FunctionId(1),
            pre_get_strand: StrandId(2),
            getter_strand: StrandId(3),
            future_last_strand: StrandId(1),
            prior_touches: 0,
        });
        sp.on_strand_start(StrandId(3), FunctionId(0));
        assert!(sp.precedes_current(StrandId(1)));
        assert_eq!(sp.name(), "sp-bags-cons");
        assert!(sp.stats().queries >= 2);
    }

    #[test]
    fn conservative_fallback_survives_multi_touch_gets() {
        let mut sp = SpBagsConservative::new();
        sp.on_strand_start(StrandId(0), FunctionId(0));
        sp.on_create_future(&CreateFutureEvent {
            parent: FunctionId(0),
            child: FunctionId(1),
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        });
        sp.on_strand_start(StrandId(1), FunctionId(1));
        sp.on_return(FunctionId(1), StrandId(1));
        sp.on_strand_start(StrandId(2), FunctionId(0));
        for (touch, pre, getter) in [(0u32, 2u32, 3u32), (1, 3, 4)] {
            sp.on_get_future(&GetFutureEvent {
                parent: FunctionId(0),
                future: FunctionId(1),
                pre_get_strand: StrandId(pre),
                getter_strand: StrandId(getter),
                future_last_strand: StrandId(1),
                prior_touches: touch,
            });
            sp.on_strand_start(StrandId(getter), FunctionId(0));
        }
        assert!(sp.precedes_current(StrandId(1)));
    }
}
