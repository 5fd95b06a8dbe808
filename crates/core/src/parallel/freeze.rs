//! Pass 1 of the parallel detection engine: replay the trace through the
//! reachability algorithm once and *freeze* the result into an immutable,
//! shareable index.
//!
//! The on-the-fly structures of [`crate::reachability`] answer "is strand
//! `u` sequentially before the *currently executing* strand?" — a query
//! whose answer depends on when it is asked. To shard detection, workers
//! need the same answer *for any point of the trace*, read-only. The freeze
//! replays the reachability updates once and records, instead of the live
//! sets, their **timelines**:
//!
//! * every bag (disjoint set) of MultiBags / the `DSP` of MultiBags+ is a
//!   node of a *merge forest*: a set object is created, may be relabelled
//!   `S → P` once (at the `Return` of the function owning it), and is merged
//!   into another set at most once (at the `Sync`/`GetFuture` that joins
//!   it). A strand's bag at trace position `t` is found by walking its merge
//!   chain while the merge position precedes `t`; its tag is `S` iff the
//!   final set's relabel position does not precede `t`. Positions along a
//!   merge chain strictly increase, so the walk is well defined — and it is
//!   the *recorded* update sequence that is replayed, so the frozen answers
//!   match the live algorithm exactly even on traces where MultiBags is
//!   unsound (multi-touch futures), where its unions diverge from true dag
//!   reachability;
//! * the `DNSP` sets of MultiBags+ get the same merge-forest treatment,
//!   with their tag timeline (`Unattached{attPred}` → attachified →
//!   `attSucc` assignments) recorded per set;
//! * the reachability dag `R` over attached sets is frozen as an
//!   **earliest-connection closure**: arcs arrive in trace order, so the
//!   first time a pair becomes connected is the earliest position at which
//!   any path exists, and `reaches(a, b)` *at position t* is one hash-map
//!   probe (`earliest(a→b) < t`) — the "attached-bag closure bits" of the
//!   frozen index.
//!
//! All query paths are `&self` with no interior mutability, so one
//! [`ReachIndex`] is shared by every detection worker.

use super::assist::FreezeAssist;
use crate::replay::ReplayAlgorithm;
use futurerd_dag::events::{CreateFutureEvent, GetFutureEvent, SpawnEvent, SyncEvent};
use futurerd_dag::trace::Trace;
use futurerd_dag::{FunctionId, MemAddr, Observer, StrandId};

/// A position in the trace: the index of an event in the stream. Every
/// timeline comparison is strict (`<`): an update at position `p` is visible
/// to queries issued by events at positions `> p`.
pub type Pos = u32;

const NO_SET: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Frozen bags (MultiBags and the DSP of MultiBags+)
// ---------------------------------------------------------------------------

/// One set object of the bag merge forest.
#[derive(Debug, Clone, Default)]
struct BagSet {
    /// `S → P` relabel position (the owning function's `Return`), if any.
    relabel: Option<Pos>,
    /// The set this one was merged into, and when.
    merged: Option<(Pos, u32)>,
}

/// The frozen form of a [`crate::reachability::MultiBags`] run (also used
/// for the `DSP` component of MultiBags+): final bag assignments per strand
/// plus each bag's tag/merge timeline.
#[derive(Debug, Clone, Default)]
pub struct FrozenBags {
    /// Birth set of each strand (the set it was placed in when it started).
    set_of_strand: Vec<u32>,
    sets: Vec<BagSet>,
}

impl FrozenBags {
    /// True iff `u` was in an S-bag just before the event at `pos` — exactly
    /// what `MultiBags::in_s_bag(u)` answered at that point of the replay.
    pub fn in_s_bag_at(&self, u: StrandId, pos: Pos) -> bool {
        let mut set = self.set_of_strand[u.index()];
        debug_assert_ne!(set, NO_SET, "strand {u} had not started at {pos}");
        loop {
            let s = &self.sets[set as usize];
            match s.merged {
                Some((p, target)) if p < pos => set = target,
                _ => return s.relabel.is_none_or(|p| p >= pos),
            }
        }
    }

    /// As [`FrozenBags::in_s_bag_at`], resuming the merge-chain walk from a
    /// per-strand cursor. Valid only for non-decreasing `pos` per cursor
    /// (the chain position a strand resolved to can never move backwards),
    /// which makes the whole walk amortized O(1) per query for workers
    /// scanning the trace in order.
    fn in_s_bag_at_cached(&self, cursor: &mut Vec<Cursor>, u: StrandId, pos: Pos) -> bool {
        let set = resolve_cached(
            &self.sets,
            |s| s.merged,
            cursor,
            self.set_of_strand[u.index()],
            u,
            pos,
        );
        self.sets[set as usize].relabel.is_none_or(|p| p >= pos)
    }

    /// Number of set objects in the merge forest.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }
}

/// Per-strand memo of a merge-forest walk: `set` is the resolved set for
/// every query position `≤ expiry`; later positions resume the walk from
/// `set`.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    set: u32,
    expiry: Pos,
}

const FRESH: Cursor = Cursor {
    set: NO_SET,
    expiry: 0,
};

/// Walks a merge forest from a cached per-strand position. `merged_of`
/// projects a set to its merge edge, `birth` is the strand's birth set for
/// the first query.
#[inline]
fn resolve_cached<S>(
    sets: &[S],
    merged_of: impl Fn(&S) -> Option<(Pos, u32)>,
    cursor: &mut Vec<Cursor>,
    birth: u32,
    u: StrandId,
    pos: Pos,
) -> u32 {
    if cursor.len() <= u.index() {
        cursor.resize(u.index() + 1, FRESH);
    }
    let entry = &mut cursor[u.index()];
    let mut set = if entry.set == NO_SET {
        debug_assert_ne!(birth, NO_SET, "strand {u} had not started at {pos}");
        birth
    } else if pos <= entry.expiry {
        return entry.set;
    } else {
        entry.set
    };
    loop {
        match merged_of(&sets[set as usize]) {
            Some((p, target)) if p < pos => set = target,
            Some((p, _)) => {
                *entry = Cursor { set, expiry: p };
                return set;
            }
            None => {
                *entry = Cursor { set, expiry: NEVER };
                return set;
            }
        }
    }
}

/// Builds a [`FrozenBags`] by mirroring the MultiBags update rules while
/// recording their timeline. `union_on_get = false` gives the `DSP` variant
/// used inside MultiBags+ (no union at `get_fut`).
#[derive(Debug, Clone)]
struct BagsBuilder {
    union_on_get: bool,
    frozen: FrozenBags,
    /// Live root of each set chain (with path halving); mirrors the live
    /// disjoint-set state during the freezing replay.
    live: Vec<u32>,
    /// First strand of each function — a known member of its bag.
    first_strand: Vec<Option<StrandId>>,
}

impl BagsBuilder {
    fn new(union_on_get: bool) -> Self {
        Self {
            union_on_get,
            frozen: FrozenBags::default(),
            live: Vec::new(),
            first_strand: Vec::new(),
        }
    }

    fn live_root(&mut self, mut set: u32) -> u32 {
        // Path halving over the live pointers: the frozen merge edges stay
        // intact, only the resolution shortcut is compressed.
        while self.live[set as usize] != set {
            let parent = self.live[set as usize];
            let grandparent = self.live[parent as usize];
            self.live[set as usize] = grandparent;
            set = grandparent;
        }
        set
    }

    fn set_of_function(&mut self, function: FunctionId) -> u32 {
        let member = self
            .first_strand
            .get(function.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("function {function} has not started executing"));
        let birth = self.frozen.set_of_strand[member.index()];
        self.live_root(birth)
    }

    fn strand_start(&mut self, strand: StrandId, function: FunctionId) {
        if self.frozen.set_of_strand.len() <= strand.index() {
            self.frozen.set_of_strand.resize(strand.index() + 1, NO_SET);
        }
        if self.first_strand.len() <= function.index() {
            self.first_strand.resize(function.index() + 1, None);
        }
        match self.first_strand[function.index()] {
            None => {
                // First strand of the function: a fresh S-set (this is S_F).
                let id = self.frozen.sets.len() as u32;
                self.frozen.sets.push(BagSet::default());
                self.live.push(id);
                self.frozen.set_of_strand[strand.index()] = id;
                self.first_strand[function.index()] = Some(strand);
            }
            Some(_) => {
                // Subsequent strand: joins whatever set currently holds the
                // function's first strand (the live algorithm unions the new
                // singleton into it, which keeps that set's tag).
                let root = self.set_of_function(function);
                self.frozen.set_of_strand[strand.index()] = root;
            }
        }
    }

    fn function_return(&mut self, function: FunctionId, pos: Pos) {
        // P_F = S_F: relabel the live set holding the function's bag.
        let root = self.set_of_function(function);
        let set = &mut self.frozen.sets[root as usize];
        if set.relabel.is_none() {
            set.relabel = Some(pos);
        }
    }

    fn join_child(&mut self, parent: FunctionId, child: FunctionId, pos: Pos) {
        // S_parent = Union(S_parent, P_child), keeping the parent's tag.
        let winner = self.set_of_function(parent);
        let victim = self.set_of_function(child);
        if winner == victim {
            return;
        }
        self.frozen.sets[victim as usize].merged = Some((pos, winner));
        self.live[victim as usize] = winner;
    }

    fn sync(&mut self, ev: &SyncEvent, pos: Pos) {
        self.join_child(ev.parent, ev.child, pos);
    }

    fn get_future(&mut self, ev: &GetFutureEvent, pos: Pos) {
        if self.union_on_get {
            self.join_child(ev.parent, ev.future, pos);
        }
    }
}

// ---------------------------------------------------------------------------
// Frozen DNSP + timed closure of R (MultiBags+)
// ---------------------------------------------------------------------------

/// How a `DNSP` set started life.
#[derive(Debug, Clone, Copy)]
enum NspBirth {
    /// Created attached, as `R` node `rnode`.
    Attached { rnode: u32 },
    /// Created unattached with the given attached predecessor (immutable for
    /// the set's whole lifetime).
    Unattached { att_pred: u32 },
}

/// One set object of the `DNSP` merge forest, with its tag timeline.
#[derive(Debug, Clone)]
struct NspSet {
    birth: NspBirth,
    /// `Attachify` position and the `R` node created for it (unattached
    /// births only; at most once).
    attached: Option<(Pos, u32)>,
    /// `attSucc` assignments (position, `R` node), in trace order.
    att_succ: Vec<(Pos, u32)>,
    /// The set this one was merged into, and when.
    merged: Option<(Pos, u32)>,
}

/// Sentinel for "no path" in the timed closure rows.
pub(crate) const NEVER: Pos = Pos::MAX;

/// The `R` dag over attached sets with an earliest-connection transitive
/// closure: `earliest[a→b]` is the position of the arc insertion that first
/// connected `a` to `b`. Arcs arrive in trace order during the freezing
/// replay, so a single incremental pass computes it; afterwards a
/// reachability-at-position query is one array probe.
///
/// Rows are dense `Pos` vectors (lazily grown, [`NEVER`] = unreachable) —
/// the timed analogue of `RGraph`'s closure bit vectors, paying 32 bits per
/// pair instead of one to carry the connection position.
#[derive(Debug, Clone, Default)]
struct TimedClosure {
    /// `earliest[b][a]` = earliest position with a non-empty path `a → b`.
    /// Stored pred-side so the dominant arc shape (into a freshly created
    /// node) stamps one contiguous row instead of scattering across rows.
    earliest_pred: Vec<Vec<Pos>>,
    /// `pred[b]` / `succ[a]`: the closure as dup-free adjacency lists — each
    /// pair is pushed exactly once, when it is first stamped, so ancestor /
    /// descendant enumeration is proportional to the sets' actual sizes.
    pred_list: Vec<Vec<u32>>,
    succ_list: Vec<Vec<u32>>,
    entries: usize,
    /// False when the closure was imported from raw rows without its
    /// adjacency lists. Queries never need the lists, so a warm index load
    /// skips the O(entries) rebuild; [`TimedClosure::ensure_lists`] builds
    /// them on demand before the first post-import [`TimedClosure::add_arc`].
    lists_stale: bool,
}

impl TimedClosure {
    fn add_node(&mut self) -> u32 {
        let id = self.earliest_pred.len() as u32;
        self.earliest_pred.push(Vec::new());
        self.pred_list.push(Vec::new());
        self.succ_list.push(Vec::new());
        id
    }

    #[inline]
    fn earliest(&self, from: u32, to: u32) -> Pos {
        self.earliest_pred[to as usize]
            .get(from as usize)
            .copied()
            .unwrap_or(NEVER)
    }

    /// Rebuilds the adjacency lists (and entry count) from the closure rows
    /// after a raw import. O(nodes² ) scan, done once, only when the frozen
    /// state is actually extended.
    fn ensure_lists(&mut self) {
        if !self.lists_stale {
            return;
        }
        let nodes = self.earliest_pred.len();
        let mut pred_counts = vec![0u32; nodes];
        let mut succ_counts = vec![0u32; nodes];
        let mut entries = 0usize;
        for (d, row) in self.earliest_pred.iter().enumerate() {
            for (a, &p) in row.iter().enumerate() {
                if p != NEVER {
                    pred_counts[d] += 1;
                    succ_counts[a] += 1;
                    entries += 1;
                }
            }
        }
        self.pred_list = pred_counts
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        self.succ_list = succ_counts
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        for (d, row) in self.earliest_pred.iter().enumerate() {
            for (a, &p) in row.iter().enumerate() {
                if p != NEVER {
                    debug_assert_ne!(a, d, "closure rows must not contain self-loops");
                    self.pred_list[d].push(a as u32);
                    self.succ_list[a].push(d as u32);
                }
            }
        }
        self.entries = entries;
        self.lists_stale = false;
    }

    fn add_arc(&mut self, from: u32, to: u32, pos: Pos, assist: Option<&FreezeAssist<'_>>) {
        debug_assert!(!self.lists_stale, "ensure_lists must run before add_arc");
        debug_assert_ne!(from, to, "R is acyclic");
        if self.earliest(from, to) != NEVER {
            return; // already implied: no new connections
        }
        let mut ancestors = std::mem::take(&mut self.pred_list[from as usize]);
        ancestors.push(from);
        // Almost every arc points at a freshly created node (`to` has no
        // successors yet), so the descendant set is usually just `to`.
        let mut descendants = std::mem::take(&mut self.succ_list[to as usize]);
        descendants.push(to);
        let row_len = ancestors.iter().max().copied().expect("contains `from`") as usize + 1;
        let work = ancestors.len() * descendants.len();
        if assist.is_some_and(|a| a.should_assist(work)) {
            // Large batch with an assist attached: publish the stamping as a
            // batch stage — workers pull row ranges from the shared chunk
            // index and stamp concurrently; the coordinator then applies the
            // order-sensitive bookkeeping in exactly sequential order.
            self.stamp_assisted(
                &ancestors,
                &descendants,
                row_len,
                pos,
                assist.expect("checked"),
            );
        } else {
            for &d in &descendants {
                let row = &mut self.earliest_pred[d as usize];
                if row.len() < row_len {
                    row.resize(row_len, NEVER);
                }
                for &a in &ancestors {
                    debug_assert_ne!(a, d, "arc {from}->{to} would create a cycle in R");
                    if row[a as usize] == NEVER {
                        row[a as usize] = pos;
                        self.entries += 1;
                        self.pred_list[d as usize].push(a);
                        self.succ_list[a as usize].push(d);
                    }
                }
            }
        }
        // Put the borrowed lists back (dropping the appended self entries).
        ancestors.pop();
        descendants.pop();
        // The loops above may have pushed new entries while the lists were
        // taken; merge rather than overwrite.
        let from_new = std::mem::replace(&mut self.pred_list[from as usize], ancestors);
        self.pred_list[from as usize].extend(from_new);
        let to_new = std::mem::replace(&mut self.succ_list[to as usize], descendants);
        self.succ_list[to as usize].extend(to_new);
    }

    /// The work-assisted form of the stamping loops in
    /// [`add_arc`](TimedClosure::add_arc). Two batch shapes:
    ///
    /// * **several descendants** — closure rows are disjoint per descendant,
    ///   so each row is one work unit: the puller that claims it resizes and
    ///   stamps the whole row ([`stamp_closure_row`], the standalone batch
    ///   stage);
    /// * **one descendant** (the dominant arc shape: into a freshly created
    ///   node) — the single row is split into contiguous cell ranges, each
    ///   range a work unit, with the ancestors pre-bucketed by range.
    ///
    /// Workers only write `pos` into `NEVER` cells inside their claimed unit
    /// — the same values the sequential loop writes, in any order. Everything
    /// order-sensitive (entry count, adjacency pushes) is applied here by
    /// the coordinator afterwards, iterating descendants and ancestors in
    /// the exact sequential order, which is what keeps the frozen index
    /// byte-identical at every worker count.
    fn stamp_assisted(
        &mut self,
        ancestors: &[u32],
        descendants: &[u32],
        row_len: usize,
        pos: Pos,
        assist: &FreezeAssist<'_>,
    ) {
        use std::sync::Mutex;
        if let [d] = *descendants {
            // One descendant: split its row into cell-range units.
            let mut row = std::mem::take(&mut self.earliest_pred[d as usize]);
            if row.len() < row_len {
                row.resize(row_len, NEVER);
            }
            let n_units = assist.unit_count(ancestors.len(), row_len);
            let chunk_len = row_len.div_ceil(n_units).max(1);
            let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); row_len.div_ceil(chunk_len)];
            for (ord, &a) in ancestors.iter().enumerate() {
                buckets[a as usize / chunk_len].push((ord as u32, a));
            }
            struct CellUnit<'r> {
                cells: &'r mut [Pos],
                base: u32,
                /// `(ordinal in `ancestors`, ancestor id)` per target cell.
                targets: Vec<(u32, u32)>,
                fresh: Vec<u32>,
            }
            let units: Vec<Mutex<CellUnit<'_>>> = row
                .chunks_mut(chunk_len)
                .zip(buckets)
                .enumerate()
                .map(|(i, (cells, targets))| {
                    Mutex::new(CellUnit {
                        cells,
                        base: (i * chunk_len) as u32,
                        targets,
                        fresh: Vec::new(),
                    })
                })
                .collect();
            assist.dispatch(units.len(), &|u| {
                // Uncontended by the claim protocol: every unit index is
                // claimed exactly once across all pullers.
                let mut unit = units[u].lock().expect("no panics while stamping");
                let CellUnit {
                    cells,
                    base,
                    targets,
                    fresh,
                } = &mut *unit;
                for &(ord, a) in targets.iter() {
                    let cell = &mut cells[(a - *base) as usize];
                    if *cell == NEVER {
                        *cell = pos;
                        fresh.push(ord);
                    }
                }
            });
            let mut fresh_mask = vec![false; ancestors.len()];
            for unit in units {
                let unit = unit.into_inner().expect("no panics while stamping");
                for &ord in &unit.fresh {
                    fresh_mask[ord as usize] = true;
                }
            }
            self.earliest_pred[d as usize] = row;
            for (ord, &a) in ancestors.iter().enumerate() {
                if fresh_mask[ord] {
                    debug_assert_ne!(a, d, "arc into {d} would create a cycle in R");
                    self.entries += 1;
                    self.pred_list[d as usize].push(a);
                    self.succ_list[a as usize].push(d);
                }
            }
        } else {
            // Several descendants: each disjoint closure row is one unit.
            struct RowUnit {
                d: u32,
                row: Vec<Pos>,
                /// Newly stamped ancestors, in `ancestors` order.
                fresh: Vec<u32>,
            }
            let units: Vec<Mutex<RowUnit>> = descendants
                .iter()
                .map(|&d| {
                    Mutex::new(RowUnit {
                        d,
                        row: std::mem::take(&mut self.earliest_pred[d as usize]),
                        fresh: Vec::new(),
                    })
                })
                .collect();
            assist.dispatch(units.len(), &|u| {
                let mut unit = units[u].lock().expect("no panics while stamping");
                if unit.row.len() < row_len {
                    unit.row.resize(row_len, NEVER);
                }
                debug_assert!(!ancestors.contains(&unit.d), "cycle in R");
                let RowUnit { row, fresh, .. } = &mut *unit;
                *fresh = super::assist::stamp_closure_row(row, ancestors, pos);
            });
            for unit in units {
                let RowUnit { d, row, fresh } = unit.into_inner().expect("no panics");
                self.earliest_pred[d as usize] = row;
                for &a in &fresh {
                    self.entries += 1;
                    self.pred_list[d as usize].push(a);
                    self.succ_list[a as usize].push(d);
                }
            }
        }
    }

    /// True iff a non-empty path `from → to` existed before position `pos`.
    fn reaches_at(&self, from: u32, to: u32, pos: Pos) -> bool {
        self.earliest(from, to) < pos
    }

    fn num_nodes(&self) -> usize {
        self.earliest_pred.len()
    }

    fn closure_entries(&self) -> usize {
        if self.lists_stale {
            // Imported without lists: count on demand (stats path only).
            return self
                .earliest_pred
                .iter()
                .map(|row| row.iter().filter(|&&p| p != NEVER).count())
                .sum();
        }
        self.entries
    }
}

/// The frozen `DNSP` + `R` of a MultiBags+ run.
#[derive(Debug, Clone, Default)]
pub struct FrozenNsp {
    set_of_strand: Vec<u32>,
    sets: Vec<NspSet>,
    r: TimedClosure,
}

impl FrozenNsp {
    /// The set holding `strand` just before the event at `pos`.
    fn set_at(&self, strand: StrandId, pos: Pos) -> &NspSet {
        let mut set = self.set_of_strand[strand.index()];
        debug_assert_ne!(set, NO_SET, "strand {strand} not registered in DNSP");
        loop {
            let s = &self.sets[set as usize];
            match s.merged {
                Some((p, target)) if p < pos => set = target,
                _ => return s,
            }
        }
    }

    /// The `R` node of `strand`'s set if it was attached at `pos`.
    fn attached_node_at(set: &NspSet, pos: Pos) -> Option<u32> {
        match set.birth {
            NspBirth::Attached { rnode } => Some(rnode),
            NspBirth::Unattached { .. } => match set.attached {
                Some((p, rnode)) if p < pos => Some(rnode),
                _ => None,
            },
        }
    }

    /// The attached-predecessor proxy (query destination side, Figure 3).
    fn att_pred_proxy_at(&self, strand: StrandId, pos: Pos) -> u32 {
        let set = self.set_at(strand, pos);
        Self::pred_of_set(set, pos)
    }

    /// The attached-successor proxy (query source side), if assigned yet.
    fn att_succ_proxy_at(&self, strand: StrandId, pos: Pos) -> Option<u32> {
        let set = self.set_at(strand, pos);
        Self::succ_of_set(set, pos)
    }

    fn pred_of_set(set: &NspSet, pos: Pos) -> u32 {
        Self::attached_node_at(set, pos).unwrap_or(match set.birth {
            NspBirth::Unattached { att_pred } => att_pred,
            NspBirth::Attached { rnode } => rnode,
        })
    }

    fn succ_of_set(set: &NspSet, pos: Pos) -> Option<u32> {
        if let Some(rnode) = Self::attached_node_at(set, pos) {
            return Some(rnode);
        }
        set.att_succ
            .iter()
            .rev()
            .find(|&&(p, _)| p < pos)
            .map(|&(_, rnode)| rnode)
    }

    /// Cursor-cached variants of the proxy lookups (monotone `pos` only).
    fn att_pred_proxy_at_cached(
        &self,
        cursor: &mut Vec<Cursor>,
        strand: StrandId,
        pos: Pos,
    ) -> u32 {
        let idx = resolve_cached(
            &self.sets,
            |s| s.merged,
            cursor,
            self.set_of_strand[strand.index()],
            strand,
            pos,
        );
        Self::pred_of_set(&self.sets[idx as usize], pos)
    }

    fn att_succ_proxy_at_cached(
        &self,
        cursor: &mut Vec<Cursor>,
        strand: StrandId,
        pos: Pos,
    ) -> Option<u32> {
        let idx = resolve_cached(
            &self.sets,
            |s| s.merged,
            cursor,
            self.set_of_strand[strand.index()],
            strand,
            pos,
        );
        Self::succ_of_set(&self.sets[idx as usize], pos)
    }

    /// Number of attached sets (`R` nodes) in the frozen index.
    pub fn num_attached_sets(&self) -> usize {
        self.r.num_nodes()
    }
}

/// Mirrors the MultiBags+ `DNSP`/`R` update rules (Figure 4) while recording
/// their timeline.
#[derive(Debug, Clone, Default)]
struct NspBuilder {
    frozen: FrozenNsp,
    /// Live root of each set chain (path halving), as in [`BagsBuilder`].
    live: Vec<u32>,
}

impl NspBuilder {
    fn live_root(&mut self, mut set: u32) -> u32 {
        while self.live[set as usize] != set {
            let parent = self.live[set as usize];
            let grandparent = self.live[parent as usize];
            self.live[set as usize] = grandparent;
            set = grandparent;
        }
        set
    }

    fn set_of(&mut self, strand: StrandId) -> u32 {
        let birth = self.frozen.set_of_strand[strand.index()];
        debug_assert_ne!(birth, NO_SET, "strand {strand} not registered in DNSP");
        self.live_root(birth)
    }

    fn register(&mut self, strand: StrandId, set: u32) {
        if self.frozen.set_of_strand.len() <= strand.index() {
            self.frozen.set_of_strand.resize(strand.index() + 1, NO_SET);
        }
        debug_assert_eq!(
            self.frozen.set_of_strand[strand.index()],
            NO_SET,
            "strand {strand} registered twice in DNSP"
        );
        self.frozen.set_of_strand[strand.index()] = set;
    }

    fn new_set(&mut self, birth: NspBirth) -> u32 {
        let id = self.frozen.sets.len() as u32;
        self.frozen.sets.push(NspSet {
            birth,
            attached: None,
            att_succ: Vec::new(),
            merged: None,
        });
        self.live.push(id);
        id
    }

    fn make_attached(&mut self, strand: StrandId) -> u32 {
        let rnode = self.frozen.r.add_node();
        let set = self.new_set(NspBirth::Attached { rnode });
        self.register(strand, set);
        rnode
    }

    fn make_unattached(&mut self, strand: StrandId, att_pred: u32) {
        let set = self.new_set(NspBirth::Unattached { att_pred });
        self.register(strand, set);
    }

    fn is_attached(&mut self, strand: StrandId, pos: Pos) -> bool {
        let root = self.set_of(strand);
        FrozenNsp::attached_node_at(&self.frozen.sets[root as usize], pos + 1).is_some()
    }

    /// Live attached-predecessor proxy (during the freezing replay every
    /// lookup is "as of now", i.e. after all updates so far).
    fn att_pred_proxy(&mut self, strand: StrandId, pos: Pos) -> u32 {
        let root = self.set_of(strand);
        let set = &self.frozen.sets[root as usize];
        FrozenNsp::attached_node_at(set, pos + 1).unwrap_or(match set.birth {
            NspBirth::Unattached { att_pred } => att_pred,
            NspBirth::Attached { rnode } => rnode,
        })
    }

    /// `Attachify(u)` (Figure 4, lines 18–22).
    fn attachify(&mut self, strand: StrandId, pos: Pos, assist: Option<&FreezeAssist<'_>>) -> u32 {
        let root = self.set_of(strand);
        let set = &self.frozen.sets[root as usize];
        if let Some(rnode) = FrozenNsp::attached_node_at(set, pos + 1) {
            return rnode;
        }
        let NspBirth::Unattached { att_pred } = set.birth else {
            unreachable!("attached births always resolve above")
        };
        let rnode = self.frozen.r.add_node();
        self.frozen.r.add_arc(att_pred, rnode, pos, assist);
        self.frozen.sets[root as usize].attached = Some((pos, rnode));
        rnode
    }

    fn union_into(&mut self, winner: StrandId, victim: StrandId, pos: Pos) {
        let w = self.set_of(winner);
        let v = self.set_of(victim);
        if w == v {
            return;
        }
        self.frozen.sets[v as usize].merged = Some((pos, w));
        self.live[v as usize] = w;
    }

    /// Registers join strand `j` directly into the set containing `host`.
    fn make_strand_in_set_of(&mut self, j: StrandId, host: StrandId) {
        let root = self.set_of(host);
        self.register(j, root);
    }
}

// ---------------------------------------------------------------------------
// The public frozen index
// ---------------------------------------------------------------------------

/// The frozen reachability index: an immutable, `Sync` structure answering
/// "did strand `u` sequentially precede strand `v` at trace position `pos`?"
/// with exactly the answer the live algorithm gave during sequential replay.
///
/// Built by [`ReachIndex::freeze`] (pass 1 of the parallel engine) and then
/// shared read-only by every detection worker of pass 2. Only the paper's
/// two algorithms can be frozen — MultiBags (final bag timelines) and
/// MultiBags+ (bag timelines + `DNSP` set timelines + the attached-bag
/// closure); SP-Bags and the graph oracle have no frozen form and
/// [`par_replay_detect`](crate::parallel::par_replay_detect) falls back to
/// sequential replay for them.
#[derive(Debug)]
pub struct ReachIndex {
    algorithm: ReplayAlgorithm,
    inner: IndexInner,
}

#[derive(Debug)]
enum IndexInner {
    MultiBags(FrozenBags),
    MultiBagsPlus { dsp: FrozenBags, nsp: FrozenNsp },
}

/// Worker-private memo for [`ReachIndex::precedes_at_cached`]: per-strand
/// merge-chain positions for the bag forest (and, for MultiBags+, the
/// `DNSP` forest). See [`ReachIndex::cursor`].
#[derive(Debug)]
pub struct IndexCursor {
    bags: Vec<Cursor>,
    nsp: Vec<Cursor>,
    #[allow(dead_code)] // written only under debug_assertions
    last_pos: Pos,
}

impl ReachIndex {
    /// Replays `trace` once through the reachability algorithm only (no
    /// shadow memory) and freezes the result. Validates the trace first.
    ///
    /// Returns `None` for algorithms without a frozen form (SP-Bags and the
    /// graph oracle).
    pub fn freeze(
        trace: &Trace,
        algorithm: ReplayAlgorithm,
    ) -> Result<Option<ReachIndex>, futurerd_dag::trace::TraceError> {
        trace.validate()?;
        Ok(freeze_with_accesses(trace, algorithm).map(|(index, _)| index))
    }

    /// As [`freeze`](ReachIndex::freeze), with the closure stamping loops
    /// run through a work assist. The index is byte-identical to the
    /// sequential freeze at every worker count (the freeze-determinism
    /// property suite pins this over the whole fuzz shape corpus).
    pub fn freeze_assisted(
        trace: &Trace,
        algorithm: ReplayAlgorithm,
        assist: &FreezeAssist<'_>,
    ) -> Result<Option<ReachIndex>, futurerd_dag::trace::TraceError> {
        trace.validate()?;
        Ok(freeze_with_accesses_assisted(trace, algorithm, Some(assist)).map(|(index, _)| index))
    }

    /// The algorithm this index was frozen from.
    pub fn algorithm(&self) -> ReplayAlgorithm {
        self.algorithm
    }

    /// True iff `u` preceded `v` at trace position `pos` according to the
    /// frozen algorithm — the exact answer `precedes_current(u)` gave when
    /// the event at `pos` (an access by `v`) was replayed sequentially.
    pub fn precedes_at(&self, u: StrandId, v: StrandId, pos: u32) -> bool {
        match &self.inner {
            // MultiBags answers from the bag tag alone (Figure 1): the
            // current strand is not consulted.
            IndexInner::MultiBags(bags) => bags.in_s_bag_at(u, pos),
            IndexInner::MultiBagsPlus { dsp, nsp } => {
                if u == v {
                    return true;
                }
                // Figure 3: SP bags first, then the proxies against R.
                if dsp.in_s_bag_at(u, pos) {
                    return true;
                }
                let sv = nsp.att_pred_proxy_at(v, pos);
                let Some(su) = nsp.att_succ_proxy_at(u, pos) else {
                    return false;
                };
                nsp.r.reaches_at(su, sv, pos)
            }
        }
    }

    /// Creates a fresh query cursor for this index. A cursor memoizes the
    /// per-strand merge-chain walks, making queries amortized O(1) — but it
    /// requires the positions passed to
    /// [`precedes_at_cached`](ReachIndex::precedes_at_cached) to be
    /// non-decreasing over the cursor's lifetime (detection workers scan
    /// their shard in trace order, which guarantees it).
    pub fn cursor(&self) -> IndexCursor {
        IndexCursor {
            bags: Vec::new(),
            nsp: Vec::new(),
            last_pos: 0,
        }
    }

    /// As [`precedes_at`](ReachIndex::precedes_at), with the chain walks
    /// resumed from `cursor`. Positions must be non-decreasing per cursor.
    pub fn precedes_at_cached(
        &self,
        cursor: &mut IndexCursor,
        u: StrandId,
        v: StrandId,
        pos: u32,
    ) -> bool {
        debug_assert!(
            pos >= cursor.last_pos,
            "cursor positions must not go backwards"
        );
        #[cfg(debug_assertions)]
        {
            cursor.last_pos = pos;
        }
        match &self.inner {
            IndexInner::MultiBags(bags) => bags.in_s_bag_at_cached(&mut cursor.bags, u, pos),
            IndexInner::MultiBagsPlus { dsp, nsp } => {
                if u == v {
                    return true;
                }
                if dsp.in_s_bag_at_cached(&mut cursor.bags, u, pos) {
                    return true;
                }
                let sv = nsp.att_pred_proxy_at_cached(&mut cursor.nsp, v, pos);
                let Some(su) = nsp.att_succ_proxy_at_cached(&mut cursor.nsp, u, pos) else {
                    return false;
                };
                nsp.r.reaches_at(su, sv, pos)
            }
        }
    }

    /// Number of attached sets (`R` nodes) in the frozen index (0 for
    /// MultiBags).
    pub fn num_attached_sets(&self) -> usize {
        match &self.inner {
            IndexInner::MultiBags(_) => 0,
            IndexInner::MultiBagsPlus { nsp, .. } => nsp.num_attached_sets(),
        }
    }

    /// Number of entries in the frozen attached-bag closure (0 for
    /// MultiBags).
    pub fn closure_entries(&self) -> usize {
        match &self.inner {
            IndexInner::MultiBags(_) => 0,
            IndexInner::MultiBagsPlus { nsp, .. } => nsp.r.closure_entries(),
        }
    }
}

// ---------------------------------------------------------------------------
// The freezing replay observer
// ---------------------------------------------------------------------------

/// One granule-level access extracted during the freezing replay: pass 2
/// shards these by granule range, so workers touch only their own slice.
/// Public so that a persisted index (`futurerd-store`'s `FRDIDX` sidecars)
/// can carry the access stream next to the frozen timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GranuleAccess {
    /// The granule index ([`MemAddr::granule`]).
    pub granule: u64,
    /// Trace position of the access event.
    pub pos: Pos,
    /// The accessing strand.
    pub strand: StrandId,
    /// True for writes.
    pub is_write: bool,
}

/// The pass-1 observer: drives the timeline builders and extracts the
/// granule-level access stream in the same single replay.
#[derive(Debug, Clone)]
struct Freezer {
    pos: Pos,
    bags: BagsBuilder,
    nsp: Option<NspBuilder>,
    accesses: Vec<GranuleAccess>,
}

impl Freezer {
    fn new(algorithm: ReplayAlgorithm) -> Option<Self> {
        let (union_on_get, nsp) = match algorithm {
            ReplayAlgorithm::MultiBags => (true, None),
            ReplayAlgorithm::MultiBagsPlus => (false, Some(NspBuilder::default())),
            _ => return None,
        };
        Some(Self {
            pos: 0,
            bags: BagsBuilder::new(union_on_get),
            nsp,
            accesses: Vec::new(),
        })
    }

    fn push_access(&mut self, strand: StrandId, addr: MemAddr, size: usize, is_write: bool) {
        let pos = self.pos;
        for granule in addr.granules(size) {
            self.accesses.push(GranuleAccess {
                granule,
                pos,
                strand,
                is_write,
            });
        }
    }

    // The three handlers below take the closure-stamping arcs; they are the
    // only ones that consult the (optional) work assist. The plain
    // [`Observer`] impl passes `None` (pure sequential), and
    // [`AssistedFreezer`] passes its attached assist — both drive the same
    // update rules, so the frozen state is byte-identical by construction.

    fn handle_create_future(&mut self, ev: &CreateFutureEvent, assist: Option<&FreezeAssist<'_>>) {
        if let Some(nsp) = &mut self.nsp {
            // Figure 4, lines 8–12.
            let pos = self.pos;
            let ru = nsp.attachify(ev.creator_strand, pos, assist);
            let rv = nsp.make_attached(ev.cont_strand);
            nsp.frozen.r.add_arc(ru, rv, pos, assist);
            let rw = nsp.make_attached(ev.child_first_strand);
            nsp.frozen.r.add_arc(ru, rw, pos, assist);
        }
        self.pos += 1;
    }

    fn handle_sync(&mut self, ev: &SyncEvent, assist: Option<&FreezeAssist<'_>>) {
        let pos = self.pos;
        self.bags.sync(ev, pos);
        if let Some(nsp) = &mut self.nsp {
            // Figure 4, lines 24–46.
            let f = ev.fork.pre_fork_strand;
            let s1 = ev.fork.child_first_strand;
            let s2 = ev.fork.cont_strand;
            let j = ev.join_strand;
            let t1 = ev.child_last_strand;
            let t2 = ev.pre_join_strand;

            let t1_attached = nsp.is_attached(t1, pos);
            let t2_attached = nsp.is_attached(t2, pos);

            if !t1_attached && !t2_attached {
                nsp.union_into(f, t1, pos);
                nsp.union_into(f, t2, pos);
                nsp.make_strand_in_set_of(j, f);
            } else if t1_attached && t2_attached {
                let rf = nsp.attachify(f, pos, assist);
                let rs1 = nsp.attachify(s1, pos, assist);
                let rs2 = nsp.attachify(s2, pos, assist);
                nsp.frozen.r.add_arc(rf, rs1, pos, assist);
                nsp.frozen.r.add_arc(rf, rs2, pos, assist);
                let rj = nsp.make_attached(j);
                let rt1 = nsp.attachify(t1, pos, assist);
                let rt2 = nsp.attachify(t2, pos, assist);
                nsp.frozen.r.add_arc(rt1, rj, pos, assist);
                nsp.frozen.r.add_arc(rt2, rj, pos, assist);
            } else {
                let (ta, tu, sa) = if t1_attached {
                    (t1, t2, s1)
                } else {
                    (t2, t1, s2)
                };
                if !nsp.is_attached(f, pos) {
                    nsp.union_into(sa, f, pos);
                }
                nsp.make_strand_in_set_of(j, ta);
                let rj = nsp.attachify(j, pos, assist);
                let tu_root = nsp.set_of(tu);
                let tu_set = &mut nsp.frozen.sets[tu_root as usize];
                if FrozenNsp::attached_node_at(tu_set, pos + 1).is_none() {
                    tu_set.att_succ.push((pos, rj));
                }
            }
        }
        self.pos += 1;
    }

    fn handle_get_future(&mut self, ev: &GetFutureEvent, assist: Option<&FreezeAssist<'_>>) {
        let pos = self.pos;
        self.bags.get_future(ev, pos);
        if let Some(nsp) = &mut self.nsp {
            // Figure 4, lines 14–17.
            let ru = nsp.attachify(ev.pre_get_strand, pos, assist);
            let rv = nsp.make_attached(ev.getter_strand);
            nsp.frozen.r.add_arc(ru, rv, pos, assist);
            let rw = nsp.attachify(ev.future_last_strand, pos, assist);
            nsp.frozen.r.add_arc(rw, rv, pos, assist);
        }
        self.pos += 1;
    }
}

impl Observer for Freezer {
    fn on_program_start(&mut self, _root: FunctionId, first: StrandId) {
        if let Some(nsp) = &mut self.nsp {
            // Figure 4, line 1: the first strand is attached, no predecessor.
            nsp.make_attached(first);
        }
        self.pos += 1;
    }

    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.bags.strand_start(strand, function);
        self.pos += 1;
    }

    fn on_spawn(&mut self, ev: &SpawnEvent) {
        if let Some(nsp) = &mut self.nsp {
            // Figure 4, lines 3–6.
            let pred = nsp.att_pred_proxy(ev.fork_strand, self.pos);
            nsp.make_unattached(ev.cont_strand, pred);
            nsp.make_unattached(ev.child_first_strand, pred);
        }
        self.pos += 1;
    }

    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.handle_create_future(ev, None);
    }

    fn on_return(&mut self, function: FunctionId, _last: StrandId) {
        self.bags.function_return(function, self.pos);
        self.pos += 1;
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        self.handle_sync(ev, None);
    }

    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.handle_get_future(ev, None);
    }

    fn on_read(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.push_access(strand, addr, size, false);
        self.pos += 1;
    }

    fn on_write(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.push_access(strand, addr, size, true);
        self.pos += 1;
    }

    fn on_program_end(&mut self, _last: StrandId) {
        self.pos += 1;
    }
}

/// A [`Freezer`] with a [`FreezeAssist`] attached: the same replay observer,
/// except the three closure-stamping handlers run their hot loops through
/// the work-assisted batch stage. Borrowing the freezer (rather than storing
/// the assist inside it) keeps [`IncrementalFreezer`] free of executor
/// lifetimes — an assist is attached per `extend` call.
struct AssistedFreezer<'f, 'e> {
    freezer: &'f mut Freezer,
    assist: &'e FreezeAssist<'e>,
}

impl Observer for AssistedFreezer<'_, '_> {
    fn on_program_start(&mut self, root: FunctionId, first: StrandId) {
        self.freezer.on_program_start(root, first);
    }

    fn on_strand_start(&mut self, strand: StrandId, function: FunctionId) {
        self.freezer.on_strand_start(strand, function);
    }

    fn on_spawn(&mut self, ev: &SpawnEvent) {
        self.freezer.on_spawn(ev);
    }

    fn on_create_future(&mut self, ev: &CreateFutureEvent) {
        self.freezer.handle_create_future(ev, Some(self.assist));
    }

    fn on_return(&mut self, function: FunctionId, last: StrandId) {
        self.freezer.on_return(function, last);
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        self.freezer.handle_sync(ev, Some(self.assist));
    }

    fn on_get_future(&mut self, ev: &GetFutureEvent) {
        self.freezer.handle_get_future(ev, Some(self.assist));
    }

    fn on_read(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.freezer.on_read(strand, addr, size);
    }

    fn on_write(&mut self, strand: StrandId, addr: MemAddr, size: usize) {
        self.freezer.on_write(strand, addr, size);
    }

    fn on_program_end(&mut self, last: StrandId) {
        self.freezer.on_program_end(last);
    }
}

/// Pass 1: one replay, producing the frozen index and the granule-level
/// access stream. The trace must already be validated. Returns `None` for
/// algorithms without a frozen form.
pub(crate) fn freeze_with_accesses(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
) -> Option<(ReachIndex, Vec<GranuleAccess>)> {
    freeze_with_accesses_assisted(trace, algorithm, None)
}

/// As [`freeze_with_accesses`], with an optional work assist: the replay
/// itself stays task-ordered on the calling thread, but large closure
/// stamping batches run through the assist's executor.
pub(crate) fn freeze_with_accesses_assisted(
    trace: &Trace,
    algorithm: ReplayAlgorithm,
    assist: Option<&FreezeAssist<'_>>,
) -> Option<(ReachIndex, Vec<GranuleAccess>)> {
    assert!(
        trace.len() < u32::MAX as usize,
        "trace positions are 32-bit; {}-event trace is too large",
        trace.len()
    );
    let mut freezer = Freezer::new(algorithm)?;
    match assist {
        None => futurerd_dag::trace::replay_events(trace.events(), &mut freezer),
        Some(assist) => futurerd_dag::trace::replay_events(
            trace.events(),
            &mut AssistedFreezer {
                freezer: &mut freezer,
                assist,
            },
        ),
    }
    let inner = match freezer.nsp {
        None => IndexInner::MultiBags(freezer.bags.frozen),
        Some(nsp) => IndexInner::MultiBagsPlus {
            dsp: freezer.bags.frozen,
            nsp: nsp.frozen,
        },
    };
    Some((ReachIndex { algorithm, inner }, freezer.accesses))
}

// ---------------------------------------------------------------------------
// Incremental (resumable) freezing + raw introspection
// ---------------------------------------------------------------------------

/// The index [`IncrementalFreezer::with_index`] lends: dropping it moves
/// the timelines back into the builders they came from.
struct IndexLoan<'a> {
    index: ReachIndex,
    bags: &'a mut BagsBuilder,
    nsp: &'a mut Option<NspBuilder>,
}

impl Drop for IndexLoan<'_> {
    fn drop(&mut self) {
        let lent = std::mem::replace(
            &mut self.index.inner,
            IndexInner::MultiBags(FrozenBags::default()),
        );
        let (dsp, nsp) = match lent {
            IndexInner::MultiBags(dsp) => (dsp, None),
            IndexInner::MultiBagsPlus { dsp, nsp } => (dsp, Some(nsp)),
        };
        self.bags.frozen = dsp;
        if let (Some(builder), Some(nsp)) = (self.nsp.as_mut(), nsp) {
            builder.frozen = nsp;
        }
    }
}

/// Sentinel for "absent" in the raw (serialization) view of a frozen index.
/// Safe because trace positions, set ids and strand ids are all bounded by
/// the trace length, which the freezing entry points cap below `u32::MAX`.
pub const RAW_NONE: u32 = u32::MAX;

/// A resumable pass-1 freezer: feed it a canonical event stream in chunks
/// and snapshot a [`ReachIndex`] (plus the granule access stream) at any cut
/// point.
///
/// The frozen timelines are append-only — processing the events `[k, n)`
/// touches only the timelines those events update, and every already-frozen
/// answer at positions `< k` is unchanged (merge/relabel edges added later
/// carry positions `≥ k`, and every timeline comparison is strict). This is
/// what makes **incremental re-detection** sound: after appending events to
/// a stored trace, `futurerd-store` extends the freezer with just the
/// suffix instead of refreezing the whole trace, and only re-runs detection
/// partitions whose granules the suffix touched.
///
/// The complete freezer state (frozen timelines *and* the live resume state:
/// disjoint-set shortcuts, per-function first strands) converts to and from
/// the plain-data [`RawFreeze`] for persistence.
#[derive(Debug, Clone)]
pub struct IncrementalFreezer {
    algorithm: ReplayAlgorithm,
    freezer: Freezer,
}

impl IncrementalFreezer {
    /// Creates an empty freezer for `algorithm`. Returns `None` for
    /// algorithms without a frozen form (SP-Bags and the graph oracle).
    pub fn new(algorithm: ReplayAlgorithm) -> Option<Self> {
        Some(Self {
            algorithm,
            freezer: Freezer::new(algorithm)?,
        })
    }

    /// The algorithm being frozen.
    pub fn algorithm(&self) -> ReplayAlgorithm {
        self.algorithm
    }

    /// Number of events frozen so far — the next call to
    /// [`extend`](IncrementalFreezer::extend) must continue from this trace
    /// position.
    pub fn position(&self) -> u32 {
        self.freezer.pos
    }

    /// Feeds the next chunk of the canonical event stream. The caller is
    /// responsible for validating the full stream (e.g. with
    /// `Trace::validate_prefix`) and for passing events in order without
    /// gaps.
    pub fn extend(&mut self, events: &[futurerd_dag::trace::TraceEvent]) {
        if self.prepare_extend(events) {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::FREEZE);
            futurerd_dag::trace::replay_events(events, &mut self.freezer);
        }
    }

    /// As [`extend`](IncrementalFreezer::extend), with large closure
    /// stamping batches run through the given work assist. The frozen state
    /// after the call is byte-identical to what `extend` would have
    /// produced, at every worker count — the assist only changes *where*
    /// the stamping loops run, never what they write.
    ///
    /// The assist is borrowed per call (not stored), so a session can keep
    /// one resident freezer and attach whatever pool its next report is
    /// running on.
    pub fn extend_assisted(
        &mut self,
        events: &[futurerd_dag::trace::TraceEvent],
        assist: &FreezeAssist<'_>,
    ) {
        if self.prepare_extend(events) {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::FREEZE);
            futurerd_dag::trace::replay_events(
                events,
                &mut AssistedFreezer {
                    freezer: &mut self.freezer,
                    assist,
                },
            );
        }
    }

    /// Shared prologue of the extend paths: size check + lazy adjacency
    /// rebuild. Returns false when there is nothing to replay.
    fn prepare_extend(&mut self, events: &[futurerd_dag::trace::TraceEvent]) -> bool {
        assert!(
            self.freezer.pos as usize + events.len() < u32::MAX as usize,
            "trace positions are 32-bit; the extended stream is too large"
        );
        if events.is_empty() {
            return false;
        }
        if let Some(nsp) = &mut self.freezer.nsp {
            // A raw import defers the closure's adjacency lists (warm query
            // paths never need them); new arcs do.
            nsp.frozen.r.ensure_lists();
        }
        true
    }

    /// The granule-level access stream extracted so far, in trace order.
    pub fn accesses(&self) -> &[GranuleAccess] {
        &self.freezer.accesses
    }

    /// Lends the frozen timelines as a [`ReachIndex`], answering queries at
    /// any position `≤` [`position`](Self::position), together with the
    /// access stream, for the length of `f`: the form a report uses. The
    /// timelines move into the index and back when `f` returns or unwinds,
    /// so nothing is copied.
    pub fn with_index<R>(&mut self, f: impl FnOnce(&ReachIndex, &[GranuleAccess]) -> R) -> R {
        let Freezer {
            bags,
            nsp,
            accesses,
            ..
        } = &mut self.freezer;
        let inner = match nsp {
            None => IndexInner::MultiBags(std::mem::take(&mut bags.frozen)),
            Some(nsp) => IndexInner::MultiBagsPlus {
                dsp: std::mem::take(&mut bags.frozen),
                nsp: std::mem::take(&mut nsp.frozen),
            },
        };
        let loan = IndexLoan {
            index: ReachIndex {
                algorithm: self.algorithm,
                inner,
            },
            bags,
            nsp,
        };
        f(&loan.index, accesses)
    }

    /// Copies the frozen timelines into a standalone [`ReachIndex`]
    /// answering queries at any position `≤` [`position`](Self::position).
    /// The freezer remains usable for further extension. The copy is owned;
    /// a report borrows the timelines in place instead
    /// ([`with_index`](Self::with_index)).
    pub fn snapshot_index(&self) -> ReachIndex {
        let inner = match &self.freezer.nsp {
            None => IndexInner::MultiBags(self.freezer.bags.frozen.clone()),
            Some(nsp) => IndexInner::MultiBagsPlus {
                dsp: self.freezer.bags.frozen.clone(),
                nsp: nsp.frozen.clone(),
            },
        };
        ReachIndex {
            algorithm: self.algorithm,
            inner,
        }
    }

    /// Exports the complete freezer state as plain data for serialization.
    pub fn to_raw(&self) -> RawFreeze {
        let bags = &self.freezer.bags;
        RawFreeze {
            algorithm: self.algorithm,
            pos: self.freezer.pos,
            bags: RawBags {
                set_of_strand: bags.frozen.set_of_strand.clone(),
                sets: bags
                    .frozen
                    .sets
                    .iter()
                    .map(|s| RawBagSet {
                        relabel: s.relabel.unwrap_or(RAW_NONE),
                        merged_pos: s.merged.map_or(RAW_NONE, |(p, _)| p),
                        merged_target: s.merged.map_or(0, |(_, t)| t),
                    })
                    .collect(),
                live: bags.live.clone(),
                first_strand: bags
                    .first_strand
                    .iter()
                    .map(|s| s.map_or(RAW_NONE, |s| s.0))
                    .collect(),
            },
            nsp: self.freezer.nsp.as_ref().map(|nsp| RawNsp {
                set_of_strand: nsp.frozen.set_of_strand.clone(),
                sets: nsp
                    .frozen
                    .sets
                    .iter()
                    .map(|s| {
                        let (birth_attached, birth_node) = match s.birth {
                            NspBirth::Attached { rnode } => (true, rnode),
                            NspBirth::Unattached { att_pred } => (false, att_pred),
                        };
                        RawNspSet {
                            birth_attached,
                            birth_node,
                            attached_pos: s.attached.map_or(RAW_NONE, |(p, _)| p),
                            attached_node: s.attached.map_or(0, |(_, n)| n),
                            att_succ: s.att_succ.clone(),
                            merged_pos: s.merged.map_or(RAW_NONE, |(p, _)| p),
                            merged_target: s.merged.map_or(0, |(_, t)| t),
                        }
                    })
                    .collect(),
                live: nsp.live.clone(),
                closure_rows: nsp.frozen.r.earliest_pred.clone(),
            }),
            accesses: self.freezer.accesses.clone(),
        }
    }

    /// Reconstructs a freezer from its raw form, validating structural
    /// integrity (index bounds, merge-chain monotonicity — which also rules
    /// out merge cycles — and algorithm/shape agreement). Corrupt input
    /// yields a typed error, never a panic or a query that loops.
    pub fn from_raw(raw: RawFreeze) -> Result<Self, RawIndexError> {
        let err = |message: &str| Err(RawIndexError(message.to_string()));
        let nsp_expected = match raw.algorithm {
            ReplayAlgorithm::MultiBags => false,
            ReplayAlgorithm::MultiBagsPlus => true,
            _ => return err("algorithm has no frozen form"),
        };
        if raw.nsp.is_some() != nsp_expected {
            return err("DNSP section does not match the algorithm");
        }

        // Bags section.
        let n_sets = raw.bags.sets.len();
        if raw.bags.live.len() != n_sets {
            return err("bag live-root table length mismatch");
        }
        let mut sets = Vec::with_capacity(n_sets);
        for (i, s) in raw.bags.sets.iter().enumerate() {
            let relabel = (s.relabel != RAW_NONE).then_some(s.relabel);
            let merged = if s.merged_pos == RAW_NONE {
                None
            } else {
                let t = s.merged_target as usize;
                if t >= n_sets || t == i {
                    return err("bag merge target out of range");
                }
                let target = &raw.bags.sets[t];
                if target.merged_pos != RAW_NONE && target.merged_pos <= s.merged_pos {
                    return err("bag merge chain positions must strictly increase");
                }
                Some((s.merged_pos, s.merged_target))
            };
            sets.push(BagSet { relabel, merged });
        }
        if raw
            .bags
            .set_of_strand
            .iter()
            .any(|&s| s != NO_SET && s as usize >= n_sets)
        {
            return err("strand bag assignment out of range");
        }
        if raw.bags.live.iter().any(|&s| s as usize >= n_sets) {
            return err("bag live root out of range");
        }
        for &fs in &raw.bags.first_strand {
            if fs != RAW_NONE
                && raw
                    .bags
                    .set_of_strand
                    .get(fs as usize)
                    .is_none_or(|&s| s == NO_SET)
            {
                return err("function first-strand has no bag assignment");
            }
        }
        let bags = BagsBuilder {
            union_on_get: !nsp_expected,
            frozen: FrozenBags {
                set_of_strand: raw.bags.set_of_strand,
                sets,
            },
            live: raw.bags.live,
            first_strand: raw
                .bags
                .first_strand
                .iter()
                .map(|&s| (s != RAW_NONE).then_some(StrandId(s)))
                .collect(),
        };

        // DNSP + closure section.
        let nsp = match raw.nsp {
            None => None,
            Some(rnsp) => {
                let n_sets = rnsp.sets.len();
                let nodes = rnsp.closure_rows.len();
                if rnsp.live.len() != n_sets {
                    return err("DNSP live-root table length mismatch");
                }
                let mut sets = Vec::with_capacity(n_sets);
                for (i, s) in rnsp.sets.iter().enumerate() {
                    if s.birth_node as usize >= nodes {
                        return err("DNSP birth node out of range");
                    }
                    let attached = if s.attached_pos == RAW_NONE {
                        None
                    } else {
                        if s.attached_node as usize >= nodes {
                            return err("DNSP attach node out of range");
                        }
                        if s.birth_attached {
                            return err("attached-born DNSP set cannot attachify");
                        }
                        Some((s.attached_pos, s.attached_node))
                    };
                    if s.att_succ.iter().any(|&(_, n)| n as usize >= nodes) {
                        return err("DNSP attSucc node out of range");
                    }
                    let merged = if s.merged_pos == RAW_NONE {
                        None
                    } else {
                        let t = s.merged_target as usize;
                        if t >= n_sets || t == i {
                            return err("DNSP merge target out of range");
                        }
                        let target = &rnsp.sets[t];
                        if target.merged_pos != RAW_NONE && target.merged_pos <= s.merged_pos {
                            return err("DNSP merge chain positions must strictly increase");
                        }
                        Some((s.merged_pos, s.merged_target))
                    };
                    sets.push(NspSet {
                        birth: if s.birth_attached {
                            NspBirth::Attached {
                                rnode: s.birth_node,
                            }
                        } else {
                            NspBirth::Unattached {
                                att_pred: s.birth_node,
                            }
                        },
                        attached,
                        att_succ: s.att_succ.clone(),
                        merged,
                    });
                }
                if rnsp
                    .set_of_strand
                    .iter()
                    .any(|&s| s != NO_SET && s as usize >= n_sets)
                {
                    return err("strand DNSP assignment out of range");
                }
                if rnsp.live.iter().any(|&s| s as usize >= n_sets) {
                    return err("DNSP live root out of range");
                }
                for (d, row) in rnsp.closure_rows.iter().enumerate() {
                    if row.len() > nodes {
                        return err("closure row longer than the node count");
                    }
                    // A diagonal entry would put a cycle into the supposedly
                    // acyclic R (and trip ensure_lists' debug assertion).
                    if row.get(d).is_some_and(|&p| p != NEVER) {
                        return err("closure row contains a self-loop");
                    }
                }
                // Adjacency lists are rebuilt lazily (ensure_lists) — a warm
                // index load pays only for what queries touch.
                let r = TimedClosure {
                    earliest_pred: rnsp.closure_rows,
                    pred_list: Vec::new(),
                    succ_list: Vec::new(),
                    entries: 0,
                    lists_stale: true,
                };
                Some(NspBuilder {
                    frozen: FrozenNsp {
                        set_of_strand: rnsp.set_of_strand,
                        sets,
                        r,
                    },
                    live: rnsp.live,
                })
            }
        };

        if raw.accesses.iter().any(|a| a.pos >= raw.pos) {
            return err("access stream position beyond the frozen position");
        }
        Ok(Self {
            algorithm: raw.algorithm,
            freezer: Freezer {
                pos: raw.pos,
                bags,
                nsp,
                accesses: raw.accesses,
            },
        })
    }
}

/// Structural-integrity failure while importing a [`RawFreeze`].
#[derive(Debug, Clone)]
pub struct RawIndexError(pub String);

impl std::fmt::Display for RawIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frozen index: {}", self.0)
    }
}

impl std::error::Error for RawIndexError {}

/// Plain-data export of an [`IncrementalFreezer`] — everything a persistent
/// store needs to rebuild the frozen index *and* resume freezing after an
/// append. Field sentinels use [`RAW_NONE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFreeze {
    /// The frozen algorithm (must be freezable).
    pub algorithm: ReplayAlgorithm,
    /// Number of events frozen.
    pub pos: u32,
    /// The bag merge forest (MultiBags, or the DSP of MultiBags+).
    pub bags: RawBags,
    /// The DNSP forest + timed closure (MultiBags+ only).
    pub nsp: Option<RawNsp>,
    /// The granule-level access stream, in trace order.
    pub accesses: Vec<GranuleAccess>,
}

/// Raw form of the bag merge forest plus its live resume state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBags {
    /// Birth set per strand ([`RAW_NONE`] = strand not started).
    pub set_of_strand: Vec<u32>,
    /// Tag/merge timeline per set.
    pub sets: Vec<RawBagSet>,
    /// Live disjoint-set shortcut per set (resume state).
    pub live: Vec<u32>,
    /// First strand per function ([`RAW_NONE`] = function not started;
    /// resume state).
    pub first_strand: Vec<u32>,
}

/// Raw form of one bag set's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawBagSet {
    /// `S → P` relabel position ([`RAW_NONE`] = still `S`).
    pub relabel: u32,
    /// Merge position ([`RAW_NONE`] = never merged).
    pub merged_pos: u32,
    /// Merge target set (meaningful only when `merged_pos` is set).
    pub merged_target: u32,
}

/// Raw form of the DNSP forest, its tag timelines, the timed closure rows
/// and the live resume state (MultiBags+ only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawNsp {
    /// Birth set per strand ([`RAW_NONE`] = not registered).
    pub set_of_strand: Vec<u32>,
    /// Tag/merge timeline per set.
    pub sets: Vec<RawNspSet>,
    /// Live disjoint-set shortcut per set (resume state).
    pub live: Vec<u32>,
    /// The earliest-connection closure: `closure_rows[b][a]` is the earliest
    /// position with a path `a → b` ([`RAW_NONE`] = unreachable). Adjacency
    /// lists and entry counts are rebuilt on import.
    pub closure_rows: Vec<Vec<u32>>,
}

/// Raw form of one DNSP set's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawNspSet {
    /// True if the set was born attached.
    pub birth_attached: bool,
    /// The `R` node (attached birth) or immutable attached predecessor
    /// (unattached birth).
    pub birth_node: u32,
    /// `Attachify` position ([`RAW_NONE`] = never attachified).
    pub attached_pos: u32,
    /// The `R` node created by `Attachify` (meaningful only when
    /// `attached_pos` is set).
    pub attached_node: u32,
    /// `attSucc` assignments (position, `R` node), in trace order.
    pub att_succ: Vec<(u32, u32)>,
    /// Merge position ([`RAW_NONE`] = never merged).
    pub merged_pos: u32,
    /// Merge target set (meaningful only when `merged_pos` is set).
    pub merged_target: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::RaceDetector;
    use crate::reachability::{MultiBags, MultiBagsPlus, Reachability};
    use futurerd_dag::trace::TraceEvent;

    /// root creates a future, continues in parallel, then gets it.
    fn future_trace() -> Trace {
        let root = FunctionId(0);
        let fut = FunctionId(1);
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
        });
        t.push(TraceEvent::CreateFuture(CreateFutureEvent {
            parent: root,
            child: fut,
            creator_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: fut,
        });
        t.push(TraceEvent::Write {
            strand: StrandId(1),
            addr: MemAddr(0x1000),
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: fut,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(2),
            addr: MemAddr(0x1000),
            size: 4,
        });
        t.push(TraceEvent::GetFuture(GetFutureEvent {
            parent: root,
            future: fut,
            pre_get_strand: StrandId(2),
            getter_strand: StrandId(3),
            future_last_strand: StrandId(1),
            prior_touches: 0,
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: root,
        });
        t.push(TraceEvent::Read {
            strand: StrandId(3),
            addr: MemAddr(0x1000),
            size: 4,
        });
        t.push(TraceEvent::Return {
            function: root,
            last: StrandId(3),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        t
    }

    /// Replays `trace` through the live reachability structure, recording at
    /// every access event the answer for every started strand, and asserts
    /// the frozen index reproduces each answer.
    fn assert_frozen_matches_live<R: Reachability>(
        trace: &Trace,
        mut live: R,
        algorithm: ReplayAlgorithm,
    ) {
        let index = ReachIndex::freeze(trace, algorithm)
            .expect("valid trace")
            .expect("freezable algorithm");
        let mut started: Vec<StrandId> = Vec::new();
        for (pos, event) in trace.events().iter().enumerate() {
            if let TraceEvent::Read { strand, .. } | TraceEvent::Write { strand, .. } = event {
                for &u in &started {
                    let expected = live.precedes_current(u);
                    let got = index.precedes_at(u, *strand, pos as u32);
                    assert_eq!(
                        expected, got,
                        "{algorithm}: precedes({u}, {strand}) at {pos}"
                    );
                }
            }
            if let TraceEvent::StrandStart { strand, .. } = event {
                started.push(*strand);
            }
            let mut single = Trace::new();
            single.push(*event);
            single.replay_into(&mut live);
        }
    }

    #[test]
    fn frozen_multibags_matches_live_on_future_trace() {
        assert_frozen_matches_live(
            &future_trace(),
            MultiBags::new(),
            ReplayAlgorithm::MultiBags,
        );
    }

    #[test]
    fn frozen_multibags_plus_matches_live_on_future_trace() {
        assert_frozen_matches_live(
            &future_trace(),
            MultiBagsPlus::new(),
            ReplayAlgorithm::MultiBagsPlus,
        );
    }

    #[test]
    fn freeze_rejects_unfreezable_algorithms() {
        let trace = future_trace();
        assert!(ReachIndex::freeze(&trace, ReplayAlgorithm::GraphOracle)
            .expect("valid trace")
            .is_none());
    }

    #[test]
    fn freeze_extracts_granule_accesses() {
        let trace = future_trace();
        let (index, accesses) =
            freeze_with_accesses(&trace, ReplayAlgorithm::MultiBagsPlus).expect("freezable");
        assert_eq!(accesses.len(), 3);
        assert!(accesses.iter().all(|a| a.granule == 0x1000 / 4));
        assert_eq!(index.algorithm(), ReplayAlgorithm::MultiBagsPlus);
        assert!(index.num_attached_sets() >= 4);
        assert!(index.closure_entries() > 0);
    }

    #[test]
    fn frozen_answers_are_time_dependent() {
        // The future's strand (s1) is parallel with the continuation (s2,
        // reading at position 7) but precedes the getter (s3, reading at
        // position 10).
        let trace = future_trace();
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let index = ReachIndex::freeze(&trace, algorithm)
                .expect("valid")
                .expect("freezable");
            assert!(
                !index.precedes_at(StrandId(1), StrandId(2), 7),
                "{algorithm}"
            );
            assert!(
                index.precedes_at(StrandId(1), StrandId(3), 10),
                "{algorithm}"
            );
            assert!(
                index.precedes_at(StrandId(0), StrandId(2), 7),
                "{algorithm}"
            );
        }
    }

    #[test]
    fn frozen_index_is_shareable_across_threads() {
        let trace = future_trace();
        let index = ReachIndex::freeze(&trace, ReplayAlgorithm::MultiBagsPlus)
            .expect("valid")
            .expect("freezable");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert!(index.precedes_at(StrandId(1), StrandId(3), 10)));
            }
        });
    }

    #[test]
    fn incremental_freeze_matches_full_freeze_at_every_cut() {
        let trace = future_trace();
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let (full, full_accesses) = freeze_with_accesses(&trace, algorithm).expect("freezable");
            for cut in 0..=trace.len() {
                let mut inc = IncrementalFreezer::new(algorithm).expect("freezable");
                inc.extend(&trace.events()[..cut]);
                inc.extend(&trace.events()[cut..]);
                assert_eq!(inc.position() as usize, trace.len());
                assert_eq!(inc.accesses(), &full_accesses[..], "cut {cut}");
                let snap = inc.snapshot_index();
                for &(u, v, pos) in &[(1u32, 2u32, 7u32), (1, 3, 10), (0, 2, 7), (0, 3, 10)] {
                    assert_eq!(
                        snap.precedes_at(StrandId(u), StrandId(v), pos),
                        full.precedes_at(StrandId(u), StrandId(v), pos),
                        "{algorithm} cut {cut}: precedes(s{u}, s{v}) at {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn lent_index_answers_as_the_snapshot_and_goes_back() {
        let trace = future_trace();
        let queries = [(1u32, 2u32, 7u32), (1, 3, 10), (0, 2, 7), (0, 3, 10)];
        let answers = |index: &ReachIndex| -> Vec<bool> {
            queries
                .iter()
                .map(|&(u, v, pos)| index.precedes_at(StrandId(u), StrandId(v), pos))
                .collect()
        };
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let mut full = IncrementalFreezer::new(algorithm).expect("freezable");
            full.extend(trace.events());
            let snapped = answers(&full.snapshot_index());
            let lent = full.with_index(|index, accesses| {
                assert_eq!(accesses, full_accesses(&trace, algorithm));
                answers(index)
            });
            assert_eq!(lent, snapped, "{algorithm}");

            for cut in [trace.len() / 2, trace.len()] {
                let mut inc = IncrementalFreezer::new(algorithm).expect("freezable");
                inc.extend(&trace.events()[..cut]);
                let before = inc.to_raw();
                inc.with_index(|index, accesses| {
                    assert_eq!(index.algorithm(), algorithm);
                    assert_eq!(accesses, &before.accesses[..]);
                });
                assert_eq!(
                    inc.to_raw(),
                    before,
                    "{algorithm} cut {cut}: state came back"
                );

                // A panic inside the loan still returns the timelines.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    inc.with_index(|_, _| panic!("report failed"))
                }));
                assert!(caught.is_err());
                assert_eq!(inc.to_raw(), before, "{algorithm} cut {cut}: after unwind");

                // The freezer extends on as if the loan never happened.
                inc.extend(&trace.events()[cut..]);
                assert_eq!(inc.to_raw(), full.to_raw(), "{algorithm} cut {cut}");
            }
        }
    }

    fn full_accesses(trace: &Trace, algorithm: ReplayAlgorithm) -> Vec<GranuleAccess> {
        freeze_with_accesses(trace, algorithm).expect("freezable").1
    }

    #[test]
    fn raw_export_round_trips_the_freezer_state() {
        let trace = future_trace();
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            let mut inc = IncrementalFreezer::new(algorithm).expect("freezable");
            inc.extend(trace.events());
            let raw = inc.to_raw();
            let back = IncrementalFreezer::from_raw(raw.clone()).expect("valid raw state");
            assert_eq!(
                back.to_raw(),
                raw,
                "{algorithm}: re-export must be identical"
            );
            // The re-imported freezer must answer queries identically...
            let (a, b) = (inc.snapshot_index(), back.snapshot_index());
            assert_eq!(
                a.precedes_at(StrandId(1), StrandId(3), 10),
                b.precedes_at(StrandId(1), StrandId(3), 10)
            );
            // ...and resume freezing: extending both with nothing keeps them
            // equal, and positions agree.
            assert_eq!(back.position(), inc.position());
        }
    }

    #[test]
    fn from_raw_rejects_corrupt_state() {
        let trace = future_trace();
        let mut inc = IncrementalFreezer::new(ReplayAlgorithm::MultiBagsPlus).expect("freezable");
        inc.extend(trace.events());
        let raw = inc.to_raw();

        let mut bad = raw.clone();
        bad.nsp = None;
        assert!(IncrementalFreezer::from_raw(bad).is_err(), "shape mismatch");

        let mut bad = raw.clone();
        bad.bags.live.pop();
        assert!(IncrementalFreezer::from_raw(bad).is_err(), "live length");

        let mut bad = raw.clone();
        bad.bags.set_of_strand[0] = 10_000;
        assert!(IncrementalFreezer::from_raw(bad).is_err(), "set bounds");

        let mut bad = raw.clone();
        if let Some(set) = bad.bags.sets.first_mut() {
            set.merged_pos = 5;
            set.merged_target = 0; // self-merge → cycle
        }
        assert!(IncrementalFreezer::from_raw(bad).is_err(), "merge cycle");

        let mut bad = raw.clone();
        bad.accesses.push(GranuleAccess {
            granule: 1,
            pos: bad.pos + 7,
            strand: StrandId(0),
            is_write: false,
        });
        assert!(
            IncrementalFreezer::from_raw(bad).is_err(),
            "access beyond frozen position"
        );

        let mut bad = raw.clone();
        if let Some(nsp) = bad.nsp.as_mut() {
            // A diagonal closure entry = a self-loop in R.
            if nsp.closure_rows[0].is_empty() {
                nsp.closure_rows[0].push(7);
            } else {
                nsp.closure_rows[0][0] = 7;
            }
        }
        assert!(
            IncrementalFreezer::from_raw(bad).is_err(),
            "closure self-loop"
        );

        assert!(IncrementalFreezer::from_raw(raw).is_ok(), "control");
    }

    /// Spot-check the detector-level agreement on the canonical racy trace.
    #[test]
    fn frozen_queries_reproduce_detector_verdicts() {
        let trace = future_trace();
        let report = trace
            .replay(RaceDetector::<MultiBagsPlus>::general())
            .into_report();
        assert_eq!(report.race_count(), 1);
    }
}
