//! Pass 2 of the parallel detection engine: shard the granule space, give
//! each worker a private shadow-memory partition, and merge the per-worker
//! race reports deterministically.
//!
//! The access-history protocol of Section 3 is *granule-local*: the shadow
//! state of a granule (last writer, reader list) is read and written only by
//! accesses to that granule, and the state updates do not depend on query
//! answers. With reachability frozen into a shared
//! [`ReachIndex`](super::ReachIndex), detection on disjoint granule ranges
//! is therefore embarrassingly parallel — each worker replays exactly the
//! per-granule access sequence the sequential detector saw, gets exactly the
//! answers the sequential detector got, and thus observes exactly the same
//! races.

use super::freeze::{GranuleAccess, IndexCursor};
use super::{DetectExecutor, ReachIndex};
use crate::races::{AccessKind, Race, RaceReport};
use crate::shadow::AccessHistory;
use crate::stats::DetectorStats;
use futurerd_dag::{MemAddr, StrandId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The Section 3 detection state of one worker: its shadow-memory table,
/// the granules it has seen race, and their first witnesses.
///
/// Both engines drive it: a pass-2 partition ([`ShadowPartition`]) keys
/// its table by the global granule and answers queries from the frozen
/// index, and a one-shot worker (`super::oneshot`) keys it by the granule's
/// slot among those dealt to it and answers from its own copy of the
/// reachability structure. The query is the only difference, so it comes
/// in as a closure.
#[derive(Debug, Default)]
pub(super) struct Shadow {
    history: AccessHistory,
    /// Granules already known racy (mirrors the first-witness-per-granule
    /// rule of [`RaceReport::record`]).
    racy: HashSet<u64>,
    /// First witness race per granule, with the trace position of the access
    /// that exposed it (the deterministic merge key).
    witnesses: Vec<(u32, Race)>,
    /// Every racing pair observed, including repeats per granule.
    observations: u64,
}

impl Shadow {
    /// Processes one granule-level access with the sequential detector's
    /// read/write protocol. `slot` is where the table keeps `acc.granule`,
    /// and `precedes(u)` answers whether strand `u` precedes the access;
    /// accesses must arrive in trace order.
    #[inline]
    pub(super) fn apply(
        &mut self,
        slot: u64,
        acc: &GranuleAccess,
        mut precedes: impl FnMut(StrandId) -> bool,
    ) {
        let addr = MemAddr(acc.granule * MemAddr::GRANULARITY);
        let observed = self.observations;
        // Races are recorded as the checks find them — the writer first,
        // then the readers in list order, as the sequential detector does —
        // so the first witness per granule is the same race. The closure
        // borrows the witness fields alone, next to the shadow state.
        let mut found = |prior_strand: StrandId, prior_kind: AccessKind| {
            self.observations += 1;
            if self.racy.insert(acc.granule) {
                let race = Race {
                    addr,
                    prior_strand,
                    prior_kind,
                    current_strand: acc.strand,
                    current_kind: if acc.is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                };
                self.witnesses.push((acc.pos, race));
            }
        };
        // Access-history counters accumulate in locals while the shadow
        // state is borrowed, then fold into the worker's stats — the same
        // quantities the sequential detector counts, so summing them across
        // workers reproduces its totals (minus `shadow_pages`, which is
        // per-worker table occupancy).
        let mut readers_recorded = 0u64;
        let mut readers_cleared = 0u64;
        let state = self.history.get_mut(slot);
        if let Some(writer) = state.last_writer {
            if !precedes(writer) {
                found(writer, AccessKind::Write);
            }
        }
        if acc.is_write {
            for &reader in &state.readers {
                if !precedes(reader) {
                    found(reader, AccessKind::Read);
                }
            }
            readers_cleared = state.readers.len() as u64;
            state.readers.clear();
            state.last_writer = Some(acc.strand);
        } else if state.readers.last() != Some(&acc.strand) {
            // A strand appears once per write epoch, exactly as in the
            // sequential detector.
            state.readers.push(acc.strand);
            readers_recorded = 1;
        }
        let stats = self.history.stats_mut();
        if acc.is_write {
            stats.write_checks += 1;
        } else {
            stats.read_checks += 1;
        }
        stats.readers_recorded += readers_recorded;
        stats.readers_cleared += readers_cleared;
        stats.races_found += self.observations - observed;
    }

    /// What the worker found so far, leaving its shadow state in place.
    fn findings(&self) -> Findings {
        Findings {
            witnesses: self.witnesses.clone(),
            observations: self.observations,
            stats: self.history.stats(),
        }
    }

    /// What the worker found, dropping its shadow state.
    pub(super) fn into_findings(self) -> Findings {
        Findings {
            witnesses: self.witnesses,
            observations: self.observations,
            stats: self.history.stats(),
        }
    }
}

/// One worker's result, whatever it owned: the first witness per racy
/// granule with the trace position that exposed it, every racing pair it
/// observed, and its access-history counters.
#[derive(Debug, Default)]
pub(super) struct Findings {
    witnesses: Vec<(u32, Race)>,
    observations: u64,
    stats: DetectorStats,
}

/// A worker's private slice of the detection state: a contiguous granule
/// range, its own shadow-memory table, and the races found so far.
///
/// Built from the same two-level [`AccessHistory`] the sequential detector
/// uses; granule indices stay global, so pages outside the partition's range
/// are simply never allocated.
#[derive(Debug)]
pub struct ShadowPartition {
    range: Range<u64>,
    shadow: Shadow,
}

impl ShadowPartition {
    /// Creates an empty partition owning `range` (half-open, in granules).
    pub fn new(range: Range<u64>) -> Self {
        Self {
            range,
            shadow: Shadow::default(),
        }
    }

    /// The granule range this partition owns.
    pub fn range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// True iff this partition owns `granule`.
    pub fn owns(&self, granule: u64) -> bool {
        self.range.contains(&granule)
    }

    /// Number of shadow pages this partition allocated.
    pub fn shadow_pages(&self) -> usize {
        self.shadow.history.num_pages()
    }

    /// Racing pairs observed so far (including repeats per granule).
    pub fn observations(&self) -> u64 {
        self.shadow.observations
    }

    /// Witness races found so far (one per racy granule, in trace order).
    pub fn witnesses(&self) -> &[(u32, Race)] {
        &self.shadow.witnesses
    }

    /// Processes one granule-level access against the frozen index. Queries
    /// go through the worker's cursor; accesses must arrive in trace order.
    fn apply(&mut self, index: &ReachIndex, cursor: &mut IndexCursor, acc: &GranuleAccess) {
        debug_assert!(self.owns(acc.granule));
        self.shadow.apply(acc.granule, acc, |u| {
            index.precedes_at_cached(cursor, u, acc.strand, acc.pos)
        });
    }

    /// Feeds a run of the access stream, in trace order, through the
    /// partition, skipping accesses outside its range unless `whole` says
    /// the range covers every one of them. A fresh query cursor serves the
    /// run: the index may have grown since the last run, and a cursor only
    /// memoizes answers of the index it was made for.
    fn feed(&mut self, index: &ReachIndex, accesses: &[GranuleAccess], whole: bool) {
        let mut cursor = index.cursor();
        if whole {
            for acc in accesses {
                self.apply(index, &mut cursor, acc);
            }
        } else {
            let range = self.range.clone();
            for acc in accesses.iter().filter(|acc| range.contains(&acc.granule)) {
                self.apply(index, &mut cursor, acc);
            }
        }
    }

    /// Access-history counters accumulated so far (the partition's share of
    /// the sequential detector's [`DetectorStats`]).
    pub fn stats(&self) -> DetectorStats {
        self.shadow.history.stats()
    }

    /// The partition's result so far (range, witnesses, observation count,
    /// access-history counters), leaving its shadow state in place.
    fn outcome(&self) -> PartitionOutcome {
        PartitionOutcome::from_findings(self.range.clone(), self.shadow.findings())
    }

    /// Extracts the partition's result (range, witnesses, observation
    /// count, access-history counters) — the unit a persistent detection
    /// store caches and merges.
    pub fn into_outcome(self) -> PartitionOutcome {
        PartitionOutcome::from_findings(self.range, self.shadow.into_findings())
    }
}

/// One partition's detection result: its granule range, the first-witness
/// race per racy granule (tagged with the trace position that exposed it)
/// and the total racing pairs observed.
///
/// Outcomes are the exchange format between the engine and
/// `futurerd-store`: a stored outcome for a granule range stays valid as
/// long as no appended event touches a granule in that range, so incremental
/// re-detection merges cached outcomes with freshly recomputed ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// The granule range the partition owned (half-open).
    pub range: Range<u64>,
    /// First witness race per racy granule, with the trace position of the
    /// access that exposed it.
    pub witnesses: Vec<(u32, Race)>,
    /// Every racing pair observed, including repeats per granule.
    pub observations: u64,
    /// The partition's access-history counters. `read_checks +
    /// write_checks` is the number of granule accesses this partition
    /// processed — the load figure incremental re-balancing steers by.
    pub stats: DetectorStats,
}

impl PartitionOutcome {
    fn from_findings(range: Range<u64>, found: Findings) -> Self {
        Self {
            range,
            witnesses: found.witnesses,
            observations: found.observations,
            stats: found.stats,
        }
    }
}

/// Runs detection over one granule range of the access stream against a
/// frozen index, sequentially, and returns the partition's outcome.
/// `accesses` is the **full** stream; accesses outside `range` are skipped.
///
/// The reference for the engine's tasks: every outcome pass 2 produces —
/// cold, resumed or rebuilt, at any thread count — equals this function on
/// the outcome's range over the stream the outcome covers.
pub fn run_partition(
    index: &ReachIndex,
    range: Range<u64>,
    accesses: &[GranuleAccess],
) -> PartitionOutcome {
    let mut partition = ShadowPartition::new(range);
    partition.feed(index, accesses, false);
    partition.into_outcome()
}

/// Splits the granule space into at most `parts` contiguous ranges of
/// roughly equal access counts (balanced sharding: partition boundaries
/// follow the access histogram, not the raw address span).
///
/// A boundary closes after the first granule at which the accesses not yet
/// assigned reach `ceil(len / parts)`; a granule is never split, so a hot
/// granule can leave fewer than `parts` ranges. One pass finds the lowest
/// and highest granule; for `parts > 1` a second, counting pass builds a
/// per-granule histogram in lazily allocated 4096-granule pages, and a walk
/// of the touched granules in ascending order picks the boundaries. The
/// stream is neither sorted nor copied.
///
/// The histogram's memory follows the touched pages, never the granule
/// span: pages are found through a directory of `span / 4096` slots when
/// that is no longer than the stream, and through a hash map of touched
/// pages otherwise. A stream too thin to fill its pages (touched pages
/// would outweigh the stream itself) is counted with one counter per
/// touched granule instead, so the histogram stays within a small multiple
/// of the stream's own size on every input.
pub fn partition_ranges(accesses: &[GranuleAccess], parts: usize) -> Vec<Range<u64>> {
    let parts = parts.max(1);
    let Some((lo, max)) = granule_bounds(accesses) else {
        return Vec::new();
    };
    let hi = max + 1;
    if parts == 1 {
        // No split point needed: one range covering the touched space.
        return std::iter::once(lo..hi).collect();
    }
    let histogram = GranuleHistogram::count(accesses, lo, max);
    let target = (accesses.len() as u64).div_ceil(parts as u64);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = lo;
    let mut seen = 0u64; // accesses at granules up to the current one
    let mut taken = 0u64; // accesses already assigned to closed ranges
    for (granule, count) in histogram.granules() {
        seen += u64::from(count);
        if seen - taken >= target {
            ranges.push(start..granule + 1);
            start = granule + 1;
            taken = seen;
            if ranges.len() + 1 == parts {
                break;
            }
        }
    }
    if start < hi {
        ranges.push(start..hi);
    }
    debug_assert!(ranges.len() <= parts);
    debug_assert_eq!(ranges.first().map(|r| r.start), Some(lo));
    debug_assert_eq!(ranges.last().map(|r| r.end), Some(hi));
    ranges
}

/// The lowest and highest granule of the stream, if it is non-empty.
fn granule_bounds(accesses: &[GranuleAccess]) -> Option<(u64, u64)> {
    let first = accesses.first()?.granule;
    // Two independent lanes per bound: one dependent min/max chain is
    // bound by its compare latency rather than by the stream's bandwidth.
    let (mut lo, mut hi) = ([first; 2], [first; 2]);
    let mut pairs = accesses.chunks_exact(2);
    for pair in &mut pairs {
        lo[0] = lo[0].min(pair[0].granule);
        hi[0] = hi[0].max(pair[0].granule);
        lo[1] = lo[1].min(pair[1].granule);
        hi[1] = hi[1].max(pair[1].granule);
    }
    for acc in pairs.remainder() {
        lo[0] = lo[0].min(acc.granule);
        hi[0] = hi[0].max(acc.granule);
    }
    Some((lo[0].min(lo[1]), hi[0].max(hi[1])))
}

/// log2 of the granules per histogram page (the shadow memory's page size).
const HIST_PAGE_BITS: u32 = 12;
/// Pages the histogram may always allocate, however short the stream.
const HIST_MIN_PAGES: usize = 16;

/// Per-granule access counts of one stream, stored in lazily allocated
/// pages of `1 << page_bits` granules numbered from the stream's lowest
/// granule. A count cannot overflow for a stream a freezer produced: one
/// event touches a granule at most once, and traces are capped below
/// `u32::MAX` events.
struct GranuleHistogram {
    lo: u64,
    page_bits: u32,
    pages: PageTable,
}

/// Where [`GranuleHistogram`] finds its pages.
enum PageTable {
    /// One slot per page of the span (used when the span has no more pages
    /// than the stream has accesses).
    Directory(Vec<Option<Box<[u32]>>>),
    /// Only the touched pages, keyed by page number.
    Sparse(HashMap<u64, Box<[u32]>>),
}

impl GranuleHistogram {
    /// Counts every access of `accesses`, whose granules lie in `lo..=max`,
    /// in 4096-granule pages. A stream spread so thin that its touched
    /// pages would outweigh the stream itself is counted again with one
    /// counter per touched granule instead, so memory stays within a small
    /// multiple of the stream's on every input.
    fn count(accesses: &[GranuleAccess], lo: u64, max: u64) -> Self {
        let page_bytes = (1usize << HIST_PAGE_BITS) * std::mem::size_of::<u32>();
        let max_pages = (std::mem::size_of_val(accesses) / page_bytes).max(HIST_MIN_PAGES);
        Self::count_paged(accesses, lo, max, HIST_PAGE_BITS, max_pages)
            // INVARIANT: a stream touches at most one single-granule page
            // per access, so this budget is never exceeded.
            .or_else(|| Self::count_paged(accesses, lo, max, 0, accesses.len()))
            .expect("single-granule pages fit a budget of one page per access")
    }

    /// Counts `accesses` into pages of `1 << page_bits` granules, or gives
    /// up (`None`) once more than `max_pages` pages are touched.
    fn count_paged(
        accesses: &[GranuleAccess],
        lo: u64,
        max: u64,
        page_bits: u32,
        max_pages: usize,
    ) -> Option<Self> {
        let slots = 1usize << page_bits;
        let mut touched = 0usize;
        let mut new_page = || {
            touched += 1;
            (touched <= max_pages).then(|| vec![0u32; slots].into_boxed_slice())
        };
        let span_pages = ((max - lo) >> page_bits) + 1;
        let pages = if span_pages <= accesses.len() as u64 {
            let mut directory: Vec<Option<Box<[u32]>>> = vec![None; span_pages as usize];
            for acc in accesses {
                let offset = acc.granule - lo;
                let page = match &mut directory[(offset >> page_bits) as usize] {
                    Some(page) => page,
                    slot => slot.insert(new_page()?),
                };
                page[offset as usize & (slots - 1)] += 1;
            }
            PageTable::Directory(directory)
        } else {
            let mut sparse: HashMap<u64, Box<[u32]>> = HashMap::new();
            for acc in accesses {
                let offset = acc.granule - lo;
                let page = match sparse.entry(offset >> page_bits) {
                    Entry::Occupied(page) => page.into_mut(),
                    Entry::Vacant(slot) => slot.insert(new_page()?),
                };
                page[offset as usize & (slots - 1)] += 1;
            }
            PageTable::Sparse(sparse)
        };
        Some(Self {
            lo,
            page_bits,
            pages,
        })
    }

    /// The touched pages as `(page number, counts)`, in ascending order.
    fn pages(&self) -> Vec<(u64, &[u32])> {
        match &self.pages {
            PageTable::Directory(directory) => directory
                .iter()
                .enumerate()
                .filter_map(|(page, counts)| Some((page as u64, counts.as_deref()?)))
                .collect(),
            PageTable::Sparse(sparse) => {
                let mut pages: Vec<(u64, &[u32])> = sparse
                    .iter()
                    .map(|(&page, counts)| (page, &**counts))
                    .collect();
                pages.sort_unstable_by_key(|&(page, _)| page);
                pages
            }
        }
    }

    /// Every touched granule with its access count, in ascending order.
    fn granules(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pages().into_iter().flat_map(move |(page, counts)| {
            let base = self.lo + (page << self.page_bits);
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(move |(slot, &count)| (base + slot as u64, count))
        })
    }
}

/// Buckets the access stream by partition, preserving trace order within
/// each bucket. Ranges must be sorted and disjoint (as produced by
/// [`partition_ranges`]).
///
/// No engine path calls this any more: pass-2 workers read the shared
/// stream in place through [`run_partition`]. It stays for callers that
/// want the per-partition streams themselves.
pub fn bucket_accesses(
    accesses: &[GranuleAccess],
    ranges: &[Range<u64>],
) -> Vec<Vec<GranuleAccess>> {
    if ranges.len() <= 1 {
        return if ranges.is_empty() {
            Vec::new()
        } else {
            vec![accesses.to_vec()]
        };
    }
    let ends: Vec<u64> = ranges.iter().map(|r| r.end).collect();
    let mut buckets: Vec<Vec<GranuleAccess>> = ranges.iter().map(|_| Vec::new()).collect();
    for acc in accesses {
        let idx = ends.partition_point(|&end| end <= acc.granule);
        debug_assert!(ranges[idx].contains(&acc.granule));
        buckets[idx].push(*acc);
    }
    buckets
}

/// Merges per-partition results into one [`RaceReport`] byte-identical to
/// what the sequential detector produced, and sums the per-partition
/// access-history counters into one [`DetectorStats`]. Witnesses are
/// replayed into the report sorted by trace position (tie-broken by
/// granule, the order a single wide access reports its granules in), and
/// the observation total is restored afterwards.
///
/// The merge is *range-agnostic*: any set of outcomes whose ranges cover
/// every touched granule exactly once yields the same report, which is why a
/// store can mix cached outcomes (from an earlier partitioning) with freshly
/// recomputed ones.
///
/// The summed counters equal the sequential detector's on every field
/// except `shadow_pages`: pages are per-partition tables, so a page whose
/// granules straddle a partition boundary is counted once per partition
/// that touched it.
pub fn merge_outcomes_stats(
    outcomes: impl IntoIterator<Item = PartitionOutcome>,
) -> (RaceReport, DetectorStats) {
    merge_findings(outcomes.into_iter().map(|outcome| Findings {
        witnesses: outcome.witnesses,
        observations: outcome.observations,
        stats: outcome.stats,
    }))
}

/// The merge behind [`merge_outcomes_stats`], over the results of workers
/// that each owned a disjoint set of granules: witnesses sorted by trace
/// position, then granule, observation totals and counters summed.
pub(super) fn merge_findings(
    workers: impl IntoIterator<Item = Findings>,
) -> (RaceReport, DetectorStats) {
    let _span = futurerd_obs::Span::enter(futurerd_obs::names::MERGE);
    let mut total = 0u64;
    let mut stats = DetectorStats::default();
    let mut all: Vec<(u32, Race)> = Vec::new();
    for found in workers {
        total += found.observations;
        let s = &found.stats;
        stats.read_checks += s.read_checks;
        stats.write_checks += s.write_checks;
        stats.readers_recorded += s.readers_recorded;
        stats.readers_cleared += s.readers_cleared;
        stats.races_found += s.races_found;
        stats.shadow_pages += s.shadow_pages;
        all.extend(found.witnesses);
    }
    all.sort_by_key(|&(pos, race)| (pos, race.addr.granule()));
    let mut report = RaceReport::default();
    let mut recorded = 0u64;
    for (_, race) in all {
        report.record(race);
        recorded += 1;
    }
    report.add_observations(total - recorded);
    (report, stats)
}

/// Re-balancing trigger for incremental pass 2: re-partition when the most
/// loaded stored range carries more than this many times its fair share of
/// the (grown) access stream.
pub const REBALANCE_DRIFT_FACTOR: u64 = 2;

/// The result of [`incremental_outcomes`]: the merged-ready outcome set
/// plus how it was assembled.
#[derive(Debug, Clone)]
pub struct IncrementalOutcomes {
    /// One outcome per partition, in granule order (cached ones reused
    /// verbatim, touched ones recomputed).
    pub outcomes: Vec<PartitionOutcome>,
    /// Partitions recomputed because the appended suffix touched their
    /// granules (or because their range changed in a re-balance).
    pub rerun: usize,
    /// Partitions whose cached outcomes were reused verbatim.
    pub reused: usize,
    /// True if the access histogram drifted past
    /// [`REBALANCE_DRIFT_FACTOR`] and the partition ranges were recomputed
    /// from the full stream.
    pub rebalanced: bool,
}

/// Incremental pass 2 over stored outcomes: given the cached outcomes of a
/// previous detection and `fresh`, the accesses appended since (the tail of
/// `accesses`), recomputes only partitions whose granule range the suffix
/// touched and reuses the rest verbatim, re-balancing once the access
/// histogram drifts (see [`PartitionSet::advance`]).
///
/// Stored outcomes carry no shadow state, so every touched partition is
/// rebuilt from the start of the stream; a caller that reports repeatedly
/// keeps a [`PartitionSet`] instead, whose partitions resume. This is
/// [`PartitionSet::advance`] over [`PartitionSet::cached`] outcomes.
pub fn incremental_outcomes(
    index: &ReachIndex,
    accesses: &[GranuleAccess],
    fresh: &[GranuleAccess],
    stored: Vec<PartitionOutcome>,
    parts: usize,
    executor: &impl DetectExecutor,
) -> IncrementalOutcomes {
    let detected = accesses.len().saturating_sub(fresh.len());
    let mut set = PartitionSet::cached(stored, detected);
    let step = set.advance(index, accesses, parts, executor);
    IncrementalOutcomes {
        outcomes: set.into_outcomes(),
        rerun: step.rerun,
        reused: step.reused,
        rebalanced: step.rebalanced,
    }
}

/// One pass-2 partition of a growing access stream, kept between reports.
#[derive(Debug)]
enum PartitionState {
    /// Shadow state covering every access detected so far: a report that
    /// touches the range resumes it over the appended accesses alone.
    Resident(ShadowPartition),
    /// An outcome without shadow state (a sidecar's): a report that touches
    /// the range rebuilds it from the start of the stream, and it is
    /// resident from then on.
    Cached(PartitionOutcome),
}

impl PartitionState {
    fn range_mut(&mut self) -> &mut Range<u64> {
        match self {
            PartitionState::Resident(partition) => &mut partition.range,
            PartitionState::Cached(outcome) => &mut outcome.range,
        }
    }

    fn range(&self) -> Range<u64> {
        match self {
            PartitionState::Resident(partition) => partition.range(),
            PartitionState::Cached(outcome) => outcome.range.clone(),
        }
    }

    /// Granule accesses processed so far: the load re-balancing steers by.
    fn load(&self) -> u64 {
        let stats = match self {
            PartitionState::Resident(partition) => partition.stats(),
            PartitionState::Cached(outcome) => outcome.stats,
        };
        stats.read_checks + stats.write_checks
    }
}

/// The pass-2 partitions of a growing access stream, with the prefix of
/// the stream they cover: the detection state a session keeps between
/// reports, as the paper's online detector keeps its access history.
///
/// Pass 2 is a sequential scan per partition, so a partition that kept its
/// shadow state ([`ShadowPartition`]) continues over appended accesses
/// exactly as one scan of the whole stream would: resuming gives the
/// outcome [`run_partition`] gives on the grown stream, byte for byte.
#[derive(Debug, Default)]
pub struct PartitionSet {
    partitions: Vec<PartitionState>,
    /// Leading accesses of the stream that every partition covers.
    detected: usize,
}

/// How one [`PartitionSet::advance`] brought its partitions up to date.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Advance {
    /// Partitions that processed accesses, because appended accesses
    /// touched their range or a re-balance gave them a new one.
    pub rerun: usize,
    /// Of `rerun`, the partitions resumed from their shadow state over the
    /// appended accesses alone; the others were rebuilt from the start of
    /// the stream.
    pub resumed: usize,
    /// Partitions left as they were.
    pub reused: usize,
    /// True if the access histogram drifted past
    /// [`REBALANCE_DRIFT_FACTOR`] and the partition ranges were recomputed
    /// from the full stream.
    pub rebalanced: bool,
}

/// What [`PartitionSet::advance`] does with one target range.
enum Slot {
    /// Left as it is.
    Keep(PartitionState),
    /// Fed the stream from the given access on.
    Feed(ShadowPartition, usize),
}

impl PartitionSet {
    /// An empty set: the first [`advance`](PartitionSet::advance)
    /// partitions the stream and detects over all of it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Outcomes without shadow state (a sidecar's), covering the first
    /// `detected` accesses of the stream.
    pub fn cached(outcomes: Vec<PartitionOutcome>, detected: usize) -> Self {
        Self {
            partitions: outcomes.into_iter().map(PartitionState::Cached).collect(),
            detected,
        }
    }

    /// Leading accesses of the stream that the partitions cover.
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Brings every partition up to the end of `accesses`, the stream whose
    /// first [`detected`](PartitionSet::detected) accesses the set already
    /// covers, with up to `parts` partitions running on `executor`.
    ///
    /// An empty set partitions the stream ([`partition_ranges`]) and scans
    /// all of it. Otherwise the first and last ranges widen to take in
    /// granules outside the old coverage (they have no history, so a
    /// resident partition widens in place), and then per partition:
    ///
    /// * untouched by the appended accesses — kept as it is;
    /// * touched and resident — resumed over the appended accesses alone;
    /// * touched and cached — rebuilt from the start of the stream.
    ///
    /// Long append chains unbalance a partitioning that was computed for a
    /// younger stream: appends concentrated on a few granules pile work onto
    /// one partition until the P-way speedup collapses. Each call therefore
    /// checks the access histogram against the ranges — using the per-
    /// partition check counters, so no pass over the full stream is needed —
    /// and once the most loaded range exceeds [`REBALANCE_DRIFT_FACTOR`]
    /// times its fair share, re-partitions from the full stream. A
    /// partition whose exact range survives keeps its state; every new
    /// range is rebuilt from the start of the stream.
    ///
    /// A stream shorter than the covered prefix is a different stream: the
    /// set starts over on it.
    pub fn advance(
        &mut self,
        index: &ReachIndex,
        accesses: &[GranuleAccess],
        parts: usize,
        executor: &impl DetectExecutor,
    ) -> Advance {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
        let parts = parts.max(1);
        let mut old = std::mem::take(&mut self.partitions);
        let detected = std::mem::replace(&mut self.detected, accesses.len());
        if detected > accesses.len() {
            old.clear();
        }
        let mut step = Advance::default();
        let (target, fresh_counts) = if old.is_empty() {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_RANGES);
            (partition_ranges(accesses, parts), None)
        } else {
            let fresh = &accesses[detected..];
            let Some((min_new, max_new)) = granule_bounds(fresh) else {
                step.reused = old.len();
                self.partitions = old;
                return step;
            };
            let (target, fresh_counts, rebalanced) =
                retarget(&mut old, accesses, fresh, parts, (min_new, max_new));
            step.rebalanced = rebalanced;
            (target, Some(fresh_counts))
        };

        // A partition keeps its state iff its exact range is a target range.
        let mut by_range: HashMap<(u64, u64), PartitionState> = old
            .into_iter()
            .map(|p| {
                let range = p.range();
                ((range.start, range.end), p)
            })
            .collect();
        let mut slots: Vec<Slot> = target
            .iter()
            .enumerate()
            .map(|(i, range)| {
                let touched = fresh_counts.as_ref().is_none_or(|counts| counts[i] > 0);
                match by_range.remove(&(range.start, range.end)) {
                    Some(partition) if !touched => {
                        step.reused += 1;
                        Slot::Keep(partition)
                    }
                    Some(PartitionState::Resident(partition)) => {
                        step.resumed += 1;
                        Slot::Feed(partition, detected)
                    }
                    _ => Slot::Feed(ShadowPartition::new(range.clone()), 0),
                }
            })
            .collect();
        step.rerun = target.len() - step.reused;

        // One range covers every access, so its task skips the ownership
        // test. A single task runs on the calling thread.
        let whole = target.len() == 1;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .filter_map(|slot| match slot {
                Slot::Keep(_) => None,
                Slot::Feed(partition, from) => {
                    let run = &accesses[*from..];
                    Some(Box::new(move || {
                        let _task =
                            futurerd_obs::Span::enter(futurerd_obs::names::DETECT_PARTITION);
                        partition.feed(index, run, whole);
                    }) as Box<dyn FnOnce() + Send + '_>)
                }
            })
            .collect();
        if tasks.len() > 1 {
            executor.run_batch(tasks);
        } else {
            tasks.into_iter().for_each(|task| task());
        }
        self.partitions = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Keep(partition) => partition,
                Slot::Feed(partition, _) => PartitionState::Resident(partition),
            })
            .collect();
        step
    }

    /// The partitions' results in granule order, leaving the shadow state
    /// in place: what a report merges and a persistent session writes to
    /// its sidecar.
    pub fn outcomes(&self) -> Vec<PartitionOutcome> {
        self.partitions
            .iter()
            .map(|partition| match partition {
                PartitionState::Resident(p) => p.outcome(),
                PartitionState::Cached(o) => o.clone(),
            })
            .collect()
    }

    /// The partitions' results in granule order.
    pub fn into_outcomes(self) -> Vec<PartitionOutcome> {
        self.partitions
            .into_iter()
            .map(|partition| match partition {
                PartitionState::Resident(p) => p.into_outcome(),
                PartitionState::Cached(o) => o,
            })
            .collect()
    }
}

/// The target ranges of an incremental advance: the partitions' ranges,
/// the first and last widened in place to `min_new..=max_new`, or a fresh
/// partitioning of the full stream once the load has drifted. Returns the
/// targets, the appended accesses falling in each, and whether the ranges
/// changed.
fn retarget(
    partitions: &mut [PartitionState],
    accesses: &[GranuleAccess],
    fresh: &[GranuleAccess],
    parts: usize,
    (min_new, max_new): (u64, u64),
) -> (Vec<Range<u64>>, Vec<u64>, bool) {
    if let Some(first) = partitions.first_mut() {
        let range = first.range_mut();
        range.start = range.start.min(min_new);
    }
    if let Some(last) = partitions.last_mut() {
        let range = last.range_mut();
        range.end = range.end.max(max_new + 1);
    }
    let ranges: Vec<Range<u64>> = partitions.iter().map(PartitionState::range).collect();

    // Bin the appended accesses into the (widened) ranges once — the same
    // pass feeds the drift check (per-range load = the accesses the
    // partition processed, via its check counters, plus its share of the
    // appended ones) and the touched test.
    let bin = |ranges: &[Range<u64>]| -> Vec<u64> {
        let ends: Vec<u64> = ranges.iter().map(|r| r.end).collect();
        let mut counts = vec![0u64; ranges.len()];
        let last = counts.len() - 1;
        for acc in fresh {
            let idx = ends.partition_point(|&end| end <= acc.granule);
            counts[idx.min(last)] += 1;
        }
        counts
    };
    let fresh_counts = bin(&ranges);
    let loads = fresh_counts
        .iter()
        .zip(partitions.iter())
        .map(|(fresh, partition)| fresh + partition.load());
    let (total, max_load) =
        loads.fold((0u64, 0u64), |(sum, max), load| (sum + load, max.max(load)));
    let drifted = parts > 1
        && ranges.len() > 1
        && max_load * (ranges.len() as u64) > REBALANCE_DRIFT_FACTOR * total;
    if !drifted {
        return (ranges, fresh_counts, false);
    }
    let fresh_ranges = {
        let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_RANGES);
        partition_ranges(accesses, parts)
    };
    if fresh_ranges == ranges {
        return (ranges, fresh_counts, false);
    }
    let fresh_counts = bin(&fresh_ranges);
    (fresh_ranges, fresh_counts, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{detect_frozen_outcomes, IncrementalFreezer, StdExecutor};
    use crate::replay::ReplayAlgorithm;
    use futurerd_dag::events::{ForkInfo, SpawnEvent, SyncEvent};
    use futurerd_dag::trace::{Trace, TraceEvent};
    use futurerd_dag::{FunctionId, StrandId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn acc(granule: u64, pos: u32, strand: u32, is_write: bool) -> GranuleAccess {
        GranuleAccess {
            granule,
            pos,
            strand: StrandId(strand),
            is_write,
        }
    }

    /// The sort-based partitioner the counting one replaced: sort every
    /// granule, then close a range at each access-count quantile.
    fn reference_partition_ranges(accesses: &[GranuleAccess], parts: usize) -> Vec<Range<u64>> {
        let parts = parts.max(1);
        if accesses.is_empty() {
            return Vec::new();
        }
        let mut granules: Vec<u64> = accesses.iter().map(|a| a.granule).collect();
        granules.sort_unstable();
        let lo = granules[0];
        let hi = granules[granules.len() - 1] + 1;
        if parts == 1 {
            return std::iter::once(lo..hi).collect();
        }
        let target = (granules.len() as u64).div_ceil(parts as u64);
        let mut ranges = Vec::with_capacity(parts);
        let mut start = lo;
        let mut taken = 0u64;
        let mut i = 0usize;
        while i < granules.len() && ranges.len() + 1 < parts {
            let granule = granules[i];
            let mut j = i;
            while j < granules.len() && granules[j] == granule {
                j += 1;
            }
            if (j as u64 - taken) >= target {
                ranges.push(start..granule + 1);
                start = granule + 1;
                taken = j as u64;
            }
            i = j;
        }
        if start < hi {
            ranges.push(start..hi);
        }
        ranges
    }

    /// A seeded stream of `len` accesses to `base + [0, span)`; with
    /// `hot`, about half of them hit granule `base` alone.
    fn random_stream(seed: u64, len: usize, base: u64, span: u64, hot: bool) -> Vec<GranuleAccess> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|pos| {
                let granule = if hot && rng.gen_bool(0.5) {
                    base
                } else {
                    base + rng.gen_range(0..span)
                };
                acc(granule, pos as u32, 0, rng.gen_bool(0.3))
            })
            .collect()
    }

    fn assert_matches_reference(accesses: &[GranuleAccess], context: &str) {
        for parts in 1..=9 {
            assert_eq!(
                partition_ranges(accesses, parts),
                reference_partition_ranges(accesses, parts),
                "{context}, parts {parts}"
            );
        }
    }

    fn distinct_granules(accesses: &[GranuleAccess]) -> usize {
        accesses
            .iter()
            .map(|a| a.granule)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn counting_partitioner_matches_the_sort_on_dense_streams() {
        for seed in 0..48u64 {
            let len = 1 + (seed as usize * 37) % 3000;
            let span = [1, 7, 64, 4096, 5000, 100_000][seed as usize % 6];
            let base = [0, 1 << 20, (1 << 32) + 5][seed as usize % 3];
            for hot in [false, true] {
                let stream = random_stream(seed, len, base, span, hot);
                assert_matches_reference(
                    &stream,
                    &format!("seed {seed}, len {len}, span {span}, hot {hot}"),
                );
            }
        }
    }

    #[test]
    fn counting_partitioner_matches_the_sort_on_sparse_spans() {
        for seed in 0..16u64 {
            let mut stream = random_stream(seed, 800, 1 << 40, 1 << 36, seed % 2 == 0);
            stream.extend(random_stream(!seed, 800, 1 << 60, 1 << 50, false));
            assert_matches_reference(&stream, &format!("seed {seed}"));
            // The histogram holds the touched pages only: a directory over
            // this span would need 2^48 slots.
            let (lo, max) = granule_bounds(&stream).expect("non-empty");
            match GranuleHistogram::count(&stream, lo, max).pages {
                PageTable::Sparse(pages) => assert!(pages.len() <= distinct_granules(&stream)),
                PageTable::Directory(_) => panic!("seed {seed}: directory over a sparse span"),
            }
        }
    }

    #[test]
    fn histogram_directory_is_never_longer_than_the_stream() {
        for (len, span) in [(1, 1), (10, 4096 * 10), (10, 4096 * 10 + 1), (500, 1 << 30)] {
            let stream = random_stream(len as u64, len, 0, span, false);
            let (lo, max) = granule_bounds(&stream).expect("non-empty");
            if let PageTable::Directory(directory) = GranuleHistogram::count(&stream, lo, max).pages
            {
                assert!(directory.len() <= stream.len(), "len {len}, span {span}");
            }
        }
    }

    #[test]
    fn thinly_spread_streams_count_one_granule_per_page() {
        // One access per 4096-granule page: dense pages would cost 16 KiB
        // per access, so the histogram falls back to single-granule pages.
        let stream: Vec<_> = (0..2000u64)
            .map(|i| acc(7 + i * 4096 + i % 5, i as u32, 0, i % 3 == 0))
            .collect();
        assert_matches_reference(&stream, "one access per page");
        let (lo, max) = granule_bounds(&stream).expect("non-empty");
        let histogram = GranuleHistogram::count(&stream, lo, max);
        assert_eq!(histogram.page_bits, 0);
        assert_eq!(histogram.pages().len(), stream.len());
        // A dense stream keeps the 4096-granule pages.
        let dense = random_stream(3, 2000, 0, 8192, false);
        let (lo, max) = granule_bounds(&dense).expect("non-empty");
        let histogram = GranuleHistogram::count(&dense, lo, max);
        assert_eq!(histogram.page_bits, HIST_PAGE_BITS);
        assert_eq!(histogram.pages().len(), 2);
    }

    #[test]
    fn counting_partitioner_matches_the_sort_with_more_parts_than_granules() {
        for distinct in [1u64, 2, 3, 8] {
            let stream = random_stream(distinct, 200, 10, distinct, false);
            assert_eq!(distinct_granules(&stream) as u64, distinct);
            assert_matches_reference(&stream, &format!("{distinct} granules"));
            for parts in [distinct as usize + 1, 64, 1000] {
                let ranges = partition_ranges(&stream, parts);
                assert_eq!(ranges, reference_partition_ranges(&stream, parts));
                assert!(ranges.len() as u64 <= distinct);
            }
        }
    }

    /// One spawned child racing with its parent's continuation over
    /// `granules` granules: the child writes, the continuation reads and
    /// writes, both at seeded positions.
    fn racy_fork_join_trace(seed: u64, granules: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let root = FunctionId(0);
        let child = FunctionId(1);
        let fork = ForkInfo {
            pre_fork_strand: StrandId(0),
            child_first_strand: StrandId(1),
            cont_strand: StrandId(2),
        };
        let mut accesses = |t: &mut Trace, strand: u32, count: usize, writes: f64| {
            for _ in 0..count {
                let strand = StrandId(strand);
                let addr = MemAddr(rng.gen_range(0..granules) * MemAddr::GRANULARITY);
                let size = 4 * rng.gen_range(1..=4u32);
                t.push(if rng.gen_bool(writes) {
                    TraceEvent::Write { strand, addr, size }
                } else {
                    TraceEvent::Read { strand, addr, size }
                });
            }
        };
        let mut t = Trace::new();
        t.push(TraceEvent::ProgramStart {
            root,
            first: StrandId(0),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(0),
            function: root,
        });
        accesses(&mut t, 0, 50, 0.5);
        t.push(TraceEvent::Spawn(SpawnEvent {
            parent: root,
            child,
            fork_strand: StrandId(0),
            cont_strand: StrandId(2),
            child_first_strand: StrandId(1),
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(1),
            function: child,
        });
        accesses(&mut t, 1, 150, 1.0);
        t.push(TraceEvent::Return {
            function: child,
            last: StrandId(1),
        });
        t.push(TraceEvent::StrandStart {
            strand: StrandId(2),
            function: root,
        });
        accesses(&mut t, 2, 150, 0.4);
        t.push(TraceEvent::Sync(SyncEvent {
            parent: root,
            child,
            pre_join_strand: StrandId(2),
            join_strand: StrandId(3),
            child_last_strand: StrandId(1),
            fork,
        }));
        t.push(TraceEvent::StrandStart {
            strand: StrandId(3),
            function: root,
        });
        accesses(&mut t, 3, 50, 0.5);
        t.push(TraceEvent::Return {
            function: root,
            last: StrandId(3),
        });
        t.push(TraceEvent::ProgramEnd { last: StrandId(3) });
        t.validate().expect("hand-built trace is canonical");
        t
    }

    #[test]
    fn engine_outcomes_are_run_partition_over_each_range() {
        for seed in 0..4u64 {
            let trace = racy_fork_join_trace(seed, 96);
            for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
                let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable");
                freezer.extend(trace.events());
                let index = freezer.snapshot_index();
                let accesses = freezer.accesses();
                for threads in [2, 3, 8] {
                    let ranges = partition_ranges(accesses, threads);
                    assert!(ranges.len() > 1, "seed {seed}: P={threads} did not split");
                    let outcomes = detect_frozen_outcomes(&index, accesses, threads, &StdExecutor);
                    assert_eq!(outcomes.len(), ranges.len());
                    for (outcome, range) in outcomes.iter().zip(ranges) {
                        assert_eq!(
                            *outcome,
                            run_partition(&index, range.clone(), accesses),
                            "seed {seed}, {algorithm}, P={threads}, range {range:?}"
                        );
                    }
                    let found: usize = outcomes.iter().map(|o| o.witnesses.len()).sum();
                    assert!(found > 0, "seed {seed}: the trace races");
                }
            }
        }
    }

    /// Asserts every partition of `set` equals [`run_partition`] on its
    /// range over the freezer's whole stream.
    fn assert_set_matches_reference(set: &PartitionSet, freezer: &IncrementalFreezer, tag: &str) {
        let index = freezer.snapshot_index();
        let accesses = freezer.accesses();
        assert_eq!(set.detected(), accesses.len(), "{tag}");
        for outcome in set.outcomes() {
            let range = outcome.range.clone();
            assert_eq!(
                outcome,
                run_partition(&index, range.clone(), accesses),
                "{tag}: range {range:?}"
            );
        }
    }

    #[test]
    fn resumed_partitions_equal_a_scan_of_the_grown_stream() {
        for seed in 0..4u64 {
            let trace = racy_fork_join_trace(seed, 96);
            let events = trace.events();
            for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
                for threads in [1, 2, 3] {
                    let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable");
                    let mut set = PartitionSet::new();
                    let mut resumed = 0;
                    for (i, chunk) in events.chunks(events.len() / 7).enumerate() {
                        let tag = format!("seed {seed}, {algorithm}, P={threads}, chunk {i}");
                        let had_partitions = !set.outcomes().is_empty();
                        freezer.extend(chunk);
                        let step = freezer.with_index(|index, accesses| {
                            set.advance(index, accesses, threads, &StdExecutor)
                        });
                        assert_eq!(step.rerun + step.reused, set.outcomes().len(), "{tag}");
                        if had_partitions && !step.rebalanced {
                            assert_eq!(step.resumed, step.rerun, "{tag}: {step:?}");
                        }
                        if !had_partitions {
                            assert_eq!(step.resumed, 0, "{tag}");
                        }
                        resumed += step.resumed;
                        assert_set_matches_reference(&set, &freezer, &tag);
                    }
                    assert!(resumed > 0, "seed {seed}, P={threads}: nothing resumed");
                }
            }
        }
    }

    #[test]
    fn cached_partitions_rebuild_once_then_resume() {
        let trace = racy_fork_join_trace(7, 96);
        let events = trace.events();
        let (third, two_thirds) = (events.len() / 3, 2 * events.len() / 3);
        for algorithm in [ReplayAlgorithm::MultiBags, ReplayAlgorithm::MultiBagsPlus] {
            for threads in [1, 3] {
                let tag = format!("{algorithm}, P={threads}");
                let mut freezer = IncrementalFreezer::new(algorithm).expect("freezable");
                freezer.extend(&events[..third]);
                let stored = freezer.with_index(|index, accesses| {
                    detect_frozen_outcomes(index, accesses, threads, &StdExecutor)
                });
                let mut set = PartitionSet::cached(stored, freezer.accesses().len());
                freezer.extend(&events[third..two_thirds]);
                let first = freezer.with_index(|index, accesses| {
                    set.advance(index, accesses, threads, &StdExecutor)
                });
                assert!(first.rerun > 0 && first.resumed == 0, "{tag}: {first:?}");
                assert_set_matches_reference(&set, &freezer, &tag);
                freezer.extend(&events[two_thirds..]);
                let second = freezer.with_index(|index, accesses| {
                    set.advance(index, accesses, threads, &StdExecutor)
                });
                // The rebuilt partitions resume; a cached one the first
                // append missed is rebuilt when first touched.
                assert!(
                    second.resumed >= first.rerun.min(second.rerun),
                    "{tag}: {second:?}"
                );
                assert!(second.resumed > 0, "{tag}: {second:?}");
                assert_set_matches_reference(&set, &freezer, &tag);
                // With nothing appended every partition is kept.
                let idle = freezer.with_index(|index, accesses| {
                    set.advance(index, accesses, threads, &StdExecutor)
                });
                assert_eq!(
                    idle,
                    Advance {
                        reused: set.outcomes().len(),
                        ..Advance::default()
                    },
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn a_shorter_stream_starts_the_set_over() {
        let trace = racy_fork_join_trace(3, 96);
        let mut long = IncrementalFreezer::new(ReplayAlgorithm::MultiBags).expect("freezable");
        long.extend(trace.events());
        let mut set = PartitionSet::new();
        long.with_index(|index, accesses| set.advance(index, accesses, 2, &StdExecutor));
        let mut short = IncrementalFreezer::new(ReplayAlgorithm::MultiBags).expect("freezable");
        short.extend(&trace.events()[..trace.len() / 2]);
        let step =
            short.with_index(|index, accesses| set.advance(index, accesses, 2, &StdExecutor));
        assert_eq!((step.resumed, step.reused), (0, 0));
        assert_set_matches_reference(&set, &short, "shorter stream");
    }

    #[test]
    fn partitioning_balances_by_access_count() {
        // Granule 10 is hot; the split should isolate it rather than halving
        // the address span.
        let mut accesses = Vec::new();
        for pos in 0..90 {
            accesses.push(acc(10, pos, 0, false));
        }
        for (i, pos) in (90..100).enumerate() {
            accesses.push(acc(100 + i as u64, pos, 0, false));
        }
        let ranges = partition_ranges(&accesses, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], 10..11);
        assert_eq!(ranges[1], 11..110);
    }

    #[test]
    fn partitioning_covers_the_space_contiguously() {
        let accesses: Vec<_> = (0..64u64).map(|g| acc(g, g as u32, 0, false)).collect();
        for parts in [1, 2, 3, 7, 64, 100] {
            let ranges = partition_ranges(&accesses, parts);
            assert!(!ranges.is_empty() && ranges.len() <= parts);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, 64);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap at {pair:?}");
            }
        }
    }

    #[test]
    fn empty_access_stream_yields_no_partitions() {
        assert!(partition_ranges(&[], 4).is_empty());
        assert_matches_reference(&[], "empty stream");
    }

    #[test]
    fn buckets_preserve_trace_order() {
        let accesses = vec![
            acc(5, 0, 0, true),
            acc(50, 1, 0, true),
            acc(5, 2, 1, false),
            acc(50, 3, 1, false),
        ];
        let ranges = vec![0..10, 10..60];
        let buckets = bucket_accesses(&accesses, &ranges);
        assert_eq!(buckets[0].iter().map(|a| a.pos).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(buckets[1].iter().map(|a| a.pos).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn partition_tracks_first_witness_per_granule() {
        let mut p = ShadowPartition::new(0..100);
        assert!(p.owns(5) && !p.owns(100));
        // Strand 1 writes granule 5, and strand 2 reads it twice without
        // seeing the write: two racing pairs, one witness.
        let unordered = |_: StrandId| false;
        p.shadow.apply(5, &acc(5, 3, 1, true), unordered);
        p.shadow.apply(5, &acc(5, 7, 2, false), unordered);
        p.shadow.apply(5, &acc(5, 9, 2, false), unordered);
        let race = Race {
            addr: MemAddr(5 * MemAddr::GRANULARITY),
            prior_strand: StrandId(1),
            prior_kind: AccessKind::Write,
            current_strand: StrandId(2),
            current_kind: AccessKind::Read,
        };
        assert_eq!(p.observations(), 2);
        assert_eq!(p.witnesses(), [(7, race)]);
        assert_eq!(p.stats().races_found, 2);
    }

    #[test]
    fn merge_restores_observation_totals() {
        let mut a = ShadowPartition::new(0..10);
        let mut b = ShadowPartition::new(10..20);
        let race_a = Race {
            addr: MemAddr(4),
            prior_strand: StrandId(1),
            prior_kind: AccessKind::Write,
            current_strand: StrandId(2),
            current_kind: AccessKind::Read,
        };
        let race_b = Race {
            addr: MemAddr(15 * MemAddr::GRANULARITY),
            prior_strand: StrandId(3),
            prior_kind: AccessKind::Read,
            current_strand: StrandId(4),
            current_kind: AccessKind::Write,
        };
        let unordered = |_: StrandId| false;
        b.shadow.apply(15, &acc(15, 1, 3, false), unordered);
        b.shadow.apply(15, &acc(15, 2, 4, true), unordered);
        a.shadow.apply(1, &acc(1, 0, 1, true), unordered);
        a.shadow.apply(1, &acc(1, 5, 2, false), unordered);
        a.shadow.apply(1, &acc(1, 6, 2, false), unordered);
        let (report, _) = merge_outcomes_stats([a.into_outcome(), b.into_outcome()]);
        assert_eq!(report.race_count(), 2);
        assert_eq!(report.total_observations(), 3);
        // Sorted by position: the partition-b race comes first.
        assert_eq!(report.witnesses()[0], race_b);
        assert_eq!(report.witnesses()[1], race_a);
    }
}
