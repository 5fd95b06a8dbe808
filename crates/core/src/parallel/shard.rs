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
use futurerd_dag::MemAddr;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// A worker's private slice of the detection state: a contiguous granule
/// range, its own shadow-memory table, and the races found so far.
///
/// Built from the same two-level [`AccessHistory`] the sequential detector
/// uses; granule indices stay global, so pages outside the partition's range
/// are simply never allocated.
#[derive(Debug)]
pub struct ShadowPartition {
    range: Range<u64>,
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

impl ShadowPartition {
    /// Creates an empty partition owning `range` (half-open, in granules).
    pub fn new(range: Range<u64>) -> Self {
        Self {
            range,
            history: AccessHistory::new(),
            racy: HashSet::new(),
            witnesses: Vec::new(),
            observations: 0,
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
        self.history.num_pages()
    }

    /// Racing pairs observed so far (including repeats per granule).
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Witness races found so far (one per racy granule, in trace order).
    pub fn witnesses(&self) -> &[(u32, Race)] {
        &self.witnesses
    }

    fn found(&mut self, pos: u32, race: Race) {
        self.observations += 1;
        let granule = race.addr.granule();
        if self.racy.insert(granule) {
            self.witnesses.push((pos, race));
        }
    }

    /// Processes one granule-level access, mirroring the sequential
    /// detector's read/write protocol against the frozen index. Queries go
    /// through the worker's cursor; accesses must arrive in trace order.
    pub(crate) fn apply(
        &mut self,
        index: &ReachIndex,
        cursor: &mut IndexCursor,
        acc: &GranuleAccess,
    ) {
        debug_assert!(self.owns(acc.granule));
        let addr = MemAddr(acc.granule * MemAddr::GRANULARITY);
        // Collect the racing pairs first: the shadow state borrow must end
        // before the witness bookkeeping takes `&mut self` again. The order
        // (writer check, then readers in list order) matches the sequential
        // detector, so the first witness per granule is the same race.
        let mut races: Vec<Race> = Vec::new();
        // Access-history counters accumulate in locals while the shadow
        // state is borrowed, then fold into the partition's stats — the
        // same quantities the sequential detector counts, so summing them
        // across partitions reproduces its totals (minus `shadow_pages`,
        // which is per-partition table occupancy).
        let mut readers_recorded = 0u64;
        let mut readers_cleared = 0u64;
        let state = self.history.get_mut(acc.granule);
        if acc.is_write {
            if let Some(writer) = state.last_writer {
                if !index.precedes_at_cached(cursor, writer, acc.strand, acc.pos) {
                    races.push(Race {
                        addr,
                        prior_strand: writer,
                        prior_kind: AccessKind::Write,
                        current_strand: acc.strand,
                        current_kind: AccessKind::Write,
                    });
                }
            }
            for &reader in &state.readers {
                if !index.precedes_at_cached(cursor, reader, acc.strand, acc.pos) {
                    races.push(Race {
                        addr,
                        prior_strand: reader,
                        prior_kind: AccessKind::Read,
                        current_strand: acc.strand,
                        current_kind: AccessKind::Write,
                    });
                }
            }
            readers_cleared = state.readers.len() as u64;
            state.readers.clear();
            state.last_writer = Some(acc.strand);
        } else {
            if let Some(writer) = state.last_writer {
                if !index.precedes_at_cached(cursor, writer, acc.strand, acc.pos) {
                    races.push(Race {
                        addr,
                        prior_strand: writer,
                        prior_kind: AccessKind::Write,
                        current_strand: acc.strand,
                        current_kind: AccessKind::Read,
                    });
                }
            }
            // A strand appears once per write epoch, exactly as in the
            // sequential detector.
            if state.readers.last() != Some(&acc.strand) {
                state.readers.push(acc.strand);
                readers_recorded = 1;
            }
        }
        let stats = self.history.stats_mut();
        if acc.is_write {
            stats.write_checks += 1;
        } else {
            stats.read_checks += 1;
        }
        stats.readers_recorded += readers_recorded;
        stats.readers_cleared += readers_cleared;
        stats.races_found += races.len() as u64;
        for race in races {
            self.found(acc.pos, race);
        }
    }

    /// Access-history counters accumulated so far (the partition's share of
    /// the sequential detector's [`DetectorStats`]).
    pub fn stats(&self) -> DetectorStats {
        self.history.stats()
    }

    /// Extracts the partition's result (range, witnesses, observation
    /// count, access-history counters) — the unit a persistent detection
    /// store caches and merges.
    pub fn into_outcome(self) -> PartitionOutcome {
        PartitionOutcome {
            range: self.range,
            witnesses: self.witnesses,
            observations: self.observations,
            stats: self.history.stats(),
        }
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

/// Runs detection over one granule range of the access stream against a
/// frozen index, sequentially, and returns the partition's outcome.
/// `accesses` is the **full** stream; accesses outside `range` are skipped.
///
/// This is the one pass-2 kernel: every engine task — cold or incremental,
/// at any thread count — reads the shared stream in place through it.
pub fn run_partition(
    index: &ReachIndex,
    range: Range<u64>,
    accesses: &[GranuleAccess],
) -> PartitionOutcome {
    let owned = range.clone();
    detect_range(
        index,
        range,
        accesses.iter().filter(|acc| owned.contains(&acc.granule)),
    )
}

/// Runs [`run_partition`] for every range as one task each on `executor`
/// and returns the outcomes in range order.
pub(crate) fn run_partitions(
    index: &ReachIndex,
    ranges: &[Range<u64>],
    accesses: &[GranuleAccess],
    executor: &impl DetectExecutor,
) -> Vec<PartitionOutcome> {
    let mut slots: Vec<Option<PartitionOutcome>> = vec![None; ranges.len()];
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter_mut()
        .zip(ranges)
        .map(|(slot, range)| {
            Box::new(move || {
                let _task = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_PARTITION);
                *slot = Some(run_partition(index, range.clone(), accesses));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    executor.run_batch(tasks);
    slots
        .into_iter()
        .map(|slot| slot.expect("partition task ran"))
        .collect()
}

/// The body of [`run_partition`]: replays `accesses` (in trace order, all
/// inside `range`) through a fresh partition. A caller whose range covers
/// the whole stream passes it unfiltered and skips the ownership test.
pub(crate) fn detect_range<'a>(
    index: &ReachIndex,
    range: Range<u64>,
    accesses: impl IntoIterator<Item = &'a GranuleAccess>,
) -> PartitionOutcome {
    let mut partition = ShadowPartition::new(range);
    let mut cursor = index.cursor();
    for acc in accesses {
        partition.apply(index, &mut cursor, acc);
    }
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
/// what the sequential detector produced: witnesses are replayed into the
/// report sorted by trace position (tie-broken by granule, the order a
/// single wide access reports its granules in), and the observation total is
/// restored afterwards.
///
/// The merge is *range-agnostic*: any set of outcomes whose ranges cover
/// every touched granule exactly once yields the same report, which is why a
/// store can mix cached outcomes (from an earlier partitioning) with freshly
/// recomputed ones.
pub fn merge_outcomes(outcomes: impl IntoIterator<Item = PartitionOutcome>) -> RaceReport {
    merge_outcomes_stats(outcomes).0
}

/// As [`merge_outcomes`], but also sums the per-partition access-history
/// counters into one [`DetectorStats`] — what a multi-threaded detection
/// reports instead of dropping the counters.
///
/// The summed counters equal the sequential detector's on every field
/// except `shadow_pages`: pages are per-partition tables, so a page whose
/// granules straddle a partition boundary is counted once per partition
/// that touched it.
pub fn merge_outcomes_stats(
    outcomes: impl IntoIterator<Item = PartitionOutcome>,
) -> (RaceReport, DetectorStats) {
    let _span = futurerd_obs::Span::enter(futurerd_obs::names::MERGE);
    let mut total = 0u64;
    let mut stats = DetectorStats::default();
    let mut all: Vec<(u32, Race)> = Vec::new();
    for outcome in outcomes {
        total += outcome.observations;
        let s = &outcome.stats;
        stats.read_checks += s.read_checks;
        stats.write_checks += s.write_checks;
        stats.readers_recorded += s.readers_recorded;
        stats.readers_cleared += s.readers_cleared;
        stats.races_found += s.races_found;
        stats.shadow_pages += s.shadow_pages;
        all.extend(outcome.witnesses);
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

/// Incremental pass 2: given the cached outcomes of a previous detection
/// and the accesses appended since, re-runs only partitions whose granule
/// range the suffix touched and reuses the rest verbatim. Boundary ranges
/// are widened to absorb granules outside the old coverage.
///
/// Long append chains unbalance a partitioning that was computed for a
/// younger trace: appends concentrated on a few granules pile work onto one
/// partition until the P-way speedup collapses. Each call therefore checks
/// the access histogram against the stored ranges — using the per-outcome
/// check counters, so no pass over the full stream is needed — and once the
/// most loaded range exceeds [`REBALANCE_DRIFT_FACTOR`] times its fair
/// share, re-partitions from the full stream ([`partition_ranges`]) and
/// recomputes whatever the new boundaries invalidate. Cached outcomes whose
/// exact range survives a re-balance untouched are still reused: the merge
/// is range-agnostic.
///
/// Re-runs replay their range over the **full** access stream (shadow state
/// must be rebuilt from the beginning), in parallel on `executor`.
pub fn incremental_outcomes(
    index: &ReachIndex,
    accesses: &[GranuleAccess],
    fresh: &[GranuleAccess],
    stored: Vec<PartitionOutcome>,
    parts: usize,
    executor: &impl DetectExecutor,
) -> IncrementalOutcomes {
    let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT);
    if fresh.is_empty() || stored.is_empty() {
        let reused = stored.len();
        return IncrementalOutcomes {
            outcomes: stored,
            rerun: 0,
            reused,
            rebalanced: false,
        };
    }
    // Widen the boundary ranges so appended granules outside the old
    // coverage belong somewhere (widening implies the range is touched, so
    // it is recomputed below either way).
    let mut ranges: Vec<Range<u64>> = stored.iter().map(|o| o.range.clone()).collect();
    let min_new = fresh.iter().map(|a| a.granule).min().expect("non-empty");
    let max_new = fresh.iter().map(|a| a.granule).max().expect("non-empty");
    if let Some(first) = ranges.first_mut() {
        first.start = first.start.min(min_new);
    }
    if let Some(last) = ranges.last_mut() {
        last.end = last.end.max(max_new + 1);
    }

    // Bin the suffix into the (widened) stored ranges once — the same pass
    // feeds the drift check (per-range load = the accesses the cached
    // detection processed, via its check counters, plus this suffix's
    // share) and the touched test below.
    let bin = |ranges: &[Range<u64>], fresh: &[GranuleAccess]| -> Vec<u64> {
        let ends: Vec<u64> = ranges.iter().map(|r| r.end).collect();
        let mut counts = vec![0u64; ranges.len()];
        let last = counts.len() - 1;
        for acc in fresh {
            let idx = ends.partition_point(|&end| end <= acc.granule);
            counts[idx.min(last)] += 1;
        }
        counts
    };
    let mut fresh_counts = bin(&ranges, fresh);
    let total: u64 = fresh_counts
        .iter()
        .zip(&stored)
        .map(|(f, o)| f + o.stats.read_checks + o.stats.write_checks)
        .sum();
    let max_load = fresh_counts
        .iter()
        .zip(&stored)
        .map(|(f, o)| f + o.stats.read_checks + o.stats.write_checks)
        .max()
        .unwrap_or(0);
    let drifted = parts > 1
        && ranges.len() > 1
        && max_load * (ranges.len() as u64) > REBALANCE_DRIFT_FACTOR * total;

    let (target, rebalanced) = if drifted {
        let fresh_ranges = {
            let _span = futurerd_obs::Span::enter(futurerd_obs::names::DETECT_RANGES);
            partition_ranges(accesses, parts)
        };
        let rebalanced = fresh_ranges != ranges;
        if rebalanced {
            // The touched test below is per *target* range: re-bin once.
            fresh_counts = bin(&fresh_ranges, fresh);
        }
        (fresh_ranges, rebalanced)
    } else {
        (ranges, false)
    };

    // A cached outcome survives iff its exact range reappears in the target
    // partitioning and the suffix did not touch it.
    let by_range: std::collections::HashMap<(u64, u64), &PartitionOutcome> = stored
        .iter()
        .map(|o| ((o.range.start, o.range.end), o))
        .collect();
    let mut outcomes: Vec<Option<PartitionOutcome>> = target
        .iter()
        .zip(&fresh_counts)
        .map(|(r, &fresh_in_range)| {
            if fresh_in_range == 0 {
                by_range.get(&(r.start, r.end)).map(|&o| o.clone())
            } else {
                None
            }
        })
        .collect();

    let (rerun_slots, rerun_ranges): (Vec<usize>, Vec<Range<u64>>) = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| (i, target[i].clone()))
        .unzip();
    let rerun = rerun_ranges.len();
    let reused = target.len() - rerun;
    let recomputed = run_partitions(index, &rerun_ranges, accesses, executor);
    for (i, outcome) in rerun_slots.into_iter().zip(recomputed) {
        outcomes[i] = Some(outcome);
    }
    IncrementalOutcomes {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect(),
        rerun,
        reused,
        rebalanced,
    }
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
        let race = Race {
            addr: MemAddr(5 * MemAddr::GRANULARITY),
            prior_strand: StrandId(1),
            prior_kind: AccessKind::Write,
            current_strand: StrandId(2),
            current_kind: AccessKind::Read,
        };
        p.found(7, race);
        p.found(9, race);
        assert_eq!(p.observations(), 2);
        assert_eq!(p.witnesses().len(), 1);
        assert_eq!(p.witnesses()[0].0, 7);
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
        b.found(2, race_b);
        a.found(5, race_a);
        a.found(6, race_a);
        let report = merge_outcomes([a.into_outcome(), b.into_outcome()]);
        assert_eq!(report.race_count(), 2);
        assert_eq!(report.total_observations(), 3);
        // Sorted by position: the partition-b race comes first.
        assert_eq!(report.witnesses()[0], race_b);
        assert_eq!(report.witnesses()[1], race_a);
    }
}
