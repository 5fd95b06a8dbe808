//! The access history ("shadow memory").
//!
//! Section 3 of the paper: for each memory location the detector keeps the
//! most recent writer strand (`last-writer`) and the list of reader strands
//! that have read the location since that write (`reader-list`). The reader
//! list can grow arbitrarily for programs with futures (unlike the constant
//! bound that suffices for series-parallel programs), but the writer empties
//! it, so each reader is checked against a writer at most twice and the
//! total number of reachability queries stays `O(T1)`.
//!
//! FutureRD stores the history "like a two-level direct-mapped cache" at
//! four-byte granularity; this implementation mirrors that with a two-level
//! page table indexed by the granule number: the high bits select a lazily
//! allocated page, the low bits a slot within it. Pages in the low 1 GiB of
//! traced memory are found through a directory indexed by page number,
//! pages above it through a map of the touched pages, so a high address in
//! a trace costs one page rather than a directory spanning up to it.

use crate::stats::DetectorStats;
use futurerd_dag::{MemAddr, StrandId};
use std::collections::HashMap;

/// log2 of the number of granules per shadow page.
const PAGE_BITS: u32 = 12;
/// Number of granules per shadow page (4096 granules = 16 KiB of traced
/// memory per page at 4-byte granularity).
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Pages below this number live in the dense directory: the low 1 GiB of
/// traced memory, a directory of at most 1 MiB. The runtime allocates
/// upward from a low base address, so recorded programs stay on this side
/// and pay one compare for the bound.
const DENSE_PAGES: u64 = 1 << 16;

/// The per-granule access history entry.
#[derive(Debug, Clone, Default)]
pub struct LocationState {
    /// The most recent writer, if any.
    pub last_writer: Option<StrandId>,
    /// Readers since the last write.
    pub readers: Vec<StrandId>,
}

impl LocationState {
    /// True if the location has never been accessed.
    pub fn is_untouched(&self) -> bool {
        self.last_writer.is_none() && self.readers.is_empty()
    }
}

type Page = Box<[LocationState]>;

/// A fresh page, counted in `allocated`.
#[cold]
#[inline(never)]
fn new_page(allocated: &mut u64) -> Page {
    *allocated += 1;
    vec![LocationState::default(); PAGE_SIZE].into_boxed_slice()
}

/// The shadow pages: a dense directory below `DENSE_PAGES`, a map of
/// touched pages above it.
#[derive(Debug, Default)]
struct Pages {
    dense: Vec<Option<Page>>,
    sparse: HashMap<u64, Page>,
}

impl Pages {
    fn get(&self, page: u64) -> Option<&Page> {
        if page < DENSE_PAGES {
            self.dense.get(page as usize)?.as_ref()
        } else {
            self.sparse.get(&page)
        }
    }

    /// The page, allocated (and counted in `allocated`) on first touch.
    /// Only the lookup of an allocated dense page is inline: growing the
    /// directory, allocating a page and the map are out of line.
    #[inline]
    fn get_or_alloc(&mut self, page: u64, allocated: &mut u64) -> &mut Page {
        if page >= DENSE_PAGES {
            return self.sparse_page(page, allocated);
        }
        let page = page as usize;
        if self.dense.len() <= page {
            self.grow(page);
        }
        self.dense[page].get_or_insert_with(|| new_page(allocated))
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, page: usize) {
        self.dense.resize_with(page + 1, || None);
    }

    #[cold]
    #[inline(never)]
    fn sparse_page(&mut self, page: u64, allocated: &mut u64) -> &mut Page {
        self.sparse
            .entry(page)
            .or_insert_with(|| new_page(allocated))
    }

    fn count(&self) -> usize {
        self.dense.iter().filter(|p| p.is_some()).count() + self.sparse.len()
    }
}

/// The two-level shadow-memory table.
#[derive(Debug, Default)]
pub struct AccessHistory {
    pages: Pages,
    stats: DetectorStats,
}

impl AccessHistory {
    /// Creates an empty access history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics about the table (pages allocated, readers recorded, …).
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Mutable statistics access for the detector driving this table.
    pub fn stats_mut(&mut self) -> &mut DetectorStats {
        &mut self.stats
    }

    #[inline]
    fn split(granule: u64) -> (u64, usize) {
        (
            granule >> PAGE_BITS,
            (granule & (PAGE_SIZE as u64 - 1)) as usize,
        )
    }

    /// Returns the state of a granule if it has ever been touched.
    pub fn get(&self, granule: u64) -> Option<&LocationState> {
        let (page, slot) = Self::split(granule);
        self.pages
            .get(page)
            .map(|p| &p[slot])
            .filter(|s| !s.is_untouched())
    }

    /// Returns a mutable reference to the state of a granule, allocating its
    /// page on first touch.
    pub fn get_mut(&mut self, granule: u64) -> &mut LocationState {
        let (page, slot) = Self::split(granule);
        &mut self.pages.get_or_alloc(page, &mut self.stats.shadow_pages)[slot]
    }

    /// Number of shadow pages currently allocated.
    pub fn num_pages(&self) -> usize {
        self.pages.count()
    }

    /// Approximate heap usage of the table in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.num_pages() * PAGE_SIZE * std::mem::size_of::<LocationState>()
    }

    /// Iterates over the granules covered by an access, applying `f` to each
    /// granule's state.
    pub fn for_each_granule(
        &mut self,
        addr: MemAddr,
        size: usize,
        mut f: impl FnMut(u64, &mut LocationState, &mut DetectorStats),
    ) {
        for granule in addr.granules(size) {
            let (page, slot) = Self::split(granule);
            let state = &mut self.pages.get_or_alloc(page, &mut self.stats.shadow_pages)[slot];
            f(granule, state, &mut self.stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_locations_are_invisible() {
        let mut h = AccessHistory::new();
        assert!(h.get(10).is_none());
        // get_mut allocates but the state is still "untouched" until someone
        // records an access.
        let _ = h.get_mut(10);
        assert!(h.get(10).is_none());
        assert_eq!(h.num_pages(), 1);
    }

    #[test]
    fn writers_and_readers_are_stored_per_granule() {
        let mut h = AccessHistory::new();
        h.get_mut(4).last_writer = Some(StrandId(1));
        h.get_mut(4).readers.push(StrandId(2));
        h.get_mut(5).readers.push(StrandId(3));
        assert_eq!(h.get(4).unwrap().last_writer, Some(StrandId(1)));
        assert_eq!(h.get(4).unwrap().readers, vec![StrandId(2)]);
        assert_eq!(h.get(5).unwrap().last_writer, None);
        assert!(h.get(6).is_none());
    }

    #[test]
    fn distant_granules_live_on_distinct_pages() {
        let mut h = AccessHistory::new();
        h.get_mut(0).last_writer = Some(StrandId(0));
        h.get_mut(1 << 20).last_writer = Some(StrandId(1));
        assert_eq!(h.num_pages(), 2);
        assert!(h.heap_bytes() > 0);
    }

    #[test]
    fn for_each_granule_visits_every_covered_granule() {
        let mut h = AccessHistory::new();
        let mut visited = Vec::new();
        h.for_each_granule(MemAddr(8), 12, |g, state, _| {
            visited.push(g);
            state.readers.push(StrandId(9));
        });
        assert_eq!(visited, vec![2, 3, 4]);
        for g in visited {
            assert_eq!(h.get(g).unwrap().readers, vec![StrandId(9)]);
        }
    }

    #[test]
    fn page_allocation_is_counted_once() {
        let mut h = AccessHistory::new();
        h.for_each_granule(MemAddr(0), 4, |_, s, _| s.readers.push(StrandId(0)));
        h.for_each_granule(MemAddr(4), 4, |_, s, _| s.readers.push(StrandId(0)));
        assert_eq!(h.stats().shadow_pages, 1);
        assert_eq!(h.num_pages(), 1);
    }

    #[test]
    fn high_pages_live_in_a_map_of_touched_pages() {
        // A write near the top of the address space allocates one page,
        // not a directory reaching up to it.
        let mut h = AccessHistory::new();
        let high = MemAddr(1 << 62);
        h.for_each_granule(high, 4, |_, s, _| s.last_writer = Some(StrandId(1)));
        h.get_mut(3).last_writer = Some(StrandId(2));
        assert_eq!(h.num_pages(), 2);
        assert_eq!(h.stats().shadow_pages, 2);
        assert!(
            h.pages.dense.len() <= 1,
            "the directory spans the low page only"
        );
        assert_eq!(
            h.get(high.granule()).unwrap().last_writer,
            Some(StrandId(1))
        );
        assert_eq!(h.get(3).unwrap().last_writer, Some(StrandId(2)));
        assert!(h.get(high.granule() + 1).is_none());
        // The last dense page and the first sparse page are distinct.
        let edge = DENSE_PAGES << PAGE_BITS;
        h.get_mut(edge - 1).readers.push(StrandId(3));
        h.get_mut(edge).readers.push(StrandId(4));
        assert_eq!(h.num_pages(), 4);
        assert_eq!(h.get(edge - 1).unwrap().readers, vec![StrandId(3)]);
        assert_eq!(h.get(edge).unwrap().readers, vec![StrandId(4)]);
    }
}
