//! Identifier newtypes shared across the futurerd crates.

use serde::{Deserialize, Serialize};

/// Identifier of a *strand*: a maximal sequence of instructions containing no
/// parallel control. Strand ids are dense and allocated by the sequential
/// depth-first eager executor at the parallel construct that creates the
/// strand. Every edge of the computation dag points from a lower id to a
/// higher id (ids are a topological order), but ids are not exactly the
/// order in which strands *begin executing*: the continuation of a
/// spawn/create is allocated at the fork, before the child's descendants,
/// even though it executes after them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct StrandId(pub u32);

impl StrandId {
    /// Returns the strand id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StrandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a *function instance* (a frame): either the root of the
/// program, a spawned child, or a future task. Dense, allocated in execution
/// order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// Returns the function id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FunctionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An abstract memory address as seen by the detector.
///
/// The instrumented memory wrappers in `futurerd-core` allocate disjoint
/// address ranges from a per-execution bump allocator, so addresses are
/// stable, unique per logical location, and independent of where the Rust
/// allocator happens to place the backing storage. The access history tracks
/// locations at [`GRANULARITY`](MemAddr::GRANULARITY)-byte granularity, as in
/// the paper's FutureRD implementation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MemAddr(pub u64);

impl MemAddr {
    /// Access-history granularity in bytes (four bytes, as in FutureRD).
    pub const GRANULARITY: u64 = 4;

    /// Returns the raw address value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the granule index of this address (address / 4).
    #[inline]
    pub fn granule(self) -> u64 {
        self.0 / Self::GRANULARITY
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> MemAddr {
        MemAddr(self.0 + bytes)
    }

    /// Iterates over the granules covered by an access of `size` bytes
    /// starting at this address. An access running past the end of the
    /// address space stops at its last granule; trace validation rejects
    /// such accesses before any detector sees them.
    pub fn granules(self, size: usize) -> impl Iterator<Item = u64> {
        let first = self.granule();
        let last = if size == 0 {
            first
        } else {
            self.0.saturating_add(size as u64 - 1) / Self::GRANULARITY
        };
        first..=last
    }
}

impl std::fmt::Display for MemAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strand_and_function_ids_are_ordered() {
        assert!(StrandId(1) < StrandId(2));
        assert!(FunctionId(0) < FunctionId(5));
        assert_eq!(StrandId(7).index(), 7);
        assert_eq!(FunctionId(7).index(), 7);
    }

    #[test]
    fn display_forms() {
        assert_eq!(StrandId(3).to_string(), "s3");
        assert_eq!(FunctionId(4).to_string(), "f4");
        assert_eq!(MemAddr(0x10).to_string(), "0x10");
    }

    #[test]
    fn granules_of_single_word_access() {
        let a = MemAddr(8);
        let g: Vec<u64> = a.granules(4).collect();
        assert_eq!(g, vec![2]);
    }

    #[test]
    fn granules_of_wide_access_cover_range() {
        let a = MemAddr(6);
        // bytes 6..14 → granules 1, 2, 3
        let g: Vec<u64> = a.granules(8).collect();
        assert_eq!(g, vec![1, 2, 3]);
    }

    #[test]
    fn granules_of_empty_access() {
        let a = MemAddr(12);
        let g: Vec<u64> = a.granules(0).collect();
        assert_eq!(g, vec![3]);
    }

    #[test]
    fn granules_of_an_access_past_the_address_space_end_stop_at_the_last() {
        let a = MemAddr(u64::MAX - 1);
        let g: Vec<u64> = a.granules(8).collect();
        assert_eq!(g, vec![u64::MAX / MemAddr::GRANULARITY]);
    }

    #[test]
    fn offset_moves_address() {
        assert_eq!(MemAddr(4).offset(12), MemAddr(16));
    }
}
