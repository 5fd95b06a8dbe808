//! A growable bitset used by the reachability matrix `R` and the graph
//! oracle.
//!
//! Unlike `futurerd_dag::reachability::BitSet` (fixed capacity, sized when an
//! oracle is built from a finished dag), the detector's sets grow as the
//! execution unfolds, so this bitset extends itself on demand and treats
//! out-of-range bits as zero.

/// A dynamically growing bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynBitSet {
    /// Word `i` holds bits `64·i .. 64·i + 64`, lowest bit first; bits past
    /// the last word read as zero.
    pub words: Vec<u64>,
}

impl DynBitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn ensure(&mut self, word: usize) {
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.ensure(i / 64);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Returns bit `i` (false if beyond the current capacity).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .map(|w| (w >> (i % 64)) & 1 == 1)
            .unwrap_or(false)
    }

    /// Ors `other` into `self` (bit-parallel). Trailing and interior zero
    /// words of `other` are skipped, so the cost is proportional to the
    /// number of non-zero words.
    pub fn union_with(&mut self, other: &DynBitSet) {
        let last_nonzero = match other.words.iter().rposition(|&w| w != 0) {
            Some(i) => i,
            None => return,
        };
        self.ensure(last_nonzero);
        for (i, &w) in other.words[..=last_nonzero].iter().enumerate() {
            if w != 0 {
                self.words[i] |= w;
            }
        }
    }

    /// The one closure update of a predecessor matrix: row `to` inherits
    /// row `from` and bit `from` itself (`rows[to] |= rows[from] ∪ {from}`),
    /// in place, one word-parallel OR with no copy of either row.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either index is out of bounds.
    pub fn inherit(rows: &mut [DynBitSet], from: usize, to: usize) {
        let (src, dst) = if from < to {
            let (lo, hi) = rows.split_at_mut(to);
            (&lo[from], &mut hi[0])
        } else {
            let (lo, hi) = rows.split_at_mut(from);
            (&hi[0], &mut lo[to])
        };
        // Bit `from` first: `from` is usually the row's highest bit, so the
        // row grows once, to its final length.
        dst.set(from);
        dst.union_with(src);
    }

    /// Calls `f` with each bit that [`DynBitSet::inherit`]`(rows, from, to)`
    /// would newly set in row `to`: the bits of `rows[from] ∪ {from}` that
    /// row `to` lacks.
    pub fn for_each_gain(rows: &[DynBitSet], from: usize, to: usize, mut f: impl FnMut(usize)) {
        let (src, dst) = (&rows[from], &rows[to]);
        if !dst.get(from) {
            f(from);
        }
        for (i, &w) in src.words.iter().enumerate() {
            let mut gained = w & !dst.words.get(i).copied().unwrap_or(0);
            while gained != 0 {
                f(i * 64 + gained.trailing_zeros() as usize);
                gained &= gained - 1;
            }
        }
    }

    /// Approximate heap usage in bytes (for the memory statistics the paper
    /// discusses when the reachability matrix grows with small base cases).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut b = DynBitSet::new();
        let bits = [0usize, 1, 63, 64, 65, 127, 128, 1000];
        for i in bits {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!((0..1100).filter(|&i| b.get(i)).count(), bits.len());
    }

    #[test]
    fn out_of_range_reads_are_false() {
        let b = DynBitSet::new();
        assert!(!b.get(0));
        assert!(!b.get(10_000));
        assert_eq!(b.heap_bytes(), 0);
    }

    #[test]
    fn union_grows_the_target() {
        let mut a = DynBitSet::new();
        a.set(1);
        let mut b = DynBitSet::new();
        b.set(200);
        a.union_with(&b);
        assert!(a.get(1) && a.get(200));
        assert_eq!((0..300).filter(|&i| a.get(i)).count(), 2);
    }

    #[test]
    fn inherit_ors_the_row_and_its_index_in_both_directions() {
        let mut rows = vec![DynBitSet::new(); 4];
        rows[0].set(130);
        rows[3].set(2);
        // Forward: row 3 takes row 0 and bit 0.
        DynBitSet::inherit(&mut rows, 0, 3);
        let set = |b: &DynBitSet| (0..200).filter(|&i| b.get(i)).collect::<Vec<_>>();
        assert_eq!(set(&rows[3]), vec![0, 2, 130]);
        // Backward: row 1 takes row 3 and bit 3; row 3 is unchanged.
        DynBitSet::inherit(&mut rows, 3, 1);
        assert_eq!(set(&rows[1]), vec![0, 2, 3, 130]);
        assert_eq!(set(&rows[3]), vec![0, 2, 130]);
        assert_eq!(set(&rows[0]), vec![130]);
    }
}
