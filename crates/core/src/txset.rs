//! Transaction sets as bitsets.
//!
//! The bounded search tests every candidate cycle's transactions against
//! the committed violations' (Section 7 subsumption), and most candidates
//! end there. A [`TxSet`] keeps one bit per transaction of the history in
//! ⌈n/64⌉ words for every history size, so a subset test is a word-wise
//! `a & !b == 0`, and refilling one set per candidate allocates nothing.

/// A set of transaction indices below a fixed capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxSet {
    words: Vec<u64>,
}

impl TxSet {
    /// The empty set over transactions `0..n`.
    pub fn new(n: usize) -> Self {
        TxSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Removes every transaction, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds `tx`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is not below the capacity given to [`TxSet::new`].
    pub fn insert(&mut self, tx: usize) -> bool {
        let (w, bit) = (tx / 64, 1u64 << (tx % 64));
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Whether every transaction of `self` is in `other` (both of the
    /// same capacity).
    pub fn is_subset(&self, other: &TxSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The transactions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// The set over transactions `0..n` holding `txs`.
    pub fn of(n: usize, txs: impl IntoIterator<Item = usize>) -> Self {
        let mut set = TxSet::new(n);
        for tx in txs {
            set.insert(tx);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A xorshift stream: deterministic draws without a dependency.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[test]
    fn word_boundaries() {
        for n in [63usize, 64, 65, 128] {
            let mut set = TxSet::new(n);
            assert_eq!(set.words.len(), n.div_ceil(64), "n = {n}");
            // The first and last bits of the first two words, as far as
            // the capacity reaches.
            let want: BTreeSet<usize> = [0, 63, 64, n - 1].into_iter().filter(|&t| t < n).collect();
            for &tx in &want {
                assert!(set.insert(tx), "n = {n}, tx = {tx}");
                assert!(!set.insert(tx), "n = {n}, tx = {tx} twice");
            }
            assert_eq!(set.iter().collect::<BTreeSet<_>>(), want, "n = {n}");
            let full = TxSet::of(n, 0..n);
            assert_eq!(full.iter().count(), n);
            assert!(set.is_subset(&full));
            assert!(!full.is_subset(&set));
            // The last bit alone is not a subset of a set without it.
            let last = TxSet::of(n, [n - 1]);
            assert!(!last.is_subset(&TxSet::of(n, 0..n - 1)));
            set.clear();
            assert_eq!(set.iter().next(), None);
            assert!(set.is_subset(&last));
        }
    }

    #[test]
    fn agrees_with_btreeset_on_random_sets() {
        let mut rng = Draws(0x9e37_79b9_7f4a_7c15);
        for round in 0..500 {
            let n = 1 + round % 150;
            let mut draw = || {
                let len = rng.below(n.min(12) + 1);
                (0..len).map(|_| rng.below(n)).collect::<Vec<usize>>()
            };
            let (xs, ys) = (draw(), draw());
            let mut a = TxSet::new(n);
            let mut a_ref = BTreeSet::new();
            for &x in &xs {
                assert_eq!(a.insert(x), a_ref.insert(x), "insert {x} into {a_ref:?}");
            }
            let b = TxSet::of(n, ys.iter().copied());
            let b_ref: BTreeSet<usize> = ys.into_iter().collect();
            assert_eq!(a.iter().collect::<Vec<_>>(), a_ref.iter().copied().collect::<Vec<_>>());
            assert_eq!(a.is_subset(&b), a_ref.is_subset(&b_ref), "{a_ref:?} ⊆ {b_ref:?}");
            assert_eq!(b.is_subset(&a), b_ref.is_subset(&a_ref), "{b_ref:?} ⊆ {a_ref:?}");
            // A set and its union with another: the subset relation holds.
            let union = TxSet::of(n, a_ref.union(&b_ref).copied());
            assert!(a.is_subset(&union) && b.is_subset(&union));
        }
    }
}
