//! Transaction sets as word bitsets.
//!
//! The simulator keeps every replica's applied set and every
//! transaction's visible set as one, and the static checker tests every
//! candidate cycle's transactions against the committed violations'
//! (Section 7 subsumption). Transaction `t` is bit `t % 64` of word
//! `t / 64`, so union and subset are word-wise `a | b` and `a & !b == 0`,
//! and iteration walks each word's set bits with `trailing_zeros`.

/// A set of transaction indices. It grows as larger indices arrive;
/// words past the end read as zero, so sets of different lengths combine
/// and compare without resizing first. Iteration is ascending.
#[derive(Debug, Clone, Default)]
pub struct TxSet(Vec<u64>);

impl TxSet {
    /// Adds `tx`; returns whether it was absent.
    pub fn insert(&mut self, tx: usize) -> bool {
        let (w, bit) = (tx / 64, 1u64 << (tx % 64));
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let absent = self.0[w] & bit == 0;
        self.0[w] |= bit;
        absent
    }

    /// Whether `tx` is in the set.
    pub fn contains(&self, tx: usize) -> bool {
        self.0.get(tx / 64).is_some_and(|w| w & (1 << (tx % 64)) != 0)
    }

    /// Removes every transaction, keeping the words allocated.
    pub fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Adds every transaction of `other`.
    pub fn union_with(&mut self, other: &TxSet) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= *b;
        }
    }

    /// Whether every transaction of `self` is in `other`.
    pub fn is_subset(&self, other: &TxSet) -> bool {
        let (shared, rest) = self.0.split_at(self.0.len().min(other.0.len()));
        shared.iter().zip(&other.0).all(|(a, b)| a & !b == 0) && rest.iter().all(|&w| w == 0)
    }

    /// The transactions, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
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
}

impl FromIterator<usize> for TxSet {
    fn from_iter<I: IntoIterator<Item = usize>>(txs: I) -> Self {
        let mut set = TxSet::default();
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
            let mut set = TxSet::default();
            // The first and last bits of the first two words, as far as
            // `n` reaches.
            let want: BTreeSet<usize> = [0, 63, 64, n - 1].into_iter().filter(|&t| t < n).collect();
            for &tx in &want {
                assert!(set.insert(tx), "n = {n}, tx = {tx}");
                assert!(!set.insert(tx), "n = {n}, tx = {tx} twice");
            }
            assert_eq!(set.0.len(), n.div_ceil(64), "n = {n}");
            assert_eq!(set.iter().collect::<BTreeSet<_>>(), want, "n = {n}");
            let full: TxSet = (0..n).collect();
            assert_eq!(full.iter().count(), n);
            assert!(set.is_subset(&full));
            assert!(!full.is_subset(&set));
            // The last bit alone is not a subset of a set without it,
            // which may be a word shorter.
            let last: TxSet = [n - 1].into_iter().collect();
            assert!(!last.is_subset(&(0..n - 1).collect()));
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
            let mut a = TxSet::default();
            let mut a_ref = BTreeSet::new();
            for &x in &xs {
                assert_eq!(a.insert(x), a_ref.insert(x), "insert {x} into {a_ref:?}");
            }
            let b: TxSet = ys.iter().copied().collect();
            let b_ref: BTreeSet<usize> = ys.into_iter().collect();
            assert_eq!(a.iter().collect::<Vec<_>>(), a_ref.iter().copied().collect::<Vec<_>>());
            for t in 0..n + 64 {
                assert_eq!(a.contains(t), a_ref.contains(&t), "{t} ∈ {a_ref:?}");
            }
            assert_eq!(a.is_subset(&b), a_ref.is_subset(&b_ref), "{a_ref:?} ⊆ {b_ref:?}");
            assert_eq!(b.is_subset(&a), b_ref.is_subset(&a_ref), "{b_ref:?} ⊆ {a_ref:?}");
            // A set and its union with another: the subset relation holds.
            let mut union = a.clone();
            union.union_with(&b);
            assert_eq!(union.iter().collect::<BTreeSet<_>>(), &a_ref | &b_ref);
            assert!(a.is_subset(&union) && b.is_subset(&union));
        }
    }
}
