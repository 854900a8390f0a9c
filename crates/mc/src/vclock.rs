//! Version vectors (vector clocks) for happens-before tracking.
//!
//! The explorer uses one clock per committed transaction — the join of
//! the clocks of its visible set, bumped on the committing session's
//! component — and one clock per replica summarizing the applied set.
//! Because applied sets are causally closed, they are per-session
//! prefixes, so a delivery's causal-dependency check reduces to a
//! pointwise clock comparison instead of a set scan.

use std::fmt;

/// A fixed-width vector clock. Component `i` counts events of line `i`
/// in the causal past (inclusive of the owning event, where applicable).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// The zero clock over `n` lines.
    pub fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the clock has no lines.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component `i`.
    pub fn get(&self, i: usize) -> u32 {
        self.0[i]
    }

    /// Increments component `i` and returns its new value.
    pub fn bump(&mut self, i: usize) -> u32 {
        self.0[i] += 1;
        self.0[i]
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VClock) {
        join(&mut self.0, &other.0);
    }

    /// Pointwise `self ≤ other`.
    pub fn leq(&self, other: &VClock) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Neither `self ≤ other` nor `other ≤ self`.
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

/// [`VClock::join`] over raw components, for clocks stored side by side
/// in one buffer.
pub(crate) fn join(a: &mut [u32], b: &[u32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x).max(*y);
    }
}

/// `a ≤ b` pointwise with component `line` discounted by one on the
/// left: the deliverability test for a transaction whose own commit
/// occupies `line` in its (inclusive) clock `a`, against a replica's
/// applied clock `b`. Over raw components, like [`join`].
pub(crate) fn leq_discounting(a: &[u32], b: &[u32], line: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .all(|(i, (x, y))| if i == line { x.saturating_sub(1) <= *y } else { x <= y })
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_order() {
        let mut a = VClock::new(3);
        a.bump(0);
        a.bump(0);
        let mut b = VClock::new(3);
        b.bump(1);
        assert!(a.concurrent(&b));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
    }

    #[test]
    fn discounted_comparison() {
        // A transaction's inclusive clock ⟨1,0⟩ (its own commit on line 0)
        // is deliverable against an empty replica clock.
        let mut t = VClock::new(2);
        t.bump(0);
        let r = VClock::new(2);
        assert!(!t.leq(&r));
        assert!(leq_discounting(&t.0, &r.0, 0));
        // But not if it depends on a line-1 commit the replica lacks.
        t.bump(1);
        assert!(!leq_discounting(&t.0, &r.0, 0));
    }
}
