//! Schedule traces: path-stable action labels, Mazurkiewicz-trace
//! canonicalization (Foata normal form), and happens-before clocks.
//!
//! The explorer's raw [`crate::explore::Action`]s name committed
//! transactions by their global commit index, which is only meaningful
//! along one exploration path (swapping two independent commits swaps
//! their indices). A [`StableAction`] instead names a transaction by
//! `(session, per-session ordinal)`, which is invariant across
//! linearizations of the same trace — stable labels are what witness
//! schedules are recorded in and what canonicalization works on.

use crate::vclock::VClock;

/// An action with path-stable labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StableAction {
    /// Session `session` runs its `index`-th scripted transaction
    /// (begin…commit) at its own replica.
    Run {
        /// The session (= replica) index.
        session: usize,
        /// Ordinal of the transaction within the session.
        index: usize,
    },
    /// The `index`-th transaction of `session` is applied at replica
    /// `to`.
    Deliver {
        /// Originating session of the delivered transaction.
        session: usize,
        /// Ordinal of the transaction within its session.
        index: usize,
        /// Destination replica.
        to: usize,
    },
}

impl StableAction {
    /// Appends the action's encoding: a tag byte (0 run, 1 deliver), then
    /// its fields as LEB128 varints. The encoding is self-delimiting and
    /// injective, and its first byte is never `0xFF`.
    fn encode_into(&self, key: &mut Vec<u8>) {
        let (tag, fields) = match *self {
            StableAction::Run { session, index } => (0, [session, index, 0]),
            StableAction::Deliver { session, index, to } => (1, [session, index, to]),
        };
        key.push(tag);
        for &f in &fields[..2 + tag as usize] {
            let mut v = f;
            while v >= 0x80 {
                key.push((v as u8 & 0x7F) | 0x80);
                v >>= 7;
            }
            key.push(v as u8);
        }
    }
}

impl std::fmt::Display for StableAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StableAction::Run { session, index } => write!(f, "run s{session}#{index}"),
            StableAction::Deliver { session, index, to } => {
                write!(f, "deliver s{session}#{index} → r{to}")
            }
        }
    }
}

/// The Foata normal form of a trace under a dependence relation: the
/// sequence of maximal antichain "steps", each sorted canonically. Two
/// linearizations of the same Mazurkiewicz trace have equal keys; two
/// inequivalent traces have different keys (the normal form is a
/// complete invariant).
pub fn foata_key(
    trace: &[StableAction],
    dep: impl Fn(&StableAction, &StableAction) -> bool,
) -> Vec<u8> {
    let mut level = vec![0u32; trace.len()];
    for i in 0..trace.len() {
        let mut l = 1;
        for j in 0..i {
            // Only a predecessor at level ≥ l can raise l.
            if level[j] >= l && dep(&trace[j], &trace[i]) {
                l = level[j] + 1;
            }
        }
        level[i] = l;
    }
    // Steps in level order, each sorted canonically; every level up to
    // the highest holds some action.
    let mut steps: Vec<(u32, StableAction)> =
        level.into_iter().zip(trace.iter().copied()).collect();
    steps.sort_unstable();
    let mut key = Vec::with_capacity(trace.len() * 4);
    for (i, (l, a)) in steps.iter().enumerate() {
        a.encode_into(&mut key);
        if steps.get(i + 1).is_none_or(|(next, _)| next != l) {
            key.push(0xFF); // step separator
        }
    }
    key
}

/// Happens-before clocks of a trace: action `i`'s clock is the join of
/// the clocks of its dependent predecessors, bumped on `line(i)`. Then
/// `i` happens-before `j` (in the dependence closure) iff
/// `clock(i)[line(i)] ≤ clock(j)[line(i)]` and `i ≠ j`.
pub fn hb_clocks(
    trace: &[StableAction],
    lines: usize,
    line_of: impl Fn(&StableAction) -> usize,
    dep: impl Fn(&StableAction, &StableAction) -> bool,
) -> Vec<VClock> {
    let mut clocks: Vec<VClock> = Vec::with_capacity(trace.len());
    for i in 0..trace.len() {
        let mut c = VClock::new(lines);
        for j in 0..i {
            if dep(&trace[j], &trace[i]) {
                c.join(&clocks[j]);
            }
        }
        c.bump(line_of(&trace[i]));
        clocks.push(c);
    }
    clocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: usize, k: usize) -> StableAction {
        StableAction::Run { session: s, index: k }
    }

    #[test]
    fn foata_identifies_equivalent_linearizations() {
        // Two sessions, fully independent runs: any interleaving is the
        // same trace.
        let dep = |a: &StableAction, b: &StableAction| match (a, b) {
            (StableAction::Run { session: s1, .. }, StableAction::Run { session: s2, .. }) => {
                s1 == s2
            }
            _ => true,
        };
        let t1 = [run(0, 0), run(1, 0), run(0, 1)];
        let t2 = [run(1, 0), run(0, 0), run(0, 1)];
        assert_eq!(foata_key(&t1, dep), foata_key(&t2, dep));
        // Dependent reordering is a different trace.
        let dep_all = |_: &StableAction, _: &StableAction| true;
        let t3 = [run(0, 0), run(1, 0)];
        let t4 = [run(1, 0), run(0, 0)];
        assert_ne!(foata_key(&t3, dep_all), foata_key(&t4, dep_all));
    }

    #[test]
    fn foata_keys_stay_distinct_across_varint_widths() {
        // Fields of 127, 128 and 16 384 take one, two and three bytes.
        let dep_all = |_: &StableAction, _: &StableAction| true;
        let dep_none = |_: &StableAction, _: &StableAction| false;
        let deliver = |s, k, to| StableAction::Deliver { session: s, index: k, to };
        let traces: Vec<Vec<StableAction>> = vec![
            vec![run(0, 127)],
            vec![run(0, 128)],
            vec![run(1, 0)],
            vec![run(0, 16_384)],
            vec![run(127, 1)],
            vec![run(0, 1), run(0, 0)],
            vec![deliver(0, 128, 1)],
            vec![deliver(0, 0, 128)],
            vec![deliver(128, 0, 0)],
        ];
        let mut keys = std::collections::HashSet::new();
        for t in &traces {
            assert!(keys.insert(foata_key(t, dep_all)), "{t:?}");
        }
        // One step of two actions is not two steps of one.
        let t = [run(0, 0), run(1, 0)];
        assert_ne!(foata_key(&t, dep_all), foata_key(&t, dep_none));
        assert_eq!(foata_key(&t, dep_none), foata_key(&[run(1, 0), run(0, 0)], dep_none));
    }

    #[test]
    fn hb_clocks_track_dependence() {
        let dep = |a: &StableAction, b: &StableAction| match (a, b) {
            (StableAction::Run { session: s1, .. }, StableAction::Run { session: s2, .. }) => {
                s1 == s2
            }
            _ => true,
        };
        let line = |a: &StableAction| match a {
            StableAction::Run { session, .. } => *session,
            StableAction::Deliver { to, .. } => *to,
        };
        let t = [run(0, 0), run(1, 0), run(0, 1)];
        let clocks = hb_clocks(&t, 2, line, dep);
        // run(0,0) happens-before run(0,1); run(1,0) is concurrent with both.
        assert!(clocks[0].leq(&clocks[2]));
        assert!(clocks[1].concurrent(&clocks[0]));
        assert!(clocks[1].concurrent(&clocks[2]));
    }
}
