//! Schedules: visibility and arbitration orders over a history, with the
//! well-formedness conditions (S1)–(S3) of Section 3.

use std::fmt;

use crate::event::EventId;
use crate::history::History;
use crate::semantics::StoreState;

/// A binary relation over the events of a history, stored as a bit matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// Creates the empty relation over `n` events.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64).max(1);
        Relation { n, words_per_row, bits: vec![0; words_per_row * n] }
    }

    /// Number of events the relation ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the relation ranges over no events.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Relates `a` to `b`.
    pub fn insert(&mut self, a: EventId, b: EventId) {
        let (i, j) = (a.index(), b.index());
        self.bits[i * self.words_per_row + j / 64] |= 1 << (j % 64);
    }

    /// Whether `a` is related to `b`.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        let (i, j) = (a.index(), b.index());
        self.bits[i * self.words_per_row + j / 64] & (1 << (j % 64)) != 0
    }

    /// All `b` with `a R b`, in ascending order.
    pub fn successors(&self, a: EventId) -> impl Iterator<Item = EventId> + '_ {
        let row = &self.bits[a.index() * self.words_per_row..][..self.words_per_row];
        row.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(EventId((w * 64 + b) as u32))
            })
        })
    }

    /// Relates `a` to every event whose index lies in `range`.
    pub fn insert_range(&mut self, a: EventId, range: std::ops::Range<usize>) {
        let row = &mut self.bits[a.index() * self.words_per_row..][..self.words_per_row];
        let (mut i, end) = (range.start, range.end);
        while i < end {
            let (w, b) = (i / 64, i % 64);
            let take = (64 - b).min(end - i);
            row[w] |= if take == 64 { !0 } else { ((1u64 << take) - 1) << b };
            i += take;
        }
    }

    /// All `a` with `a R b` (column scan).
    pub fn predecessors(&self, b: EventId) -> impl Iterator<Item = EventId> + '_ {
        (0..self.n)
            .map(|i| EventId(i as u32))
            .filter(move |&a| self.contains(a, b))
    }

    /// Computes the transitive closure in place (Floyd–Warshall on bit rows).
    pub fn close_transitively(&mut self) {
        for k in 0..self.n {
            for i in 0..self.n {
                if self.bits[i * self.words_per_row + k / 64] & (1 << (k % 64)) != 0 {
                    let (head, tail) = self.bits.split_at_mut(i.max(k) * self.words_per_row);
                    let (row_i, row_k) = if i < k {
                        (&mut head[i * self.words_per_row..][..self.words_per_row],
                         &tail[..self.words_per_row])
                    } else if i > k {
                        (&mut tail[..self.words_per_row],
                         &head[k * self.words_per_row..][..self.words_per_row])
                    } else {
                        continue;
                    };
                    for w in 0..row_i.len() {
                        row_i[w] |= row_k[w];
                    }
                }
            }
        }
    }

    /// Whether the relation is transitive.
    pub fn is_transitive(&self) -> bool {
        let mut closed = self.clone();
        closed.close_transitively();
        closed == *self
    }

    /// Union with another relation (same size).
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }
}

/// Violations of the schedule well-formedness conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The arbitration order is not a permutation of the history's events.
    ArNotTotal,
    /// Visibility relates a pair not related by arbitration (`vı ⊄ ar`).
    VisNotInAr(EventId, EventId),
    /// (S1): some event's visible prefix is illegal.
    Illegal {
        /// The event whose outcome is inconsistent.
        event: EventId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// (S2): session order is not contained in visibility.
    SoNotInVis(EventId, EventId),
    /// (S2): visibility is not transitively closed.
    VisNotTransitive(EventId, EventId, EventId),
    /// (S3): atomic visibility violated between two transactions.
    NotAtomic(EventId, EventId, EventId, EventId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::ArNotTotal => write!(f, "arbitration order is not total"),
            ScheduleError::VisNotInAr(a, b) => write!(f, "visibility {a}→{b} not in arbitration"),
            ScheduleError::Illegal { event, detail } => write!(f, "event {event} illegal: {detail}"),
            ScheduleError::SoNotInVis(a, b) => write!(f, "session order {a}→{b} not visible"),
            ScheduleError::VisNotTransitive(a, b, c) => {
                write!(f, "visibility not transitive: {a}→{b}→{c}")
            }
            ScheduleError::NotAtomic(e, e2, g, g2) => {
                write!(f, "atomic visibility violated: {e}→{e2} but not {g}→{g2}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A schedule `S = (vı, ar)` for a history: a strict total arbitration
/// order and a visibility relation contained in it.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Events in arbitration order.
    ar_order: Vec<EventId>,
    /// Rank of each event in `ar_order`.
    rank: Vec<usize>,
    /// The visibility relation.
    vis: Relation,
}

impl Schedule {
    /// Creates a schedule from an arbitration order (a permutation of the
    /// history's events) and a visibility relation.
    ///
    /// Only the basic shape is checked here (`ar` total, `vı ⊆ ar`); use
    /// [`Schedule::check`] / [`Schedule::check_pre`] for (S1)–(S3).
    pub fn new(
        history: &History,
        ar_order: Vec<EventId>,
        vis: Relation,
    ) -> Result<Self, ScheduleError> {
        let n = history.len();
        if ar_order.len() != n {
            return Err(ScheduleError::ArNotTotal);
        }
        let mut rank = vec![usize::MAX; n];
        for (r, &e) in ar_order.iter().enumerate() {
            if rank[e.index()] != usize::MAX {
                return Err(ScheduleError::ArNotTotal);
            }
            rank[e.index()] = r;
        }
        let sched = Schedule { ar_order, rank, vis };
        for a in (0..n).map(|i| EventId(i as u32)) {
            for b in sched.vis.successors(a) {
                if !sched.ar(a, b) {
                    return Err(ScheduleError::VisNotInAr(a, b));
                }
            }
        }
        Ok(sched)
    }

    /// The *serial* schedule induced by executing whole transactions in the
    /// given order (`vı = ar`).
    ///
    /// # Panics
    ///
    /// Panics if `tx_order` is not a permutation of the history's
    /// transactions.
    pub fn serial(history: &History, tx_order: &[crate::history::TxId]) -> Self {
        assert_eq!(tx_order.len(), history.transactions().count());
        let mut ar_order = Vec::with_capacity(history.len());
        for &t in tx_order {
            ar_order.extend(history.transaction(t).events.iter().copied());
        }
        let n = history.len();
        let mut rank = vec![usize::MAX; n];
        for (r, &e) in ar_order.iter().enumerate() {
            rank[e.index()] = r;
        }
        let mut vis = Relation::new(n);
        for &a in &ar_order {
            for &b in &ar_order {
                if rank[a.index()] < rank[b.index()] {
                    vis.insert(a, b);
                }
            }
        }
        Schedule { ar_order, rank, vis }
    }

    /// Low-level constructor from raw parts, without validating against a
    /// history. Used for schedule *restrictions* (Theorem 2), whose shape
    /// is preserved by construction.
    ///
    /// # Panics
    ///
    /// Panics if `ar_order` contains duplicate or out-of-range events.
    pub fn from_parts(ar_order: Vec<EventId>, vis: Relation) -> Self {
        let n = ar_order.len();
        let mut rank = vec![usize::MAX; n];
        for (r, &e) in ar_order.iter().enumerate() {
            assert!(e.index() < n, "event out of range");
            assert_eq!(rank[e.index()], usize::MAX, "duplicate event in ar order");
            rank[e.index()] = r;
        }
        Schedule { ar_order, rank, vis }
    }

    /// Whether `a ar→ b`.
    pub fn ar(&self, a: EventId, b: EventId) -> bool {
        self.rank[a.index()] < self.rank[b.index()]
    }

    /// Whether `a vı→ b`.
    pub fn vis(&self, a: EventId, b: EventId) -> bool {
        self.vis.contains(a, b)
    }

    /// The events in arbitration order.
    pub fn ar_order(&self) -> &[EventId] {
        &self.ar_order
    }

    /// The visibility relation.
    pub fn visibility(&self) -> &Relation {
        &self.vis
    }

    /// Whether the schedule is serial (`vı = ar`).
    pub fn is_serial(&self) -> bool {
        let n = self.ar_order.len();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (EventId(i as u32), EventId(j as u32));
                if self.ar(a, b) != self.vis(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks the *pre-schedule* conditions (S2) and (S3) — everything
    /// except legality. Abstract-history concretizations are only required
    /// to possess pre-schedules (Section 5).
    pub fn check_pre(&self, history: &History) -> Result<(), ScheduleError> {
        let n = history.len();
        let ids = || (0..n).map(|i| EventId(i as u32));
        // (S2a) so ⊆ vı
        for (a, b) in history.so_pairs() {
            if !self.vis(a, b) {
                return Err(ScheduleError::SoNotInVis(a, b));
            }
        }
        // (S2b) vı transitive (together with (S2a) this gives vı = (so ∪ vı)+).
        for a in ids() {
            for b in self.vis.successors(a) {
                for c in self.vis.successors(b) {
                    if !self.vis(a, c) {
                        return Err(ScheduleError::VisNotTransitive(a, b, c));
                    }
                }
            }
        }
        // (S3) atomic visibility for vı and ar.
        for s in history.transactions() {
            for t in history.transactions() {
                if s.id == t.id {
                    continue;
                }
                let (e0, f0) = (s.events[0], t.events[0]);
                let vis0 = self.vis(e0, f0);
                let ar0 = self.ar(e0, f0);
                for &e in &s.events {
                    for &f in &t.events {
                        if self.vis(e, f) != vis0 {
                            return Err(ScheduleError::NotAtomic(e0, f0, e, f));
                        }
                        if self.ar(e, f) != ar0 {
                            return Err(ScheduleError::NotAtomic(e0, f0, e, f));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the full schedule conditions (S1)–(S3).
    pub fn check(&self, history: &History) -> Result<(), ScheduleError> {
        self.check_pre(history)?;
        // (S1): for every event e, ar restricted to vı⁻¹(e) ∪ {e} is legal.
        // Since queries do not modify the store, only the *updates* of the
        // visible prefix constrain e's outcome; visible queries were already
        // checked against their own visible sets when e ranged over them.
        for e in (0..history.len()).map(|i| EventId(i as u32)) {
            let mut visible: Vec<EventId> = self
                .vis
                .predecessors(e)
                .filter(|&x| history.event(x).is_update())
                .collect();
            visible.sort_by_key(|x| self.rank[x.index()]);
            visible.push(e);
            let mut st = StoreState::new();
            for (i, &x) in visible.iter().enumerate() {
                if let Err(err) = st.step(i, history.event(x)) {
                    return Err(ScheduleError::Illegal { event: e, detail: err.to_string() });
                }
            }
        }
        Ok(())
    }
}

/// Decides serializability of a small history by enumerating transaction
/// orders (reference implementation; exponential, test-only scale).
///
/// A history is serializable iff it possesses a serial schedule: a total
/// order of its transactions, compatible with the session order, whose
/// serial execution is legal.
pub fn serializable_by_enumeration(history: &History) -> bool {
    let txs: Vec<_> = history.transactions().map(|t| t.id).collect();
    let mut perm = txs.clone();
    permute(history, &mut perm, 0)
}

fn permute(history: &History, perm: &mut Vec<crate::history::TxId>, k: usize) -> bool {
    if k == perm.len() {
        // Session order must be respected.
        let mut pos = vec![0usize; perm.len()];
        for (i, &t) in perm.iter().enumerate() {
            pos[t.index()] = i;
        }
        for s in history.transactions() {
            for t in history.transactions() {
                if s.session == t.session
                    && s.id != t.id
                    && history.session_position(s.events[0]) < history.session_position(t.events[0])
                    && pos[s.id.index()] > pos[t.id.index()]
                {
                    return false;
                }
            }
        }
        let sched = Schedule::serial(history, perm);
        return sched.check(history).is_ok();
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        if permute(history, perm, k + 1) {
            perm.swap(k, i);
            return true;
        }
        perm.swap(k, i);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::op::Operation;
    use crate::value::Value;

    /// The non-serializable execution of Figure 1c1:
    /// session 0: put("A",1); get("B"):0   session 1: put("B",2); get("A"):0
    fn figure1c1() -> History {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s0);
        b.push(t1, Operation::map_get("M", Value::str("B"), Value::Unit));
        let t2 = b.begin(s1);
        b.push(t2, Operation::map_put("M", Value::str("B"), Value::int(2)));
        let t3 = b.begin(s1);
        b.push(t3, Operation::map_get("M", Value::str("A"), Value::Unit));
        b.finish()
    }

    /// The serializable execution of Figure 1c4:
    /// session 0: put("A",1); get("A"):1   session 1: put("B",2); get("B"):2
    fn figure1c4() -> History {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s0);
        b.push(t1, Operation::map_get("M", Value::str("A"), Value::int(1)));
        let t2 = b.begin(s1);
        b.push(t2, Operation::map_put("M", Value::str("B"), Value::int(2)));
        let t3 = b.begin(s1);
        b.push(t3, Operation::map_get("M", Value::str("B"), Value::int(2)));
        b.finish()
    }

    #[test]
    fn figure1c1_is_not_serializable() {
        assert!(!serializable_by_enumeration(&figure1c1()));
    }

    #[test]
    fn figure1c4_is_serializable() {
        assert!(serializable_by_enumeration(&figure1c4()));
    }

    #[test]
    fn figure1c1_has_a_causal_schedule() {
        // Each session sees only its own events: a valid causally-consistent
        // schedule that is not serial.
        let h = figure1c1();
        let ids: Vec<_> = (0..4).map(EventId).collect();
        let mut vis = Relation::new(4);
        vis.insert(ids[0], ids[1]);
        vis.insert(ids[2], ids[3]);
        let sched = Schedule::new(&h, vec![ids[0], ids[2], ids[1], ids[3]], vis).unwrap();
        sched.check(&h).unwrap();
        assert!(!sched.is_serial());
    }

    #[test]
    fn serial_schedule_satisfies_all_conditions() {
        let h = figure1c4();
        let order: Vec<_> = h.transactions().map(|t| t.id).collect();
        let sched = Schedule::serial(&h, &order);
        sched.check(&h).unwrap();
        assert!(sched.is_serial());
    }

    #[test]
    fn s1_catches_wrong_return_value() {
        let h = figure1c1();
        // Make everything visible to everything later: then get("A") must
        // return 1, not 0.
        let ids: Vec<_> = (0..4).map(EventId).collect();
        let order = vec![ids[0], ids[1], ids[2], ids[3]];
        let mut vis = Relation::new(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                vis.insert(ids[i], ids[j]);
            }
        }
        let sched = Schedule::new(&h, order, vis).unwrap();
        let err = sched.check(&h).unwrap_err();
        assert!(matches!(err, ScheduleError::Illegal { .. }));
    }

    #[test]
    fn s2_requires_session_visibility() {
        let h = figure1c1();
        let ids: Vec<_> = (0..4).map(EventId).collect();
        let vis = Relation::new(4); // nothing visible at all
        let sched = Schedule::new(&h, vec![ids[0], ids[1], ids[2], ids[3]], vis).unwrap();
        let err = sched.check(&h).unwrap_err();
        assert!(matches!(err, ScheduleError::SoNotInVis(_, _)));
    }

    #[test]
    fn s3_catches_torn_transactions() {
        // One transaction with two events, a second transaction seeing only
        // one of them.
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        b.push(t0, Operation::map_put("M", Value::str("B"), Value::int(1)));
        let t1 = b.begin(s1);
        b.push(t1, Operation::map_get("M", Value::str("A"), Value::int(1)));
        let h = b.finish();
        let ids: Vec<_> = (0..3).map(EventId).collect();
        let mut vis = Relation::new(3);
        vis.insert(ids[0], ids[1]);
        vis.insert(ids[0], ids[2]); // sees first write...
        // ...but not the second: torn.
        let sched = Schedule::new(&h, vec![ids[0], ids[1], ids[2]], vis).unwrap();
        let err = sched.check(&h).unwrap_err();
        assert!(matches!(err, ScheduleError::NotAtomic(..)));
    }

    #[test]
    fn vis_must_be_within_ar() {
        let h = figure1c4();
        let ids: Vec<_> = (0..4).map(EventId).collect();
        let mut vis = Relation::new(4);
        vis.insert(ids[3], ids[0]);
        assert!(matches!(
            Schedule::new(&h, vec![ids[0], ids[1], ids[2], ids[3]], vis),
            Err(ScheduleError::VisNotInAr(_, _))
        ));
    }

    #[test]
    fn relation_closure() {
        let mut r = Relation::new(3);
        r.insert(EventId(0), EventId(1));
        r.insert(EventId(1), EventId(2));
        assert!(!r.is_transitive());
        r.close_transitively();
        assert!(r.contains(EventId(0), EventId(2)));
        assert!(r.is_transitive());
    }

    #[test]
    fn successors_match_contains_at_word_boundaries() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 63, 64, 65, 130] {
            let mut r = Relation::new(n);
            for a in 0..n {
                // Empty, full, sparse and dense rows, and the row's last bit.
                let density = [0.0, 1.0, 0.05, 0.7][a % 4];
                for b in 0..n {
                    if rng.gen_bool(density) || (a % 4 != 0 && b == n - 1) {
                        r.insert(EventId(a as u32), EventId(b as u32));
                    }
                }
            }
            for a in (0..n).map(|i| EventId(i as u32)) {
                let by_contains: Vec<EventId> =
                    (0..n).map(|i| EventId(i as u32)).filter(|&b| r.contains(a, b)).collect();
                assert_eq!(r.successors(a).collect::<Vec<_>>(), by_contains, "n = {n}, {a}");
            }
        }
    }

    #[test]
    fn insert_range_sets_exactly_the_range() {
        for n in [1usize, 63, 64, 65, 130] {
            let ranges =
                [(0, n), (0, 0), (n / 2, n), (0, n.min(64)), (n.min(63), n), (n / 3, n / 3 + 1)];
            for (lo, hi) in ranges {
                let mut r = Relation::new(n);
                r.insert_range(EventId(0), lo..hi);
                let got: Vec<usize> = r.successors(EventId(0)).map(EventId::index).collect();
                assert_eq!(got, (lo..hi).collect::<Vec<_>>(), "n = {n}, {lo}..{hi}");
                if n > 1 {
                    assert_eq!(r.successors(EventId(1)).count(), 0);
                }
            }
        }
    }

    #[test]
    fn relation_successors_predecessors() {
        let mut r = Relation::new(70); // spans multiple words
        r.insert(EventId(0), EventId(65));
        r.insert(EventId(3), EventId(65));
        assert_eq!(r.successors(EventId(0)).collect::<Vec<_>>(), vec![EventId(65)]);
        assert_eq!(
            r.predecessors(EventId(65)).collect::<Vec<_>>(),
            vec![EventId(0), EventId(3)]
        );
    }
}
