//! An executable multi-replica causally-consistent store simulator.
//!
//! The simulator produces histories together with legal schedules by
//! construction:
//!
//! * transactions execute against a single replica and observe a causally
//!   closed set of previously committed transactions (plus their own
//!   session's past — the session guarantee), giving (S2);
//! * transactions apply and replicate as indivisible batches, giving (S3);
//! * query results are computed by replaying the visible updates in
//!   arbitration order, giving (S1);
//! * arbitration is a global commit counter, so `vı ⊆ ar` holds because a
//!   transaction can only observe transactions that committed earlier.
//!
//! Delivery between replicas is asynchronous and *causal*: a transaction is
//! applied at a remote replica only once everything it observed has been
//! applied there. The driver (e.g. the dynamic analyzer) controls delivery
//! timing, which is what surfaces non-serializable behaviors.
//!
//! # Example
//!
//! ```
//! use c4_store::sim::CausalSim;
//! use c4_store::{op::OpKind, Value};
//!
//! let mut sim = CausalSim::new(2);
//! let a = sim.session(0);
//! let b = sim.session(1);
//!
//! sim.begin(a);
//! sim.update(a, "M", OpKind::MapPut, vec![Value::str("A"), Value::int(1)]);
//! sim.commit(a);
//!
//! // Replica 1 has not received the put yet:
//! sim.begin(b);
//! let v = sim.query(b, "M", OpKind::MapGet, vec![Value::str("A")]);
//! sim.commit(b);
//! assert_eq!(v, Value::Unit);
//!
//! sim.deliver_all();
//! let (history, schedule) = sim.into_history();
//! schedule.check(&history).unwrap();
//! ```

use std::sync::Arc;

use crate::event::EventId;
use crate::history::{History, HistoryBuilder, SessionId};
use crate::op::{ObjectName, OpKind, Operation};
use crate::schedule::{Relation, Schedule};
use crate::semantics::StoreState;
use crate::txset::TxSet;
use crate::value::{RowId, Value};

/// Handle to a client session of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimSession(usize);

/// Index of a replica.
pub type ReplicaId = usize;

/// A committed transaction. It never changes after commit, so forks of
/// the simulator share it behind an `Arc`.
#[derive(Debug)]
struct CommittedTx {
    /// The operations, in program order; queries carry their return value.
    ops: Vec<Operation>,
    /// Transactions visible when this one executed (causally closed).
    visible: TxSet,
}

#[derive(Debug, Clone)]
struct SessionState {
    replica: ReplicaId,
    /// Committed transactions of this session, in order.
    committed: Vec<usize>,
    /// Open transaction buffer: (ops, visible set at begin).
    open: Option<OpenTx>,
}

#[derive(Debug, Clone)]
struct OpenTx {
    ops: Vec<Operation>,
    visible: TxSet,
}

#[derive(Debug, Clone, Default)]
struct Replica {
    /// Committed transactions applied at this replica.
    applied: TxSet,
}

/// A pending remote delivery: transaction `tx` towards replica `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDelivery {
    /// The global index of the committed transaction.
    pub tx: usize,
    /// The destination replica.
    pub to: ReplicaId,
}

/// The multi-replica causal store simulator.
///
/// The simulator is `Clone`: branching explorers (the `c4-mc` stateless
/// model checker) fork the full store state at every scheduling choice.
/// A fork copies the replica and session bitsets and shares every
/// committed transaction with its parent.
#[derive(Debug, Clone)]
pub struct CausalSim {
    replicas: Vec<Replica>,
    sessions: Vec<SessionState>,
    /// Committed transactions in commit (= arbitration) order.
    committed: Vec<Arc<CommittedTx>>,
    pending: Vec<PendingDelivery>,
    next_row: u64,
}

impl CausalSim {
    /// Creates a simulator with the given number of replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replica_count` is zero.
    pub fn new(replica_count: usize) -> Self {
        assert!(replica_count > 0, "need at least one replica");
        CausalSim {
            replicas: vec![Replica::default(); replica_count],
            sessions: Vec::new(),
            committed: Vec::new(),
            pending: Vec::new(),
            next_row: 0,
        }
    }

    /// Opens a new session pinned to the given replica.
    ///
    /// # Panics
    ///
    /// Panics if the replica does not exist.
    pub fn session(&mut self, replica: ReplicaId) -> SimSession {
        assert!(replica < self.replicas.len(), "no such replica");
        self.sessions.push(SessionState { replica, committed: Vec::new(), open: None });
        SimSession(self.sessions.len() - 1)
    }

    /// Generates a fresh unique row identity.
    pub fn fresh_row(&mut self) -> RowId {
        let id = RowId(self.next_row);
        self.next_row += 1;
        id
    }

    /// Begins a transaction in the session. Its snapshot is the replica's
    /// applied set plus the session's own past, closed under causality.
    ///
    /// Every committed transaction's visible set is causally closed, so
    /// the closure of a set `B` is the union of `{t} ∪ visible(t)` over
    /// `t ∈ B`. The applied set itself need not be closed: a session that
    /// migrated commits at a replica that may lack its past.
    ///
    /// # Panics
    ///
    /// Panics if the session already has an open transaction.
    pub fn begin(&mut self, s: SimSession) {
        let sess = &self.sessions[s.0];
        assert!(sess.open.is_none(), "transaction already open");
        let mut visible = TxSet::default();
        for t in self.replicas[sess.replica].applied.iter().chain(sess.committed.iter().copied()) {
            visible.insert(t);
            visible.union_with(&self.committed[t].visible);
        }
        self.sessions[s.0].open = Some(OpenTx { ops: Vec::new(), visible });
    }

    /// Issues an update inside the session's open transaction.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open or the operation is not an update.
    pub fn update(
        &mut self,
        s: SimSession,
        object: impl Into<ObjectName>,
        kind: OpKind,
        args: Vec<Value>,
    ) {
        let op = Operation::new(object, kind, args, None);
        let open = self.sessions[s.0].open.as_mut().expect("no open transaction");
        open.ops.push(op);
    }

    /// Issues a query inside the session's open transaction and returns the
    /// value the store yields: the replay of the visible updates in
    /// arbitration order, followed by the transaction's own buffered
    /// updates (read-your-writes).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open or the operation is not a query.
    pub fn query(
        &mut self,
        s: SimSession,
        object: impl Into<ObjectName>,
        kind: OpKind,
        args: Vec<Value>,
    ) -> Value {
        let open = self.sessions[s.0].open.as_mut().expect("no open transaction");
        let mut op = Operation::new(object, kind, args, Some(Value::Unit));
        // An update changes only its own object's state, and the query
        // reads only its own object, so the other objects' updates are
        // skipped. Ascending transaction index = commit order =
        // arbitration order.
        let relevant = |u: &&Operation| u.is_update() && u.object == op.object;
        let mut st = StoreState::new();
        for t in open.visible.iter() {
            for u in self.committed[t].ops.iter().filter(relevant) {
                st.apply(u);
            }
        }
        for u in open.ops.iter().filter(relevant) {
            st.apply(u);
        }
        let ret = st.eval(&op);
        op.ret = Some(ret.clone());
        open.ops.push(op);
        ret
    }

    /// Commits the session's open transaction: it receives the next
    /// arbitration stamp, is applied at the session's replica, and is
    /// queued for delivery to all other replicas.
    ///
    /// Returns the committed transaction's global index.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit(&mut self, s: SimSession) -> usize {
        let replica = self.sessions[s.0].replica;
        let open = self.sessions[s.0].open.take().expect("no open transaction");
        let idx = self.committed.len();
        self.committed.push(Arc::new(CommittedTx { ops: open.ops, visible: open.visible }));
        self.sessions[s.0].committed.push(idx);
        self.replicas[replica].applied.insert(idx);
        for to in 0..self.replicas.len() {
            if to != replica {
                self.pending.push(PendingDelivery { tx: idx, to });
            }
        }
        idx
    }

    /// Moves a session to another replica (its causal past travels with it).
    pub fn migrate(&mut self, s: SimSession, to: ReplicaId) {
        assert!(to < self.replicas.len(), "no such replica");
        self.sessions[s.0].replica = to;
    }

    /// Whether everything `d.tx` observed is applied at `d.to`.
    fn deps_applied(&self, d: PendingDelivery) -> bool {
        self.committed[d.tx].visible.is_subset(&self.replicas[d.to].applied)
    }

    /// The deliveries currently deliverable (their causal dependencies are
    /// satisfied at the destination).
    pub fn deliverable(&self) -> Vec<PendingDelivery> {
        self.pending.iter().copied().filter(|&d| self.deps_applied(d)).collect()
    }

    /// Delivers one specific pending delivery.
    ///
    /// Returns `false` if the delivery is not pending or not yet
    /// deliverable under causal delivery.
    pub fn deliver(&mut self, d: PendingDelivery) -> bool {
        let Some(pos) = self.pending.iter().position(|&p| p == d) else {
            return false;
        };
        if !self.deps_applied(d) {
            return false;
        }
        self.pending.swap_remove(pos);
        self.replicas[d.to].applied.insert(d.tx);
        true
    }

    /// Delivers everything, in causal order.
    pub fn deliver_all(&mut self) {
        loop {
            let ds = self.deliverable();
            if ds.is_empty() {
                break;
            }
            for d in ds {
                self.deliver(d);
            }
        }
        assert!(self.pending.is_empty(), "causal delivery wedged");
    }

    /// Extracts the history and its (legal, causally-consistent) schedule.
    ///
    /// # Panics
    ///
    /// Panics if any session still has an open transaction.
    pub fn into_history(self) -> (History, Schedule) {
        for sess in &self.sessions {
            assert!(sess.open.is_none(), "open transaction at extraction");
        }
        let mut b = HistoryBuilder::new();
        let session_ids: Vec<SessionId> = self.sessions.iter().map(|_| b.session()).collect();
        // Build per session, transactions in each session's order. The
        // builder numbers events in push order, so the events of committed
        // transaction t are `start[t]..start[t] + len(t)`.
        let mut start = vec![0usize; self.committed.len()];
        for (si, sess) in self.sessions.iter().enumerate() {
            for &t in &sess.committed {
                let tx = b.begin(session_ids[si]);
                for (i, op) in self.committed[t].ops.iter().enumerate() {
                    let e = b.push(tx, op.clone());
                    if i == 0 {
                        start[t] = e.index();
                    }
                }
            }
        }
        let history = b.finish();
        let n = history.len();
        let span = |t: usize| start[t]..start[t] + self.committed[t].ops.len();
        // Arbitration: commit order over transactions, session position
        // within a transaction.
        let ar_order: Vec<EventId> = (0..self.committed.len())
            .flat_map(|t| span(t).map(|e| EventId(e as u32)))
            .collect();
        // Visibility: every event of t sees the events of t's visible
        // transactions (which include its session's past) and the earlier
        // events of t itself. Each is a run of bits in a row.
        let mut vis = Relation::new(n);
        for (t, ct) in self.committed.iter().enumerate() {
            for v in ct.visible.iter().filter(|&v| v != t) {
                for e in span(v) {
                    vis.insert_range(EventId(e as u32), span(t));
                }
            }
            for e in span(t) {
                vis.insert_range(EventId(e as u32), e + 1..span(t).end);
            }
        }
        let schedule = Schedule::new(&history, ar_order, vis).expect("simulator schedule shape");
        (history, schedule)
    }

    /// Number of committed transactions so far.
    pub fn committed_count(&self) -> usize {
        self.committed.len()
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The replica a session is currently pinned to.
    pub fn session_replica(&self, s: SimSession) -> ReplicaId {
        self.sessions[s.0].replica
    }

    /// The committed transactions, borrowed: everything
    /// [`CausalSim::into_history`] builds a history and schedule from.
    ///
    /// # Panics
    ///
    /// Panics if any session still has an open transaction.
    pub fn committed(&self) -> Committed<'_> {
        for sess in &self.sessions {
            assert!(sess.open.is_none(), "open transaction at extraction");
        }
        Committed { sim: self }
    }
}

/// A read-only view of a simulator's committed transactions and of each
/// session's order over them.
///
/// A transaction is named by its commit position, which is also its
/// arbitration position: `t` is arbitrated before `u` iff `t < u`.
/// [`CausalSim::into_history`] numbers the same transactions session by
/// session, in each session's order, skipping those without operations.
/// Delivery changes only what replicas have applied, never a committed
/// transaction, so the view of a run is final once its last transaction
/// has committed.
#[derive(Debug, Clone, Copy)]
pub struct Committed<'a> {
    sim: &'a CausalSim,
}

impl<'a> Committed<'a> {
    /// The operations of committed transaction `tx`, in program order;
    /// queries carry their return value.
    ///
    /// # Panics
    ///
    /// Panics if the transaction index is out of range.
    pub fn ops(&self, tx: usize) -> &'a [Operation] {
        &self.sim.committed[tx].ops
    }

    /// The transactions visible to `tx` when it executed: its causal
    /// past, which includes its session's earlier transactions and
    /// excludes `tx` itself.
    ///
    /// # Panics
    ///
    /// Panics if the transaction index is out of range.
    pub fn visible(&self, tx: usize) -> &'a TxSet {
        &self.sim.committed[tx].visible
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.sim.sessions.len()
    }

    /// Session `s`'s committed transactions, in session order.
    ///
    /// # Panics
    ///
    /// Panics if the session index is out of range.
    pub fn session(&self, s: usize) -> &'a [usize] {
        &self.sim.sessions[s].committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_delivery_reproduces_figure1c1() {
        let mut sim = CausalSim::new(2);
        let a = sim.session(0);
        let b = sim.session(1);
        sim.begin(a);
        sim.update(a, "M", OpKind::MapPut, vec![Value::str("A"), Value::int(1)]);
        sim.commit(a);
        sim.begin(b);
        sim.update(b, "M", OpKind::MapPut, vec![Value::str("B"), Value::int(2)]);
        sim.commit(b);
        // No delivery: each session reads the other's key and misses it.
        sim.begin(a);
        let va = sim.query(a, "M", OpKind::MapGet, vec![Value::str("B")]);
        sim.commit(a);
        sim.begin(b);
        let vb = sim.query(b, "M", OpKind::MapGet, vec![Value::str("A")]);
        sim.commit(b);
        assert_eq!(va, Value::Unit);
        assert_eq!(vb, Value::Unit);
        sim.deliver_all();
        let (h, s) = sim.into_history();
        s.check(&h).unwrap();
        assert!(!crate::schedule::serializable_by_enumeration(&h));
    }

    #[test]
    fn read_your_writes_within_transaction() {
        let mut sim = CausalSim::new(1);
        let a = sim.session(0);
        sim.begin(a);
        sim.update(a, "C", OpKind::CtrInc, vec![Value::int(5)]);
        let v = sim.query(a, "C", OpKind::CtrGet, vec![]);
        assert_eq!(v, Value::int(5));
        sim.commit(a);
        let (h, s) = sim.into_history();
        s.check(&h).unwrap();
    }

    #[test]
    fn session_reads_its_own_past_after_migration() {
        let mut sim = CausalSim::new(2);
        let a = sim.session(0);
        sim.begin(a);
        sim.update(a, "R", OpKind::RegPut, vec![Value::int(9)]);
        sim.commit(a);
        sim.migrate(a, 1);
        sim.begin(a);
        let v = sim.query(a, "R", OpKind::RegGet, vec![]);
        sim.commit(a);
        assert_eq!(v, Value::int(9));
        sim.deliver_all();
        let (h, s) = sim.into_history();
        s.check(&h).unwrap();
    }

    #[test]
    fn causal_delivery_orders_dependent_transactions() {
        let mut sim = CausalSim::new(3);
        let a = sim.session(0);
        sim.begin(a);
        sim.update(a, "R", OpKind::RegPut, vec![Value::int(1)]);
        let t0 = sim.commit(a);
        // Session b at replica 1 sees t0 after delivery and writes t1.
        for d in sim.deliverable() {
            if d.to == 1 {
                sim.deliver(d);
            }
        }
        let b = sim.session(1);
        sim.begin(b);
        let _ = sim.query(b, "R", OpKind::RegGet, vec![]);
        sim.update(b, "R", OpKind::RegPut, vec![Value::int(2)]);
        let t1 = sim.commit(b);
        // t1 depends on t0; replica 2 cannot receive t1 before t0.
        let d_t1 = PendingDelivery { tx: t1, to: 2 };
        assert!(!sim.deliver(d_t1));
        assert!(sim.deliver(PendingDelivery { tx: t0, to: 2 }));
        assert!(sim.deliver(d_t1));
        sim.deliver_all();
        let (h, s) = sim.into_history();
        s.check(&h).unwrap();
    }

    #[test]
    fn fresh_rows_are_unique() {
        let mut sim = CausalSim::new(1);
        let r1 = sim.fresh_row();
        let r2 = sim.fresh_row();
        assert_ne!(r1, r2);
    }

    /// One random run: `txns` single-operation transactions over three
    /// sessions at three replicas, each followed by a random subset of the
    /// deliverable messages.
    fn random_run(rng: &mut rand::rngs::StdRng, txns: i64) -> (History, Schedule) {
        use rand::Rng;
        let mut sim = CausalSim::new(3);
        let sessions: Vec<_> = (0..3).map(|r| sim.session(r)).collect();
        for step in 0..txns {
            let s = sessions[rng.gen_range(0..sessions.len())];
            sim.begin(s);
            if rng.gen_bool(0.6) {
                sim.update(
                    s,
                    "M",
                    OpKind::MapPut,
                    vec![Value::int(rng.gen_range(0..3)), Value::int(step)],
                );
            } else {
                let _ = sim.query(s, "M", OpKind::MapGet, vec![Value::int(rng.gen_range(0..3))]);
            }
            sim.commit(s);
            for d in sim.deliverable() {
                if rng.gen_bool(0.5) {
                    sim.deliver(d);
                }
            }
        }
        sim.deliver_all();
        sim.into_history()
    }

    #[test]
    fn schedules_from_random_runs_are_always_legal() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..25 {
            let (h, sched) = random_run(&mut rng, 20);
            sched.check(&h).unwrap();
        }
        // Long enough that visible and applied sets span three words.
        for _ in 0..2 {
            let (h, sched) = random_run(&mut rng, 140);
            assert_eq!(h.transactions().count(), 140);
            sched.check(&h).unwrap();
        }
    }

    #[test]
    fn tx_bits_agree_with_btreeset_across_word_boundaries() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(7);
        for n in [63usize, 64, 65, 128] {
            for _ in 0..50 {
                let mut sets = Vec::new();
                for _ in 0..2 {
                    let mut bits = TxSet::default();
                    let mut model = BTreeSet::new();
                    // Dense or sparse, always with the last index set.
                    let density = if rng.gen_bool(0.5) { 0.9 } else { 0.1 };
                    for t in 0..n {
                        if t == n - 1 || rng.gen_bool(density) {
                            bits.insert(t);
                            model.insert(t);
                        }
                    }
                    let listed: Vec<usize> = bits.iter().collect();
                    assert_eq!(listed, model.iter().copied().collect::<Vec<_>>());
                    for t in 0..n + 64 {
                        let single: TxSet = [t].into_iter().collect();
                        assert_eq!(single.is_subset(&bits), model.contains(&t), "n = {n}, t = {t}");
                    }
                    sets.push((bits, model));
                }
                let [(a, ma), (b, mb)] = <[_; 2]>::try_from(sets).unwrap();
                assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
                assert_eq!(b.is_subset(&a), mb.is_subset(&ma));
                let mut u = a.clone();
                u.union_with(&b);
                assert_eq!(u.iter().collect::<BTreeSet<_>>(), &ma | &mb);
                assert!(a.is_subset(&u) && b.is_subset(&u));
                // Shorter sets compare and combine with longer ones.
                let mut short = TxSet::default();
                short.insert(0);
                assert_eq!(short.is_subset(&a), ma.contains(&0));
                assert!(TxSet::default().is_subset(&short));
            }
        }
    }

    /// The simulator against a model of its transaction sets kept in
    /// `BTreeSet`s: every visible set is the causal closure of the
    /// replica's applied set and the session's past, and exactly the
    /// pending deliveries whose visible set is applied at the destination
    /// are deliverable. Sessions migrate now and then, so applied sets are
    /// not always causally closed.
    #[test]
    fn simulator_sets_agree_with_a_btreeset_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeSet;
        for n in [63usize, 64, 65, 128] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut sim = CausalSim::new(3);
            let sessions: Vec<_> = (0..3).map(|r| sim.session(r)).collect();
            let mut replica_of: [usize; 3] = [0, 1, 2];
            let mut applied: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); 3];
            let mut past: Vec<Vec<usize>> = vec![Vec::new(); 3];
            let mut visible: Vec<BTreeSet<usize>> = Vec::new();
            let mut pending: BTreeSet<(usize, usize)> = BTreeSet::new();
            for step in 0..n {
                let s: usize = rng.gen_range(0..3);
                if rng.gen_bool(0.05) {
                    replica_of[s] = rng.gen_range(0..3);
                    sim.migrate(sessions[s], replica_of[s]);
                }
                let r = replica_of[s];
                let mut vis = applied[r].clone();
                vis.extend(past[s].iter().copied());
                let mut stack: Vec<usize> = vis.iter().copied().collect();
                while let Some(t) = stack.pop() {
                    for &p in &visible[t] {
                        if vis.insert(p) {
                            stack.push(p);
                        }
                    }
                }
                sim.begin(sessions[s]);
                sim.update(sessions[s], "C", OpKind::CtrInc, vec![Value::int(step as i64)]);
                let t = sim.commit(sessions[s]);
                assert_eq!(
                    sim.committed().visible(t).iter().collect::<Vec<_>>(),
                    vis.iter().copied().collect::<Vec<_>>(),
                    "n = {n}, t = {t}"
                );
                visible.push(vis);
                applied[r].insert(t);
                past[s].push(t);
                pending.extend((0..3).filter(|&to| to != r).map(|to| (t, to)));
                let deliverable: BTreeSet<(usize, usize)> =
                    sim.deliverable().iter().map(|d| (d.tx, d.to)).collect();
                let model: BTreeSet<(usize, usize)> = pending
                    .iter()
                    .copied()
                    .filter(|&(t, to)| visible[t].is_subset(&applied[to]))
                    .collect();
                assert_eq!(deliverable, model, "n = {n}, step = {step}");
                for (t, to) in model {
                    if rng.gen_bool(0.3) {
                        assert!(sim.deliver(PendingDelivery { tx: t, to }));
                        applied[to].insert(t);
                        pending.remove(&(t, to));
                    }
                }
            }
            sim.deliver_all();
            let (h, sched) = sim.into_history();
            sched.check(&h).unwrap();
        }
    }
}
