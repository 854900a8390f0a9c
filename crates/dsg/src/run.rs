//! The DSG of a finished simulator run, read straight off its committed
//! transactions ([`Committed`]) instead of an extracted history.
//!
//! The graph is the one [`Dsg::build`] gives for the run's
//! `CausalSim::into_history`: the same transaction numbering (session by
//! session, in session order, transactions without operations skipped),
//! the same edges in the same order, the same witnesses. Events are
//! numbered the way that history numbers them, and (D1)–(D3) are
//! evaluated with the tests the simulator's schedule is made of:
//!
//! * `e ar→ f` iff `e`'s transaction committed before `f`'s, or both are
//!   in one transaction and `e` comes first in it;
//! * `e vı→ f` iff `e`'s transaction is in the visible set of `f`'s, or
//!   both are in one transaction and `e` comes first in it.
//!
//! Between two distinct transactions both tests are constant over their
//! events, so a target transaction is tested once per source event, and it
//! is passed over once its `(from, to, label)` edge exists: the event-pair
//! loop of [`Dsg::from_triple`] would only meet that edge again.

use c4_algebra::{FarSpec, SigId};
use c4_store::sim::Committed;
use c4_store::{EventId, Operation, TxId};

use crate::graph::{Dsg, EdgeLabel, TxEdge};

/// One run's events and transactions in history order, with buffers
/// reused from one run to the next.
#[derive(Debug, Default)]
pub(crate) struct RunLayout {
    /// Commit position of each transaction, in history order.
    pub(crate) commit: Vec<u32>,
    /// First event of each transaction, then the event count.
    start: Vec<u32>,
    /// Transaction of each event.
    tx: Vec<u32>,
    /// One past each session's last transaction.
    session_end: Vec<u32>,
    /// The far absorbers of each update: `absorbers[abs_start[u]..abs_start[u + 1]]`.
    abs_start: Vec<u32>,
    absorbers: Vec<u32>,
    /// One bit per (from, to, label) of the dependency labels.
    seen: Vec<u64>,
}

impl RunLayout {
    /// Numbers `run`'s transactions and events as its history would;
    /// returns each event's operation.
    pub(crate) fn lay_out<'a>(&mut self, run: Committed<'a>) -> Vec<&'a Operation> {
        self.commit.clear();
        self.start.clear();
        self.tx.clear();
        self.session_end.clear();
        let mut ops = Vec::new();
        for s in 0..run.session_count() {
            for &c in run.session(s) {
                let tx_ops = run.ops(c);
                if tx_ops.is_empty() {
                    continue;
                }
                let t = self.commit.len() as u32;
                self.commit.push(c as u32);
                self.start.push(ops.len() as u32);
                ops.extend(tx_ops);
                self.tx.resize(ops.len(), t);
            }
            self.session_end.push(self.commit.len() as u32);
        }
        self.start.push(ops.len() as u32);
        ops
    }

    /// The DSG of the run last laid out, whose events are `ops` with
    /// signature ids `ids` in `far`'s alphabet, under the default
    /// `DepOptions` (asymmetric commutativity on).
    pub(crate) fn dsg(
        &mut self,
        run: Committed<'_>,
        ops: &[&Operation],
        far: &FarSpec,
        ids: &[Option<SigId>],
    ) -> Dsg {
        let (n, txs) = (ops.len(), self.commit.len());
        let (commit, start, tx) = (&self.commit, &self.start, &self.tx);
        let (abs_start, absorbers, seen) =
            (&mut self.abs_start, &mut self.absorbers, &mut self.seen);
        let id = |e: usize| ids[e].expect("the alphabet is the run's own");
        let events = |t: usize| start[t] as usize..start[t + 1] as usize;
        // Whether transaction t is in the visible set of transaction `of`.
        let visible =
            |t: usize, of: usize| run.visible(commit[of] as usize).contains(commit[t] as usize);
        let ar = |e: usize, f: usize| match (tx[e] as usize, tx[f] as usize) {
            (te, tf) if te == tf => e < f,
            (te, tf) => commit[te] < commit[tf],
        };
        let vis = |e: usize, f: usize| match (tx[e] as usize, tx[f] as usize) {
            (te, tf) if te == tf => e < f,
            (te, tf) => visible(te, tf),
        };
        let far_commutes =
            |u: usize, q: usize| far.far_commutes_id(id(u), id(q)).eval(ops[u], ops[q]);
        let commutes = |u: usize, v: usize| far.commute_id(id(u), id(v)).eval(ops[u], ops[v]);
        let exempt = |u: usize, q: usize| far.anti_dep_exempt_id(id(u), id(q)).eval(ops[u], ops[q]);

        // The shared escape clause of (D1)/(D2): u's effect is
        // far-absorbed on the way to q, ∃v. u ▷ v ∧ u ar→ v vı→ q. The
        // candidate absorbers v of each update u are collected once.
        abs_start.clear();
        absorbers.clear();
        for u in 0..n {
            abs_start.push(absorbers.len() as u32);
            if ops[u].is_update() {
                absorbers.extend(
                    (0..n)
                        .filter(|&v| {
                            v != u
                                && ops[v].is_update()
                                && ar(u, v)
                                && far.far_absorbs_id(id(u), id(v)).eval(ops[u], ops[v])
                        })
                        .map(|v| v as u32),
                );
            }
        }
        abs_start.push(absorbers.len() as u32);
        let absorbed = |u: usize, q: usize| {
            absorbers[abs_start[u] as usize..abs_start[u + 1] as usize]
                .iter()
                .any(|&v| vis(v as usize, q))
        };

        let mut edges = Vec::new();
        let mut lo = 0;
        for &hi in &self.session_end {
            for i in lo..hi {
                for j in i + 1..hi {
                    let (a, b) = (EventId(start[i as usize]), EventId(start[j as usize]));
                    let label = EdgeLabel::SessionOrder;
                    edges.push(TxEdge { from: TxId(i), to: TxId(j), label, witness: (a, b) });
                }
            }
            lo = hi;
        }
        seen.clear();
        seen.resize((txs * txs * 3).div_ceil(64), 0);
        // Source events in order and, per source event, ⊕, ⊖, ⊗ with
        // targets in order: the order `Dsg::from_triple` lists them in.
        // `linked(to)` is the pair test's transaction-level part, `pair(b)`
        // the rest of it.
        for a in 0..n {
            let from = tx[a] as usize;
            let mut link =
                |l: usize, linked: &dyn Fn(usize) -> bool, pair: &dyn Fn(usize) -> bool| {
                    let label = [EdgeLabel::Dep, EdgeLabel::Anti, EdgeLabel::Conflict][l];
                    for to in (0..txs).filter(|&to| to != from && linked(to)) {
                        let bit = (from * txs + to) * 3 + l;
                        if seen[bit / 64] & (1 << (bit % 64)) != 0 {
                            continue;
                        }
                        if let Some(b) = events(to).find(|&b| pair(b)) {
                            seen[bit / 64] |= 1 << (bit % 64);
                            let (f, t) = (TxId(from as u32), TxId(to as u32));
                            let witness = (EventId(a as u32), EventId(b as u32));
                            edges.push(TxEdge { from: f, to: t, label, witness });
                        }
                    }
                };
            if ops[a].is_update() {
                // (D1) a ⊕ q: q sees a, and a neither far-commutes with q
                // nor is absorbed on the way to it.
                link(0, &|to| visible(from, to), &|q| {
                    ops[q].is_query() && !far_commutes(a, q) && !absorbed(a, q)
                });
                // (D3) a ⊗ v: non-commuting updates in ar order.
                link(2, &|to| commit[from] < commit[to], &|v| {
                    ops[v].is_update() && !commutes(a, v)
                });
            } else {
                // (D2) a ⊖ u: a misses u, and u neither far-commutes with
                // a, nor is exempt, nor is absorbed on the way to a.
                link(1, &|to| !visible(to, from), &|u| {
                    ops[u].is_update() && !far_commutes(u, a) && !exempt(u, a) && !absorbed(u, a)
                });
            }
        }
        Dsg::from_edges(txs, edges)
    }
}
