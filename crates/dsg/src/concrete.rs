//! The concrete DSG check of a finished execution: the far relations of
//! the history's alphabet, the DSG of its schedule, and a cycle search.
//!
//! This is the check that ends every execution the model checker and the
//! randomized dynamic analysis explore. The far relations are a pure
//! function of the alphabet (`FarSpec::compute` reads nothing else), and a
//! run over one program sees only a handful of distinct alphabets, so a
//! [`ConcreteCheck`] computes them once per distinct alphabet and reuses
//! them for every later history with the same one.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec, SigId};
use c4_store::{EventId, History, ObjectName, OpKind, Operation, Schedule, TxId};

use crate::deps::{DepOptions, DependencyTriple};
use crate::graph::Dsg;

/// Cycle-checks concrete executions under the default [`DepOptions`],
/// memoizing the far relations per alphabet for as long as it lives.
///
/// It is shared by reference between threads; each thread checks through
/// its own [`LocalCheck`], which takes the lock only for an alphabet that
/// thread has not seen yet. A miss computes the far relations under the
/// lock, so each alphabet is computed exactly once.
#[derive(Debug, Default)]
pub struct ConcreteCheck {
    far: Mutex<HashMap<Alphabet, Arc<FarSpec>>>,
}

impl ConcreteCheck {
    /// An empty check (no far relations computed yet).
    pub fn new() -> Self {
        ConcreteCheck::default()
    }

    /// A handle for checking many executions on one thread.
    pub fn local(&self) -> LocalCheck<'_> {
        LocalCheck {
            shared: self,
            known: Vec::new(),
            reps: Vec::new(),
            seen: Vec::new(),
            rank: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// The transactions on some cycle of the schedule's DSG, or `None` if
    /// the DSG is acyclic.
    pub fn cycle(&self, history: &History, schedule: &Schedule) -> Option<BTreeSet<TxId>> {
        self.local().cycle(history, schedule)
    }

    /// The far relations over `alphabet`, computed on the first request.
    fn far_of(&self, alphabet: Alphabet) -> Arc<FarSpec> {
        // The map is written only by a completed insert, so a lock
        // poisoned by a panicking caller still guards a valid map.
        let mut memo = self.far.lock().unwrap_or_else(|e| e.into_inner());
        memo.entry(alphabet)
            .or_insert_with_key(|a| Arc::new(FarSpec::compute(RewriteSpec::new(), a)))
            .clone()
    }
}

/// One thread's view of a [`ConcreteCheck`]: the far relations it has
/// used and scratch buffers reused from one execution to the next.
#[derive(Debug)]
pub struct LocalCheck<'c> {
    shared: &'c ConcreteCheck,
    /// The far relations this handle has used, most recent first.
    known: Vec<Arc<FarSpec>>,
    /// The first event of each distinct signature.
    reps: Vec<u32>,
    /// Each event's signature as its position in first-seen order.
    seen: Vec<u32>,
    /// Position in first-seen order → signature id.
    rank: Vec<u32>,
    /// Each event's signature id in the current history's alphabet.
    ids: Vec<Option<SigId>>,
}

impl LocalCheck<'_> {
    /// The transactions on some cycle of the schedule's DSG, or `None` if
    /// the DSG is acyclic.
    pub fn cycle(&mut self, history: &History, schedule: &Schedule) -> Option<BTreeSet<TxId>> {
        let far = self.far(history);
        let triple = DependencyTriple::compute_resolved(
            history,
            schedule,
            &far,
            &self.ids,
            &DepOptions::default(),
        );
        let dsg = Dsg::from_triple(history, &triple);
        let cycle = dsg.find_cycle()?;
        Some(cycle.iter().flat_map(|e| [e.from, e.to]).collect())
    }

    /// The far relations over the alphabet of `history`'s events, with
    /// `self.ids` resolved against them.
    ///
    /// The distinct signatures are collected in first-seen order by
    /// comparing each event with the few found so far (equal names share
    /// one `Arc`, which makes the comparison a pointer test), then ranked
    /// in alphabet order: an event's rank is its [`SigId`].
    fn far(&mut self, history: &History) -> Arc<FarSpec> {
        let op = |i: u32| &history.event(EventId(i)).op;
        self.reps.clear();
        self.seen.clear();
        for i in 0..history.len() as u32 {
            let key = sig_key(op(i));
            let j = match self.reps.iter().position(|&r| sig_key(op(r)) == key) {
                Some(j) => j,
                None => {
                    self.reps.push(i);
                    self.reps.len() - 1
                }
            };
            self.seen.push(j as u32);
        }
        let reps = &mut self.reps;
        reps.sort_unstable_by(|&a, &b| sig_key(op(a)).cmp(&sig_key(op(b))));
        self.rank.clear();
        self.rank.resize(reps.len(), 0);
        for (id, &r) in reps.iter().enumerate() {
            self.rank[self.seen[r as usize] as usize] = id as u32;
        }
        self.ids.clear();
        self.ids.extend(self.seen.iter().map(|&j| Some(SigId(self.rank[j as usize]))));
        let same = |far: &FarSpec| {
            far.sigs().len() == reps.len()
                && far.sigs().iter().zip(reps.iter()).all(|(sig, &r)| {
                    (&sig.object, &sig.kind) == sig_key(op(r))
                })
        };
        if let Some(k) = self.known.iter().position(|far| same(far)) {
            // Most recently used first: a run of executions mostly
            // shares one alphabet.
            self.known[..=k].rotate_right(1);
            return self.known[0].clone();
        }
        let far = self.shared.far_of(reps.iter().map(|&r| OpSig::of(op(r))).collect());
        self.known.insert(0, far.clone());
        far
    }
}

/// The part of an operation its signature is made of, in [`OpSig`]'s
/// order.
fn sig_key(op: &Operation) -> (&ObjectName, &OpKind) {
    (&op.object, &op.kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_store::{HistoryBuilder, Operation, Value};

    /// Figure 1c1: each session's get misses the other session's put.
    fn figure1c1(key: &str) -> (History, Schedule) {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        let e0 = b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s0);
        let e1 = b.push(t1, Operation::map_get("M", Value::str(key), Value::Unit));
        let t2 = b.begin(s1);
        let e2 = b.push(t2, Operation::map_put("M", Value::str("B"), Value::int(2)));
        let t3 = b.begin(s1);
        let e3 = b.push(t3, Operation::map_get("M", Value::str("A"), Value::Unit));
        let h = b.finish();
        let mut vis = c4_store::schedule::Relation::new(4);
        vis.insert(e0, e1);
        vis.insert(e2, e3);
        let s = Schedule::new(&h, vec![e0, e2, e1, e3], vis).unwrap();
        (h, s)
    }

    #[test]
    fn finds_the_transactions_on_a_cycle() {
        let (h, s) = figure1c1("B");
        let check = ConcreteCheck::new();
        let cycle = check.cycle(&h, &s).expect("Figure 1c1 is cyclic");
        assert_eq!(cycle, (0..4).map(TxId).collect());
    }

    #[test]
    fn memoizes_far_relations_per_alphabet() {
        let check = ConcreteCheck::new();
        let (cyclic, s1) = figure1c1("B");
        let (acyclic, s2) = figure1c1("A");
        // Same alphabet, different arguments: one FarSpec serves both.
        let mut local = check.local();
        assert!(Arc::ptr_eq(&local.far(&cyclic), &local.far(&acyclic)));
        assert!(check.cycle(&cyclic, &s1).is_some());
        assert!(check.cycle(&acyclic, &s2).is_none());
        let mut b = HistoryBuilder::new();
        let s = b.session();
        let t = b.begin(s);
        b.push(t, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let other = b.finish();
        assert!(!Arc::ptr_eq(&local.far(&cyclic), &local.far(&other)));
        assert_eq!(local.far(&other).sigs().len(), 1);
        // A second handle shares the first one's far relations.
        assert!(Arc::ptr_eq(&check.local().far(&other), &local.far(&other)));
    }

    #[test]
    fn resolved_ids_match_the_far_relations_lookup() {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        b.push(t0, Operation::map_get("M", Value::str("A"), Value::Unit));
        b.push(t0, Operation::fld_add("T", "g", Value::int(1), Value::int(2)));
        b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s1);
        b.push(t1, Operation::ctr_inc("C", 1));
        b.push(t1, Operation::map_put("M", Value::str("B"), Value::int(2)));
        // Equal signatures behind distinct name allocations.
        b.push(t1, Operation::fld_add(String::from("T"), "g", Value::int(3), Value::int(4)));
        b.push(t1, Operation::ctr_inc("C", 2));
        let h = b.finish();
        let check = ConcreteCheck::new();
        let mut local = check.local();
        let far = local.far(&h);
        assert_eq!(far.sigs().len(), 4);
        let expected: Vec<_> = h.events().map(|e| far.sig_id(&e.op.object, &e.op.kind)).collect();
        assert_eq!(local.ids, expected);
        assert!(expected.iter().all(Option::is_some));
    }
}
