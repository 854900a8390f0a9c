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

use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
use c4_store::{History, Schedule, TxId};

use crate::deps::DepOptions;
use crate::graph::Dsg;

/// Cycle-checks concrete executions under the default [`DepOptions`],
/// memoizing the far relations per alphabet for as long as it lives.
///
/// It is shared by reference between threads; a miss computes the far
/// relations under the lock, so each alphabet is computed exactly once.
#[derive(Debug, Default)]
pub struct ConcreteCheck {
    far: Mutex<HashMap<Alphabet, Arc<FarSpec>>>,
}

impl ConcreteCheck {
    /// An empty check (no far relations computed yet).
    pub fn new() -> Self {
        ConcreteCheck::default()
    }

    /// The far relations over the alphabet of `history`'s events.
    fn far(&self, history: &History) -> Arc<FarSpec> {
        let alphabet: Alphabet = history.events().map(|e| OpSig::of(&e.op)).collect();
        // The map is written only by a completed insert, so a lock
        // poisoned by a panicking caller still guards a valid map.
        let mut memo = self.far.lock().unwrap_or_else(|e| e.into_inner());
        memo.entry(alphabet)
            .or_insert_with_key(|a| Arc::new(FarSpec::compute(RewriteSpec::new(), a)))
            .clone()
    }

    /// The transactions on some cycle of the schedule's DSG, or `None` if
    /// the DSG is acyclic.
    pub fn cycle(&self, history: &History, schedule: &Schedule) -> Option<BTreeSet<TxId>> {
        let far = self.far(history);
        let dsg = Dsg::build(history, schedule, &far, &DepOptions::default());
        let cycle = dsg.find_cycle()?;
        Some(cycle.iter().flat_map(|e| [e.from, e.to]).collect())
    }
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
        assert!(Arc::ptr_eq(&check.far(&cyclic), &check.far(&acyclic)));
        assert!(check.cycle(&cyclic, &s1).is_some());
        assert!(check.cycle(&acyclic, &s2).is_none());
        let mut b = HistoryBuilder::new();
        let s = b.session();
        let t = b.begin(s);
        b.push(t, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let other = b.finish();
        assert!(!Arc::ptr_eq(&check.far(&cyclic), &check.far(&other)));
        assert_eq!(check.far(&other).sigs().len(), 1);
    }
}
