//! Differential test of the DSG lift: `Dsg::from_triple` (session order
//! lifted per transaction, bitset deduplication, per-transaction
//! adjacency) against a reference written here: every event-pair `so`
//! edge and every ⊕/⊖/⊗ pair pushed in order, `HashSet` deduplication
//! keeping the first witness, and a depth-first cycle search over a
//! `HashMap` adjacency.
//!
//! Histories come from the causal simulator: multi-operation transactions
//! over two or three sessions, under random delivery, some with more than
//! 64 transactions so that every bitset spans several words.

use std::collections::{HashMap, HashSet};

use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
use c4_dsg::{DepOptions, DependencyTriple, Dsg, EdgeLabel, TxEdge};
use c4_store::op::OpKind;
use c4_store::sim::CausalSim;
use c4_store::{EventId, History, Schedule, TxId, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The edges in the order the event-pair loop first meets each
/// `(from, to, label)`, each with its first witness.
fn reference_edges(history: &History, triple: &DependencyTriple) -> Vec<TxEdge> {
    let mut edges = Vec::new();
    let mut push = |a: EventId, b: EventId, label: EdgeLabel| {
        let (from, to) = (history.tx_of(a), history.tx_of(b));
        if from != to {
            edges.push(TxEdge { from, to, label, witness: (a, b) });
        }
    };
    for (a, b) in history.so_pairs() {
        push(a, b, EdgeLabel::SessionOrder);
    }
    let ids = || (0..history.len()).map(|i| EventId(i as u32));
    for a in ids() {
        for (relation, label) in [
            (&triple.dep, EdgeLabel::Dep),
            (&triple.anti, EdgeLabel::Anti),
            (&triple.conflict, EdgeLabel::Conflict),
        ] {
            for b in ids().filter(|&b| relation.contains(a, b)) {
                push(a, b, label);
            }
        }
    }
    let mut seen = HashSet::new();
    edges.retain(|e| seen.insert((e.from, e.to, e.label)));
    edges
}

/// Iterative depth-first search from every white node in index order,
/// following each node's edges in edge order; the first back edge closes
/// the reported cycle.
fn reference_cycle(tx_count: usize, edges: &[TxEdge]) -> Option<Vec<TxEdge>> {
    let mut adjacency: HashMap<TxId, Vec<usize>> = HashMap::new();
    for (i, e) in edges.iter().enumerate() {
        adjacency.entry(e.from).or_default().push(i);
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; tx_count];
    let mut parent: Vec<Option<usize>> = vec![None; tx_count];
    for start in 0..tx_count {
        if color[start] != Color::White {
            continue;
        }
        let mut stack = vec![(TxId(start as u32), 0usize)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let out = adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *cursor >= out.len() {
                color[node.index()] = Color::Black;
                stack.pop();
                continue;
            }
            let ei = out[*cursor];
            *cursor += 1;
            let to = edges[ei].to;
            match color[to.index()] {
                Color::White => {
                    color[to.index()] = Color::Gray;
                    parent[to.index()] = Some(ei);
                    stack.push((to, 0));
                }
                Color::Gray => {
                    let mut cycle = vec![ei];
                    let mut cur = node;
                    while cur != to {
                        let pe = parent[cur.index()].expect("parent chain");
                        cycle.push(pe);
                        cur = edges[pe].from;
                    }
                    cycle.reverse();
                    return Some(cycle.into_iter().map(|i| edges[i].clone()).collect());
                }
                Color::Black => {}
            }
        }
    }
    None
}

/// A random run: `txns` transactions of one to three operations on a map
/// and a counter over `sessions` sessions (one replica each), each commit
/// followed by delivering every deliverable message with probability
/// `delivery`.
fn random_history(seed: u64, sessions: usize, txns: usize, delivery: f64) -> (History, Schedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = CausalSim::new(sessions);
    let handles: Vec<_> = (0..sessions).map(|r| sim.session(r)).collect();
    for step in 0..txns {
        let s = handles[rng.gen_range(0..sessions)];
        sim.begin(s);
        for _ in 0..rng.gen_range(1..=3) {
            let key = Value::int(rng.gen_range(0..3));
            match rng.gen_range(0..6) {
                0 | 1 => sim.update(s, "M", OpKind::MapPut, vec![key, Value::int(step as i64)]),
                2 => sim.update(s, "M", OpKind::MapRemove, vec![key]),
                3 => sim.update(s, "C", OpKind::CtrInc, vec![Value::int(1)]),
                4 => {
                    sim.query(s, "M", OpKind::MapGet, vec![key]);
                }
                _ => {
                    sim.query(s, "C", OpKind::CtrGet, vec![]);
                }
            }
        }
        sim.commit(s);
        for d in sim.deliverable() {
            if rng.gen_bool(delivery) {
                sim.deliver(d);
            }
        }
    }
    sim.deliver_all();
    sim.into_history()
}

fn far_for(history: &History) -> FarSpec {
    let alphabet: Alphabet = history.events().map(|e| OpSig::of(&e.op)).collect();
    FarSpec::compute(RewriteSpec::new(), &alphabet)
}

/// Checks one history; returns whether its DSG is cyclic.
fn check(history: &History, schedule: &Schedule) -> bool {
    let far = far_for(history);
    let triple = DependencyTriple::compute(history, schedule, &far, &DepOptions::default());
    let dsg = Dsg::from_triple(history, &triple);
    let expected = reference_edges(history, &triple);
    assert_eq!(dsg.edges(), expected.as_slice(), "edges differ on\n{history}");
    let tx_count = history.transactions().count();
    for t in (0..tx_count).map(|t| TxId(t as u32)) {
        let out: Vec<&TxEdge> = dsg.outgoing(t).collect();
        let want: Vec<&TxEdge> = expected.iter().filter(|e| e.from == t).collect();
        assert_eq!(out, want, "outgoing({t}) differs on\n{history}");
    }
    let cycle = dsg.find_cycle().map(|c| c.into_iter().cloned().collect::<Vec<_>>());
    assert_eq!(cycle, reference_cycle(tx_count, &expected), "cycles differ on\n{history}");
    cycle.is_some()
}

#[test]
fn lift_matches_the_event_pair_reference() {
    let mut cyclic = 0;
    let mut runs = 0;
    for seed in 0..150 {
        let sessions = 2 + (seed % 2) as usize;
        let delivery = [0.1, 0.4, 0.9][(seed % 3) as usize];
        let (h, s) = random_history(seed, sessions, 4 + (seed % 12) as usize, delivery);
        cyclic += usize::from(check(&h, &s));
        runs += 1;
    }
    // Both verdicts occur, so both cycle-search outcomes were compared.
    assert!(cyclic > 0 && cyclic < runs, "{cyclic} of {runs} cyclic");
}

#[test]
fn lift_matches_the_reference_past_one_word_of_transactions() {
    for seed in 0..6 {
        let sessions = 2 + (seed % 2) as usize;
        let txns = [65, 80, 130][(seed % 3) as usize];
        let (h, s) = random_history(1000 + seed, sessions, txns, 0.3);
        assert_eq!(h.transactions().count(), txns);
        check(&h, &s);
    }
}
