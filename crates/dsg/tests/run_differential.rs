//! Differential test of the leaf check: the DSG `LocalCheck::run_dsg`
//! reads off a simulator's committed transactions against `Dsg::build`
//! over the same run's `into_history`, and `LocalCheck::run_cycle`
//! against `ConcreteCheck::cycle` on that history.
//!
//! The runs mix updates and queries on a shared map (with `copy`, whose
//! far relations differ from the plain ones), a second map, a counter, a
//! register and a table, in transactions of zero to four operations over
//! two or three sessions; sessions migrate between replicas now and then.
//! The view is checked before the pending messages are delivered, the
//! history after, and some runs pass 64 transactions so that every
//! visible set spans several words.

use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
use c4_dsg::{ConcreteCheck, DepOptions, Dsg, EdgeLabel};
use c4_store::op::OpKind;
use c4_store::sim::{CausalSim, SimSession};
use c4_store::{History, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One random operation inside `s`'s open transaction.
fn random_op(sim: &mut CausalSim, rng: &mut StdRng, s: SimSession, step: usize) {
    let k = Value::int(rng.gen_range(0..3));
    let row = Value::str(["a", "b"][rng.gen_range(0..2usize)]);
    match rng.gen_range(0..14) {
        0 | 1 => sim.update(s, "M", OpKind::MapPut, vec![k, Value::int(step as i64)]),
        2 => sim.update(s, "M", OpKind::MapRemove, vec![k]),
        3 => sim.update(s, "M", OpKind::MapCopy, vec![k, Value::int(rng.gen_range(0..3))]),
        4 => {
            sim.query(s, "M", OpKind::MapGet, vec![k]);
        }
        5 => {
            sim.query(s, "M", OpKind::MapContains, vec![k]);
        }
        6 => sim.update(s, "N", OpKind::MapPut, vec![Value::int(0), Value::int(step as i64)]),
        7 => {
            sim.query(s, "N", OpKind::MapGet, vec![Value::int(0)]);
        }
        8 => sim.update(s, "C", OpKind::CtrInc, vec![Value::int(1)]),
        9 => {
            sim.query(s, "C", OpKind::CtrGet, vec![]);
        }
        10 => sim.update(s, "R", OpKind::RegPut, vec![Value::int(step as i64 % 2)]),
        11 => {
            sim.query(s, "R", OpKind::RegGet, vec![]);
        }
        12 => {
            let elem = Value::str(["x", "y"][rng.gen_range(0..2usize)]);
            sim.update(s, "T", OpKind::FldAdd("f".into()), vec![row, elem]);
        }
        _ => {
            sim.query(s, "T", OpKind::TblContains, vec![row]);
        }
    }
}

/// A random run of `txns` transactions over `sessions` sessions at as
/// many replicas, each commit followed by delivering every deliverable
/// message with probability `delivery`. Nothing is delivered at the end.
fn random_run(seed: u64, sessions: usize, txns: usize, delivery: f64) -> CausalSim {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = CausalSim::new(sessions);
    let handles: Vec<_> = (0..sessions).map(|r| sim.session(r)).collect();
    for step in 0..txns {
        let s = handles[rng.gen_range(0..sessions)];
        if rng.gen_bool(0.05) {
            sim.migrate(s, rng.gen_range(0..sessions));
        }
        sim.begin(s);
        // Every so often a transaction without operations, which the
        // history drops.
        let len = if rng.gen_bool(0.05) { 0 } else { rng.gen_range(1..=4) };
        for _ in 0..len {
            random_op(&mut sim, &mut rng, s, step);
        }
        sim.commit(s);
        for d in sim.deliverable() {
            if rng.gen_bool(delivery) {
                sim.deliver(d);
            }
        }
    }
    sim
}

fn far_for(history: &History) -> FarSpec {
    let alphabet: Alphabet = history.events().map(|e| OpSig::of(&e.op)).collect();
    FarSpec::compute(RewriteSpec::new(), &alphabet)
}

/// What one run showed: whether its DSG was cyclic, how many edges of
/// each label it had, and whether messages were pending at the check.
#[derive(Default)]
struct Seen {
    cyclic: usize,
    labels: [usize; 4],
    pending: usize,
}

/// Checks the run both ways and tallies what it showed.
fn check(mut sim: CausalSim, seen: &mut Seen) {
    let memo = ConcreteCheck::new();
    let mut local = memo.local();
    let run_dsg = local.run_dsg(sim.committed());
    let run_cycle = local.run_cycle(sim.committed());
    // The history's transaction numbering: session by session, in
    // session order, transactions without operations dropped.
    let run = sim.committed();
    let commit_of: Vec<usize> = (0..run.session_count())
        .flat_map(|s| run.session(s).iter().copied())
        .filter(|&t| !run.ops(t).is_empty())
        .collect();
    seen.pending += usize::from(!sim.deliverable().is_empty());
    sim.deliver_all();
    let (h, s) = sim.into_history();
    let reference = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
    assert_eq!(run_dsg.tx_count(), reference.tx_count(), "on\n{h}");
    assert_eq!(run_dsg.edges(), reference.edges(), "edges differ on\n{h}");
    assert_eq!(run_dsg.find_cycle(), reference.find_cycle(), "cycles differ on\n{h}");
    let expected = memo.cycle(&h, &s).map(|txs| {
        let mut commits: Vec<usize> = txs.iter().map(|t| commit_of[t.index()]).collect();
        commits.sort_unstable();
        commits
    });
    assert_eq!(run_cycle, expected, "cycle transactions differ on\n{h}");
    seen.cyclic += usize::from(expected.is_some());
    for e in run_dsg.edges() {
        let l = [EdgeLabel::SessionOrder, EdgeLabel::Dep, EdgeLabel::Anti, EdgeLabel::Conflict]
            .iter()
            .position(|&l| l == e.label)
            .unwrap();
        seen.labels[l] += 1;
    }
}

#[test]
fn run_dsg_matches_the_history_dsg() {
    let mut seen = Seen::default();
    let runs = 200;
    for seed in 0..runs {
        let sessions = 2 + (seed % 2) as usize;
        let delivery = [0.1, 0.4, 0.9][(seed % 3) as usize];
        check(random_run(seed, sessions, 3 + (seed % 20) as usize, delivery), &mut seen);
    }
    // Both verdicts, every label, and undelivered messages occurred.
    assert!(seen.cyclic > 0 && seen.cyclic < runs as usize, "{} of {runs} cyclic", seen.cyclic);
    assert!(seen.labels.iter().all(|&n| n > 0), "labels {:?}", seen.labels);
    assert!(seen.pending > 0);
}

#[test]
fn run_dsg_matches_the_history_dsg_across_word_boundaries() {
    let mut seen = Seen::default();
    for (i, txns) in [63usize, 64, 65, 130].into_iter().enumerate() {
        for sessions in [2, 3] {
            let seed = 1000 + 10 * i as u64 + sessions as u64;
            check(random_run(seed, sessions, txns, 0.3), &mut seen);
        }
    }
    assert!(seen.labels.iter().all(|&n| n > 0), "labels {:?}", seen.labels);
}
