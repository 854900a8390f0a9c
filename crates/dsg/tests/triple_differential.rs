//! Differential test of the dependency triple: `DependencyTriple::compute`
//! (signature ids resolved once, dense FarSpec tables read by reference)
//! against a by-signature reference written here on top of the public
//! `*_concrete` methods, rule by rule as in (D1)–(D3).
//!
//! Histories come from the causal simulator and include `map.copy`, the
//! operation under which far and plain relations differ. Each history is
//! checked under the far relations of its own alphabet, of the whole
//! operation alphabet the generator draws from, and of a partial alphabet
//! that lacks some of the history's signatures, so that the fallback
//! path for signatures outside the FarSpec's alphabet runs too.

use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
use c4_dsg::{DepOptions, DependencyTriple};
use c4_store::schedule::Relation;
use c4_store::sim::CausalSim;
use c4_store::{EventId, History, Operation, Schedule, Value};
use proptest::prelude::*;

/// The triple by (D1)–(D3), one signature lookup per relation query.
fn reference(
    history: &History,
    schedule: &Schedule,
    far: &FarSpec,
    opts: &DepOptions,
) -> DependencyTriple {
    let n = history.len();
    let mut dep = Relation::new(n);
    let mut anti = Relation::new(n);
    let mut conflict = Relation::new(n);
    let ids = || (0..n).map(|i| EventId(i as u32));
    let op = |e: EventId| &history.event(e).op;
    let absorbed_towards = |u: EventId, q: EventId| {
        ids().any(|v| {
            v != u
                && v != q
                && history.event(v).is_update()
                && schedule.ar(u, v)
                && schedule.vis(v, q)
                && far.far_absorbs_concrete(op(u), op(v))
        })
    };
    for u in ids().filter(|&u| history.event(u).is_update()) {
        for q in ids().filter(|&q| history.event(q).is_query()) {
            if schedule.vis(u, q) {
                if !far.far_commutes_concrete(op(u), op(q)) && !absorbed_towards(u, q) {
                    dep.insert(u, q);
                }
            } else if u != q {
                let exempt = opts.asymmetric_commutativity
                    && far.rewrite().anti_dep_exempt_concrete(op(u), op(q));
                if !far.far_commutes_concrete(op(u), op(q)) && !exempt && !absorbed_towards(u, q)
                {
                    anti.insert(q, u);
                }
            }
        }
        for v in ids().filter(|&v| history.event(v).is_update()) {
            if schedule.ar(u, v) && !far.rewrite().commute_concrete(op(u), op(v)) {
                conflict.insert(u, v);
            }
        }
    }
    DependencyTriple { dep, anti, conflict }
}

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..2i64).prop_map(Value::int),
        prop_oneof![Just("a"), Just("b")].prop_map(Value::str),
    ]
}

/// Operations over a map (with `copy`), a set, a counter and a table.
/// Query return values are placeholders; the simulator fills them in.
fn operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        (small_value(), small_value()).prop_map(|(k, v)| Operation::map_put("M", k, v)),
        small_value().prop_map(|k| Operation::map_remove("M", k)),
        (small_value(), small_value()).prop_map(|(s, d)| Operation::map_copy("M", s, d)),
        (small_value(), small_value()).prop_map(|(s, d)| Operation::map_copy("M", s, d)),
        small_value().prop_map(|k| Operation::map_get("M", k, Value::Unit)),
        small_value().prop_map(|k| Operation::map_contains("M", k, false)),
        small_value().prop_map(|e| Operation::set_add("S", e)),
        small_value().prop_map(|e| Operation::set_contains("S", e, false)),
        (0..2i64).prop_map(|n| Operation::ctr_inc("C", n)),
        Just(Operation::ctr_get("C", 0)),
        (small_value(), small_value()).prop_map(|(r, e)| Operation::fld_add("T", "g", r, e)),
        small_value().prop_map(|r| Operation::tbl_delete_row("T", r)),
        small_value().prop_map(|r| Operation::tbl_contains("T", r, false)),
    ]
}

/// One transaction: its session, its operations, and which of the then
/// deliverable messages are delivered after its commit (bit i of the mask
/// for the i-th deliverable one).
type Step = (usize, Vec<Operation>, u64);

fn run(steps: &[Step]) -> (History, Schedule) {
    let mut sim = CausalSim::new(3);
    let sessions: Vec<_> = (0..3).map(|r| sim.session(r)).collect();
    for (session, ops, mask) in steps {
        let s = sessions[*session];
        sim.begin(s);
        for op in ops {
            let (object, kind, args) = (op.object.clone(), op.kind.clone(), op.args.clone());
            if op.is_update() {
                sim.update(s, object, kind, args);
            } else {
                sim.query(s, object, kind, args);
            }
        }
        sim.commit(s);
        for (i, d) in sim.deliverable().into_iter().enumerate() {
            if mask >> (i % 64) & 1 == 1 {
                sim.deliver(d);
            }
        }
    }
    sim.deliver_all();
    sim.into_history()
}

fn sigs_of(history: &History) -> Vec<OpSig> {
    Alphabet::new(history.events().map(|e| OpSig::of(&e.op))).sigs().to_vec()
}

fn far_over(sigs: impl IntoIterator<Item = OpSig>) -> FarSpec {
    FarSpec::compute(RewriteSpec::new(), &Alphabet::new(sigs))
}

/// Every signature the generator can issue.
fn generator_alphabet() -> Vec<OpSig> {
    let (k, v) = (Value::int(0), Value::int(1));
    [
        Operation::map_put("M", k.clone(), v.clone()),
        Operation::map_remove("M", k.clone()),
        Operation::map_copy("M", k.clone(), v.clone()),
        Operation::map_get("M", k.clone(), Value::Unit),
        Operation::map_contains("M", k.clone(), false),
        Operation::set_add("S", k.clone()),
        Operation::set_contains("S", k.clone(), false),
        Operation::ctr_inc("C", 1),
        Operation::ctr_get("C", 0),
        Operation::fld_add("T", "g", k.clone(), v.clone()),
        Operation::tbl_delete_row("T", k.clone()),
        Operation::tbl_contains("T", k, false),
    ]
    .iter()
    .map(OpSig::of)
    .collect()
}

fn assert_agree(history: &History, schedule: &Schedule, far: &FarSpec, what: &str) {
    for asymmetric_commutativity in [true, false] {
        let opts = DepOptions { asymmetric_commutativity };
        let got = DependencyTriple::compute(history, schedule, far, &opts);
        let want = reference(history, schedule, far, &opts);
        let ctx = format!("{what}, asymmetric {asymmetric_commutativity}\n{history}");
        assert_eq!(got.dep, want.dep, "⊕ differs ({ctx})");
        assert_eq!(got.anti, want.anti, "⊖ differs ({ctx})");
        assert_eq!(got.conflict, want.conflict, "⊗ differs ({ctx})");
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0..3usize, prop::collection::vec(operation(), 1..4), any::<u64>()), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The history's own alphabet and the generator's whole alphabet:
    /// every signature resolves to an id.
    #[test]
    fn id_resolved_triple_matches_reference(steps in steps()) {
        let (history, schedule) = run(&steps);
        assert_agree(&history, &schedule, &far_over(sigs_of(&history)), "own alphabet");
        assert_agree(&history, &schedule, &far_over(generator_alphabet()), "generator alphabet");
    }

    /// A FarSpec whose alphabet lacks some of the history's signatures:
    /// pairs involving them take the by-signature fallback.
    #[test]
    fn fallback_outside_the_alphabet_matches_reference(steps in steps(), keep in any::<u64>()) {
        let (history, schedule) = run(&steps);
        let sigs = sigs_of(&history);
        // Drop the signatures whose bit in `keep` is clear, and at least
        // the first one.
        let kept = sigs.iter().enumerate().filter(|&(i, _)| i > 0 && keep >> (i % 64) & 1 == 1);
        let far = far_over(kept.map(|(_, s)| s.clone()));
        assert!(far.sigs().len() < sigs.len());
        assert_agree(&history, &schedule, &far, "partial alphabet");
    }
}

/// The generator does produce the histories the properties are about:
/// far and plain relations differ on some of them (`copy` in the
/// alphabet), and some triples are non-trivial.
#[test]
fn generator_exercises_copy_and_all_three_relations() {
    let mut rng = proptest::test_runner::TestRng::deterministic();
    let (mut copies, mut dep, mut anti, mut conflict) = (0, 0, 0, 0);
    for _ in 0..64 {
        let (history, schedule) = run(&steps().generate(&mut rng));
        let sigs = sigs_of(&history);
        copies += usize::from(sigs.iter().any(|s| s.to_string() == "M.cp"));
        let far = far_over(sigs);
        let t = DependencyTriple::compute(&history, &schedule, &far, &DepOptions::default());
        let nonempty = |r: &Relation| r != &Relation::new(history.len());
        dep += usize::from(nonempty(&t.dep));
        anti += usize::from(nonempty(&t.anti));
        conflict += usize::from(nonempty(&t.conflict));
    }
    assert!(copies > 8, "only {copies} histories issue map.copy");
    assert!(dep > 8 && anti > 8 && conflict > 8, "⊕ {dep}, ⊖ {anti}, ⊗ {conflict}");
}
