//! Shared test helpers. The reference differential, shared by
//! `incremental_differential.rs` and `symmetry_differential.rs`:
//! `Checker::run` — the bounded-search
//! driver with its policies (worker pool, symmetry-class replay, batched
//! refutation probe, shared incremental session) — produces the same
//! report bytes as `Checker::run_reference`, the same search with none of
//! them. The `encode_report` bytes cover violations (transaction sets,
//! labels, session counts, rendered counter-examples, in order), the
//! `generalized` flag, `max_k` and the replay counters. The program
//! selection and the random-history generator are also used by
//! `parallel_determinism.rs`.

// Each test file uses its own part of this module.
#![allow(dead_code)]

use c4::abstract_history::AbstractHistory;
use c4::{AnalysisFeatures, AnalysisResult, Checker};
use c4_suite::benchmarks;
use proptest::prelude::*;

/// Unoptimized builds pay roughly an order of magnitude per SMT query;
/// keep the differential sweep representative but bounded there. Release
/// builds cover the full suite.
pub fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

fn assert_identical(name: &str, run: &AnalysisResult, reference: &AnalysisResult) {
    // The report wire encoding is the strongest equality we have: it is
    // what the verdict cache stores and the service ships.
    assert_eq!(
        run.encode_report(),
        reference.encode_report(),
        "{name}: report bytes diverged\nrun: {run}\nreference: {reference}"
    );
    assert!(run.same_verdict(reference), "{name}: verdicts diverged");
    // `same_verdict` covers the renderings via `Violation: PartialEq`;
    // spell the field comparison out anyway so a future weakening of
    // `same_verdict` fails loudly here.
    assert_eq!(run.violations.len(), reference.violations.len(), "{name}: violation counts");
    for (vr, vf) in run.violations.iter().zip(&reference.violations) {
        assert_eq!(vr.txs, vf.txs, "{name}: transaction sets differ");
        assert_eq!(vr.labels, vf.labels, "{name}: cycle labels differ");
        assert_eq!(vr.sessions, vf.sessions, "{name}: session counts differ");
        assert_eq!(
            vr.counterexample, vf.counterexample,
            "{name}: counter-example renderings differ"
        );
    }
    assert_eq!(
        run.stats.replay_counters(),
        reference.stats.replay_counters(),
        "{name}: replay counters diverged"
    );
    assert!(
        !run.stats.deadline_hit && !reference.stats.deadline_hit,
        "{name}: budget fired mid-differential"
    );
}

/// The reference search never forms a class, replays a member or touches
/// an incremental session.
fn assert_policy_free(name: &str, reference: &AnalysisResult) {
    let s = &reference.stats;
    assert_eq!(s.classes, 0, "{name}: reference formed classes");
    assert_eq!(s.class_members_skipped, 0, "{name}: reference replayed members");
    assert_eq!(s.assumption_solves, 0, "{name}: reference used a session");
    assert_eq!(s.sat_resolves, 0, "{name}: reference used a session");
    assert_eq!(s.learnt_clauses, 0, "{name}: reference used a session");
}

/// Every suite program, default feature set, driver at `workers` against
/// the reference.
pub fn suite_programs_agree_with_reference(workers: usize) {
    for b in selection() {
        let p = c4_lang::parse(b.source).expect("parse");
        let h = c4_lang::abstract_history(&p).expect("interp");
        let reference = Checker::new(h.clone(), AnalysisFeatures::default()).run_reference();
        assert_policy_free(b.name, &reference);
        let features = AnalysisFeatures { parallelism: workers, ..AnalysisFeatures::default() };
        let run = Checker::new(h, features).run();
        assert_identical(b.name, &run, &reference);
        // Every unfolding is a class representative or a replayed member.
        assert_eq!(
            run.stats.classes + run.stats.class_members_skipped,
            run.stats.unfoldings,
            "{}: class accounting does not cover the unfoldings",
            b.name
        );
        // The driver answers bounded verdicts through the session first
        // (the batched probe included).
        if run.stats.smt_sat + run.stats.smt_refuted > 0 {
            assert!(run.stats.assumption_solves > 0, "{}: the driver never used the session", b.name);
        }
    }
}

/// One transaction body: 1–3 events over a shared map/set, each a
/// (key argument, operation) choice.
fn arb_body() -> impl Strategy<Value = Vec<(u8, u8)>> {
    let arb_key = prop_oneof![
        Just(0u8), // Wild
        Just(1u8), // Param(0)
        Just(2u8), // session-local constant
        Just(3u8), // literal constant
    ];
    proptest::collection::vec((arb_key, 0u8..4), 1..=3)
}

/// Straight-line transactions `t0, t1, …` with the given bodies and free
/// session order.
pub fn history_of(bodies: Vec<Vec<(u8, u8)>>) -> AbstractHistory {
    use c4::abstract_history::{ev, straight_line_tx, AbsArg};
    use c4_store::op::OpKind;
    use c4_store::Value;
    let mut h = AbstractHistory::new();
    let local = h.local("u");
    for (ti, events) in bodies.into_iter().enumerate() {
        let events = events
            .into_iter()
            .map(|(key, op)| {
                let key = match key {
                    0 => AbsArg::Wild,
                    1 => AbsArg::Param(0),
                    2 => local.clone(),
                    _ => AbsArg::Const(Value::int(7)),
                };
                match op {
                    0 => ev("M", OpKind::MapPut, vec![key, AbsArg::Wild]),
                    1 => ev("M", OpKind::MapGet, vec![key]),
                    2 => ev("S", OpKind::SetAdd, vec![key]),
                    _ => ev("S", OpKind::SetContains, vec![key]),
                }
            })
            .collect();
        h.add_tx(straight_line_tx(format!("t{ti}"), vec!["p".into()], events));
    }
    h.free_session_order();
    h
}

/// Random small abstract histories: 1–3 straight-line transactions over a
/// shared map and set with randomly chosen key arguments and free session
/// order.
pub fn arb_history() -> impl Strategy<Value = AbstractHistory> {
    proptest::collection::vec(arb_body(), 1..=3).prop_map(history_of)
}
