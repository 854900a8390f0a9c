//! Coherence of `AnalysisStats` across worker counts and against the
//! reference search.
//!
//! The counters split into two groups (see the determinism contract on
//! `AnalysisStats`):
//!
//! * **Replay counters** — `unfoldings`, `suspicious_unfoldings`,
//!   `subsumed_candidates`, `smt_queries`, `smt_sat`, `smt_refuted`,
//!   `validation_failures`, `generalization_queries` — are produced by
//!   the deterministic in-order merge and must agree bit-for-bit across
//!   `parallelism` settings. Note `subsumed_candidates` is in this group
//!   *because* the merge replays candidates in the sequential order; a
//!   driver that merged in completion order would make it
//!   scheduling-dependent.
//! * **Scheduling-dependent counters** — `speculative_smt_queries`,
//!   `preprune_skips`, `preprune_fallbacks`, `merge_smt_queries`,
//!   `per_worker_queries` — describe the work the pool and the merge
//!   thread actually performed and may legitimately differ between
//!   runs; only their invariants are checked here.

use c4::{AnalysisFeatures, Checker};
use c4_suite::benchmarks;

fn check_invariants(name: &str, res: &c4::AnalysisResult) {
    let s = &res.stats;
    assert!(
        s.suspicious_unfoldings <= s.unfoldings,
        "{name}: more suspicious unfoldings than unfoldings"
    );
    // Every bounded-search query is resolved sat or refuted; the
    // generalization probes count toward `smt_queries` but are neither
    // (their verdict is about short-cuttability, not feasibility).
    assert_eq!(
        s.smt_sat + s.smt_refuted,
        s.smt_queries - s.generalization_queries,
        "{name}: query ledger does not balance"
    );
    assert!(s.validation_failures <= s.smt_sat, "{name}: more failures than models");
    // The pool's actual work: one entry per worker, summing to the
    // speculative total, and (with the merge's re-solves) covering every
    // verdict the replay committed.
    assert_eq!(s.per_worker_queries.len(), s.workers, "{name}: per-worker vector size");
    assert_eq!(
        s.per_worker_queries.iter().sum::<usize>(),
        s.speculative_smt_queries,
        "{name}: per-worker queries do not sum to the speculative total"
    );
    // Note there is deliberately no `speculative >= smt_sat + smt_refuted`
    // bound: the batched refutation probe commits every pending candidate
    // of an unfolding off a single UNSAT solve, and symmetry replay
    // commits class members' refutations with no solve at all, so the
    // pool's actual query count legitimately undercuts the committed
    // verdicts. The strict solve-per-verdict ledger is checked below on
    // the configuration where it still holds exactly.
    assert_eq!(s.preprune_fallbacks, 0, "{name}: monotone snapshot violated");
    // Incremental-session ledger: every canonical re-solve follows an
    // assumption-solve SAT verdict, and assumption solves are a subset of
    // the work the pool performed.
    assert!(s.sat_resolves <= s.assumption_solves, "{name}: resolves without assumption SATs");
    assert!(
        s.assumption_solves + s.sat_resolves <= s.speculative_smt_queries,
        "{name}: session solves exceed total solves"
    );
    assert!(!s.deadline_hit, "{name}: default budget must suffice");
}

/// Unoptimized builds pay roughly an order of magnitude per SMT query;
/// bound the sweep there (release builds cover the full suite).
fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

#[test]
fn stats_are_coherent_and_replay_counters_agree() {
    for b in selection() {
        let p = c4_lang::parse(b.source).expect("parse");
        let h = c4_lang::abstract_history(&p).expect("interp");
        let h2 = h.clone();
        let seq =
            Checker::new(h.clone(), AnalysisFeatures { parallelism: 1, ..Default::default() })
                .run();
        let par =
            Checker::new(h, AnalysisFeatures { parallelism: 4, ..Default::default() }).run();
        check_invariants(b.name, &seq);
        check_invariants(b.name, &par);
        assert_eq!(
            seq.stats.replay_counters(),
            par.stats.replay_counters(),
            "{}: replay counters must not depend on parallelism",
            b.name
        );
        assert_eq!(seq.stats.workers, 1);
        assert_eq!(seq.stats.merge_smt_queries, 0, "{}: no merge thread at 1 worker", b.name);
        assert_eq!(seq.stats.preprune_skips, 0, "{}: no snapshot pruning at 1 worker", b.name);
        assert_eq!(par.stats.workers, 4);
        // The reference search has no batched probe, no symmetry replay
        // and no shared session: every committed verdict is one solve and
        // the session counters are dead — the strict solve-per-verdict
        // ledger holds exactly there, and the replay counters still agree
        // with the driver's runs bit-for-bit.
        let plain = Checker::new(h2, AnalysisFeatures { parallelism: 1, ..Default::default() })
            .run_reference();
        check_invariants(b.name, &plain);
        assert_eq!(
            plain.stats.speculative_smt_queries,
            plain.stats.smt_sat + plain.stats.smt_refuted,
            "{}: reference run must solve exactly the committed verdicts",
            b.name
        );
        assert_eq!(plain.stats.assumption_solves, 0, "{}: session unused", b.name);
        assert_eq!(plain.stats.sat_resolves, 0, "{}: session unused", b.name);
        assert_eq!(
            plain.stats.replay_counters(),
            seq.stats.replay_counters(),
            "{}: replay counters must match the reference search",
            b.name
        );
    }
}

/// Stage timings are populated: a run that issued SMT queries has
/// non-zero unfold, encoder and query clocks, and only parallel runs
/// charge merge time.
#[test]
fn stage_timings_are_populated() {
    use c4::Stage;
    let b = c4_suite::benchmark("Super Chat").expect("exists");
    let p = c4_lang::parse(b.source).expect("parse");
    let h = c4_lang::abstract_history(&p).expect("interp");
    let seq = Checker::new(h.clone(), AnalysisFeatures { parallelism: 1, ..Default::default() })
        .run();
    let par =
        Checker::new(h, AnalysisFeatures { parallelism: 4, ..Default::default() }).run();
    for (label, res) in [("seq", &seq), ("par", &par)] {
        assert!(res.stats.smt_queries > 0, "{label}: expected SMT work");
        let t = &res.stats.timings;
        for unfold in [Stage::InternArena, Stage::PairTables] {
            assert!(!t.get(unfold).is_zero(), "{label}: unfold stage {unfold:?} unclocked");
        }
        assert!(!t.get(Stage::EncoderBuild).is_zero(), "{label}: encoder_build stage unclocked");
        assert!(!t.get(Stage::SmtQuery).is_zero(), "{label}: smt_query stage unclocked");
        assert!(!t.get(Stage::SsgFilter).is_zero(), "{label}: filter stage unclocked");
    }
    assert!(seq.stats.timings.get(Stage::Merge).is_zero(), "sequential runs have no merge phase");
    assert!(!par.stats.timings.get(Stage::Merge).is_zero(), "parallel runs clock the merge");
}
