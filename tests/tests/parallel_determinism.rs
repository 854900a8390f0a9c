//! The driver's determinism contract: for every program,
//! `parallelism = 1` (discovery and merge inline on the calling thread)
//! and `parallelism = 4` (the worker pool) produce identical violations
//! (transaction sets, labels, session counts, rendered counter-examples,
//! in the same order), the same `generalized` flag and `max_k`, and
//! identical replay counters.

mod common;

use c4::{AnalysisFeatures, Checker};
use common::{arb_history, selection};
use proptest::prelude::*;

fn features(parallelism: usize) -> AnalysisFeatures {
    AnalysisFeatures { parallelism, ..AnalysisFeatures::default() }
}

/// Every suite program, full default feature set, 1 vs 4 workers.
#[test]
fn suite_programs_agree_across_parallelism() {
    for b in selection() {
        let p = c4_lang::parse(b.source).expect("parse");
        let h = c4_lang::abstract_history(&p).expect("interp");
        let seq = Checker::new(h.clone(), features(1)).run();
        let par = Checker::new(h, features(4)).run();
        assert!(
            seq.same_verdict(&par),
            "{}: parallel verdict diverged\nseq: {seq}\npar: {par}",
            b.name
        );
        // `same_verdict` covers the rendered counter-examples via
        // `Violation: PartialEq`; spell the label/rendering comparison out
        // anyway so a future weakening of `same_verdict` fails loudly here.
        for (vs, vp) in seq.violations.iter().zip(&par.violations) {
            assert_eq!(vs.txs, vp.txs, "{}: transaction sets differ", b.name);
            assert_eq!(vs.labels, vp.labels, "{}: cycle labels differ", b.name);
            assert_eq!(vs.sessions, vp.sessions, "{}: session counts differ", b.name);
            assert_eq!(
                vs.counterexample, vp.counterexample,
                "{}: counter-example renderings differ",
                b.name
            );
        }
        assert_eq!(
            seq.stats.replay_counters(),
            par.stats.replay_counters(),
            "{}: replay counters diverged",
            b.name
        );
        assert!(!seq.stats.deadline_hit && !par.stats.deadline_hit, "{}: budget fired", b.name);
        assert_eq!(
            par.stats.preprune_fallbacks, 0,
            "{}: the merge should never need to re-solve a pre-pruned candidate",
            b.name
        );
        assert_eq!(par.stats.workers, 4, "{}: worker count not recorded", b.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 24 }))]

    /// Differential check on random histories. A short feature set keeps
    /// each case cheap; `max_k = 3` exercises the cross-round snapshot
    /// carry-over in the parallel path.
    #[test]
    fn random_histories_agree_across_parallelism(h in arb_history()) {
        let f = |parallelism| AnalysisFeatures {
            max_k: 3,
            parallelism,
            ..AnalysisFeatures::default()
        };
        let seq = Checker::new(h.clone(), f(1)).run();
        let par = Checker::new(h, f(4)).run();
        prop_assert!(
            seq.same_verdict(&par),
            "parallel verdict diverged\nseq: {}\npar: {}", seq, par
        );
        prop_assert_eq!(seq.stats.replay_counters(), par.stats.replay_counters());
        prop_assert_eq!(par.stats.preprune_fallbacks, 0);
    }
}
