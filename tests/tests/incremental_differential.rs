//! The reference differential (see `common`) for the one-worker driver
//! and the shared incremental session: at one worker discovery and merge
//! run on the calling thread, candidates the batched probe did not refute
//! solve lazily through the unfolding's shared encoder, and the report
//! must equal `Checker::run_reference`, which solves every candidate on a
//! fresh encoder. The random-history crossing property takes the pool at
//! the default features against the same reference.

mod common;

use c4::{AnalysisFeatures, Checker};
use common::arb_history;
use proptest::prelude::*;

/// Every suite program, default feature set, one worker against the
/// reference.
#[test]
fn suite_programs_agree_across_incremental_modes() {
    common::suite_programs_agree_with_reference(1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 24 }))]

    /// One worker against the reference on random histories; `max_k = 3`
    /// carries the shared session and the subsumption set across rounds.
    #[test]
    fn random_histories_agree_across_incremental_modes(h in arb_history()) {
        let checker = Checker::new(h, AnalysisFeatures {
            max_k: 3,
            parallelism: 1,
            ..AnalysisFeatures::default()
        });
        let run = checker.run();
        let reference = checker.run_reference();
        prop_assert!(
            !run.stats.deadline_hit && !reference.stats.deadline_hit,
            "budget fired mid-differential"
        );
        prop_assert_eq!(
            run.encode_report(),
            reference.encode_report(),
            "report bytes diverged\nrun: {}\nreference: {}", run, reference
        );
        prop_assert_eq!(run.stats.replay_counters(), reference.stats.replay_counters());
        prop_assert_eq!(reference.stats.assumption_solves, 0);
        prop_assert_eq!(reference.stats.sat_resolves, 0);
        prop_assert_eq!(reference.stats.learnt_clauses, 0);
    }

    /// The pool (per-worker sessions, dispenser-classified members,
    /// eager solves) against the reference, with the default features.
    #[test]
    fn random_histories_agree_crossing_parallelism(h in arb_history()) {
        let checker = Checker::new(h, AnalysisFeatures {
            parallelism: 4,
            ..AnalysisFeatures::default()
        });
        let run = checker.run();
        let reference = checker.run_reference();
        prop_assert!(
            run.same_verdict(&reference),
            "crossed verdict diverged\nrun/4: {}\nreference: {}", run, reference
        );
        prop_assert_eq!(run.stats.replay_counters(), reference.stats.replay_counters());
        prop_assert_eq!(run.encode_report(), reference.encode_report());
    }
}
