//! The reference differential (see `common`) for symmetry-class replay
//! and the worker pool: the driver analyzes one representative per
//! canonical unfolding class and replays its verdicts onto the members,
//! and the report must equal `Checker::run_reference`, which forms no
//! classes.

mod common;

use c4::{AnalysisFeatures, Checker};
use common::arb_history;
use proptest::prelude::*;

/// Every suite program, default feature set, four workers against the
/// reference.
#[test]
fn suite_programs_agree_across_symmetry_modes() {
    common::suite_programs_agree_with_reference(4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 24 }))]

    /// One worker against the reference; `max_k = 3` produces unfoldings
    /// with three instances, where non-identity session permutations
    /// first appear.
    #[test]
    fn random_histories_agree_across_symmetry_modes(h in arb_history()) {
        let checker = Checker::new(h, AnalysisFeatures {
            max_k: 3,
            time_budget_secs: 600,
            parallelism: 1,
            ..AnalysisFeatures::default()
        });
        let run = checker.run();
        let reference = checker.run_reference();
        // Budget-truncated runs are outside the byte-identity contract
        // (the deadline cuts each search at a different point); the
        // generous budget above makes this a non-event.
        if run.stats.deadline_hit || reference.stats.deadline_hit { return; }
        prop_assert_eq!(
            run.encode_report(),
            reference.encode_report(),
            "report bytes diverged\nrun: {}\nreference: {}", run, reference
        );
        prop_assert_eq!(run.stats.replay_counters(), reference.stats.replay_counters());
        prop_assert_eq!(
            run.stats.classes + run.stats.class_members_skipped,
            run.stats.unfoldings
        );
        prop_assert_eq!(reference.stats.classes, 0);
        prop_assert_eq!(reference.stats.class_members_skipped, 0);
    }

    /// The pool (dispenser-tagged classes, in-order merge replay) at
    /// `max_k = 3` against the reference.
    #[test]
    fn random_histories_agree_crossing_parallelism(h in arb_history()) {
        let checker = Checker::new(h, AnalysisFeatures {
            max_k: 3,
            time_budget_secs: 600,
            parallelism: 4,
            ..AnalysisFeatures::default()
        });
        let run = checker.run();
        let reference = checker.run_reference();
        if run.stats.deadline_hit || reference.stats.deadline_hit { return; }
        prop_assert_eq!(
            run.encode_report(),
            reference.encode_report(),
            "crossed report bytes diverged\nrun/4: {}\nreference: {}", run, reference
        );
        prop_assert_eq!(run.stats.replay_counters(), reference.stats.replay_counters());
    }
}
