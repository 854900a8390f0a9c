//! Closing the counterexample → simulator → DSG loop: every validated
//! SAT counter-example reported by the static analysis over the suite
//! replays on the multi-replica causal simulator to a real (fully
//! legal) execution whose concrete DSG is cyclic.
//!
//! The static counter-example carries only a *pre-schedule* — its query
//! returns are solver inventions and need not be implementable. The
//! replay re-executes the operations under the store's real semantics
//! with exactly the pre-schedule's visibility and arbitration, so a
//! cyclic DSG here shows each violation is reachable on an actual
//! causally-consistent store, not just in the relational model.

use c4::{AnalysisFeatures, Checker};
use c4_dsg::ConcreteCheck;

#[test]
fn every_sat_counterexample_replays_to_a_cycle() {
    let mut replayed = 0usize;
    let check = ConcreteCheck::new();
    for b in c4_suite::benchmarks() {
        let program = c4_lang::parse(b.source).expect("suite sources parse");
        let history = c4_lang::abstract_history(&program).expect("suite sources interpret");
        let checker = Checker::new(history, AnalysisFeatures::default()).log_witnesses();
        checker.run();
        for ce in checker.take_witnesses() {
            let (h, s) = ce
                .replay_on_sim()
                .unwrap_or_else(|e| panic!("{}: counter-example replay failed: {e}", b.name));
            s.check(&h).unwrap_or_else(|e| {
                panic!("{}: replayed execution has an illegal schedule: {e}", b.name)
            });
            assert!(
                check.cycle(&h, &s).is_some(),
                "{}: replayed counter-example has an acyclic DSG",
                b.name
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 10, "only {replayed} counter-examples were replayed — sink broken?");
}
