//! The three-way agreement suite: static analysis ⊇ model checker ⊇
//! randomized exploration.
//!
//! For every suite benchmark whose bounded workloads are small enough to
//! enumerate exhaustively:
//!
//! * every violation the DPOR model checker finds must be predicted by
//!   the static analysis (a static "serializable" verdict with an
//!   MC-found violation is a hard soundness failure);
//! * every model-checker witness schedule must replay on the causal
//!   simulator to a concrete DSG cycle with the same signature;
//! * every violation found by randomized walks over the same bounded
//!   execution tree must also be found by the model checker (the walks
//!   sample exactly the tree the checker enumerates);
//! * the checker is deterministic: identical findings and counts across
//!   repeated runs and at 1 vs 4 workers.

use std::collections::BTreeSet;

use c4::AnalysisFeatures;
use c4_dsg::ConcreteCheck;
use c4_mc::{derive_workloads, model_check, random_walks, replay_witness, McConfig};
use c4_tests::{check_source, signatures};

/// Total scripted transactions (per profile) above which a benchmark is
/// considered too large to enumerate in a test run.
const MAX_SCRIPTED_TXNS: usize = 6;

fn mc_config() -> McConfig {
    McConfig { sessions: 2, max_execs: 200_000, ..McConfig::default() }
}

/// The suite benchmarks whose 2-session bounded workloads stay within
/// [`MAX_SCRIPTED_TXNS`].
fn boundable() -> Vec<c4_suite::Benchmark> {
    c4_suite::benchmarks()
        .into_iter()
        .filter(|b| {
            let program = c4_lang::parse(b.source).expect("suite sources parse");
            let ws = derive_workloads(&program, 2, None);
            !ws.is_empty()
                && ws.iter().all(|w| w.total_txns() <= MAX_SCRIPTED_TXNS)
                && ws.iter().any(|w| w.total_txns() > 0)
        })
        .collect()
}

#[test]
fn three_way_agreement_on_the_suite() {
    let mut checked = 0usize;
    for b in boundable() {
        let program = c4_lang::parse(b.source).unwrap();
        let config = mc_config();
        let mc = model_check(&program, &config);
        if mc.capped {
            continue; // too large after all; the size gate is heuristic
        }
        assert_eq!(mc.exec_errors, 0, "{}: executions failed at runtime", b.name);
        checked += 1;

        // Static ⊇ MC: the static analysis is sound relative to the
        // model, so an exhaustively-found concrete violation it does not
        // predict would disprove it.
        let (_, stat_result) = check_source(b.source, AnalysisFeatures::default());
        let stat: Vec<BTreeSet<String>> = signatures(b.source, &stat_result)
            .into_iter()
            .map(|v| v.into_iter().collect())
            .collect();
        for v in &mc.violations {
            assert!(
                !stat_result.serializable(),
                "{}: static verdict is serializable but the model checker found {v:?}",
                b.name
            );
            assert!(
                stat.iter().any(|s| s.is_subset(v)),
                "{}: MC violation {v:?} not predicted statically ({stat:?})",
                b.name
            );
        }

        // Every witness replays on the simulator to a concrete DSG cycle
        // with the reported signature.
        for w in &mc.witnesses {
            let (history, schedule, names) = replay_witness(&program, &config, w);
            schedule.check(&history).unwrap_or_else(|e| {
                panic!("{}: witness replay produced an illegal schedule: {e}", b.name)
            });
            let cycle = ConcreteCheck::new()
                .cycle(&history, &schedule)
                .unwrap_or_else(|| panic!("{}: witness did not replay to a cycle", b.name));
            let sig: BTreeSet<String> = cycle.iter().map(|t| names[t.index()].clone()).collect();
            assert_eq!(sig, w.violation, "{}: replayed cycle differs from witness", b.name);
        }

        // MC ⊇ randomized walks: the walks sample the same execution
        // tree, so every sampled finding must be enumerated.
        let walks = random_walks(&program, &config, 25, 0xC4);
        for v in &walks.violations {
            assert!(
                mc.violations.contains(v),
                "{}: random-walk violation {v:?} missed by the model checker",
                b.name
            );
        }
    }
    assert!(checked >= 3, "only {checked} suite benchmarks were small enough to model-check");
}

#[test]
fn model_checker_is_deterministic_on_the_suite() {
    let Some(b) = boundable().into_iter().next() else {
        panic!("no boundable suite benchmark");
    };
    let program = c4_lang::parse(b.source).unwrap();
    let config = mc_config();
    let base = model_check(&program, &config);
    let again = model_check(&program, &config);
    let wide = model_check(&program, &McConfig { workers: 4, ..config });
    for other in [&again, &wide] {
        assert_eq!(base.executions, other.executions, "{}", b.name);
        assert_eq!(base.pruned, other.pruned, "{}", b.name);
        assert_eq!(base.classes, other.classes, "{}", b.name);
        assert_eq!(base.violations, other.violations, "{}", b.name);
    }
}

#[test]
fn dpor_halves_at_least_one_benchmark() {
    // The differential that justifies the DPOR machinery: on at least
    // one boundable benchmark, sleep sets cut ≥50% of the naive
    // interleavings while preserving the Mazurkiewicz classes and the
    // verdicts exactly.
    let mut best: Option<(String, u64, u64)> = None;
    let mut halved = false;
    for b in boundable() {
        let program = c4_lang::parse(b.source).unwrap();
        let config = mc_config();
        let naive = model_check(&program, &McConfig { dpor: false, ..config });
        let dpor = model_check(&program, &config);
        if naive.capped || dpor.capped {
            continue;
        }
        assert_eq!(naive.classes, dpor.classes, "{}: DPOR lost trace classes", b.name);
        assert_eq!(naive.violations, dpor.violations, "{}: DPOR changed verdicts", b.name);
        assert!(dpor.executions <= naive.executions, "{}", b.name);
        if dpor.executions * 2 <= naive.executions {
            halved = true;
        }
        let better = best.as_ref().is_none_or(|(_, _, n)| naive.executions > *n);
        if better {
            best = Some((b.name.to_owned(), dpor.executions, naive.executions));
        }
    }
    let (name, d, n) = best.expect("at least one benchmark ran both modes");
    assert!(halved, "DPOR never halved a benchmark (best: {name}, {d} vs {n} naive)");
}
