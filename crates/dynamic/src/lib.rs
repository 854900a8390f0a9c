//! Dynamic serializability analysis (the baseline of Section 9.5).
//!
//! Mirrors the POPL'17 dynamic analyzer the paper compares against: CCL
//! programs are executed repeatedly on the multi-replica causal simulator
//! under randomized schedules (transaction mix, argument choice, delivery
//! timing), the concrete DSG of each run is built, and observed cycles are
//! reported as violations. Dynamic analysis only sees violations that the
//! explored timings actually trigger — the comparison harness shows which
//! statically-found violations it misses.

use std::collections::BTreeSet;

use c4_dsg::ConcreteCheck;
use c4_lang::{ast::Program, TxnRunner};
use c4_store::sim::CausalSim;
use c4_store::Value;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Configuration of the randomized exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of independent runs.
    pub runs: usize,
    /// Sessions (and replicas) per run.
    pub sessions: usize,
    /// Transactions per run.
    pub txns_per_run: usize,
    /// Probability of delivering a pending message after each commit.
    pub delivery_prob: f64,
    /// Size of the key/value pool arguments are drawn from.
    pub value_pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            runs: 100,
            sessions: 3,
            txns_per_run: 10,
            delivery_prob: 0.15,
            value_pool: 2,
            seed: 0xC4,
        }
    }
}

/// The outcome of a dynamic exploration.
#[derive(Debug, Clone, Default)]
pub struct DynamicReport {
    /// Distinct violations: the sets of transaction names on observed DSG
    /// cycles.
    pub violations: Vec<BTreeSet<String>>,
    /// Number of runs executed.
    pub runs: usize,
    /// Number of runs whose DSG was cyclic.
    pub cyclic_runs: usize,
    /// The RNG seed the exploration ran with (for reproduction).
    pub seed: u64,
}

impl DynamicReport {
    /// Whether a violation with exactly this transaction set was seen.
    pub fn contains(&self, txs: &BTreeSet<String>) -> bool {
        self.violations.iter().any(|v| v == txs)
    }
}

/// Runs the randomized dynamic analysis on a program.
pub fn explore(program: &Program, config: &ExploreConfig) -> DynamicReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report =
        DynamicReport { runs: config.runs, seed: config.seed, ..DynamicReport::default() };
    if program.txns.is_empty() {
        return report;
    }
    // Each run's DSG uses the far relations of that run's own alphabet
    // (a wider one would weaken them). The check computes them once per
    // distinct alphabet of this exploration.
    let memo = ConcreteCheck::new();
    let mut check = memo.local();
    for _ in 0..config.runs {
        let Some((history, schedule, names)) = one_run(program, config, &mut rng) else {
            continue;
        };
        if let Some(cycle) = check.cycle(&history, &schedule) {
            report.cyclic_runs += 1;
            let sig: BTreeSet<String> = cycle.iter().map(|t| names[t.index()].clone()).collect();
            if !report.violations.contains(&sig) {
                report.violations.push(sig);
            }
        }
    }
    report
}

/// Executes one randomized run; returns the history, its schedule, and the
/// transaction-name of each concrete transaction.
fn one_run(
    program: &Program,
    config: &ExploreConfig,
    rng: &mut StdRng,
) -> Option<(c4_store::History, c4_store::Schedule, Vec<String>)> {
    let mut sim = CausalSim::new(config.sessions);
    let sessions: Vec<_> = (0..config.sessions).map(|r| sim.session(r)).collect();
    let mut runner = TxnRunner::new(program);
    // Constants: globals one pool value, locals per session.
    for g in &program.globals {
        runner.set_global(g.clone(), pool_value(rng, config.value_pool));
    }
    for s in 0..config.sessions {
        for l in &program.locals {
            runner.set_local(s, l.clone(), pool_value(rng, config.value_pool));
        }
    }
    // Record which txn ran as the i-th transaction of each session.
    let mut session_log: Vec<Vec<String>> = vec![Vec::new(); config.sessions];
    for _ in 0..config.txns_per_run {
        let s = rng.gen_range(0..config.sessions);
        let txn = &program.txns[rng.gen_range(0..program.txns.len())];
        let args: Vec<Value> =
            txn.params.iter().map(|_| pool_value(rng, config.value_pool)).collect();
        if runner.run(&mut sim, sessions[s], s, &txn.name, &args).is_err() {
            return None;
        }
        session_log[s].push(txn.name.clone());
        for d in sim.deliverable() {
            if rng.gen_bool(config.delivery_prob) {
                sim.deliver(d);
            }
        }
    }
    sim.deliver_all();
    let (history, schedule) = sim.into_history();
    // Map concrete transactions to names: the k-th transaction of a
    // session is the k-th logged run.
    let mut counters = vec![0usize; config.sessions];
    let mut names = Vec::with_capacity(history.transactions().count());
    for t in history.transactions() {
        let s = t.session.0 as usize;
        names.push(session_log[s][counters[s]].clone());
        counters[s] += 1;
    }
    Some((history, schedule, names))
}

fn pool_value(rng: &mut StdRng, pool: usize) -> Value {
    match rng.gen_range(0..3) {
        0 => Value::int(rng.gen_range(0..pool as i64)),
        1 => Value::str(format!("k{}", rng.gen_range(0..pool))),
        _ => Value::int(rng.gen_range(0..pool as i64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_figure1a_violation() {
        let p = c4_lang::parse(
            r#"
            store { map M; }
            txn P(x, y) { M.put(x, y); }
            txn G(z)    { M.get(z); }
        "#,
        )
        .unwrap();
        let report = explore(&p, &ExploreConfig { runs: 150, ..ExploreConfig::default() });
        assert!(report.cyclic_runs > 0, "the race should be triggered dynamically");
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("P") && v.contains("G")));
    }

    #[test]
    fn commutative_program_stays_clean() {
        let p = c4_lang::parse(
            r#"
            store { counter C; }
            txn bump() { C.inc(1); }
        "#,
        )
        .unwrap();
        let report = explore(&p, &ExploreConfig { runs: 40, ..ExploreConfig::default() });
        assert_eq!(report.cyclic_runs, 0);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn timing_dependent_bug_is_often_missed_with_eager_delivery() {
        // With delivery probability 1.0 every update propagates instantly
        // between commits — the Figure 1a race needs concurrency to show.
        let p = c4_lang::parse(
            r#"
            store { map M; }
            txn P(x, y) { M.put(x, y); }
            txn G(z)    { M.get(z); }
        "#,
        )
        .unwrap();
        let eager = ExploreConfig {
            runs: 30,
            delivery_prob: 1.0,
            sessions: 2,
            txns_per_run: 4,
            ..ExploreConfig::default()
        };
        let lazy = ExploreConfig {
            runs: 30,
            delivery_prob: 0.0,
            sessions: 2,
            txns_per_run: 4,
            ..ExploreConfig::default()
        };
        let r_eager = explore(&p, &eager);
        let r_lazy = explore(&p, &lazy);
        assert!(
            r_lazy.cyclic_runs >= r_eager.cyclic_runs,
            "less delivery ⇒ at least as many races ({} vs {})",
            r_lazy.cyclic_runs,
            r_eager.cyclic_runs
        );
    }
}
