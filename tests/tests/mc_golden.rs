//! Golden oracle for the dynamic side: the model checker, its random
//! walks, and the §9.5 randomized exploration.
//!
//! Every execution these explore ends in a concrete DSG cycle check, so
//! the `cyclic` counts are the sensitive part: one dependency edge added
//! or dropped anywhere in the thousands of checked executions moves
//! them. The goldens pin, per row of the EXPERIMENTS model-checking
//! table, `model_check` (2 sessions, DPOR, 200 000 executions cap) and
//! `random_walks` (50 walks, seed 7), and for every suite program
//! `c4_dynamic::explore` (150 runs, seed 0xC4C4). The model-checker
//! lines must hold at 1 and at 4 workers.
//!
//! The golden file has one line per check, tab-separated:
//! * `mc  name  executions  cyclic  pruned  classes  exec_errors  violations  witnesses`
//! * `walks  name  walks  cyclic  violations`
//! * `dynamic  name  cyclic_runs  violations`
//!
//! Violations print as `{a,b}` sets joined by `;`; a witness prints as
//! its profile and its schedule (`r0.1` runs session 0's transaction 1,
//! `d0.1>1` delivers it to replica 1). To regenerate the file after an
//! intended change, run
//! `cargo test --release -p c4-tests --test mc_golden -- --ignored --nocapture`
//! and replace it with the printed lines.

use std::collections::BTreeSet;

use c4_dynamic::ExploreConfig;
use c4_mc::{model_check, random_walks, McConfig, StableAction};

const GOLDEN: &str = include_str!("../golden/mc.txt");

/// The model-checking rows of EXPERIMENTS.md that finish in seconds.
const MC_ROWS: &[&str] = &[
    "Contest Voting",
    "dstax-queueing",
    "EC2 Demo Chat",
    "curr-exchange",
    "Color Line",
    "Tetris",
    "cassandra-lock",
    "Instant Poll",
    "FieldGPS",
    "Events",
];

/// Unoptimized builds model-check the rows under 2 000 executions;
/// release builds check every row.
const DEBUG_MC_ROWS: usize = 7;

fn mc_config(workers: usize) -> McConfig {
    McConfig { sessions: 2, depth: None, dpor: true, workers, max_execs: 200_000 }
}

fn explore_config() -> ExploreConfig {
    ExploreConfig { runs: 150, seed: 0xC4C4, ..ExploreConfig::default() }
}

fn program(name: &str) -> c4_lang::ast::Program {
    let b = c4_suite::benchmark(name).unwrap_or_else(|| panic!("{name}: not in the suite"));
    c4_lang::parse(b.source).expect("suite sources parse")
}

fn violations(vs: &[BTreeSet<String>]) -> String {
    let sets: Vec<String> = vs
        .iter()
        .map(|v| format!("{{{}}}", v.iter().cloned().collect::<Vec<_>>().join(",")))
        .collect();
    sets.join(";")
}

fn schedule(trace: &[StableAction]) -> String {
    let steps: Vec<String> = trace
        .iter()
        .map(|a| match *a {
            StableAction::Run { session, index } => format!("r{session}.{index}"),
            StableAction::Deliver { session, index, to } => format!("d{session}.{index}>{to}"),
        })
        .collect();
    steps.join(" ")
}

fn mc_line(name: &str, workers: usize) -> String {
    let r = model_check(&program(name), &mc_config(workers));
    let witnesses: Vec<String> =
        r.witnesses.iter().map(|w| format!("p{}: {}", w.profile, schedule(&w.trace))).collect();
    format!(
        "mc\t{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.executions,
        r.cyclic,
        r.pruned,
        r.classes,
        r.exec_errors,
        violations(&r.violations),
        witnesses.join(" | ")
    )
}

fn walks_line(name: &str) -> String {
    let r = random_walks(&program(name), &mc_config(1), 50, 7);
    format!("walks\t{name}\t{}\t{}\t{}", r.walks, r.cyclic, violations(&r.violations))
}

fn dynamic_line(name: &str) -> String {
    let r = c4_dynamic::explore(&program(name), &explore_config());
    format!("dynamic\t{name}\t{}\t{}", r.cyclic_runs, violations(&r.violations))
}

fn golden(kind: &str, name: &str) -> &'static str {
    GOLDEN
        .lines()
        .find(|l| {
            let mut cols = l.split('\t');
            cols.next() == Some(kind) && cols.next() == Some(name)
        })
        .unwrap_or_else(|| panic!("{kind} {name}: no golden line"))
}

fn mc_rows() -> &'static [&'static str] {
    if cfg!(debug_assertions) {
        &MC_ROWS[..DEBUG_MC_ROWS]
    } else {
        MC_ROWS
    }
}

#[test]
fn golden_file_covers_rows_and_suite() {
    let names = |kind: &str| -> Vec<&str> {
        GOLDEN
            .lines()
            .filter(|l| l.split('\t').next() == Some(kind))
            .map(|l| l.split('\t').nth(1).unwrap())
            .collect()
    };
    assert_eq!(names("mc"), MC_ROWS);
    assert_eq!(names("walks"), MC_ROWS);
    let suite: Vec<&str> = c4_suite::benchmarks().iter().map(|b| b.name).collect();
    assert_eq!(names("dynamic"), suite, "golden file and suite list diverged");
}

#[test]
fn model_checker_matches_goldens_at_one_worker() {
    for name in mc_rows() {
        assert_eq!(mc_line(name, 1), golden("mc", name), "{name}: diverged from the golden");
    }
}

#[test]
fn model_checker_matches_goldens_at_four_workers() {
    for name in mc_rows() {
        assert_eq!(mc_line(name, 4), golden("mc", name), "{name}: diverged at 4 workers");
    }
}

#[test]
fn random_walks_match_goldens() {
    for name in mc_rows() {
        assert_eq!(walks_line(name), golden("walks", name), "{name}: diverged from the golden");
    }
}

#[test]
fn dynamic_exploration_matches_goldens() {
    for b in c4_suite::benchmarks() {
        assert_eq!(
            dynamic_line(b.name),
            golden("dynamic", b.name),
            "{}: diverged from the golden",
            b.name
        );
    }
}

/// Prints the golden file for the current tree (see the module docs).
#[test]
#[ignore]
fn print_goldens() {
    for name in MC_ROWS {
        println!("{}", mc_line(name, 1));
    }
    for name in MC_ROWS {
        println!("{}", walks_line(name));
    }
    for b in c4_suite::benchmarks() {
        println!("{}", dynamic_line(b.name));
    }
}
