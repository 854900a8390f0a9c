//! Golden report oracle: every suite program's `encode_report` bytes,
//! pinned as a SHA-256 digest together with the incremental-SMT counters
//! of a one-worker run.
//!
//! The digests make any change to violations, counter-example renderings,
//! `generalized`, `max_k` or the replay counters visible. The counters
//! (`smt_queries`, `assumption_solves`, `sat_resolves`, `learnt_clauses`)
//! pin the solver's search itself: a front-end rewrite that creates terms,
//! Tseitin variables or clauses in a different order changes the learnt
//! clause count long before it changes a verdict. At four workers only the
//! digest is checked, since the counters there are scheduling-dependent.
//!
//! The golden file has one line per program:
//! `name<TAB>sha256<TAB>smt_queries<TAB>assumption_solves<TAB>sat_resolves<TAB>learnt_clauses`.
//! To regenerate it after an intended report change, run
//! `cargo test --release -p c4-tests --test report_golden -- --ignored --nocapture`
//! and replace the file with the printed lines.

use c4::{sha256, AnalysisFeatures, AnalysisResult, Checker};
use c4_suite::benchmarks;

const GOLDEN: &str = include_str!("../golden/reports.txt");

/// Unoptimized builds pay roughly an order of magnitude per SMT query;
/// they check the cheap programs only. Release builds cover the suite.
fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

fn run(b: &c4_suite::Benchmark, workers: usize) -> AnalysisResult {
    let p = c4_lang::parse(b.source).expect("parse");
    let h = c4_lang::abstract_history(&p).expect("interp");
    let features = AnalysisFeatures { parallelism: workers, ..AnalysisFeatures::default() };
    let r = Checker::new(h, features).run();
    assert!(!r.stats.deadline_hit, "{}: budget fired", b.name);
    r
}

fn digest(r: &AnalysisResult) -> String {
    sha256(&r.encode_report()).iter().map(|b| format!("{b:02x}")).collect()
}

fn line(name: &str, r: &AnalysisResult) -> String {
    let s = &r.stats;
    format!(
        "{name}\t{}\t{}\t{}\t{}\t{}",
        digest(r),
        s.smt_queries,
        s.assumption_solves,
        s.sat_resolves,
        s.learnt_clauses
    )
}

fn golden(name: &str) -> &'static str {
    GOLDEN
        .lines()
        .find(|l| l.split('\t').next() == Some(name))
        .unwrap_or_else(|| panic!("{name}: no golden line"))
}

#[test]
fn golden_file_covers_the_suite() {
    let names: Vec<&str> = GOLDEN.lines().map(|l| l.split('\t').next().unwrap()).collect();
    let suite: Vec<&str> = benchmarks().iter().map(|b| b.name).collect();
    assert_eq!(names, suite, "golden file and suite list diverged");
    for l in GOLDEN.lines() {
        assert_eq!(l.split('\t').count(), 6, "malformed golden line: {l}");
    }
}

#[test]
fn reports_and_counters_match_goldens_at_one_worker() {
    for b in selection() {
        let r = run(&b, 1);
        assert_eq!(line(b.name, &r), golden(b.name), "{}: diverged from the golden", b.name);
    }
}

#[test]
fn reports_match_goldens_at_four_workers() {
    for b in selection() {
        let r = run(&b, 4);
        let want = golden(b.name).split('\t').nth(1).unwrap();
        assert_eq!(digest(&r), want, "{}: report bytes diverged at 4 workers", b.name);
    }
}

/// Prints the golden file for the current tree (see the module docs).
#[test]
#[ignore]
fn print_goldens() {
    for b in benchmarks() {
        println!("{}", line(b.name, &run(&b, 1)));
    }
}
