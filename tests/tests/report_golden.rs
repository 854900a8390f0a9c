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
//! `cargo test --release -p c4-tests --test report_golden -- --ignored --nocapture print_goldens`
//! and replace the file with the printed lines.
//!
//! `views.txt` pins the filtered runs the same way: one line per
//! atomic-set view of each program with display code dropped
//! (`filter::atomic_set_views(&filter::drop_display(&h))`, the views
//! `table1` and the cold benchmark analyze), at one worker:
//! `name<TAB>view<TAB>sha256`. Regenerate it with `print_view_goldens`.

use c4::{filter, sha256, AbstractHistory, AnalysisFeatures, AnalysisResult, Checker};
use c4_suite::benchmarks;

const GOLDEN: &str = include_str!("../golden/reports.txt");
const VIEWS: &str = include_str!("../golden/views.txt");

/// Unoptimized builds pay roughly an order of magnitude per SMT query;
/// they check the cheap programs only. Release builds cover the suite.
fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

fn history(b: &c4_suite::Benchmark) -> AbstractHistory {
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

fn analyze(name: &str, h: AbstractHistory, workers: usize) -> AnalysisResult {
    let features = AnalysisFeatures { parallelism: workers, ..AnalysisFeatures::default() };
    let r = Checker::new(h, features).run();
    assert!(!r.stats.deadline_hit, "{name}: budget fired");
    r
}

fn run(b: &c4_suite::Benchmark, workers: usize) -> AnalysisResult {
    analyze(b.name, history(b), workers)
}

/// The `views.txt` lines of one program: one per filtered view.
fn view_lines(b: &c4_suite::Benchmark) -> Vec<String> {
    filter::atomic_set_views(&filter::drop_display(&history(b)))
        .into_iter()
        .enumerate()
        .map(|(vi, view)| format!("{}\t{vi}\t{}", b.name, digest(&analyze(b.name, view, 1))))
        .collect()
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
fn views_golden_covers_the_suite() {
    let names: Vec<&str> = VIEWS.lines().map(|l| l.split('\t').next().unwrap()).collect();
    let mut want: Vec<&str> = Vec::new();
    for b in benchmarks() {
        let n = filter::atomic_set_views(&filter::drop_display(&history(&b))).len();
        want.extend(std::iter::repeat(b.name).take(n));
    }
    assert_eq!(names, want, "views golden and the suite's filtered views diverged");
    for l in VIEWS.lines() {
        assert_eq!(l.split('\t').count(), 3, "malformed views golden line: {l}");
    }
}

#[test]
fn filtered_views_match_goldens_at_one_worker() {
    for b in selection() {
        let want: Vec<&str> =
            VIEWS.lines().filter(|l| l.split('\t').next() == Some(b.name)).collect();
        assert_eq!(view_lines(&b), want, "{}: a filtered view diverged from the golden", b.name);
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

/// Prints the views golden file for the current tree (see the module
/// docs).
#[test]
#[ignore]
fn print_view_goldens() {
    for b in benchmarks() {
        for l in view_lines(&b) {
            println!("{l}");
        }
    }
}
