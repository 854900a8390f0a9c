//! The candidate blow-up history as a fixed regression case:
//! `t0 = {M.put(*, *); M.get(7); M.get(*)}`, `t1 = {S.add(7)}`,
//! `t2 = {S.contains(local)}`. Its one violation is found at k = 2 and
//! subsumes every later candidate, so at `max_k = 3` the search walks
//! 192 647 subsumed candidates for four SMT queries. The driver at 1 and
//! 4 workers must report the bytes and replay counters of the reference
//! search, and a release run must stay within 70 MB peak RSS: subsumed
//! candidates cost a compact record each, not a heap block.

mod common;

use c4::{AnalysisFeatures, Checker};

/// The process's peak resident set in kB (`VmHWM`), where the platform
/// reports one.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn blowup_history_at_three_sessions_matches_the_reference() {
    let h = common::history_of(vec![
        vec![(0, 0), (3, 1), (0, 1)],
        vec![(3, 2)],
        vec![(2, 3)],
    ]);
    let features = |parallelism| AnalysisFeatures { max_k: 3, parallelism, ..AnalysisFeatures::default() };
    let reference = Checker::new(h.clone(), features(1)).run_reference();
    assert!(!reference.stats.deadline_hit, "budget fired in the reference run");
    assert_eq!(reference.stats.subsumed_candidates, 192_647);
    assert_eq!(reference.violations.len(), 1);
    for workers in [1, 4] {
        let run = Checker::new(h.clone(), features(workers)).run();
        assert!(!run.stats.deadline_hit, "budget fired at {workers} worker(s)");
        assert_eq!(
            run.encode_report(),
            reference.encode_report(),
            "report bytes diverged at {workers} worker(s)\nrun: {run}\nreference: {reference}"
        );
        assert_eq!(run.stats.replay_counters(), reference.stats.replay_counters());
    }
    if cfg!(debug_assertions) {
        return;
    }
    let kb = peak_rss_kb().expect("peak RSS from /proc/self/status");
    eprintln!("blow-up history, max_k = 3: peak RSS {kb} kB");
    assert!(kb <= 70 * 1024, "peak RSS {kb} kB exceeds 70 MB");
}
