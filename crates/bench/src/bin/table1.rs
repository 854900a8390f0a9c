//! Regenerates Table 1: per-benchmark sizes, times and classified
//! violation counts, unfiltered and filtered, plus the Section 9.2
//! aggregate statistics.
//!
//! Usage: `table1 [--threads N] [--budget SECS] [--stats] [--json]
//! [--cache-dir DIR] [--trace PATH] [benchmark-name …]` (all benchmarks
//! by default). `--threads` sets `AnalysisFeatures::parallelism` (0 =
//! one worker per hardware thread); results are identical for every
//! setting. `--budget` caps
//! each analysis run's wall clock (deadline hits are reported in the
//! aggregates); `--stats` prints per-benchmark analysis statistics and
//! the process's peak RSS after the aggregates;
//! `--json` emits one machine-readable JSON object per benchmark
//! (verdict counts, stage timings, cache counters) instead of the
//! table; `--cache-dir` routes every checker run through a persistent
//! content-addressed verdict cache rooted at DIR (verdicts are
//! byte-stable, so cached rows are identical to computed ones);
//! `--trace PATH` records a structured trace of the whole run and
//! writes it to PATH on exit — Chrome trace-event JSON by default
//! (Perfetto / `chrome://tracing`-loadable), compact JSONL when PATH
//! ends in `.jsonl` — and prints a `trace: N events (M dropped)`
//! ledger line (tracing is verdict-neutral: all outputs are identical
//! with and without it). Exits nonzero if any run reports
//! counter-example validation failures.

use c4::{AnalysisFeatures, VerdictCache};
use c4_bench::secs;
use c4_suite::{benchmarks, json_line, Counts, Domain};

/// Per-thread recorder ring for `--trace`: generous enough that the
/// Table 1 slice traces losslessly; Relatd-scale runs degrade
/// gracefully (drop-oldest, reported in the `trace:` line).
const TRACE_CAPACITY: usize = 1 << 19;

fn main() {
    let mut threads: Option<usize> = None;
    let mut budget: Option<u64> = None;
    let mut stats = false;
    let mut json = false;
    let mut cache_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let v = args.next().expect("--threads needs a value");
            threads = Some(v.parse().expect("--threads value must be an integer"));
        } else if a == "--budget" {
            let v = args.next().expect("--budget needs a value");
            budget = Some(v.parse().expect("--budget value must be an integer (seconds)"));
        } else if a == "--stats" {
            stats = true;
        } else if a == "--json" {
            json = true;
        } else if a == "--cache-dir" {
            cache_dir = Some(args.next().expect("--cache-dir needs a value"));
        } else if a == "--trace" {
            trace_path = Some(args.next().expect("--trace needs a path"));
        } else {
            names.push(a);
        }
    }
    if trace_path.is_some() {
        c4_obs::enable(TRACE_CAPACITY);
    }
    let cache = cache_dir.map(|dir| {
        VerdictCache::open(&dir, 1024).unwrap_or_else(|e| panic!("opening cache at {dir}: {e}"))
    });
    let mut features = AnalysisFeatures::default();
    if let Some(t) = threads {
        features.parallelism = t;
    }
    if let Some(b) = budget {
        features.time_budget_secs = b;
    }
    let all = benchmarks();
    for name in &names {
        assert!(
            all.iter().any(|b| b.name == name),
            "unknown benchmark {name:?} (see `benchmarks()` for the Table 1 names)"
        );
    }
    let selected: Vec<_> = all
        .into_iter()
        .filter(|b| names.is_empty() || names.iter().any(|a| a == b.name))
        .collect();

    if !json {
        println!(
            "{:<18} {:>3} {:>3}  {:>6} {:>6} {:>6}   {:>11}   {:>11}  gen k",
            "Program", "T", "E", "FE[s]", "BE[s]", "Σ[s]", "unfilt E/H/F", "filt E/H/F"
        );
    }
    let mut totals_unf = Counts::default();
    let mut totals_fil = Counts::default();
    let mut all_generalized = true;
    let mut max_k = 0;
    let mut validation_failures = 0usize;
    let mut deadline_hits = 0usize;
    let mut workers = 0usize;
    let mut last_domain = None;
    for b in &selected {
        if !json && last_domain != Some(b.domain) {
            let name = match b.domain {
                Domain::TouchDevelop => "— TouchDevelop —",
                Domain::Cassandra => "— Cassandra —",
            };
            println!("{name}");
            last_domain = Some(b.domain);
        }
        let out = c4_suite::analyze_with_cache(b, &features, cache.as_ref());
        let u = out.unfiltered_counts();
        let f = out.filtered_counts();
        totals_unf.errors += u.errors;
        totals_unf.harmless += u.harmless;
        totals_unf.false_alarms += u.false_alarms;
        totals_fil.errors += f.errors;
        totals_fil.harmless += f.harmless;
        totals_fil.false_alarms += f.false_alarms;
        all_generalized &= out.generalized;
        max_k = out.max_k.max(max_k);
        validation_failures += out.stats.validation_failures;
        deadline_hits += out.stats.deadline_hit as usize;
        workers = workers.max(out.stats.workers);
        if json {
            println!("{}", json_line(b.domain, &out));
            continue;
        }
        if stats {
            let s = &out.stats;
            println!(
                "    unfoldings {} ({} suspicious), queries {} ({} sat, {} refuted, {} gen), \
                 subsumed {}, speculative {}, prepruned {} (+{} fallbacks), \
                 per-worker {:?}, merge-thread {}",
                s.unfoldings,
                s.suspicious_unfoldings,
                s.smt_queries,
                s.smt_sat,
                s.smt_refuted,
                s.generalization_queries,
                s.subsumed_candidates,
                s.speculative_smt_queries,
                s.preprune_skips,
                s.preprune_fallbacks,
                s.per_worker_queries,
                s.merge_smt_queries,
            );
            println!(
                "    incremental: {} assumption solves ({} sat re-solves), {} learnt clauses retained",
                s.assumption_solves, s.sat_resolves, s.learnt_clauses,
            );
            println!(
                "    symmetry: {} classes, {} members replayed, peak resident unfoldings {}",
                s.classes, s.class_members_skipped, s.peak_unfoldings_resident,
            );
            let timings: Vec<String> =
                s.timings.iter().map(|(stage, d)| format!("{} {d:?}", stage.name())).collect();
            println!("    timings: {}", timings.join(", "));
        }
        println!(
            "{:<18} {:>3} {:>3}  {:>6} {:>6} {:>6}   {:>4}/{}/{}/{:<2}  {:>4}/{}/{}/{:<2}  {} {}",
            out.name,
            out.t,
            out.e,
            secs(out.fe_time),
            secs(out.be_time),
            secs(out.fe_time + out.be_time),
            u.errors,
            u.harmless,
            u.false_alarms,
            u.total(),
            f.errors,
            f.harmless,
            f.false_alarms,
            f.total(),
            if out.generalized { "✓" } else { "✗" },
            out.max_k,
        );
    }
    if let Some(cache) = &cache {
        cache.flush_index().expect("flushing the cache index");
    }
    if let Some(path) = &trace_path {
        let log = c4_obs::drain();
        let text = if path.ends_with(".jsonl") {
            c4_obs::export::jsonl(&log)
        } else {
            c4_obs::export::chrome_trace(&log)
        };
        std::fs::write(path, text)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        let ledger = format!(
            "trace: {} events ({} dropped) -> {path}",
            log.event_count(),
            log.dropped_events()
        );
        // Keep --json stdout machine-readable: the ledger line goes to
        // stderr there.
        if json {
            eprintln!("{ledger}");
        } else {
            println!("{ledger}");
        }
    }
    if json {
        if validation_failures > 0 {
            eprintln!("error: {validation_failures} counter-example(s) failed concrete validation");
            std::process::exit(1);
        }
        return;
    }
    println!();
    let pct = |n: usize, d: usize| if d == 0 { 0.0 } else { 100.0 * n as f64 / d as f64 };
    println!("Section 9.2 aggregates:");
    println!(
        "  unfiltered: {} violations ({} harmful, {} harmless, {} false alarms — {:.0}% FA rate)",
        totals_unf.total(),
        totals_unf.errors,
        totals_unf.harmless,
        totals_unf.false_alarms,
        pct(totals_unf.false_alarms, totals_unf.total()),
    );
    println!(
        "  filtered:   {} violations ({} harmful = {:.0}%, {} harmless, {} false alarms — {:.0}% FA rate)",
        totals_fil.total(),
        totals_fil.errors,
        pct(totals_fil.errors, totals_fil.total()),
        totals_fil.harmless,
        totals_fil.false_alarms,
        pct(totals_fil.false_alarms, totals_fil.total()),
    );
    println!(
        "  avg violations/project: {:.1} unfiltered, {:.1} filtered",
        totals_unf.total() as f64 / selected.len().max(1) as f64,
        totals_fil.total() as f64 / selected.len().max(1) as f64,
    );
    println!(
        "  generalization: {} (max k = {max_k})",
        if all_generalized { "succeeded for every benchmark" } else { "bounded fallback on some benchmarks" },
    );
    println!(
        "  workers: {workers}, validation failures: {validation_failures}, deadline hits: {deadline_hits}"
    );
    if stats {
        match c4_bench::peak_rss_kb() {
            Some(kb) => println!("  peak RSS: {kb} kB"),
            None => println!("  peak RSS: unavailable"),
        }
    }
    if validation_failures > 0 {
        eprintln!("error: {validation_failures} counter-example(s) failed concrete validation");
        std::process::exit(1);
    }
}
