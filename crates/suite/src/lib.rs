//! The evaluation suite of the paper (Section 9), remodelled in CCL.
//!
//! Table 1 evaluates 17 TouchDevelop applications and 11 Cassandra-backed
//! open-source projects. The original sources are unavailable
//! (TouchDevelop is discontinued; the GitHub projects are Java), so each
//! benchmark is re-modelled as a CCL program exhibiting the transaction
//! and data-access patterns the paper describes for it, with a
//! ground-truth classification of every detectable violation into
//! **harmful** (a real bug), **harmless** (a benign serializability
//! violation) or **false alarm** (the program is serializable but the
//! analysis cannot prove it).
//!
//! [`analyze`] runs the full C4 pipeline on a benchmark — front end,
//! unfiltered analysis, and the Section 9.1 filtered analysis (display
//! code dropped, atomic sets analyzed independently) — and classifies the
//! found violations, producing one Table 1 row.

mod cass;
mod td;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use c4::{
    filter, AnalysisFeatures, AnalysisResult, AnalysisStats, CacheCounters, CacheKey, Checker,
    VerdictCache,
};

/// Which evaluation domain a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Cloud-backed mobile applications (TouchDevelop).
    TouchDevelop,
    /// Distributed-database clients (Cassandra).
    Cassandra,
}

/// Ground-truth classification of a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Clearly harmful behavior (an actual bug).
    Harmful,
    /// A real but harmless serializability violation.
    Harmless,
    /// A false alarm: the program is serializable.
    FalseAlarm,
}

/// One benchmark of the suite.
pub struct Benchmark {
    /// Benchmark name (matches the Table 1 row).
    pub name: &'static str,
    /// Domain.
    pub domain: Domain,
    /// CCL source.
    pub source: &'static str,
    /// Ground-truth classifier: violation signature (set of transaction
    /// names) → class.
    pub classify: fn(&BTreeSet<String>) -> Class,
    /// The paper's Table 1 numbers for comparison:
    /// `(T, E, (E,H,F) unfiltered, (E,H,F) filtered)`.
    pub paper: PaperRow,
}

/// The published Table 1 row of a benchmark.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Abstract transactions.
    pub t: usize,
    /// Abstract events.
    pub e: usize,
    /// Unfiltered (errors, harmless, false alarms).
    pub unfiltered: (usize, usize, usize),
    /// Filtered (errors, harmless, false alarms).
    pub filtered: (usize, usize, usize),
}

/// All benchmarks, TouchDevelop first (Table 1 order).
pub fn benchmarks() -> Vec<Benchmark> {
    let mut v = td::benchmarks();
    v.extend(cass::benchmarks());
    v
}

/// Looks a benchmark up by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    benchmarks().into_iter().find(|b| b.name == name)
}

/// Violation counts by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Harmful violations (the paper's `E` column).
    pub errors: usize,
    /// Harmless violations (`H`).
    pub harmless: usize,
    /// False alarms (`F`).
    pub false_alarms: usize,
}

impl Counts {
    /// Total violations.
    pub fn total(&self) -> usize {
        self.errors + self.harmless + self.false_alarms
    }
}

/// The outcome of analyzing one benchmark (one Table 1 row).
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Benchmark name.
    pub name: &'static str,
    /// Abstract transactions (`T`).
    pub t: usize,
    /// Abstract events (`E`).
    pub e: usize,
    /// Front-end time (parse + abstract interpretation).
    pub fe_time: Duration,
    /// Back-end time (both analysis runs).
    pub be_time: Duration,
    /// Unfiltered classified violations.
    pub unfiltered: Vec<(BTreeSet<String>, Class)>,
    /// Filtered classified violations.
    pub filtered: Vec<(BTreeSet<String>, Class)>,
    /// Whether both runs generalized to unboundedly many sessions.
    pub generalized: bool,
    /// Largest `k` used.
    pub max_k: usize,
    /// Merged analysis statistics.
    pub stats: AnalysisStats,
    /// Verdict-cache activity attributable to this benchmark (all zero
    /// when analyzed without a cache).
    pub cache: CacheCounters,
}

impl BenchOutcome {
    /// Counts for the unfiltered run.
    pub fn unfiltered_counts(&self) -> Counts {
        count(&self.unfiltered)
    }

    /// Counts for the filtered run.
    pub fn filtered_counts(&self) -> Counts {
        count(&self.filtered)
    }
}

fn count(vs: &[(BTreeSet<String>, Class)]) -> Counts {
    let mut c = Counts::default();
    for (_, class) in vs {
        match class {
            Class::Harmful => c.errors += 1,
            Class::Harmless => c.harmless += 1,
            Class::FalseAlarm => c.false_alarms += 1,
        }
    }
    c
}

/// Runs the full pipeline on a benchmark.
///
/// # Panics
///
/// Panics if the benchmark source fails to parse or interpret (suite
/// sources are fixed and tested).
pub fn analyze(b: &Benchmark, features: &AnalysisFeatures) -> BenchOutcome {
    analyze_with_cache(b, features, None)
}

/// [`analyze`] with an optional content-addressed verdict cache.
///
/// Each checker run of the pipeline — the unfiltered analysis and every
/// filtered atomic-set view — is cached independently, keyed by the
/// canonical CCL source, a per-run tag (`"unfiltered"` /
/// `"filtered:<view>"`) and the verdict-relevant features. Cached
/// verdicts are byte-stable, so a warm [`BenchOutcome`] carries exactly
/// the same violations, classifications, `generalized` flag, `max_k`
/// and replay counters as a cold one; only timings (and the
/// scheduling-dependent stats, which are zero on hits) differ. Partial
/// (deadline-hit) results are never stored. The filtered views reuse
/// the transaction indices of the full history, so cached view verdicts
/// re-classify correctly.
///
/// # Panics
///
/// Panics if the benchmark source fails to parse or interpret (suite
/// sources are fixed and tested).
pub fn analyze_with_cache(
    b: &Benchmark,
    features: &AnalysisFeatures,
    cache: Option<&VerdictCache>,
) -> BenchOutcome {
    let fe_start = Instant::now();
    let fe_span = c4_obs::span("front_end");
    let program = c4_lang::parse(b.source).expect("suite sources parse");
    let history = c4_lang::abstract_history(&program).expect("suite sources interpret");
    let canon = cache.map(|_| c4_lang::canonical(&program));
    drop(fe_span);
    let fe_time = fe_start.elapsed();
    let counters_before = cache.map(|c| c.counters()).unwrap_or_default();

    let run = |history: c4::AbstractHistory, tag: &str| -> AnalysisResult {
        let key = cache
            .map(|_| CacheKey::derive(canon.as_deref().unwrap(), tag, features));
        if let (Some(cache), Some(key)) = (cache, &key) {
            let _lookup = c4_obs::span("cache_lookup");
            if let Some((bytes, _tier)) = cache.lookup(key) {
                return AnalysisResult::decode_report(&bytes)
                    .expect("cache returns only decode-validated entries");
            }
        }
        let res = Checker::new(history, features.clone()).run();
        if let (Some(cache), Some(key)) = (cache, &key) {
            // A deadline-hit verdict is partial; caching it would let a
            // short-budget run shadow a complete one.
            if !res.stats.deadline_hit {
                cache.store(key, &res.encode_report());
            }
        }
        res
    };

    let be_start = Instant::now();
    let mut stats = AnalysisStats::default();
    // Unfiltered run: everything analyzed together.
    let unfiltered_res = run(history.clone(), "unfiltered");
    stats.absorb(&unfiltered_res.stats);
    let name_of = |i: usize| history.txs[i].name.clone();
    let mut unfiltered: Vec<(BTreeSet<String>, Class)> = Vec::new();
    for v in &unfiltered_res.violations {
        let sig: BTreeSet<String> = v.txs.iter().map(|&i| name_of(i)).collect();
        if !unfiltered.iter().any(|(s, _)| *s == sig) {
            let class = (b.classify)(&sig);
            unfiltered.push((sig, class));
        }
    }
    // Filtered run: display code dropped, atomic sets independent.
    let base = filter::drop_display(&history);
    let mut filtered: Vec<(BTreeSet<String>, Class)> = Vec::new();
    let mut generalized = unfiltered_res.generalized;
    let mut max_k = unfiltered_res.max_k;
    for (vi, view) in filter::atomic_set_views(&base).into_iter().enumerate() {
        let res = run(view, &format!("filtered:{vi}"));
        stats.absorb(&res.stats);
        generalized &= res.generalized;
        max_k = max_k.max(res.max_k);
        for v in &res.violations {
            let sig: BTreeSet<String> = v.txs.iter().map(|&i| name_of(i)).collect();
            if !filtered.iter().any(|(s, _)| *s == sig) {
                let class = (b.classify)(&sig);
                filtered.push((sig, class));
            }
        }
    }
    BenchOutcome {
        name: b.name,
        t: history.txs.len(),
        e: history.event_count(),
        fe_time,
        be_time: be_start.elapsed(),
        unfiltered,
        filtered,
        generalized,
        max_k,
        stats,
        cache: cache.map(|c| c.counters().since(&counters_before)).unwrap_or_default(),
    }
}

/// One benchmark outcome as a single machine-readable JSON line — the
/// `table1 --json` record. The workspace is offline (no serde), and
/// the shapes here are flat enough that assembling the object by hand
/// stays readable; benchmark names are ASCII identifiers, so no string
/// escaping is needed.
///
/// The record carries the **full** `AnalysisStats`, split by
/// determinism contract:
///
/// * `"stats"` — the replay counters plus run shape: identical across
///   worker counts (differential tests compare these byte-for-byte);
/// * `"sched"` — scheduling-dependent counters
///   (speculative/prepruned/assumption solves, symmetry class
///   accounting, residency, per-worker query distribution): allowed
///   to differ run-to-run, stripped by [`strip_volatile`];
/// * `"timings_ms"` — self time per [`c4::Stage`], in ledger order,
///   never deterministic.
pub fn json_line(domain: Domain, out: &BenchOutcome) -> String {
    let counts = |c: Counts| {
        format!(
            r#"{{"errors":{},"harmless":{},"false_alarms":{}}}"#,
            c.errors, c.harmless, c.false_alarms
        )
    };
    let s = &out.stats;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let timings = s
        .timings
        .iter()
        .map(|(stage, d)| format!(r#""{}":{:.3}"#, stage.name(), ms(d)))
        .collect::<Vec<_>>()
        .join(",");
    let per_worker = s
        .per_worker_queries
        .iter()
        .map(|q| q.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            r#"{{"name":"{name}","domain":"{domain}","t":{t},"e":{e},"#,
            r#""fe_ms":{fe_ms:.3},"be_ms":{be_ms:.3},"#,
            r#""unfiltered":{unf},"filtered":{fil},"#,
            r#""generalized":{gen},"max_k":{max_k},"deadline_hit":{dl},"#,
            r#""stats":{{"unfoldings":{unfold},"suspicious_unfoldings":{susp},"#,
            r#""smt_queries":{queries},"smt_sat":{sat},"smt_refuted":{refuted},"#,
            r#""generalization_queries":{genq},"subsumed_candidates":{subsumed},"#,
            r#""validation_failures":{vfail},"workers":{workers}}},"#,
            r#""sched":{{"speculative_smt_queries":{spec},"preprune_skips":{pps},"#,
            r#""preprune_fallbacks":{ppf},"merge_smt_queries":{mergeq},"#,
            r#""assumption_solves":{asol},"#,
            r#""sat_resolves":{sres},"learnt_clauses":{learnt},"#,
            r#""classes":{classes},"class_members_skipped":{skipped},"#,
            r#""peak_unfoldings_resident":{peak},"per_worker_queries":[{pwq}]}},"#,
            r#""timings_ms":{{{timings}}},"#,
            r#""cache":{{"mem_hits":{c_mem},"disk_hits":{c_disk},"misses":{c_miss},"#,
            r#""stores":{c_stores},"evictions":{c_evict},"stale_drops":{c_stale}}}}}"#,
        ),
        name = out.name,
        domain = match domain {
            Domain::TouchDevelop => "touchdevelop",
            Domain::Cassandra => "cassandra",
        },
        t = out.t,
        e = out.e,
        fe_ms = ms(out.fe_time),
        be_ms = ms(out.be_time),
        unf = counts(out.unfiltered_counts()),
        fil = counts(out.filtered_counts()),
        gen = out.generalized,
        max_k = out.max_k,
        dl = s.deadline_hit,
        unfold = s.unfoldings,
        susp = s.suspicious_unfoldings,
        queries = s.smt_queries,
        sat = s.smt_sat,
        refuted = s.smt_refuted,
        genq = s.generalization_queries,
        subsumed = s.subsumed_candidates,
        vfail = s.validation_failures,
        workers = s.workers,
        spec = s.speculative_smt_queries,
        pps = s.preprune_skips,
        ppf = s.preprune_fallbacks,
        mergeq = s.merge_smt_queries,
        asol = s.assumption_solves,
        sres = s.sat_resolves,
        learnt = s.learnt_clauses,
        classes = s.classes,
        skipped = s.class_members_skipped,
        peak = s.peak_unfoldings_resident,
        pwq = per_worker,
        timings = timings,
        c_mem = out.cache.mem_hits,
        c_disk = out.cache.disk_hits,
        c_miss = out.cache.misses,
        c_stores = out.cache.stores,
        c_evict = out.cache.evictions,
        c_stale = out.cache.stale_drops,
    )
}

/// Strips the run-to-run volatile parts of a [`json_line`] record —
/// the `fe_ms`/`be_ms` wall clocks, the `"sched"` block, and the
/// `"timings_ms"` block — leaving the deterministic remainder that
/// differential tests compare byte-for-byte.
pub fn strip_volatile(line: &str) -> String {
    let mut s = line.to_string();
    if let Some(i) = s.find("\"fe_ms\":") {
        if let Some(j) = s[i..].find("\"unfiltered\"") {
            s.replace_range(i..i + j, "");
        }
    }
    // Both blocks are flat objects except for the per-worker array,
    // which contains no `}`, so the first close brace ends the block.
    for key in ["\"sched\":{", "\"timings_ms\":{"] {
        if let Some(i) = s.find(key) {
            let start = i + key.len();
            if let Some(j) = s[start..].find('}') {
                let mut end = start + j + 1;
                if s.as_bytes().get(end) == Some(&b',') {
                    end += 1;
                }
                s.replace_range(i..end, "");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_valid_json_and_strip_removes_volatile_blocks() {
        let b = benchmark("Tetris").unwrap();
        let out = analyze(&b, &AnalysisFeatures::default());
        let line = json_line(Domain::TouchDevelop, &out);
        c4_obs::json::validate(&line).expect("json_line must parse as JSON");
        for field in [
            "\"sched\":{",
            "\"per_worker_queries\":[",
            "\"classes\":",
            "\"peak_unfoldings_resident\":",
        ] {
            assert!(line.contains(field), "json_line missing {field}");
        }
        for stage in c4::Stage::ALL {
            let field = format!("\"{}\":", stage.name());
            assert!(line.contains(&field), "json_line missing {field}");
        }
        let stripped = strip_volatile(&line);
        c4_obs::json::validate(&stripped).expect("stripped line must stay valid JSON");
        for gone in ["\"sched\":{", "\"timings_ms\":{", "\"fe_ms\":", "\"be_ms\":"] {
            assert!(!stripped.contains(gone), "strip_volatile left {gone}");
        }
        assert!(stripped.contains("\"stats\":{"), "strip_volatile must keep stats");
        assert!(stripped.contains("\"cache\":{"), "strip_volatile must keep cache");
    }

    #[test]
    fn all_sources_parse_and_interpret() {
        for b in benchmarks() {
            let p = c4_lang::parse(b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let h = c4_lang::abstract_history(&p)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(!h.txs.is_empty(), "{} has no transactions", b.name);
            assert!(h.event_count() > 0, "{} has no events", b.name);
        }
    }

    #[test]
    fn cached_analysis_reproduces_direct_analysis() {
        let features = AnalysisFeatures::default();
        let cache = VerdictCache::in_memory(64);
        for name in ["Tetris", "killrchat"] {
            let b = benchmark(name).unwrap();
            let direct = analyze(&b, &features);
            let cold = analyze_with_cache(&b, &features, Some(&cache));
            let warm = analyze_with_cache(&b, &features, Some(&cache));
            assert_eq!(cold.cache.mem_hits, 0, "{name}: first cached run computes");
            assert!(cold.cache.stores > 0, "{name}: first cached run stores");
            assert_eq!(warm.cache.misses, 0, "{name}: second cached run all-hits");
            assert_eq!(warm.cache.mem_hits, cold.cache.stores, "{name}: hit per stored run");
            for out in [&cold, &warm] {
                assert_eq!(out.unfiltered, direct.unfiltered, "{name}");
                assert_eq!(out.filtered, direct.filtered, "{name}");
                assert_eq!(out.generalized, direct.generalized, "{name}");
                assert_eq!(out.max_k, direct.max_k, "{name}");
                assert_eq!(
                    out.stats.replay_counters(),
                    direct.stats.replay_counters(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn registry_matches_table1() {
        let bs = benchmarks();
        assert_eq!(bs.len(), 28);
        assert_eq!(bs.iter().filter(|b| b.domain == Domain::TouchDevelop).count(), 17);
        assert_eq!(bs.iter().filter(|b| b.domain == Domain::Cassandra).count(), 11);
        assert!(benchmark("Tetris").is_some());
        assert!(benchmark("killrchat").is_some());
        assert!(benchmark("nonexistent").is_none());
    }
}
