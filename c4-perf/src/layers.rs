//! Per-layer numbers of the analysis pipeline.
//!
//! A traced run arms the process-global recorder around each verdict,
//! drains it afterwards, and folds the rings into a [`Tally`]: self time
//! per span name (span duration minus the part its child spans cover),
//! SMT query durations, counter sums and replay instants. [`Pipeline`]
//! turns tallies into the analysis-layer metrics named after the spans.
//! The front end has no spans of its own; [`front_end`] times it from
//! outside.

use std::collections::BTreeMap;
use std::time::Instant;

use c4::{filter, AnalysisFeatures, Checker};
use c4_obs::{EventData, TraceLog};

use crate::stats::{ms, quantile, ratio};

/// Per-thread ring capacity for traced runs: far above the event count
/// of the suite's largest analysis, so a drain per verdict never drops.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Everything one drained ring says about the layers.
#[derive(Debug, Default)]
pub struct Tally {
    /// Self nanoseconds per span name.
    self_ns: BTreeMap<&'static str, u64>,
    /// Total nanoseconds per span name.
    total_ns: BTreeMap<&'static str, u64>,
    /// Duration of every solved SMT query (`smt_query` spans), µs.
    query_us: Vec<f64>,
    /// Sum of every counter sample per name (the solver counters are
    /// per-solve deltas; the analysis counters one sample per run).
    counters: BTreeMap<&'static str, u64>,
    /// Verdicts replayed from a symmetry class instead of solved.
    replays: u64,
    /// Events lost to ring overflow.
    dropped: u64,
}

impl Tally {
    pub fn of(log: &TraceLog) -> Tally {
        let mut t = Tally {
            dropped: log.dropped_events(),
            ..Tally::default()
        };
        for thread in &log.threads {
            // (name, start, nanoseconds covered by children)
            let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
            for e in &thread.events {
                match e.data {
                    EventData::Begin { name, .. } => stack.push((name, e.t_ns, 0)),
                    EventData::End { name, .. } => {
                        // An end without its begin was opened before the
                        // recorder was armed; it cannot be attributed.
                        if stack.last().is_none_or(|top| top.0 != name) {
                            continue;
                        }
                        let (_, start, children) = stack.pop().expect("checked above");
                        let dur = e.t_ns.saturating_sub(start);
                        *t.self_ns.entry(name).or_default() += dur.saturating_sub(children);
                        *t.total_ns.entry(name).or_default() += dur;
                        if name == "smt_query" {
                            t.query_us.push(dur as f64 / 1e3);
                        }
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                    }
                    EventData::Instant {
                        name: "smt_query",
                        arg,
                    } if arg == c4_obs::tag::REPLAY => {
                        t.replays += 1;
                    }
                    EventData::Counter { name, value } => {
                        *t.counters.entry(name).or_default() += value;
                    }
                    EventData::Instant { .. } => {}
                }
            }
        }
        t
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Span names whose self time is reported as an analysis layer, with the
/// metric each feeds. `gen_query` is the generalization step's SMT query.
const SPAN_LAYERS: [(&str, &str); 10] = [
    ("intern_arena", "core.intern_arena_ms"),
    ("pair_tables", "core.pair_tables_ms"),
    ("ssg_filter", "core.ssg_filter_ms"),
    ("encoder_build", "core.encoder_build_ms"),
    ("smt_query", "core.smt_query_ms"),
    ("gen_query", "core.smt_query_ms"),
    ("validate", "core.validate_ms"),
    ("merge", "core.merge_ms"),
    ("generalize", "core.generalize_ms"),
    ("check_bounded", "core.check_bounded_self_ms"),
];

/// Analysis-layer accumulator over the verdicts of one traced phase.
#[derive(Debug, Default)]
pub struct Pipeline {
    /// Summed per-verdict values, keyed by metric name.
    sums: BTreeMap<&'static str, f64>,
    query_us: Vec<f64>,
    replays: f64,
    /// Milliseconds of `Checker::run`: its `analysis` span, which opens
    /// at the first statement of `run` and closes as it returns.
    checker_run_ms: f64,
    pub dropped: u64,
    pub verdicts: usize,
}

impl Pipeline {
    fn add_ms(&mut self, metric: &'static str, ms: f64) {
        *self.sums.entry(metric).or_default() += ms;
    }

    /// Folds one verdict's ring.
    pub fn absorb(&mut self, t: &Tally) {
        self.verdicts += 1;
        self.dropped += t.dropped;
        let mut attributed = 0.0;
        for (span, metric) in SPAN_LAYERS {
            let ms = t.self_ms(span);
            attributed += ms;
            self.add_ms(metric, ms);
        }
        let run_ms = t.total_ms("analysis");
        self.checker_run_ms += run_ms;
        self.add_ms("core.unattributed_ms", run_ms - attributed);
        for (counter, metric) in [
            ("unfoldings", "core.unfoldings"),
            ("suspicious_unfoldings", "core.suspicious_unfoldings"),
            ("classes", "core.classes"),
            ("smt_queries", "core.smt_queries"),
            ("smt_sat", "core.smt_sat"),
            ("assumption_solves", "core.assumption_solves"),
            ("sat_resolves", "core.sat_resolves"),
            ("learnt_clauses", "core.learnt_clauses"),
            ("sat_conflicts", "smt.sat_conflicts"),
            ("sat_decisions", "smt.sat_decisions"),
            ("sat_propagations", "smt.sat_propagations"),
        ] {
            *self.sums.entry(metric).or_default() += t.counter(counter);
        }
        *self.sums.entry("core.solved_queries").or_default() += t.query_us.len() as f64;
        self.query_us.extend_from_slice(&t.query_us);
        self.replays += t.replays as f64;
    }

    /// Means per verdict, ratios over the phase's totals, and the query
    /// latency quantiles.
    pub fn finish(&self) -> BTreeMap<&'static str, f64> {
        let n = self.verdicts.max(1) as f64;
        let sum = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
        let mut out: BTreeMap<&'static str, f64> = self
            .sums
            .iter()
            .filter(|(k, _)| **k != "core.smt_sat")
            .map(|(k, v)| (*k, v / n))
            .collect();
        out.insert(
            "core.ssg_survival_ratio",
            ratio(sum("core.suspicious_unfoldings"), sum("core.unfoldings")),
        );
        out.insert(
            "core.class_compression_ratio",
            ratio(sum("core.unfoldings"), sum("core.classes")),
        );
        out.insert(
            "core.query_replay_ratio",
            ratio(self.replays, self.replays + sum("core.solved_queries")),
        );
        out.insert(
            "core.sat_ratio",
            ratio(sum("core.smt_sat"), sum("core.smt_queries")),
        );
        out.insert(
            "core.unattributed_share",
            ratio(sum("core.unattributed_ms"), self.checker_run_ms),
        );
        out.insert("smt.query_p50_us", quantile(&self.query_us, 0.5));
        out.insert("smt.query_p99_us", quantile(&self.query_us, 0.99));
        out
    }
}

/// Times the analysis front end from outside, through its public
/// functions, on each of `sources`: parsing, abstract interpretation, and
/// `Checker::new` (validation plus `FarSpec::compute`) of every history
/// the analysis checks. That is the program's own history and, with
/// `views`, each filtered atomic-set view, whose derivation is timed as
/// `core.filter_views_ms`. Returns the means per source, in ms.
pub fn front_end(
    sources: &[&str],
    f: &AnalysisFeatures,
    views: bool,
) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut timed =
        |metric, start: Instant| *sums.entry(metric).or_default() += ms(start.elapsed());
    for src in sources {
        let t = Instant::now();
        let program = c4_lang::parse(src).expect("benchmark sources parse");
        timed("lang.parse_ms", t);
        let t = Instant::now();
        let history = c4_lang::abstract_history(&program).expect("benchmark sources interpret");
        timed("lang.abstract_history_ms", t);
        let filtered = if views {
            let t = Instant::now();
            let v = filter::atomic_set_views(&filter::drop_display(&history));
            timed("core.filter_views_ms", t);
            v
        } else {
            Vec::new()
        };
        for h in std::iter::once(history).chain(filtered) {
            let t = Instant::now();
            std::hint::black_box(Checker::new(h, f.clone()));
            timed("core.checker_new_ms", t);
        }
    }
    let n = sources.len().max(1) as f64;
    sums.into_iter().map(|(k, v)| (k, v / n)).collect()
}
