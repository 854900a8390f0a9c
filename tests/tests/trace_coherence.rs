//! Trace coherence: the `c4-obs` recorder, threaded through the whole
//! Figure-2 pipeline, must (a) never perturb the analysis — reports
//! are byte-identical with tracing on and off, at 1 and 4 workers —
//! and (b) tell the truth: span nesting is well-formed per thread,
//! the per-query events sum exactly to the pool's and the merge
//! thread's solves, the counter events mirror `AnalysisStats`, and both exporters emit
//! exactly one record per ledger event, as valid JSON.
//!
//! The recorder is process-global, so every test that enables it runs
//! under [`TRACE_LOCK`]. (Integration test files are separate
//! binaries; a file-local lock fully serializes recorder use here.)

use std::sync::Mutex;

use c4::{AnalysisFeatures, AnalysisResult, Checker};
use c4_suite::benchmarks;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Roomy enough that every suite program traces losslessly — drops
/// would invalidate the exact-count assertions below.
const CAPACITY: usize = 1 << 20;

fn run(h: &c4::abstract_history::AbstractHistory, parallelism: usize) -> AnalysisResult {
    let features = AnalysisFeatures { parallelism, ..AnalysisFeatures::default() };
    Checker::new(h.clone(), features).run()
}

fn traced(
    h: &c4::abstract_history::AbstractHistory,
    parallelism: usize,
) -> (AnalysisResult, c4_obs::TraceLog) {
    c4_obs::enable(CAPACITY);
    let result = run(h, parallelism);
    let log = c4_obs::drain();
    assert_eq!(log.dropped_events(), 0, "capacity too small for exact-count checks");
    (result, log)
}

/// Unoptimized builds pay roughly an order of magnitude per SMT query;
/// keep the sweep representative but bounded there (same policy as the
/// symmetry differential).
fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

fn history(b: &c4_suite::Benchmark) -> c4::abstract_history::AbstractHistory {
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

/// Tracing must be invisible to the verdict: report bytes — the cache
/// and service wire format, covering every user-visible field — are
/// identical with the recorder on and off, sequential and parallel.
#[test]
fn tracing_is_verdict_neutral_at_1_and_4_workers() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for b in selection() {
        let h = history(&b);
        for workers in [1usize, 4] {
            let plain = run(&h, workers);
            let (under_trace, _log) = traced(&h, workers);
            assert_eq!(
                plain.encode_report(),
                under_trace.encode_report(),
                "{} at {workers} workers: tracing changed the report",
                b.name
            );
            assert_eq!(
                plain.stats.replay_counters(),
                under_trace.stats.replay_counters(),
                "{} at {workers} workers: tracing changed the replay counters",
                b.name
            );
        }
    }
}

/// Every Begin has a matching same-name End on its own thread, stacks
/// empty out, and the top-level spans of the pipeline all appear.
#[test]
fn span_nesting_is_well_formed() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let b = &selection()[0];
    let h = history(b);
    for workers in [1usize, 4] {
        let (_result, log) = traced(&h, workers);
        log.check_nesting().unwrap_or_else(|e| panic!("{} ({workers}w): {e}", b.name));
        for name in ["analysis", "unfold", "check_bounded", "ssg_filter"] {
            assert!(
                log.count_ends(name, |_| true) > 0,
                "{}: no {name:?} span recorded",
                b.name
            );
        }
    }
}

/// The per-query accounting invariant: End events named `smt_query`
/// tagged sat/unsat/probe sum exactly to the pool's solves
/// (`speculative_smt_queries`) plus the merge thread's own
/// (`merge_smt_queries`); replay commits are Instant events and do not
/// disturb the sum. The counter events mirror the final `AnalysisStats`.
#[test]
fn query_events_sum_to_speculative_smt_queries() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for b in selection() {
        let h = history(&b);
        for workers in [1usize, 4] {
            let (result, log) = traced(&h, workers);
            let s = &result.stats;
            let queries = log.count_ends("smt_query", |t| {
                t == c4_obs::tag::SAT || t == c4_obs::tag::UNSAT || t == c4_obs::tag::PROBE
            });
            assert_eq!(
                queries,
                s.speculative_smt_queries + s.merge_smt_queries,
                "{} at {workers} workers: smt_query events diverge from the stats",
                b.name
            );
            // Replay commits (Instant events, one per candidate verdict
            // transferred from a class record) exist only when symmetry
            // actually skipped members; they are deliberately not End
            // events so they cannot disturb the sum above.
            let replays = log.count_instants("smt_query", c4_obs::tag::REPLAY);
            if s.class_members_skipped == 0 {
                assert_eq!(
                    replays, 0,
                    "{} at {workers} workers: replay commits without skipped members",
                    b.name
                );
            }
            assert_eq!(
                log.count_ends("gen_query", |_| true),
                s.generalization_queries,
                "{} at {workers} workers: generalization queries diverge",
                b.name
            );
            for (name, want) in [
                ("unfoldings", s.unfoldings as u64),
                ("smt_queries", s.smt_queries as u64),
                ("classes", s.classes as u64),
                ("speculative_smt_queries", s.speculative_smt_queries as u64),
                ("merge_smt_queries", s.merge_smt_queries as u64),
            ] {
                assert_eq!(
                    log.last_counter(name),
                    Some(want),
                    "{} at {workers} workers: counter {name:?} diverges",
                    b.name
                );
            }
        }
    }
}

/// Distributed tracing must be invisible to the verdict through the
/// cluster path too: reports served through a 2-backend gateway with
/// the trace ring armed end to end (gateway mints sampled contexts,
/// backends open `request` spans, timing summaries ride back on
/// `Done`) are byte-identical to untraced direct runs, at 1 and 4
/// workers — and the assembled cluster trace passes the merged-trace
/// checker.
#[test]
fn cluster_tracing_is_verdict_neutral_through_the_gateway() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use c4_gateway::{serve as serve_gateway, GatewayConfig};
    use c4_service::client::{Client, Endpoint};
    use c4_service::proto::JobState;
    use c4_service::server::{serve, ServerConfig};

    let b = &selection()[0];
    let h = history(b);
    // Untraced direct baselines, before any ring is armed.
    let plain: Vec<(usize, Vec<u8>)> =
        [1usize, 4].iter().map(|&w| (w, run(&h, w).encode_report())).collect();

    let daemon = |_: usize| {
        serve(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            workers: 2,
            trace_ring: true,
            ..ServerConfig::default()
        })
        .expect("daemon starts")
    };
    let (d1, d2) = (daemon(1), daemon(2));
    let gateway = serve_gateway(GatewayConfig {
        tcp: Some("127.0.0.1:0".into()),
        backends: vec![
            d1.tcp_addr.clone().expect("tcp bound"),
            d2.tcp_addr.clone().expect("tcp bound"),
        ],
        trace_ring: true,
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let client = Client::new(Endpoint::Tcp(gateway.tcp_addr.clone().expect("tcp bound")));

    for (workers, expected) in &plain {
        let features = AnalysisFeatures { parallelism: *workers, ..AnalysisFeatures::default() };
        let (_, state) = client.submit_wait(b.source, &features).expect("submit through gateway");
        match state {
            JobState::Done { report, timing, .. } => {
                assert_eq!(
                    &report, expected,
                    "{} at {workers} workers: cluster tracing changed the report",
                    b.name
                );
                let t = timing.expect("v4 gateway rides a timing summary on Done");
                assert_ne!(t.trace_id, 0, "sampled submissions carry a trace id");
                assert!(!t.backend.is_empty(), "the winning backend is named");
            }
            other => panic!("{}: expected a verdict, got {other:?}", b.name),
        }
    }

    // The assembled cluster trace spans all three processes and passes
    // the merged-trace checks (monotone timelines, span nesting, and
    // the request → gw_forward causal edges).
    let doc = client.cluster_trace().expect("cluster trace assembles");
    let summary = c4_obs::merge::check(&doc)
        .unwrap_or_else(|e| panic!("merged cluster trace fails its checker: {e}"));
    assert_eq!(summary.processes, 3, "gateway + 2 backends");
    assert!(summary.events > 0, "cluster trace is empty");
    assert!(summary.edges > 0, "no cross-process request edges resolved");

    let shutdown = |addr: &str| {
        Client::new(Endpoint::Tcp(addr.to_string())).shutdown().expect("shutdown");
    };
    shutdown(gateway.tcp_addr.as_ref().unwrap());
    gateway.wait();
    shutdown(d1.tcp_addr.as_ref().unwrap());
    d1.wait();
    shutdown(d2.tcp_addr.as_ref().unwrap());
    d2.wait();
    // Leave the process-global recorder disarmed for the other tests.
    let _ = c4_obs::drain();
}

/// Both exporters emit exactly one record per ledger event, as valid
/// JSON: the Chrome trace's `traceEvents` array length and the JSONL
/// line count both equal `event_count()`.
#[test]
fn exporters_emit_one_valid_record_per_event() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The largest selected program: enough suspicious unfoldings that
    // every worker thread demonstrably records its own track.
    let selection = selection();
    let b = selection.iter().max_by_key(|b| b.paper.t * b.paper.e).unwrap();
    let h = history(b);
    let (_result, log) = traced(&h, 4);
    assert!(log.event_count() > 0, "{}: empty trace", b.name);

    let chrome = c4_obs::export::chrome_trace(&log);
    let summary = c4_obs::json::validate(&chrome)
        .unwrap_or_else(|e| panic!("chrome trace is not valid JSON: {e}"));
    assert_eq!(
        summary.trace_events,
        Some(log.event_count()),
        "chrome traceEvents count diverges from the recorder ledger"
    );

    let jsonl = c4_obs::export::jsonl(&log);
    assert_eq!(
        jsonl.lines().count(),
        log.event_count(),
        "JSONL line count diverges from the recorder ledger"
    );
    for line in jsonl.lines().take(512) {
        c4_obs::json::validate(line)
            .unwrap_or_else(|e| panic!("JSONL line not valid JSON ({e}): {line}"));
    }

    // Parallel runs get one track per worker thread: more than one tid
    // must appear, and every thread's slice must nest on its own.
    assert!(log.threads.len() > 1, "parallel run recorded a single thread");
    log.check_nesting().expect("per-thread nesting");
}
