//! The stage ledger tells the same story as the trace, in the same words.
//!
//! * `AnalysisStats::timings` is the online self-time fold of the stage
//!   spans: for every `Stage`, a traced run's ledger equals, to the
//!   nanosecond, the self time an independent fold of the drained trace
//!   gives that span name.
//! * Every surface that reports stage times — the `c4d` job's
//!   `ReqTiming`, its Prometheus stage histograms and `table1 --json`'s
//!   `timings_ms` — names exactly the `Stage`s, in ledger order.
//!
//! The recorder is process-global, so the tests here run under
//! [`LOCK`]: a daemon's stages must not land in another test's trace.

use std::collections::BTreeMap;
use std::sync::Mutex;

use c4::{AnalysisFeatures, Checker, Stage};
use c4_obs::{EventData, TraceLog};
use c4_service::client::{Client, Endpoint};
use c4_service::proto::JobState;
use c4_service::server::{serve, ServerConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn names() -> Vec<&'static str> {
    Stage::ALL.iter().map(|s| s.name()).collect()
}

/// Self nanoseconds per span name: each span's duration minus the
/// durations of the spans directly inside it, summed over all threads.
fn self_ns(log: &TraceLog) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for thread in &log.threads {
        // (name, start, nanoseconds covered by children)
        let mut open: Vec<(&'static str, u64, u64)> = Vec::new();
        for e in &thread.events {
            match e.data {
                EventData::Begin { name, .. } => open.push((name, e.t_ns, 0)),
                EventData::End { name, .. } => {
                    let (begun, start, children) = open.pop().expect("balanced spans");
                    assert_eq!(begun, name, "spans nest");
                    let dur = e.t_ns - start;
                    *out.entry(name).or_default() += dur - children;
                    if let Some(parent) = open.last_mut() {
                        parent.2 += dur;
                    }
                }
                EventData::Instant { .. } | EventData::Counter { .. } => {}
            }
        }
    }
    out
}

#[test]
fn stage_timings_equal_the_self_time_fold_of_the_trace() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let b = c4_suite::benchmark("Super Chat").expect("exists");
    let h = c4_lang::abstract_history(&c4_lang::parse(b.source).expect("parse")).expect("interp");
    for workers in [1usize, 4] {
        let checker =
            Checker::new(h.clone(), AnalysisFeatures { parallelism: workers, ..Default::default() });
        c4_obs::enable(1 << 20);
        let result = checker.run();
        let log = c4_obs::drain();
        assert_eq!(log.dropped_events(), 0, "a lossless trace");
        let fold = self_ns(&log);
        for stage in Stage::ALL {
            assert_eq!(
                result.stats.timings.get(stage).as_nanos(),
                u128::from(fold.get(stage.name()).copied().unwrap_or(0)),
                "{workers} workers: {stage:?}"
            );
        }
        assert!(fold.contains_key(Stage::SmtQuery.name()), "the run solved queries");
        if workers > 1 {
            assert!(fold.contains_key(Stage::Merge.name()), "the pool merged");
        }
    }
}

#[test]
fn every_stage_surface_names_the_stages_in_order() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let b = c4_suite::benchmark("Super Chat").expect("exists");
    let features = AnalysisFeatures::default();

    // The daemon: a computed job's `ReqTiming` and the stage histograms.
    let handle = serve(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let client = Client::new(Endpoint::Tcp(handle.tcp_addr.clone().expect("tcp bound")));
    let (_, state) = client.submit_wait(b.source, &features).expect("submit");
    let timing = match state {
        JobState::Done { timing: Some(timing), .. } => timing,
        other => panic!("expected a computed Done, got {other:?}"),
    };
    let stages: Vec<&str> = timing.stages.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(stages, names(), "ReqTiming stages");
    let metrics = client.metrics().expect("metrics");
    let labels: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("c4d_stage_duration_milliseconds_count{stage=\""))
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    assert_eq!(labels, names(), "stage histogram labels");
    client.shutdown().expect("shutdown");
    handle.wait();

    // `table1 --json`.
    let line = c4_suite::json_line(b.domain, &c4_suite::analyze(&b, &features));
    let block = line.split("\"timings_ms\":{").nth(1).expect("timings_ms block");
    let block = &block[..block.find('}').expect("closing brace")];
    let keys: Vec<&str> = block
        .split(',')
        .map(|kv| kv.split(':').next().expect("key").trim_matches('"'))
        .collect();
    assert_eq!(keys, names(), "timings_ms keys");
}
