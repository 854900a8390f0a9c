//! Golden wire frames: one encoded payload per `Request` and `Response`
//! variant (and per `JobState` inside `Status`), pinned as hex.
//!
//! The protocol is the contract between every peer built from this
//! repository, so a refactor of the codec must keep these bytes. Each
//! golden line must equal the current encoding of its value, and must
//! decode back to that value.
//!
//! The golden file has one line per frame: `kind<TAB>name<TAB>hex`, with
//! `kind` either `req` or `resp`. To regenerate it after an intended
//! protocol change, run
//! `cargo test -p c4-tests --test frame_golden -- --ignored --nocapture`
//! and replace the file with the printed lines.

use c4::{AnalysisFeatures, CacheTier};
use c4_service::proto::{
    DaemonStats, HealthInfo, JobState, ReqTiming, Request, Response, TraceCtx,
};

const GOLDEN: &str = include_str!("../golden/frames.txt");

const SOURCE: &str = "store { map M; }\ntxn t() { M.put(1, 2); }\nsession { t }";

fn features() -> AnalysisFeatures {
    AnalysisFeatures {
        absorption: false,
        max_k: 3,
        time_budget_secs: 17,
        parallelism: 2,
        ..AnalysisFeatures::default()
    }
}

fn ctx() -> TraceCtx {
    TraceCtx { trace_id: 0x0123_4567_89AB_CDEF, parent_span: 42, sampled: true }
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "submit",
            Request::Submit { wait: true, features: features(), source: SOURCE.into(), ctx: None },
        ),
        (
            "submit_ctx",
            Request::Submit {
                wait: false,
                features: features(),
                source: SOURCE.into(),
                ctx: Some(ctx()),
            },
        ),
        ("status", Request::Status { job_id: 7 }),
        ("cancel", Request::Cancel { job_id: 8 }),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
        ("metrics", Request::Metrics),
        ("trace", Request::Trace { features: features(), source: SOURCE.into() }),
        ("health", Request::Health),
        ("forward", Request::Forward { features: features(), source: SOURCE.into(), ctx: None }),
        (
            "forward_ctx",
            Request::Forward { features: features(), source: SOURCE.into(), ctx: Some(ctx()) },
        ),
        ("ring_dump", Request::RingDump),
        ("cluster_trace", Request::ClusterTrace),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let done = |timing| JobState::Done {
        tier: CacheTier::Memory,
        queue_ms: 3,
        run_ms: 250,
        report: vec![0xC4, 0x00, 0x01, 0xFF],
        timing,
    };
    let timing = ReqTiming {
        trace_id: 0xABCD,
        backend: "127.0.0.1:4344".into(),
        retries: 1,
        hedged: true,
        gateway_ms: 260,
        stages: vec![("unfold".into(), 20), ("smt".into(), 200)],
    };
    let stats = DaemonStats {
        uptime_ms: 1,
        submitted: 2,
        completed: 3,
        cancelled: 4,
        failed: 5,
        rejected: 6,
        queue_len: 7,
        running: 8,
        queue_cap: 9,
        workers: 10,
        cache_mem_hits: 11,
        cache_disk_hits: 12,
        cache_misses: 13,
        cache_stores: 14,
        cache_evictions: 15,
        cache_stale_drops: 16,
        cache_mem_entries: 17,
        cache_disk_entries: 18,
        wait_p50_ms: 19,
        wait_p95_ms: 20,
        wait_max_ms: 21,
        run_p50_ms: 22,
        run_p95_ms: 23,
        run_max_ms: 24,
    };
    vec![
        ("submitted", Response::Submitted { job_id: 5 }),
        ("status_queued", Response::Status { job_id: 5, state: JobState::Queued }),
        ("status_running", Response::Status { job_id: 5, state: JobState::Running }),
        ("status_done", Response::Status { job_id: 5, state: done(None) }),
        ("status_done_timing", Response::Status { job_id: 5, state: done(Some(timing)) }),
        ("status_cancelled", Response::Status { job_id: 5, state: JobState::Cancelled }),
        (
            "status_failed",
            Response::Status {
                job_id: 5,
                state: JobState::Failed { message: "parse error".into() },
            },
        ),
        ("cancelled", Response::Cancelled { ok: true }),
        ("stats", Response::Stats(stats)),
        ("shutdown_ack", Response::ShutdownAck),
        ("error", Response::Error { message: "unknown job 9".into() }),
        ("metrics", Response::Metrics { text: "# TYPE c4d_workers gauge\nc4d_workers 1\n".into() }),
        ("trace", Response::Trace { report: vec![1, 2, 3], trace: "{\"t_ns\":1}\n".into() }),
        ("busy", Response::Busy { retry_after_ms: 150 }),
        (
            "health",
            Response::Health(HealthInfo {
                accepting: true,
                queue_len: 2,
                queue_cap: 64,
                running: 1,
                workers: 4,
                uptime_ms: 9001,
                now_ns: 123_456_789,
            }),
        ),
        ("forwarded", Response::Forwarded { job_id: 31 }),
        ("ring_dump", Response::RingDump { now_ns: 42, trace: "{\"t_ns\":1}\n".into() }),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// The golden payload of `kind`/`name`.
fn golden(kind: &str, name: &str) -> Vec<u8> {
    let line = GOLDEN
        .lines()
        .find(|l| l.split('\t').take(2).eq([kind, name]))
        .unwrap_or_else(|| panic!("{kind} {name}: no golden line"));
    unhex(line.rsplit('\t').next().expect("hex column"))
}

#[test]
fn golden_file_covers_every_frame() {
    let expected = requests().len() + responses().len();
    assert_eq!(GOLDEN.lines().count(), expected, "one golden line per catalogued frame");
}

#[test]
fn requests_encode_to_the_golden_bytes() {
    for (name, req) in requests() {
        let bytes = golden("req", name);
        assert_eq!(hex(&req.encode()), hex(&bytes), "req {name}: encoding changed");
        assert_eq!(Request::decode(&bytes).expect("golden decodes"), req, "req {name}");
    }
}

#[test]
fn responses_encode_to_the_golden_bytes() {
    for (name, resp) in responses() {
        let bytes = golden("resp", name);
        assert_eq!(hex(&resp.encode()), hex(&bytes), "resp {name}: encoding changed");
        assert_eq!(Response::decode(&bytes).expect("golden decodes"), resp, "resp {name}");
    }
}

/// Prints the golden file for the current tree (see the module docs).
#[test]
#[ignore]
fn print_goldens() {
    for (name, req) in requests() {
        println!("req\t{name}\t{}", hex(&req.encode()));
    }
    for (name, resp) in responses() {
        println!("resp\t{name}\t{}", hex(&resp.encode()));
    }
}
