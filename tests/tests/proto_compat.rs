//! Protocol compatibility across the v1 → v4 wire evolution: a
//! hand-crafted v1 or v2 client talking to a current daemon — or to
//! the gateway, which speaks the same protocol — gets byte-compatible
//! legacy payloads (the fixed 18-`u64` stats shape for v1, the
//! queue-full `Error` in place of the typed `Busy`), the newer frames
//! are cleanly rejected for old peers, and the v3/v4 frames round-trip
//! losslessly under property testing. The v4 additions (trace context
//! on `Submit`/`Forward`, the timing summary on `Done`, the recorder
//! clock on `Health`) are append-only: a frame that doesn't carry them
//! is byte-for-byte its v3 encoding, and the carried forms are
//! truncated away for pre-v4 peers rather than leaking.

use std::net::TcpStream;
use std::time::Duration;

use c4::{AnalysisFeatures, CacheTier};
use c4_gateway::{serve as serve_gateway, GatewayConfig};
use c4_service::proto::{
    read_frame, write_frame, JobState, ReqTiming, Request, Response, HealthInfo,
    TraceCtx, PROTO_VERSION, REQ_FORWARD, REQ_HEALTH, RESP_STATS,
};
use c4_service::server::{serve, ServerConfig};
use proptest::prelude::*;

/// Re-stamps an encoded request with an older protocol version (the
/// version is the two big-endian bytes after the tag, and the body
/// encodings are identical across versions).
fn at_version(mut payload: Vec<u8>, version: u16) -> Vec<u8> {
    payload[1..3].copy_from_slice(&version.to_be_bytes());
    payload
}

fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(stream, payload).expect("write frame");
    read_frame(stream).expect("read frame").expect("peer replied")
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(600))).expect("timeout");
    s
}

#[test]
fn v1_and_v2_clients_get_legacy_payloads_from_daemon_and_gateway() {
    let daemon = serve(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let daemon_addr = daemon.tcp_addr.clone().expect("tcp bound");
    let gateway = serve_gateway(GatewayConfig {
        tcp: Some("127.0.0.1:0".into()),
        backends: vec![daemon_addr.clone()],
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let gateway_addr = gateway.tcp_addr.clone().expect("tcp bound");

    let bench = c4_suite::benchmark("Tetris").expect("suite has Tetris");
    let features = AnalysisFeatures::default();
    let expected =
        c4_service::run_analysis(bench.source, &features).expect("direct run").encode_report();
    let submit = Request::Submit {
        wait: true,
        features: features.clone(),
        source: bench.source.to_string(),
        ctx: None,
    }
    .encode();

    for addr in [&daemon_addr, &gateway_addr] {
        for version in [1u16, 2] {
            let mut s = connect(addr);

            // Submit: old peers get the verdict exactly as always.
            let reply = exchange(&mut s, &at_version(submit.clone(), version));
            match Response::decode(&reply).expect("decode status") {
                Response::Status { state: JobState::Done { report, .. }, .. } => {
                    assert_eq!(report, expected, "v{version} @ {addr}: report bytes changed");
                }
                other => panic!("v{version} @ {addr}: expected a verdict, got {other:?}"),
            }

            // Stats: v1 peers parse a fixed 18-u64 payload; the v2
            // latency summaries must be truncated away, not appended.
            let reply = exchange(&mut s, &at_version(Request::Stats.encode(), version));
            assert_eq!(reply[0], RESP_STATS);
            let expect_len = 1 + 8 * if version == 1 { 18 } else { 24 };
            assert_eq!(
                reply.len(),
                expect_len,
                "v{version} @ {addr}: stats payload shape changed"
            );

            // v3-only frames from an old peer: a clean protocol error,
            // and the connection stays usable afterwards.
            for tag in [REQ_HEALTH, REQ_FORWARD] {
                let mut raw = vec![tag];
                raw.extend_from_slice(&version.to_be_bytes());
                if tag == REQ_FORWARD {
                    // Forward carries a features + source body; decoding
                    // must fail on the tag gate, not trailing bytes.
                    raw = at_version(
                        Request::Forward {
                            features: features.clone(),
                            source: bench.source.to_string(),
                            ctx: None,
                        }
                        .encode(),
                        version,
                    );
                }
                let reply = exchange(&mut s, &raw);
                assert!(
                    matches!(Response::decode(&reply), Ok(Response::Error { .. })),
                    "v{version} @ {addr}: tag {tag:#x} must be rejected with an error"
                );
            }
            let reply = exchange(&mut s, &at_version(Request::Stats.encode(), version));
            assert_eq!(reply[0], RESP_STATS, "v{version} @ {addr}: conn unusable after error");
        }
    }

    // The typed Busy downgrade old peers rely on (the daemon and the
    // gateway both encode replies through this path).
    let busy = Response::Busy { retry_after_ms: 1234 };
    for version in [1u16, 2] {
        match Response::decode(&busy.encode_for_version(version)).expect("decode") {
            Response::Error { message } => assert_eq!(
                message, "queue full; retry after 1234 ms",
                "v{version}: legacy busy message changed"
            ),
            other => panic!("v{version}: Busy must downgrade to Error, got {other:?}"),
        }
    }
    assert_eq!(
        Response::decode(&busy.encode_for_version(PROTO_VERSION)).expect("decode"),
        busy,
        "v3 keeps the typed Busy"
    );

    let mut s = connect(&gateway_addr);
    let reply = exchange(&mut s, &Request::Shutdown.encode());
    assert!(matches!(Response::decode(&reply), Ok(Response::ShutdownAck)));
    gateway.wait();
    let mut s = connect(&daemon_addr);
    let reply = exchange(&mut s, &Request::Shutdown.encode());
    assert!(matches!(Response::decode(&reply), Ok(Response::ShutdownAck)));
    daemon.wait();
}

fn arb_features() -> impl Strategy<Value = AnalysisFeatures> {
    (0u16..256, 0u32..=1024, any::<u64>(), 0u32..=1024).prop_map(
        |(bits, max_k, budget, parallelism)| AnalysisFeatures {
            commutativity: bits & 1 != 0,
            absorption: bits & 2 != 0,
            constraints: bits & 4 != 0,
            control_flow: bits & 8 != 0,
            asymmetric: bits & 16 != 0,
            freshness: bits & 32 != 0,
            ret_justification: bits & 64 != 0,
            validate_counterexamples: bits & 128 != 0,
            max_k: max_k as usize,
            time_budget_secs: budget,
            parallelism: parallelism as usize,
        },
    )
}

fn arb_source() -> impl Strategy<Value = String> {
    // The wire treats the source as an opaque length-prefixed string;
    // printable ASCII exercises the framing without a CCL parser in
    // the loop.
    proptest::collection::vec(32u8..127, 0..=64)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

proptest! {
    /// The v3 request frames (Health, Forward) round-trip through
    /// encode → decode_versioned at the current version.
    #[test]
    fn new_request_frames_roundtrip(features in arb_features(), source in arb_source()) {
        for req in [Request::Health, Request::Forward { features, source, ctx: None }] {
            let (back, version) = Request::decode_versioned(&req.encode())
                .expect("own encoding decodes");
            prop_assert_eq!(version, PROTO_VERSION);
            prop_assert_eq!(back, req);
        }
    }

    /// The v3 response frames (Busy, Health, Forwarded) round-trip
    /// through encode → decode.
    #[test]
    fn new_response_frames_roundtrip(
        retry_after_ms in any::<u64>(),
        job_id in any::<u64>(),
        accepting in any::<bool>(),
        vals in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let frames = [
            Response::Busy { retry_after_ms },
            Response::Forwarded { job_id },
            Response::Health(HealthInfo {
                accepting,
                queue_len: vals.0,
                queue_cap: vals.1,
                running: vals.2,
                workers: vals.3,
                uptime_ms: vals.4,
                now_ns: vals.5,
            }),
        ];
        for resp in frames {
            prop_assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
        }
    }

    /// The v4 trace context round-trips on `Submit` and `Forward`,
    /// present or absent, at the current version.
    #[test]
    fn v4_trace_context_roundtrips(
        features in arb_features(),
        source in arb_source(),
        wait in any::<bool>(),
        ctx in arb_ctx(),
    ) {
        let frames = [
            Request::Submit { wait, features: features.clone(), source: source.clone(), ctx },
            Request::Forward { features, source, ctx },
        ];
        for req in frames {
            let (back, version) = Request::decode_versioned(&req.encode())
                .expect("own encoding decodes");
            prop_assert_eq!(version, PROTO_VERSION);
            prop_assert_eq!(back, req);
        }
    }

    /// v4 frames downgrade byte-for-byte: without a context the
    /// encoding is exactly what a v3 peer sends (re-stamped to every
    /// older version it decodes to the same fields), and attaching a
    /// context costs exactly the 17 appended bytes that older decoders
    /// never see.
    #[test]
    fn ctxless_v4_frames_downgrade_byte_for_byte(
        features in arb_features(),
        source in arb_source(),
        wait in any::<bool>(),
        ids in (any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let ctx = TraceCtx { trace_id: ids.0, parent_span: ids.1, sampled: ids.2 };
        let bare_submit = Request::Submit {
            wait,
            features: features.clone(),
            source: source.clone(),
            ctx: None,
        }
        .encode();
        let full_submit = Request::Submit {
            wait,
            features: features.clone(),
            source: source.clone(),
            ctx: Some(ctx),
        }
        .encode();
        prop_assert_eq!(full_submit.len(), bare_submit.len() + 17, "ctx is a 17-byte suffix");
        prop_assert_eq!(&full_submit[..bare_submit.len()], &bare_submit[..]);

        // Submit exists since v1; Forward since v3.
        for version in [1u16, 2, 3] {
            let (back, v) = Request::decode_versioned(&at_version(bare_submit.clone(), version))
                .expect("older re-stamp decodes");
            prop_assert_eq!(v, version);
            prop_assert_eq!(back, Request::Submit {
                wait,
                features: features.clone(),
                source: source.clone(),
                ctx: None,
            });
        }
        let bare_forward =
            Request::Forward { features: features.clone(), source: source.clone(), ctx: None }
                .encode();
        let (back, v) = Request::decode_versioned(&at_version(bare_forward, 3))
            .expect("v3 forward decodes");
        prop_assert_eq!(v, 3);
        prop_assert_eq!(back, Request::Forward { features, source, ctx: None });
    }

    /// The `Done` timing summary (v4) round-trips at the current
    /// version and is truncated away — byte-for-byte — for pre-v4
    /// peers, so old clients parse exactly what they always parsed.
    #[test]
    fn done_timing_roundtrips_and_downgrades(
        job_id in any::<u64>(),
        trace_id in any::<u64>(),
        gateway_ms in any::<u64>(),
        retries in any::<u32>(),
        hedged in any::<bool>(),
        queue_ms in any::<u64>(),
        run_ms in any::<u64>(),
        stage_ms in proptest::collection::vec(0u64..1_000_000, 0..4),
    ) {
        let timing = ReqTiming {
            trace_id,
            backend: "127.0.0.1:4344".to_string(),
            retries,
            hedged,
            gateway_ms,
            stages: stage_ms
                .iter()
                .enumerate()
                .map(|(i, &ms)| (format!("stage{i}"), ms))
                .collect(),
        };
        let done = |timing: Option<ReqTiming>| Response::Status {
            job_id,
            state: JobState::Done {
                tier: CacheTier::Miss,
                queue_ms,
                run_ms,
                report: vec![1, 2, 3],
                timing,
            },
        };
        let timed = done(Some(timing));
        prop_assert_eq!(
            Response::decode(&timed.encode()).expect("v4 decodes"),
            timed.clone()
        );
        prop_assert_eq!(
            timed.encode_for_version(3),
            done(None).encode_for_version(3),
            "pre-v4 encodings must not depend on the timing summary"
        );
        prop_assert_eq!(
            Response::decode(&timed.encode_for_version(3)).expect("v3 decodes"),
            done(None),
            "pre-v4 peers see the classic Done"
        );
    }
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceCtx>> {
    (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
        |(trace_id, parent_span, sampled, present)| {
            present.then_some(TraceCtx { trace_id, parent_span, sampled })
        },
    )
}
