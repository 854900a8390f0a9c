//! One protocol version across both tiers: a frame stamped with any
//! version but [`PROTO_VERSION`] gets a typed `Error` from the daemon
//! and from the gateway, and the connection keeps serving current
//! frames. The same holds for a frame whose analysis features ask for
//! more workers than the protocol allows. The request and response
//! frames round-trip losslessly under property testing; the trace
//! context on `Submit`/`Forward` is an optional 17-byte tail.

use std::net::TcpStream;
use std::time::Duration;

use c4::{AnalysisFeatures, CacheTier};
use c4_gateway::{serve as serve_gateway, GatewayConfig, GatewayHandle};
use c4_service::proto::{
    read_frame, write_frame, HealthInfo, JobState, ReqTiming, Request, Response, TraceCtx,
    MAX_PARALLELISM, PROTO_VERSION,
};
use c4_service::server::{serve, ServerConfig, ServerHandle};
use proptest::prelude::*;

/// Re-stamps an encoded request with another protocol version (the
/// version is the two big-endian bytes after the tag).
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

/// A daemon and a gateway whose only backend is that daemon.
fn cluster() -> (ServerHandle, String, GatewayHandle, String) {
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
    (daemon, daemon_addr, gateway, gateway_addr)
}

fn shutdown(daemon: ServerHandle, daemon_addr: &str, gateway: GatewayHandle, gateway_addr: &str) {
    for addr in [gateway_addr, daemon_addr] {
        let reply = exchange(&mut connect(addr), &Request::Shutdown.encode());
        assert!(matches!(Response::decode(&reply), Ok(Response::ShutdownAck)));
    }
    gateway.wait();
    daemon.wait();
}

/// Tetris's submit frame and the report a direct run produces for it.
fn tetris_submit() -> (Vec<u8>, Vec<u8>) {
    let bench = c4_suite::benchmark("Tetris").expect("suite has Tetris");
    let features = AnalysisFeatures::default();
    let expected =
        c4_service::run_analysis(bench.source, &features).expect("direct run").encode_report();
    let submit =
        Request::Submit { wait: true, features, source: bench.source.to_string(), ctx: None }
            .encode();
    (submit, expected)
}

fn assert_verdict(reply: &[u8], expected: &[u8], what: &str) {
    match Response::decode(reply).expect("decode status") {
        Response::Status { state: JobState::Done { report, .. }, .. } => {
            assert_eq!(report, expected, "{what}: report bytes changed");
        }
        other => panic!("{what}: expected a verdict, got {other:?}"),
    }
}

fn assert_protocol_error(reply: &[u8], what: &str) {
    match Response::decode(reply) {
        Ok(Response::Error { message }) => {
            assert!(message.starts_with("protocol error: "), "{what}: {message}");
        }
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn other_protocol_versions_get_errors_from_daemon_and_gateway() {
    let (daemon, daemon_addr, gateway, gateway_addr) = cluster();
    let (submit, expected) = tetris_submit();
    for addr in [&daemon_addr, &gateway_addr] {
        for version in [1u16, 2, 3, PROTO_VERSION + 1] {
            let mut s = connect(addr);
            for frame in [submit.clone(), Request::Stats.encode(), Request::Health.encode()] {
                let reply = exchange(&mut s, &at_version(frame, version));
                assert_protocol_error(&reply, &format!("v{version} @ {addr}"));
            }
            let reply = exchange(&mut s, &submit);
            assert_verdict(&reply, &expected, &format!("after v{version} @ {addr}"));
        }
    }
    shutdown(daemon, &daemon_addr, gateway, &gateway_addr);
}

/// Features asking for more workers than [`MAX_PARALLELISM`] are
/// refused by the decoder: neither tier admits the job, the gateway
/// forwards nothing, and the connection still serves a normal submit.
#[test]
fn out_of_range_parallelism_gets_an_error_and_the_tiers_keep_serving() {
    let (daemon, daemon_addr, gateway, gateway_addr) = cluster();
    let (submit, expected) = tetris_submit();
    let bench = c4_suite::benchmark("Tetris").expect("suite has Tetris");
    let greedy = Request::Submit {
        wait: true,
        features: AnalysisFeatures {
            parallelism: u32::MAX as usize,
            ..AnalysisFeatures::default()
        },
        source: bench.source.to_string(),
        ctx: None,
    }
    .encode();
    let mut conns: Vec<(&str, TcpStream)> =
        [&daemon_addr, &gateway_addr].map(|addr| (addr.as_str(), connect(addr))).into();
    for (addr, s) in &mut conns {
        let reply = exchange(s, &greedy);
        assert_eq!(
            Response::decode(&reply).expect("decode"),
            Response::Error { message: "protocol error: parallelism out of range".into() },
            "{addr}"
        );
        match Response::decode(&exchange(s, &Request::Stats.encode())).expect("decode stats") {
            Response::Stats(st) => assert_eq!(st.submitted, 0, "{addr} admitted the job"),
            other => panic!("{addr}: expected stats, got {other:?}"),
        }
    }
    let metrics = exchange(&mut connect(&gateway_addr), &Request::Metrics.encode());
    match Response::decode(&metrics).expect("decode metrics") {
        Response::Metrics { text } => {
            let line = format!("c4gw_forwards_total{{backend=\"{daemon_addr}\"}} 0");
            assert!(text.lines().any(|l| l == line), "the gateway forwarded:\n{text}");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    for (addr, s) in &mut conns {
        let reply = exchange(s, &submit);
        assert_verdict(&reply, &expected, &format!("after the refusal @ {addr}"));
    }
    shutdown(daemon, &daemon_addr, gateway, &gateway_addr);
}

fn arb_features() -> impl Strategy<Value = AnalysisFeatures> {
    (0u16..256, 0u32..=1024, any::<u64>(), 0u32..=MAX_PARALLELISM).prop_map(
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
    /// The cluster request frames (Health, Forward) round-trip through
    /// encode → decode.
    #[test]
    fn new_request_frames_roundtrip(features in arb_features(), source in arb_source()) {
        for req in [Request::Health, Request::Forward { features, source, ctx: None }] {
            prop_assert_eq!(Request::decode(&req.encode()).expect("own encoding decodes"), req);
        }
    }

    /// The cluster response frames (Busy, Health, Forwarded) round-trip
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

    /// The trace context round-trips on `Submit` and `Forward`, present
    /// or absent, and when present it is exactly a 17-byte suffix.
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
            let bytes = req.encode();
            prop_assert_eq!(Request::decode(&bytes).expect("own encoding decodes"), req.clone());
            let bare = match req {
                Request::Submit { wait, features, source, .. } => {
                    Request::Submit { wait, features, source, ctx: None }
                }
                Request::Forward { features, source, .. } => {
                    Request::Forward { features, source, ctx: None }
                }
                other => other,
            };
            let bare = bare.encode();
            prop_assert_eq!(&bytes[..bare.len()], &bare[..]);
            prop_assert_eq!(bytes.len(), bare.len() + if ctx.is_some() { 17 } else { 0 });
        }
    }

    /// The `Done` timing summary round-trips, present or absent.
    #[test]
    fn done_timing_roundtrips(
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
        for resp in [done(Some(timing)), done(None)] {
            prop_assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
        }
    }
}

fn arb_ctx() -> impl Strategy<Value = Option<TraceCtx>> {
    (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
        |(trace_id, parent_span, sampled, present)| {
            present.then_some(TraceCtx { trace_id, parent_span, sampled })
        },
    )
}
