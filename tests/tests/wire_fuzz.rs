//! Malformed input never panics: the wire decoders and the CCL front end
//! answer arbitrary and truncated input with a typed error.
//!
//! * Random payloads behind a valid message tag (half of the requests
//!   stamped with the current protocol version, so decoding gets past
//!   the version check) decode to `Ok` or a `ProtoError`. A payload that
//!   does decode is stable: it re-encodes to a frame that decodes to the
//!   same message, and a response re-encodes to the very same bytes.
//! * Every strict prefix of every golden frame (`golden/frames.txt`) is
//!   rejected. The one exception is the optional trace context at the
//!   tail of `Submit`/`Forward`: cutting it off whole leaves the same
//!   request without a context.
//! * Random token soup and every prefix of every suite program go
//!   through `c4_lang::parse` and, when that succeeds,
//!   `c4_lang::abstract_history`, which return errors rather than panic.
//!
//! Split and partial socket reads are covered by the framing tests in
//! `c4_service::conn`.

use c4_service::proto::{
    Request, Response, PROTO_VERSION, REQ_CANCEL, REQ_CLUSTER_TRACE, REQ_FORWARD, REQ_HEALTH,
    REQ_METRICS, REQ_RING_DUMP, REQ_SHUTDOWN, REQ_STATS, REQ_STATUS, REQ_SUBMIT, REQ_TRACE,
    RESP_BUSY, RESP_CANCELLED, RESP_ERROR, RESP_FORWARDED, RESP_HEALTH, RESP_METRICS,
    RESP_RING_DUMP, RESP_SHUTDOWN_ACK, RESP_STATS, RESP_STATUS, RESP_SUBMITTED, RESP_TRACE,
};
use proptest::prelude::*;

const GOLDEN: &str = include_str!("../golden/frames.txt");

/// Bytes a trace context adds at the tail of `Submit`/`Forward`.
const CTX_LEN: usize = 17;

const REQ_TAGS: [u8; 11] = [
    REQ_SUBMIT,
    REQ_STATUS,
    REQ_CANCEL,
    REQ_STATS,
    REQ_SHUTDOWN,
    REQ_METRICS,
    REQ_TRACE,
    REQ_HEALTH,
    REQ_FORWARD,
    REQ_RING_DUMP,
    REQ_CLUSTER_TRACE,
];

const RESP_TAGS: [u8; 12] = [
    RESP_SUBMITTED,
    RESP_STATUS,
    RESP_CANCELLED,
    RESP_STATS,
    RESP_SHUTDOWN_ACK,
    RESP_ERROR,
    RESP_METRICS,
    RESP_TRACE,
    RESP_BUSY,
    RESP_HEALTH,
    RESP_FORWARDED,
    RESP_RING_DUMP,
];

/// CCL vocabulary for token soup: keywords, object kinds, methods,
/// identifiers, literals and every punctuation the lexer knows, plus a
/// few characters it does not.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "store", "local", "global", "txn", "session", "atomicset", "register", "counter", "set",
    "map", "log", "table", "reg", "let", "display", "if", "else", "repeat", "while", "M", "N",
    "T", "k", "v", "t1", "put", "get", "add", "remove", "contains", "inc", "append", "0", "1",
    "42", "4294967296", "*", "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "=", "==", "<",
    ">", "!", "&&", "||", "+", "-", "\"", "#", "//", "\n", "é",
];

fn cases(debug: u32, release: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) { debug } else { release })
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// The request with its trace context removed, if it carries one.
fn without_ctx(req: Request) -> Option<Request> {
    match req {
        Request::Submit { wait, features, source, ctx: Some(_) } => {
            Some(Request::Submit { wait, features, source, ctx: None })
        }
        Request::Forward { features, source, ctx: Some(_) } => {
            Some(Request::Forward { features, source, ctx: None })
        }
        _ => None,
    }
}

/// Parses `source` and, if it parses, runs the abstract interpreter.
/// Either may fail; neither may panic.
fn front_end(source: &str) {
    if let Ok(program) = c4_lang::parse(source) {
        let _ = c4_lang::abstract_history(&program);
    }
}

proptest! {
    #![proptest_config(cases(512, 8192))]

    #[test]
    fn arbitrary_request_payloads_decode_or_fail_typed(
        tag in 0..REQ_TAGS.len(),
        current in any::<bool>(),
        version in any::<u16>(),
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let version = if current { PROTO_VERSION } else { version };
        let mut payload = vec![REQ_TAGS[tag]];
        payload.extend_from_slice(&version.to_be_bytes());
        payload.extend_from_slice(&body);
        if let Ok(req) = Request::decode(&payload) {
            prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn arbitrary_response_payloads_decode_or_fail_typed(
        tag in 0..RESP_TAGS.len(),
        body in prop::collection::vec(any::<u8>(), 0..240),
    ) {
        let mut payload = vec![RESP_TAGS[tag]];
        payload.extend_from_slice(&body);
        if let Ok(resp) = Response::decode(&payload) {
            prop_assert_eq!(resp.encode(), payload);
        }
    }
}

proptest! {
    #![proptest_config(cases(256, 2048))]

    #[test]
    fn arbitrary_token_soup_parses_or_fails_typed(
        tokens in prop::collection::vec(0..TOKENS.len(), 0..64),
        spaced in any::<bool>(),
    ) {
        let words: Vec<&str> = tokens.iter().map(|&i| TOKENS[i]).collect();
        front_end(&words.join(if spaced { " " } else { "" }));
    }
}

#[test]
fn every_strict_prefix_of_a_golden_frame_is_rejected() {
    let mut frames = 0;
    for line in GOLDEN.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let (kind, name, bytes) = (cols[0], cols[1], unhex(cols[2]));
        frames += 1;
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            if kind == "resp" {
                assert!(Response::decode(prefix).is_err(), "{name}: prefix of {cut} bytes decoded");
                continue;
            }
            if let Ok(req) = Request::decode(prefix) {
                let full = Request::decode(&bytes).expect("golden frames decode");
                assert_eq!(cut, bytes.len() - CTX_LEN, "{name}: prefix of {cut} bytes decoded");
                assert_eq!(Some(req), without_ctx(full), "{name}: context cut changed the frame");
            }
        }
    }
    assert!(frames > 0, "golden frames present");
}

#[test]
fn every_prefix_of_every_suite_program_parses_or_fails_typed() {
    for b in c4_suite::benchmarks() {
        for (end, _) in b.source.char_indices() {
            front_end(&b.source[..end]);
        }
        front_end(b.source);
    }
}
