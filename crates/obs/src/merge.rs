//! Assemble one Perfetto-loadable trace from many process rings.
//!
//! The recorder ([`crate::snapshot`]) and the JSONL exporter
//! ([`crate::export::jsonl`]) describe *one* process; a gateway-fronted
//! cluster has a ring per process, each on its own monotonic clock
//! (nanoseconds since that process's first `enable`). [`merge`] takes
//! the per-process rings — the gateway's own plus one pulled from each
//! backend via the v4 ring-dump request — and renders a single Chrome
//! trace-event document: each process becomes its own `pid` track
//! (named via `process_name` metadata), and every timestamp is shifted
//! into the *reference* process's clock using the clock offset
//! estimated from paired send/receive timestamps on the gateway's
//! health probes (offset = `peer_clock - reference_clock`, uncertainty
//! = half the probe round-trip).
//!
//! The document is line-oriented on purpose — one event per line
//! inside `traceEvents` — so [`check`] (and `trace_check --cluster`)
//! can re-validate it without a JSON DOM: per-track monotonic
//! timestamps, span nesting with no orphan `End`s, every backend
//! `request` span resolving to a gateway `gw_forward` edge, and
//! cross-process causality holding within the declared clock-offset
//! bounds.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json;

/// One process's contribution to a merged trace.
#[derive(Debug, Clone)]
pub struct ProcessRing {
    /// Track name (e.g. `gateway`, `backend:127.0.0.1:4001`).
    pub name: String,
    /// The ring in [`crate::export::jsonl`] format.
    pub jsonl: String,
    /// Estimated `peer_clock - reference_clock`, nanoseconds. The
    /// reference process (by convention the first ring) uses 0.
    pub offset_ns: i64,
    /// Half the probe round-trip the offset was estimated from: the
    /// bound within which cross-process ordering claims hold.
    pub uncertainty_ns: u64,
}

/// What [`check`] verified about a merged document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSummary {
    /// Process tracks in the document.
    pub processes: usize,
    /// Event records (excluding `process_name` metadata).
    pub events: usize,
    /// Cross-process `request` → `gw_forward` edges resolved.
    pub edges: usize,
}

#[derive(Debug)]
struct RingEvent {
    t_ns: u64,
    tid: u64,
    ph: char,
    name: String,
    val: u64,
    is_counter: bool,
}

fn num_at(line: &str, key: &str) -> Option<i128> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().map(|v| v as i128)
}

fn float_at(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok()
}

fn str_at(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn parse_ring_line(line: &str) -> Result<RingEvent, String> {
    let t_ns = num_at(line, "t_ns").ok_or_else(|| format!("ring line missing t_ns: {line}"))?;
    let tid = num_at(line, "tid").ok_or_else(|| format!("ring line missing tid: {line}"))?;
    let ph = str_at(line, "ph").ok_or_else(|| format!("ring line missing ph: {line}"))?;
    let name = str_at(line, "name").ok_or_else(|| format!("ring line missing name: {line}"))?;
    let (val, is_counter) = match num_at(line, "arg") {
        Some(v) => (v, false),
        None => (num_at(line, "value").unwrap_or(0), true),
    };
    let ph = ph.chars().next().ok_or("empty ph")?;
    Ok(RingEvent { t_ns: t_ns as u64, tid: tid as u64, ph, name, val: val as u64, is_counter })
}

/// Render the rings as one Chrome trace-event document, one event per
/// line. Process `i` becomes `pid` `i + 1`; the first ring is the
/// reference clock.
///
/// # Errors
///
/// A human-readable message if any ring line fails to parse.
pub fn merge(rings: &[ProcessRing]) -> Result<String, String> {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"c4ClockOffsets\":[");
    for (i, r) in rings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"process\":\"{}\",\"pid\":{},\"offset_ns\":{},\"uncertainty_ns\":{}}}",
            json::escape(&r.name),
            i + 1,
            r.offset_ns,
            r.uncertainty_ns
        )
        .unwrap();
    }
    out.push_str("],\"traceEvents\":[\n");
    let mut first = true;
    let mut push_line = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (i, r) in rings.iter().enumerate() {
        let pid = i + 1;
        push_line(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"ts\":0.000,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(&r.name)
            ),
        );
        for line in r.jsonl.lines().filter(|l| !l.is_empty()) {
            let ev = parse_ring_line(line)?;
            // Shift the peer clock into the reference clock:
            // t_ref = t_peer - offset.
            let ts_us = (ev.t_ns as i128 - r.offset_ns as i128) as f64 / 1000.0;
            let mut rec = format!(
                "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\"",
                ev.ph, ev.tid, ev.name
            );
            if ev.ph == 'i' {
                rec.push_str(",\"s\":\"t\"");
            }
            if ev.is_counter {
                write!(rec, ",\"args\":{{\"value\":{}}}}}", ev.val).unwrap();
            } else {
                write!(rec, ",\"args\":{{\"arg\":{}}}}}", ev.val).unwrap();
            }
            push_line(&mut out, rec);
        }
    }
    out.push_str("\n]}");
    Ok(out)
}

/// Validate a merged document (see module docs for the checks).
///
/// # Errors
///
/// A message naming the first violated property.
pub fn check(doc: &str) -> Result<MergeSummary, String> {
    let summary = json::validate(doc).map_err(|e| format!("merged trace is not JSON: {e}"))?;
    if summary.trace_events.is_none() {
        return Err("merged trace has no traceEvents array".into());
    }

    // Declared clock offsets: pid -> uncertainty_us.
    let mut uncertainty_us: HashMap<u64, f64> = HashMap::new();
    if let Some(start) = doc.find("\"c4ClockOffsets\":[") {
        let rest = &doc[start..];
        let end = rest.find(']').ok_or("unterminated c4ClockOffsets")?;
        let mut seg = &rest[..end];
        while let Some(p) = seg.find("{\"process\":") {
            let obj_end = seg[p..].find('}').map(|e| p + e + 1).ok_or("bad offsets entry")?;
            let obj = &seg[p..obj_end];
            let pid = num_at(obj, "pid").ok_or("offsets entry missing pid")? as u64;
            let unc = num_at(obj, "uncertainty_ns").ok_or("offsets entry missing uncertainty")?;
            uncertainty_us.insert(pid, unc as f64 / 1000.0);
            seg = &seg[obj_end..];
        }
    }
    let processes = uncertainty_us.len();
    let root_pid = 1u64;

    // Per-track state, and the root's forward edges.
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut forwards: HashMap<u64, f64> = HashMap::new(); // trace id -> earliest ts
    let mut requests: Vec<(u64, u64, f64)> = Vec::new(); // (pid, trace id, begin ts)
    let mut events = 0usize;

    for line in doc.lines() {
        let line = line.trim_end_matches(',');
        if !line.starts_with("{\"ph\":") {
            continue;
        }
        let ph = str_at(line, "ph").and_then(|s| s.chars().next()).ok_or("event missing ph")?;
        if ph == 'M' {
            continue;
        }
        events += 1;
        let pid = num_at(line, "pid").ok_or("event missing pid")? as u64;
        let tid = num_at(line, "tid").ok_or("event missing tid")? as u64;
        let ts = float_at(line, "ts").ok_or("event missing ts")?;
        let name = str_at(line, "name").ok_or("event missing name")?;
        let arg = num_at(line, "arg").map(|v| v as u64);

        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "track pid={pid} tid={tid}: timestamp regressed ({prev:.3} -> {ts:.3}) \
                     at {name:?}"
                ));
            }
        }
        last_ts.insert(track, ts);

        match ph {
            'B' => {
                stacks.entry(track).or_default().push(name.clone());
                if pid != root_pid && name == "request" {
                    let id = arg.ok_or("request span without a trace id")?;
                    requests.push((pid, id, ts));
                }
            }
            'E' => match stacks.entry(track).or_default().pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "track pid={pid} tid={tid}: end {name:?} closes open span {open:?}"
                    ))
                }
                None => {
                    return Err(format!(
                        "track pid={pid} tid={tid}: orphan span end {name:?}"
                    ))
                }
            },
            'i' => {
                if pid == root_pid && name == "gw_forward" {
                    if let Some(id) = arg {
                        let slot = forwards.entry(id).or_insert(ts);
                        if ts < *slot {
                            *slot = ts;
                        }
                    }
                }
            }
            'C' => {}
            other => return Err(format!("unknown event phase {other:?}")),
        }
    }

    // Cross-process edges: every backend request span must resolve to
    // a gateway forward, and must not begin before it by more than the
    // declared clock uncertainty of its process.
    let mut edges = 0usize;
    for (pid, id, ts) in requests {
        let fwd = forwards.get(&id).ok_or(format!(
            "pid {pid}: request span trace_id={id} has no matching gw_forward on the root track"
        ))?;
        let unc = uncertainty_us.get(&pid).copied().unwrap_or(0.0);
        if ts + unc + 0.5 < *fwd {
            return Err(format!(
                "pid {pid}: request trace_id={id} begins at {ts:.3}us, before its gw_forward \
                 at {fwd:.3}us beyond the declared clock bound ({unc:.3}us)"
            ));
        }
        edges += 1;
    }

    Ok(MergeSummary { processes, events, edges })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gw_ring() -> String {
        // One dispatch span, two forward instants (primary + hedge for
        // trace 42, one for trace 77), and the done markers.
        "{\"t_ns\":1000,\"tid\":0,\"ph\":\"B\",\"name\":\"gw_dispatch\",\"arg\":0}\n\
         {\"t_ns\":2000,\"tid\":0,\"ph\":\"i\",\"name\":\"gw_forward\",\"arg\":42}\n\
         {\"t_ns\":2500,\"tid\":0,\"ph\":\"i\",\"name\":\"gw_forward\",\"arg\":77}\n\
         {\"t_ns\":3000,\"tid\":0,\"ph\":\"E\",\"name\":\"gw_dispatch\",\"arg\":0}\n\
         {\"t_ns\":9000,\"tid\":0,\"ph\":\"C\",\"name\":\"gw_inflight\",\"value\":2}\n"
            .into()
    }

    fn backend_ring(trace_id: u64, begin_ns: u64) -> String {
        format!(
            "{{\"t_ns\":{begin_ns},\"tid\":3,\"ph\":\"B\",\"name\":\"request\",\"arg\":{trace_id}}}\n\
             {{\"t_ns\":{},\"tid\":3,\"ph\":\"B\",\"name\":\"unfold\",\"arg\":1}}\n\
             {{\"t_ns\":{},\"tid\":3,\"ph\":\"E\",\"name\":\"unfold\",\"arg\":1}}\n\
             {{\"t_ns\":{},\"tid\":3,\"ph\":\"E\",\"name\":\"request\",\"arg\":{trace_id}}}\n",
            begin_ns + 100,
            begin_ns + 200,
            begin_ns + 300,
        )
    }

    fn rings() -> Vec<ProcessRing> {
        vec![
            ProcessRing {
                name: "gateway".into(),
                jsonl: gw_ring(),
                offset_ns: 0,
                uncertainty_ns: 0,
            },
            ProcessRing {
                // Backend clock runs 1_000_000ns ahead of the gateway:
                // its raw stamps are large, the offset brings them back.
                name: "backend:127.0.0.1:4001".into(),
                jsonl: backend_ring(42, 1_003_000),
                offset_ns: 1_000_000,
                uncertainty_ns: 400,
            },
            ProcessRing {
                name: "backend:127.0.0.1:4002".into(),
                jsonl: backend_ring(77, 4_000),
                offset_ns: 0,
                uncertainty_ns: 400,
            },
        ]
    }

    #[test]
    fn merged_trace_is_valid_and_edges_resolve() {
        let doc = merge(&rings()).unwrap();
        let summary = check(&doc).expect("merged trace checks out");
        assert_eq!(summary.processes, 3);
        assert_eq!(summary.events, 5 + 4 + 4);
        assert_eq!(summary.edges, 2);
        // Perfetto-facing sanity: every process has a name track.
        assert_eq!(doc.matches("process_name").count(), 3);
        // Raw JSON validity incl. event count (metadata adds 3).
        let js = json::validate(&doc).unwrap();
        assert_eq!(js.trace_events, Some(13 + 3));
    }

    #[test]
    fn process_names_with_control_characters_merge_into_valid_json() {
        let mut rs = rings();
        rs[1].name = "backend\n\"a\"\\\t\u{1}".into();
        let doc = merge(&rs).unwrap();
        let js = json::validate(&doc).expect("escaped names keep the document valid");
        assert_eq!(js.trace_events, Some(13 + 3));
        assert_eq!(check(&doc).expect("merged trace checks out").processes, 3);
        assert!(doc.contains("backend\\n\\\"a\\\"\\\\\\t\\u0001"), "{doc}");
    }

    #[test]
    fn unresolved_request_edges_are_caught() {
        let mut rs = rings();
        rs[2].jsonl = backend_ring(555, 4_000); // no gw_forward for 555
        let doc = merge(&rs).unwrap();
        let err = check(&doc).unwrap_err();
        assert!(err.contains("no matching gw_forward"), "{err}");
    }

    #[test]
    fn causality_violations_beyond_clock_bounds_are_caught() {
        let mut rs = rings();
        // Request begins 1.5us before its forward (2000ns), with only
        // 0.4us of declared uncertainty: out of bounds.
        rs[2].jsonl = backend_ring(77, 500);
        let doc = merge(&rs).unwrap();
        let err = check(&doc).unwrap_err();
        assert!(err.contains("beyond the declared clock bound"), "{err}");
    }

    #[test]
    fn orphan_span_ends_are_caught() {
        let rs = vec![ProcessRing {
            name: "gateway".into(),
            jsonl: "{\"t_ns\":10,\"tid\":0,\"ph\":\"E\",\"name\":\"late\",\"arg\":0}\n".into(),
            offset_ns: 0,
            uncertainty_ns: 0,
        }];
        let doc = merge(&rs).unwrap();
        let err = check(&doc).unwrap_err();
        assert!(err.contains("orphan span end"), "{err}");
    }

    #[test]
    fn timestamp_regressions_are_caught() {
        let rs = vec![ProcessRing {
            name: "gateway".into(),
            jsonl: "{\"t_ns\":500,\"tid\":0,\"ph\":\"i\",\"name\":\"a\",\"arg\":0}\n\
                    {\"t_ns\":100,\"tid\":0,\"ph\":\"i\",\"name\":\"b\",\"arg\":0}\n"
                .into(),
            offset_ns: 0,
            uncertainty_ns: 0,
        }];
        let doc = merge(&rs).unwrap();
        let err = check(&doc).unwrap_err();
        assert!(err.contains("timestamp regressed"), "{err}");
    }

    #[test]
    fn still_open_spans_at_snapshot_time_are_tolerated() {
        let rs = vec![ProcessRing {
            name: "gateway".into(),
            jsonl: "{\"t_ns\":10,\"tid\":0,\"ph\":\"B\",\"name\":\"gw_dispatch\",\"arg\":0}\n"
                .into(),
            offset_ns: 0,
            uncertainty_ns: 0,
        }];
        let doc = merge(&rs).unwrap();
        check(&doc).expect("open span at the end of a snapshot is fine");
    }
}
