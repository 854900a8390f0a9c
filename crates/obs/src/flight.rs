//! A bounded in-memory flight recorder for per-request timelines.
//!
//! The ring tracer ([`crate::enable`]/[`crate::drain`]) answers "what
//! happened inside this analysis run" at event granularity; the flight
//! recorder answers "what happened to the last N *requests*" at
//! request granularity, and it is always on — one mutex-guarded ring
//! push per request, no per-event cost. Each [`FlightEntry`] is a
//! compact timeline: labelled millisecond marks (queue wait, run time,
//! ring route chosen, retries, hedge winner/loser, per-stage timings)
//! plus an outcome and an optional anomaly label.
//!
//! When an entry is anomalous — latency over the configured threshold,
//! a `Busy` rejection, a failover, a hedge that fired — and a dump
//! directory is configured (`c4d --flight-dir`,
//! `c4-gateway --flight-dir`), the recorder writes the *entire* ring
//! as one JSONL file: the anomaly plus the N requests of context that
//! preceded it, which is exactly what a post-hoc "why was this slow"
//! investigation needs. Dumps are sequence-numbered per process and
//! each line is a complete JSON object (validated by `trace_check`).

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::escape;

/// One request's compact timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// The serving process's job id.
    pub job_id: u64,
    /// Cross-process trace id ([`crate::ctx::TraceCtx`]), 0 if none.
    pub trace_id: u64,
    /// Terminal outcome: `done`, `failed`, `cancelled`, `busy`.
    pub outcome: String,
    /// Why this entry is anomalous (`latency`, `busy`, `failover`,
    /// `hedge`, `backend_lost`), or `None` for a routine request.
    pub anomaly: Option<String>,
    /// End-to-end milliseconds in this process.
    pub total_ms: u64,
    /// Labelled marks: `(label, value)` pairs in timeline order —
    /// millisecond durations (`queue_ms`, `run_ms`, stage timings) and
    /// small categorical values (cache tier, route index, retry count).
    pub marks: Vec<(String, u64)>,
}

impl FlightEntry {
    fn jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"job\":{},\"trace\":{},\"outcome\":\"{}\",\"anomaly\":",
            self.job_id,
            self.trace_id,
            escape(&self.outcome)
        ));
        match &self.anomaly {
            Some(a) => out.push_str(&format!("\"{}\"", escape(a))),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"total_ms\":{},\"marks\":[", self.total_ms));
        for (i, (label, v)) in self.marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[\"{}\",{v}]", escape(label)));
        }
        out.push_str("]}");
        out
    }
}

/// The bounded per-process flight recorder.
pub struct FlightRecorder {
    cap: usize,
    latency_threshold_ms: u64,
    dir: Option<PathBuf>,
    ring: Mutex<VecDeque<FlightEntry>>,
    recorded: AtomicU64,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` entries. Entries whose
    /// `total_ms` reaches `latency_threshold_ms` are auto-flagged as
    /// `latency` anomalies (0 disables the threshold). Anomalies dump
    /// the ring to `dir` when set.
    pub fn new(cap: usize, latency_threshold_ms: u64, dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            latency_threshold_ms,
            dir,
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// Record one request timeline; returns the dump path if the entry
    /// was anomalous and a dump directory is configured.
    pub fn record(&self, mut entry: FlightEntry) -> Option<PathBuf> {
        if entry.anomaly.is_none()
            && self.latency_threshold_ms > 0
            && entry.total_ms >= self.latency_threshold_ms
        {
            entry.anomaly = Some("latency".into());
        }
        let anomalous = entry.anomaly.is_some();
        {
            let mut ring = self.ring.lock().expect("flight ring poisoned");
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back(entry);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if anomalous {
            self.dump().ok()
        } else {
            None
        }
    }

    /// Write the current ring as a JSONL file in the dump directory.
    ///
    /// # Errors
    ///
    /// `NotFound` when no dump directory is configured; otherwise I/O
    /// errors from creating the directory or writing the file.
    pub fn dump(&self) -> io::Result<PathBuf> {
        let dir = self
            .dir
            .as_deref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no flight dir configured"))?;
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed);
        write_dump(dir, seq, &self.entries())
    }

    /// A copy of the ring contents, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.ring.lock().expect("flight ring poisoned").iter().cloned().collect()
    }

    /// Total entries ever recorded (including ones evicted from the
    /// ring).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Dumps written (attempted) so far.
    pub fn dumped(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }
}

fn write_dump(dir: &Path, seq: u64, entries: &[FlightEntry]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("flight-{}-{seq:04}.jsonl", std::process::id()));
    let mut body = String::with_capacity(entries.len() * 128);
    for e in entries {
        body.push_str(&e.jsonl());
        body.push('\n');
    }
    // Write-then-rename so a concurrent reader never sees a torn file.
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn entry(job: u64, ms: u64, anomaly: Option<&str>) -> FlightEntry {
        FlightEntry {
            job_id: job,
            trace_id: job * 1000,
            outcome: "done".into(),
            anomaly: anomaly.map(String::from),
            total_ms: ms,
            marks: vec![("queue_ms".into(), 1), ("run_ms".into(), ms)],
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let fr = FlightRecorder::new(3, 0, None);
        for i in 0..10 {
            assert!(fr.record(entry(i, 5, None)).is_none());
        }
        let kept = fr.entries();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.iter().map(|e| e.job_id).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.dumped(), 0, "no anomalies, no dumps");
    }

    #[test]
    fn latency_threshold_flags_anomalies() {
        let fr = FlightRecorder::new(8, 100, None);
        fr.record(entry(1, 99, None));
        fr.record(entry(2, 100, None));
        let entries = fr.entries();
        assert_eq!(entries[0].anomaly, None);
        assert_eq!(entries[1].anomaly.as_deref(), Some("latency"));
    }

    #[test]
    fn anomalies_dump_valid_jsonl() {
        let dir = std::env::temp_dir().join(format!("c4-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(8, 0, Some(dir.clone()));
        fr.record(entry(1, 5, None));
        fr.record(entry(2, 7, None));
        let path = fr
            .record(FlightEntry {
                anomaly: Some("hedge".into()),
                marks: vec![("route\"0".into(), 0)],
                ..entry(3, 9, None)
            })
            .expect("anomaly with a dir must dump");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "whole ring dumped, not just the anomaly");
        for line in &lines {
            json::validate_value(line).expect("each dump line is valid JSON");
        }
        assert!(lines[2].contains("\"anomaly\":\"hedge\""));
        assert!(lines[2].contains("route\\\"0"), "labels are escaped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_without_dir_is_a_clean_error() {
        let fr = FlightRecorder::new(2, 0, None);
        fr.record(entry(1, 5, Some("busy")));
        assert!(fr.dump().is_err());
        assert_eq!(fr.entries().len(), 1, "entry retained in memory regardless");
    }
}
