//! The `c4d` wire protocol: length-prefixed binary frames, std-only.
//!
//! Every message travels as one frame: a 4-byte big-endian payload
//! length followed by the payload. The payload's first byte is a
//! message tag; the rest is tag-specific, built from four primitives —
//! `u8`, big-endian `u32`/`u64`, and UTF-8 strings/byte blobs with a
//! `u32` length prefix. Frames are capped at [`MAX_FRAME`] so a corrupt
//! or hostile peer cannot make either side allocate unboundedly.
//!
//! Every peer is built from this repository, so there is one protocol
//! version, [`PROTO_VERSION`], carried in every request. A request
//! stamped with any other version is rejected with a [`ProtoError`],
//! which the daemon and the gateway answer as [`Response::Error`].
//! Responses carry no version: each decodes its one shape exactly, and
//! a short or over-long payload is an error, never zero-filled fields.
//!
//! The only optional field is the [`TraceCtx`] at the tail of
//! `Submit`/`Forward`: an absent context encodes to nothing. Report
//! payloads inside [`Response::Status`] use the independent report
//! wire format of `c4::report` (itself versioned), so a cache serving
//! old bytes can never be misdecoded.

use std::io::{self, Read, Write};

use c4::{AnalysisFeatures, CacheTier};
pub use c4_obs::ctx::TraceCtx;

/// Protocol version spoken by this build.
pub const PROTO_VERSION: u16 = 4;

/// Maximum frame payload size (64 MiB): far above any realistic report,
/// far below an allocation hazard.
pub const MAX_FRAME: u32 = 64 << 20;

/// Largest `parallelism` a frame may ask for. The checker spawns that
/// many workers and sizes its channels by it, so an unchecked value
/// from the wire could exhaust memory and abort the process.
pub const MAX_PARALLELISM: u32 = 256;

/// A client-to-daemon request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a CCL program for analysis. With `wait`, the response is
    /// the terminal [`Response::Status`]; otherwise [`Response::Submitted`]
    /// arrives as soon as the job is admitted.
    Submit {
        /// Block until the job reaches a terminal state.
        wait: bool,
        /// Analysis configuration for this job.
        features: AnalysisFeatures,
        /// CCL source text.
        source: String,
        /// Distributed trace context (`None` encodes to nothing).
        ctx: Option<TraceCtx>,
    },
    /// Query a job's state.
    Status {
        /// The job id from [`Response::Submitted`].
        job_id: u64,
    },
    /// Cooperatively cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Daemon-wide statistics.
    Stats,
    /// Graceful shutdown: stop admitting, drain all admitted jobs,
    /// flush the cache index, acknowledge, exit.
    Shutdown,
    /// The Prometheus text-format metrics page.
    Metrics,
    /// Analyze a program synchronously with structured tracing enabled
    /// and return both the report and the recorded trace. Trace
    /// requests bypass the queue and the cache: the point is the fresh
    /// recording, not the verdict.
    Trace {
        /// Analysis configuration for this run.
        features: AnalysisFeatures,
        /// CCL source text.
        source: String,
    },
    /// Liveness/readiness probe: answered from scheduler state
    /// without touching the queue, cheap enough for tight-interval
    /// health checking.
    Health,
    /// A gateway-forwarded submission. Unlike `Submit{wait}`,
    /// the daemon acknowledges immediately with
    /// [`Response::Forwarded`] and pushes the terminal
    /// [`Response::Status`] later *on the same connection*, so one
    /// gateway↔backend connection multiplexes many in-flight jobs.
    Forward {
        /// Analysis configuration for this job.
        features: AnalysisFeatures,
        /// CCL source text.
        source: String,
        /// Distributed trace context, minted or propagated by
        /// the gateway.
        ctx: Option<TraceCtx>,
    },
    /// A non-destructive snapshot of this process's recorder ring:
    /// the building block of cluster trace assembly. The
    /// response carries the ring as compact JSONL plus the responder's
    /// recorder clock.
    RingDump,
    /// Assemble one merged cluster trace: the gateway snapshots
    /// its own ring, pulls each backend's via [`Request::RingDump`],
    /// applies the probe-estimated clock offsets and answers with
    /// [`Response::Trace`] (empty report, merged Chrome trace). A bare
    /// daemon answers with the single-process merge of its own ring.
    ClusterTrace,
}

/// A job's lifecycle state as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, not yet picked up by a scheduler worker.
    Queued,
    /// A worker is analyzing it.
    Running,
    /// Finished with a verdict.
    Done {
        /// Which cache tier served it ([`CacheTier::Miss`] = computed).
        tier: CacheTier,
        /// Milliseconds spent waiting in the queue.
        queue_ms: u64,
        /// Milliseconds spent in the analysis pipeline (≈0 on hits).
        run_ms: u64,
        /// The encoded report (`c4::AnalysisResult::encode_report`).
        report: Vec<u8>,
        /// Per-request timing breakdown.
        timing: Option<ReqTiming>,
    },
    /// Cancelled before completion (no verdict).
    Cancelled,
    /// The front end rejected the program, or the pipeline failed.
    Failed {
        /// Human-readable reason.
        message: String,
    },
}

/// Daemon-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs finished with a verdict.
    pub completed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed (front-end errors).
    pub failed: u64,
    /// Submissions rejected by admission control (queue full / draining).
    pub rejected: u64,
    /// Jobs currently queued.
    pub queue_len: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Queue capacity (admission bound).
    pub queue_cap: u64,
    /// Scheduler worker threads.
    pub workers: u64,
    /// Cache: in-memory hits.
    pub cache_mem_hits: u64,
    /// Cache: on-disk hits.
    pub cache_disk_hits: u64,
    /// Cache: misses.
    pub cache_misses: u64,
    /// Cache: reports stored.
    pub cache_stores: u64,
    /// Cache: LRU evictions.
    pub cache_evictions: u64,
    /// Cache: stale/corrupt disk entries dropped.
    pub cache_stale_drops: u64,
    /// Cache: entries resident in memory.
    pub cache_mem_entries: u64,
    /// Cache: entries on disk.
    pub cache_disk_entries: u64,
    /// Queue-wait latency: median upper bound, ms.
    pub wait_p50_ms: u64,
    /// Queue-wait latency: 95th-percentile upper bound, ms.
    pub wait_p95_ms: u64,
    /// Queue-wait latency: maximum observed, ms.
    pub wait_max_ms: u64,
    /// Job run-time latency: median upper bound, ms.
    pub run_p50_ms: u64,
    /// Job run-time latency: 95th-percentile upper bound, ms.
    pub run_p95_ms: u64,
    /// Job run-time latency: maximum observed, ms.
    pub run_max_ms: u64,
}

/// The compact per-request timing summary that rides back on
/// [`JobState::Done`] — what `c4 submit --timing` prints.
/// The daemon fills the stage breakdown; the gateway stamps the
/// routing fields (winning backend, retries, hedging, its own
/// residency time) as the status passes through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReqTiming {
    /// Cross-process trace id ([`TraceCtx`]), 0 if the request carried
    /// no context.
    pub trace_id: u64,
    /// Winning backend address (empty when served directly by a
    /// daemon).
    pub backend: String,
    /// Failover retries the gateway spent on this request.
    pub retries: u32,
    /// Whether a hedge was launched for this request.
    pub hedged: bool,
    /// Milliseconds the request spent inside the gateway, end to end
    /// (0 when served directly).
    pub gateway_ms: u64,
    /// Per-stage milliseconds on a computed miss (`(stage, ms)` in
    /// pipeline order); empty on cache hits.
    pub stages: Vec<(String, u64)>,
}

/// A daemon's health snapshot, the payload of
/// [`Response::Health`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthInfo {
    /// Whether new submissions are being admitted (false once a drain
    /// or shutdown has begun).
    pub accepting: bool,
    /// Jobs currently queued.
    pub queue_len: u64,
    /// Queue capacity (admission bound).
    pub queue_cap: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Scheduler worker threads.
    pub workers: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// The responder's recorder clock (`c4_obs::now_ns`) when the
    /// snapshot was taken. Paired with the prober's own send/receive
    /// stamps this yields the clock-offset estimate the merged cluster
    /// trace is built on.
    pub now_ns: u64,
}

/// A daemon-to-client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A no-wait submission was admitted.
    Submitted {
        /// The id for `status` / `cancel`.
        job_id: u64,
    },
    /// A job's current state (terminal for submit-wait responses).
    Status {
        /// The job.
        job_id: u64,
        /// Its state.
        state: JobState,
    },
    /// Outcome of a cancel request.
    Cancelled {
        /// Whether the job existed and was still cancellable.
        ok: bool,
    },
    /// Daemon statistics.
    Stats(DaemonStats),
    /// Shutdown acknowledged: all admitted jobs drained, index flushed.
    ShutdownAck,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The Prometheus text-format metrics page.
    Metrics {
        /// Exposition-format text (version 0.0.4).
        text: String,
    },
    /// A traced synchronous analysis.
    Trace {
        /// The encoded report (`c4::AnalysisResult::encode_report`) —
        /// byte-identical to an untraced run of the same program.
        report: Vec<u8>,
        /// The recorded trace in compact JSONL (one event per line).
        trace: String,
    },
    /// Typed backpressure: the job queue is full; try again after the
    /// hinted delay.
    Busy {
        /// Suggested client backoff before resubmitting, milliseconds.
        retry_after_ms: u64,
    },
    /// Health snapshot.
    Health(HealthInfo),
    /// A [`Request::Forward`] was admitted; the terminal
    /// [`Response::Status`] for `job_id` follows asynchronously on the
    /// same connection.
    Forwarded {
        /// The id the follow-up [`Response::Status`] will carry.
        job_id: u64,
    },
    /// A recorder-ring snapshot, answering
    /// [`Request::RingDump`].
    RingDump {
        /// The responder's recorder clock when the snapshot was taken.
        now_ns: u64,
        /// The ring in compact JSONL (`c4_obs::export::jsonl`); empty
        /// when the responder is not recording.
        trace: String,
    },
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A protocol decode failure (maps to an I/O error at the stream layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub &'static str);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(ProtoError("length exceeds frame"));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtoError("non-UTF-8 string"))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError("bad boolean")),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError("trailing bytes in frame"))
        }
    }
}

// ---------------------------------------------------------------------
// AnalysisFeatures
// ---------------------------------------------------------------------

/// Feature bits 8 and 9 are reserved (they carried two driver toggles
/// that no longer exist): written as 0, ignored on read.
fn put_features(out: &mut Vec<u8>, f: &AnalysisFeatures) {
    let bits: u16 = (f.commutativity as u16)
        | (f.absorption as u16) << 1
        | (f.constraints as u16) << 2
        | (f.control_flow as u16) << 3
        | (f.asymmetric as u16) << 4
        | (f.freshness as u16) << 5
        | (f.ret_justification as u16) << 6
        | (f.validate_counterexamples as u16) << 7;
    out.extend_from_slice(&bits.to_be_bytes());
    put_u32(out, f.max_k as u32);
    put_u64(out, f.time_budget_secs);
    put_u32(out, f.parallelism as u32);
}

fn read_features(r: &mut Reader<'_>) -> Result<AnalysisFeatures, ProtoError> {
    let bits = r.u16()?;
    let bit = |i: u16| bits & (1 << i) != 0;
    Ok(AnalysisFeatures {
        commutativity: bit(0),
        absorption: bit(1),
        constraints: bit(2),
        control_flow: bit(3),
        asymmetric: bit(4),
        freshness: bit(5),
        ret_justification: bit(6),
        validate_counterexamples: bit(7),
        max_k: r.u32()? as usize,
        time_budget_secs: r.u64()?,
        parallelism: match r.u32()? {
            p if p <= MAX_PARALLELISM => p as usize,
            _ => return Err(ProtoError("parallelism out of range")),
        },
    })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

// Wire tags, public for protocol-level tooling and the compatibility
// tests that hand-craft frames.
pub const REQ_SUBMIT: u8 = 0x01;
pub const REQ_STATUS: u8 = 0x02;
pub const REQ_CANCEL: u8 = 0x03;
pub const REQ_STATS: u8 = 0x04;
pub const REQ_SHUTDOWN: u8 = 0x05;
pub const REQ_METRICS: u8 = 0x06;
pub const REQ_TRACE: u8 = 0x07;
pub const REQ_HEALTH: u8 = 0x08;
pub const REQ_FORWARD: u8 = 0x09;
pub const REQ_RING_DUMP: u8 = 0x0A;
pub const REQ_CLUSTER_TRACE: u8 = 0x0B;

pub const RESP_SUBMITTED: u8 = 0x81;
pub const RESP_STATUS: u8 = 0x82;
pub const RESP_CANCELLED: u8 = 0x83;
pub const RESP_STATS: u8 = 0x84;
pub const RESP_SHUTDOWN_ACK: u8 = 0x85;
pub const RESP_ERROR: u8 = 0x86;
pub const RESP_METRICS: u8 = 0x87;
pub const RESP_TRACE: u8 = 0x88;
pub const RESP_BUSY: u8 = 0x89;
pub const RESP_HEALTH: u8 = 0x8A;
pub const RESP_FORWARDED: u8 = 0x8B;
pub const RESP_RING_DUMP: u8 = 0x8C;

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_DONE: u8 = 2;
const STATE_CANCELLED: u8 = 3;
const STATE_FAILED: u8 = 4;

fn tier_code(t: CacheTier) -> u8 {
    match t {
        CacheTier::Miss => 0,
        CacheTier::Memory => 1,
        CacheTier::Disk => 2,
    }
}

fn tier_of(code: u8) -> Result<CacheTier, ProtoError> {
    Ok(match code {
        0 => CacheTier::Miss,
        1 => CacheTier::Memory,
        2 => CacheTier::Disk,
        _ => return Err(ProtoError("bad cache tier")),
    })
}

fn put_ctx(out: &mut Vec<u8>, c: &TraceCtx) {
    put_u64(out, c.trace_id);
    put_u64(out, c.parent_span);
    out.push(c.sampled as u8);
}

fn read_ctx(r: &mut Reader<'_>) -> Result<TraceCtx, ProtoError> {
    Ok(TraceCtx { trace_id: r.u64()?, parent_span: r.u64()?, sampled: r.bool()? })
}

// An absent context appends nothing; the context is the last field of
// its message, so any remaining bytes are one.
fn read_opt_ctx(r: &mut Reader<'_>) -> Result<Option<TraceCtx>, ProtoError> {
    if r.remaining() > 0 {
        Ok(Some(read_ctx(r)?))
    } else {
        Ok(None)
    }
}

impl Request {
    /// Encodes the request payload (version header included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Submit { wait, features, source, ctx } => {
                out.push(REQ_SUBMIT);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
                out.push(*wait as u8);
                put_features(&mut out, features);
                put_str(&mut out, source);
                if let Some(c) = ctx {
                    put_ctx(&mut out, c);
                }
            }
            Request::Status { job_id } => {
                out.push(REQ_STATUS);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
                put_u64(&mut out, *job_id);
            }
            Request::Cancel { job_id } => {
                out.push(REQ_CANCEL);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
                put_u64(&mut out, *job_id);
            }
            Request::Stats => {
                out.push(REQ_STATS);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
            Request::Shutdown => {
                out.push(REQ_SHUTDOWN);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
            Request::Metrics => {
                out.push(REQ_METRICS);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
            Request::Trace { features, source } => {
                out.push(REQ_TRACE);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
                put_features(&mut out, features);
                put_str(&mut out, source);
            }
            Request::Health => {
                out.push(REQ_HEALTH);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
            Request::Forward { features, source, ctx } => {
                out.push(REQ_FORWARD);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
                put_features(&mut out, features);
                put_str(&mut out, source);
                if let Some(c) = ctx {
                    put_ctx(&mut out, c);
                }
            }
            Request::RingDump => {
                out.push(REQ_RING_DUMP);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
            Request::ClusterTrace => {
                out.push(REQ_CLUSTER_TRACE);
                out.extend_from_slice(&PROTO_VERSION.to_be_bytes());
            }
        }
        out
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed bytes or a version other than
    /// [`PROTO_VERSION`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        if r.u16()? != PROTO_VERSION {
            return Err(ProtoError("unsupported protocol version"));
        }
        let req = match tag {
            REQ_SUBMIT => Request::Submit {
                wait: r.bool()?,
                features: read_features(&mut r)?,
                source: r.str()?,
                ctx: read_opt_ctx(&mut r)?,
            },
            REQ_STATUS => Request::Status { job_id: r.u64()? },
            REQ_CANCEL => Request::Cancel { job_id: r.u64()? },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_METRICS => Request::Metrics,
            REQ_TRACE => Request::Trace { features: read_features(&mut r)?, source: r.str()? },
            REQ_HEALTH => Request::Health,
            REQ_FORWARD => Request::Forward {
                features: read_features(&mut r)?,
                source: r.str()?,
                ctx: read_opt_ctx(&mut r)?,
            },
            REQ_RING_DUMP => Request::RingDump,
            REQ_CLUSTER_TRACE => Request::ClusterTrace,
            _ => return Err(ProtoError("unknown request tag")),
        };
        r.finish()?;
        Ok(req)
    }
}

fn put_timing(out: &mut Vec<u8>, t: &ReqTiming) {
    put_u64(out, t.trace_id);
    put_str(out, &t.backend);
    put_u32(out, t.retries);
    out.push(t.hedged as u8);
    put_u64(out, t.gateway_ms);
    put_u32(out, t.stages.len() as u32);
    for (stage, ms) in &t.stages {
        put_str(out, stage);
        put_u64(out, *ms);
    }
}

fn read_timing(r: &mut Reader<'_>) -> Result<ReqTiming, ProtoError> {
    let trace_id = r.u64()?;
    let backend = r.str()?;
    let retries = r.u32()?;
    let hedged = r.bool()?;
    let gateway_ms = r.u64()?;
    let n = r.u32()? as usize;
    if n > 4096 {
        return Err(ProtoError("implausible stage count"));
    }
    let mut stages = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        stages.push((r.str()?, r.u64()?));
    }
    Ok(ReqTiming { trace_id, backend, retries, hedged, gateway_ms, stages })
}

fn put_state(out: &mut Vec<u8>, s: &JobState) {
    match s {
        JobState::Queued => out.push(STATE_QUEUED),
        JobState::Running => out.push(STATE_RUNNING),
        JobState::Done { tier, queue_ms, run_ms, report, timing } => {
            out.push(STATE_DONE);
            out.push(tier_code(*tier));
            put_u64(out, *queue_ms);
            put_u64(out, *run_ms);
            put_bytes(out, report);
            match timing {
                Some(t) => {
                    out.push(1);
                    put_timing(out, t);
                }
                None => out.push(0),
            }
        }
        JobState::Cancelled => out.push(STATE_CANCELLED),
        JobState::Failed { message } => {
            out.push(STATE_FAILED);
            put_str(out, message);
        }
    }
}

fn read_state(r: &mut Reader<'_>) -> Result<JobState, ProtoError> {
    Ok(match r.u8()? {
        STATE_QUEUED => JobState::Queued,
        STATE_RUNNING => JobState::Running,
        STATE_DONE => JobState::Done {
            tier: tier_of(r.u8()?)?,
            queue_ms: r.u64()?,
            run_ms: r.u64()?,
            report: r.bytes()?,
            timing: match r.u8()? {
                0 => None,
                1 => Some(read_timing(r)?),
                _ => return Err(ProtoError("bad timing presence byte")),
            },
        },
        STATE_CANCELLED => JobState::Cancelled,
        STATE_FAILED => JobState::Failed { message: r.str()? },
        _ => return Err(ProtoError("unknown job state")),
    })
}

impl Response {
    /// Encodes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Submitted { job_id } => {
                out.push(RESP_SUBMITTED);
                put_u64(&mut out, *job_id);
            }
            Response::Status { job_id, state } => {
                out.push(RESP_STATUS);
                put_u64(&mut out, *job_id);
                put_state(&mut out, state);
            }
            Response::Cancelled { ok } => {
                out.push(RESP_CANCELLED);
                out.push(*ok as u8);
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                for v in [
                    s.uptime_ms,
                    s.submitted,
                    s.completed,
                    s.cancelled,
                    s.failed,
                    s.rejected,
                    s.queue_len,
                    s.running,
                    s.queue_cap,
                    s.workers,
                    s.cache_mem_hits,
                    s.cache_disk_hits,
                    s.cache_misses,
                    s.cache_stores,
                    s.cache_evictions,
                    s.cache_stale_drops,
                    s.cache_mem_entries,
                    s.cache_disk_entries,
                    s.wait_p50_ms,
                    s.wait_p95_ms,
                    s.wait_max_ms,
                    s.run_p50_ms,
                    s.run_p95_ms,
                    s.run_max_ms,
                ] {
                    put_u64(&mut out, v);
                }
            }
            Response::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
            Response::Error { message } => {
                out.push(RESP_ERROR);
                put_str(&mut out, message);
            }
            Response::Metrics { text } => {
                out.push(RESP_METRICS);
                put_str(&mut out, text);
            }
            Response::Trace { report, trace } => {
                out.push(RESP_TRACE);
                put_bytes(&mut out, report);
                put_str(&mut out, trace);
            }
            Response::Busy { retry_after_ms } => {
                out.push(RESP_BUSY);
                put_u64(&mut out, *retry_after_ms);
            }
            Response::Health(h) => {
                out.push(RESP_HEALTH);
                out.push(h.accepting as u8);
                for v in [h.queue_len, h.queue_cap, h.running, h.workers, h.uptime_ms, h.now_ns] {
                    put_u64(&mut out, v);
                }
            }
            Response::Forwarded { job_id } => {
                out.push(RESP_FORWARDED);
                put_u64(&mut out, *job_id);
            }
            Response::RingDump { now_ns, trace } => {
                out.push(RESP_RING_DUMP);
                put_u64(&mut out, *now_ns);
                put_str(&mut out, trace);
            }
        }
        out
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_SUBMITTED => Response::Submitted { job_id: r.u64()? },
            RESP_STATUS => Response::Status { job_id: r.u64()?, state: read_state(&mut r)? },
            RESP_CANCELLED => Response::Cancelled { ok: r.bool()? },
            RESP_STATS => {
                let mut vals = [0u64; 24];
                for v in &mut vals {
                    *v = r.u64()?;
                }
                Response::Stats(DaemonStats {
                    uptime_ms: vals[0],
                    submitted: vals[1],
                    completed: vals[2],
                    cancelled: vals[3],
                    failed: vals[4],
                    rejected: vals[5],
                    queue_len: vals[6],
                    running: vals[7],
                    queue_cap: vals[8],
                    workers: vals[9],
                    cache_mem_hits: vals[10],
                    cache_disk_hits: vals[11],
                    cache_misses: vals[12],
                    cache_stores: vals[13],
                    cache_evictions: vals[14],
                    cache_stale_drops: vals[15],
                    cache_mem_entries: vals[16],
                    cache_disk_entries: vals[17],
                    wait_p50_ms: vals[18],
                    wait_p95_ms: vals[19],
                    wait_max_ms: vals[20],
                    run_p50_ms: vals[21],
                    run_p95_ms: vals[22],
                    run_max_ms: vals[23],
                })
            }
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_ERROR => Response::Error { message: r.str()? },
            RESP_METRICS => Response::Metrics { text: r.str()? },
            RESP_TRACE => Response::Trace { report: r.bytes()?, trace: r.str()? },
            RESP_BUSY => Response::Busy { retry_after_ms: r.u64()? },
            RESP_HEALTH => Response::Health(HealthInfo {
                accepting: r.bool()?,
                queue_len: r.u64()?,
                queue_cap: r.u64()?,
                running: r.u64()?,
                workers: r.u64()?,
                uptime_ms: r.u64()?,
                now_ns: r.u64()?,
            }),
            RESP_FORWARDED => Response::Forwarded { job_id: r.u64()? },
            RESP_RING_DUMP => Response::RingDump { now_ns: r.u64()?, trace: r.str()? },
            _ => return Err(ProtoError("unknown response tag")),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors from the underlying stream; `InvalidInput` if the payload
/// exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `None` on a clean EOF at a
/// frame boundary (the peer closed the connection).
///
/// # Errors
///
/// I/O errors; `InvalidData` for frames exceeding [`MAX_FRAME`] or EOF
/// mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let mut f = AnalysisFeatures::default();
        f.parallelism = 3;
        f.max_k = 6;
        f.time_budget_secs = 17;
        let ctx = TraceCtx { trace_id: 0xDEAD_BEEF_0123, parent_span: 7, sampled: true };
        let reqs = [
            Request::Submit {
                wait: true,
                features: f.clone(),
                source: "store { map M; }".into(),
                ctx: None,
            },
            Request::Submit { wait: false, features: f, source: String::new(), ctx: Some(ctx) },
            Request::Status { job_id: 42 },
            Request::Cancel { job_id: u64::MAX },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::Trace {
                features: AnalysisFeatures::default(),
                source: "store { map M; }".into(),
            },
            Request::Health,
            Request::Forward {
                features: AnalysisFeatures::default(),
                source: "store { map M; }".into(),
                ctx: None,
            },
            Request::Forward {
                features: AnalysisFeatures::default(),
                source: "store { map M; }".into(),
                ctx: Some(ctx),
            },
            Request::RingDump,
            Request::ClusterTrace,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    /// Feature bits 8 and 9 once carried the removed incremental-SMT and
    /// symmetry-reduction toggles. They are reserved: written as 0, and a
    /// frame from an older peer with them set decodes to the same
    /// features.
    #[test]
    fn reserved_feature_bits_are_written_as_zero_and_ignored() {
        let f = AnalysisFeatures { parallelism: 2, ..AnalysisFeatures::default() };
        let req = Request::Submit { wait: true, features: f, source: "s".into(), ctx: None };
        let mut bytes = req.encode();
        // Tag, version and wait flag precede the big-endian feature bits.
        assert_eq!(bytes[4] & 0b11, 0, "reserved bits must be written as zero");
        bytes[4] |= 0b11;
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// The checker spawns `parallelism` workers, so the decoder bounds
    /// it: [`MAX_PARALLELISM`] decodes, one more is a typed error.
    #[test]
    fn parallelism_beyond_the_bound_is_rejected() {
        for (parallelism, ok) in
            [(MAX_PARALLELISM, true), (MAX_PARALLELISM + 1, false), (u32::MAX, false)]
        {
            let features = AnalysisFeatures {
                parallelism: parallelism as usize,
                ..AnalysisFeatures::default()
            };
            for req in [
                Request::Submit {
                    wait: true,
                    features: features.clone(),
                    source: "s".into(),
                    ctx: None,
                },
                Request::Trace { features: features.clone(), source: "s".into() },
                Request::Forward { features, source: "s".into(), ctx: None },
            ] {
                match Request::decode(&req.encode()) {
                    Ok(back) => assert!(ok && back == req, "{parallelism}: {back:?}"),
                    Err(e) => {
                        assert!(!ok, "{parallelism} must decode");
                        assert_eq!(e, ProtoError("parallelism out of range"));
                    }
                }
            }
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Submitted { job_id: 7 },
            Response::Status { job_id: 7, state: JobState::Queued },
            Response::Status { job_id: 7, state: JobState::Running },
            Response::Status {
                job_id: 7,
                state: JobState::Done {
                    tier: CacheTier::Disk,
                    queue_ms: 12,
                    run_ms: 3456,
                    report: vec![1, 2, 3],
                    timing: None,
                },
            },
            Response::Status {
                job_id: 8,
                state: JobState::Done {
                    tier: CacheTier::Miss,
                    queue_ms: 1,
                    run_ms: 900,
                    report: vec![4, 5],
                    timing: Some(ReqTiming {
                        trace_id: 0xABCD,
                        backend: "127.0.0.1:4001".into(),
                        retries: 1,
                        hedged: true,
                        gateway_ms: 912,
                        stages: vec![("unfold".into(), 200), ("smt".into(), 650)],
                    }),
                },
            },
            Response::Status { job_id: 7, state: JobState::Cancelled },
            Response::Status {
                job_id: 7,
                state: JobState::Failed { message: "parse error at line 3".into() },
            },
            Response::Cancelled { ok: true },
            Response::Stats(DaemonStats {
                submitted: 4,
                cache_disk_entries: 9,
                wait_p50_ms: 5,
                run_max_ms: 777,
                ..Default::default()
            }),
            Response::ShutdownAck,
            Response::Error { message: "queue full".into() },
            Response::Metrics { text: "# TYPE c4d_jobs_submitted_total counter\n".into() },
            Response::Trace { report: vec![9, 8, 7], trace: "{\"t_ns\":1}\n".into() },
            Response::Busy { retry_after_ms: 150 },
            Response::Health(HealthInfo {
                accepting: true,
                queue_len: 2,
                queue_cap: 64,
                running: 1,
                workers: 4,
                uptime_ms: 9001,
                now_ns: 123_456_789,
            }),
            Response::Forwarded { job_id: 31 },
            Response::RingDump {
                now_ns: 42,
                trace: "{\"t_ns\":1,\"tid\":0,\"ph\":\"i\",\"name\":\"x\",\"arg\":0}\n".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff, 0, 1]).is_err());
        // Wrong protocol version.
        let mut bytes = Request::Stats.encode();
        bytes[2] = bytes[2].wrapping_add(1);
        assert!(Request::decode(&bytes).is_err());
        // Trailing bytes.
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[0x77]).is_err());
        // Responses have one shape: a frame cut at what was once a
        // field boundary (18 stats words, a clock-less health, a Done
        // without its timing byte) is short, not zero-filled.
        let short = |resp: Response, cut: usize| {
            let bytes = resp.encode();
            Response::decode(&bytes[..bytes.len() - cut])
        };
        assert_eq!(
            short(Response::Stats(DaemonStats::default()), 6 * 8),
            Err(ProtoError("truncated frame"))
        );
        assert_eq!(
            short(Response::Health(HealthInfo::default()), 8),
            Err(ProtoError("truncated frame"))
        );
        let done = JobState::Done {
            tier: CacheTier::Miss,
            queue_ms: 0,
            run_ms: 0,
            report: vec![1],
            timing: None,
        };
        assert_eq!(
            short(Response::Status { job_id: 1, state: done }, 1),
            Err(ProtoError("truncated frame"))
        );
    }

    #[test]
    fn frames_roundtrip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
        // Oversized length prefix is rejected without allocating.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(read_frame(&mut io::Cursor::new(huge.to_vec())).is_err());
        // EOF mid-frame is an error, not a clean close.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"abcdef").unwrap();
        torn.truncate(7);
        let mut cur = io::Cursor::new(torn);
        assert!(read_frame(&mut cur).is_err());
    }
}
