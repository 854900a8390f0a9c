//! The `c4d` daemon: scheduler workers, the cache-then-compute
//! pipeline, and graceful shutdown, served on the shared
//! [`crate::reactor`].
//!
//! One daemon owns a single [`VerdictCache`] and a bounded
//! [`Scheduler`]. Connection handling is **not** thread-per-connection:
//! the reactor thread owns every listener and every connection, so the
//! thread count stays O(workers), not O(connections); this module only
//! says how each request is served. Worker threads loop on the queue and
//! run the pipeline per job: parse → canonicalize → cache lookup → on a
//! miss, the bounded search with the job's [`CancelToken`] threaded
//! into the checker's deadline checks; completed full verdicts are
//! stored back. Partial (deadline-hit) verdicts are served but never
//! cached, which is what makes excluding the time budget from the cache
//! key sound.
//!
//! Requests that cannot be answered from in-memory state never block
//! the loop:
//!
//! * `Submit{wait}` registers a *waiter* and blocks its connection; the
//!   worker that finishes the job posts a [`Notice`] and the loop sends
//!   the terminal `Status`, which unblocks it.
//! * `Forward` (the gateway's submission) is acknowledged
//!   immediately with `Forwarded{job_id}` and does **not** block the
//!   connection: the terminal `Status` is pushed later on the same
//!   connection, so one gateway link multiplexes many in-flight jobs.
//! * `Trace` runs the pipeline on a transient side thread (it needs the
//!   process-global recorder); `Shutdown` runs the drain on one.
//!
//! Admission control is typed: a full queue yields `Busy{retry_after_ms}`,
//! a draining daemon yields an `Error`.
//!
//! The job table keeps live jobs and the last jobs the loop saw turn
//! terminal ([`RetireWindow`]); older ids answer like unknown ones.
//!
//! Graceful shutdown (the `Shutdown` request) stops admission, drains
//! every admitted job on a side thread, flushes the cache index, acks,
//! then the reactor lingers briefly to flush remaining write buffers
//! and exits.
//!
//! Observability: every job feeds fixed-bucket latency histograms
//! (queue wait, run time, per-stage durations on computed misses)
//! whose summaries ride on [`DaemonStats`] and whose full bucket
//! vectors are rendered on the Prometheus text page — served both as
//! the `Metrics` request on the daemon protocol and, with
//! `--metrics-addr`, over a minimal HTTP listener at `/metrics`.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use c4::{CacheKey, CacheTier, Stage, VerdictCache};
use c4_obs::flight::{FlightEntry, FlightRecorder};
use c4_obs::hist::Histogram;
use c4_obs::prom::PromPage;

use crate::job::{CancelOutcome, Counters, Job, JobWaiter, RetireWindow, Scheduler};
use crate::proto::{DaemonStats, HealthInfo, JobState, ReqTiming, Request, Response, TraceCtx};
use crate::reactor::{Handler, MetricsServer, NoticeBox, Reactor, SideThreads};

/// Per-thread recorder capacity for daemon-side `Trace` requests.
const TRACE_CAPACITY: usize = 1 << 18;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on (stale files are replaced).
    pub unix_socket: Option<PathBuf>,
    /// TCP address to listen on, e.g. `127.0.0.1:4344`.
    pub tcp: Option<String>,
    /// On-disk cache directory; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// In-memory LRU capacity (entries).
    pub mem_cache: usize,
    /// Scheduler worker threads (concurrent jobs).
    pub workers: usize,
    /// Queue capacity (admission bound, excluding running jobs).
    pub queue_cap: usize,
    /// Optional HTTP listener address for the Prometheus `/metrics`
    /// page, e.g. `127.0.0.1:9434` (`:0` picks a port).
    pub metrics_addr: Option<String>,
    /// Keep the process-global recorder ring armed for the daemon's
    /// lifetime (`c4d --trace-ring`): sampled submissions open
    /// `request` spans and `RingDump` answers non-destructively, which
    /// is what `c4 trace --cluster` assembles across processes.
    pub trace_ring: bool,
    /// Directory for flight-recorder anomaly dumps
    /// (`c4d --flight-dir`); `None` keeps the ring in-memory only.
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (last N request timelines).
    pub flight_cap: usize,
    /// Latency threshold (ms) above which a request is flagged as a
    /// `latency` anomaly; 0 disables the threshold.
    pub flight_latency_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            unix_socket: None,
            tcp: None,
            cache_dir: None,
            mem_cache: 256,
            workers: 1,
            queue_cap: 64,
            metrics_addr: None,
            trace_ring: false,
            flight_dir: None,
            flight_cap: 256,
            flight_latency_ms: 0,
        }
    }
}

/// A cross-thread message into the event loop.
enum Notice {
    /// A worker finished `job_id` (any terminal state).
    JobDone(u64),
    /// A side thread produced the reply for a blocked connection.
    SideDone { token: u64, resp: Response },
    /// The drain thread finished: all admitted jobs terminal, cache
    /// index flushed.
    DrainDone,
}

struct Daemon {
    cache: VerdictCache,
    sched: Scheduler,
    /// Live jobs plus the retired ones still in the window.
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
    started: Instant,
    workers: usize,
    wait_hist: Histogram,
    run_hist: Histogram,
    /// Per-stage self times of computed jobs, indexed like [`Stage::ALL`].
    stage_hists: [Histogram; Stage::ALL.len()],
    notices: Arc<NoticeBox<Notice>>,
    /// Transient side threads (trace runs, the drain).
    side_threads: SideThreads,
    /// Whether the recorder ring stays armed for the daemon's lifetime.
    trace_ring: bool,
    /// Per-request flight recorder (always on; dumps when configured).
    flight: FlightRecorder,
}

impl Daemon {
    /// Admits a submission: allocates the job and enqueues it, or
    /// returns the refusal to send back.
    fn admit(
        &self,
        features: c4::AnalysisFeatures,
        source: String,
        ctx: Option<TraceCtx>,
    ) -> Result<u64, Box<Response>> {
        if self.shutdown.load(Ordering::SeqCst) {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(Response::Error { message: "daemon is shutting down".into() }));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job::new(id, source, features, ctx);
        self.jobs.lock().unwrap().insert(id, Arc::clone(&job));
        if !self.sched.try_enqueue(job) {
            self.jobs.lock().unwrap().remove(&id);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let (queue_len, _) = self.sched.lens();
            let _ = self.flight.record(FlightEntry {
                job_id: id,
                trace_id: ctx.map_or(0, |c| c.trace_id),
                outcome: "busy".into(),
                anomaly: Some("busy".into()),
                total_ms: 0,
                marks: vec![("queue_len".into(), queue_len as u64)],
            });
            return Err(Box::new(Response::Busy { retry_after_ms: self.busy_retry_ms() }));
        }
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// The backoff hint attached to `Busy`: roughly the time for the
    /// backlog ahead of the caller to clear at the median job rate,
    /// clamped to a sane polling band.
    fn busy_retry_ms(&self) -> u64 {
        let (queue_len, _) = self.sched.lens();
        let per_job = self.run_hist.quantile(0.50).max(50);
        let rounds = (queue_len as u64) / (self.workers as u64).max(1) + 1;
        per_job.saturating_mul(rounds).clamp(25, 10_000)
    }

    fn status(&self, job_id: u64) -> Response {
        match self.jobs.lock().unwrap().get(&job_id) {
            Some(job) => Response::Status { job_id, state: job.state() },
            None => Response::Error { message: format!("unknown job {job_id}") },
        }
    }

    /// Attempts cancellation; an unknown (or forgotten) job is
    /// [`CancelOutcome::TooLate`].
    fn cancel(&self, job_id: u64) -> CancelOutcome {
        let job = match self.jobs.lock().unwrap().get(&job_id) {
            Some(job) => Arc::clone(job),
            None => return CancelOutcome::TooLate,
        };
        let outcome = job.try_cancel();
        if outcome == CancelOutcome::CancelledNow {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn job_state(&self, job_id: u64) -> Option<JobState> {
        self.jobs.lock().unwrap().get(&job_id).map(|j| j.state())
    }

    fn health(&self) -> HealthInfo {
        let (queue_len, running) = self.sched.lens();
        HealthInfo {
            accepting: !self.shutdown.load(Ordering::SeqCst),
            queue_len: queue_len as u64,
            queue_cap: self.sched.queue_cap as u64,
            running: running as u64,
            workers: self.workers as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            now_ns: c4_obs::now_ns(),
        }
    }

    fn stats(&self) -> DaemonStats {
        let (queue_len, running) = self.sched.lens();
        let cc = self.cache.counters();
        DaemonStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            queue_len: queue_len as u64,
            running: running as u64,
            queue_cap: self.sched.queue_cap as u64,
            workers: self.workers as u64,
            cache_mem_hits: cc.mem_hits,
            cache_disk_hits: cc.disk_hits,
            cache_misses: cc.misses,
            cache_stores: cc.stores,
            cache_evictions: cc.evictions,
            cache_stale_drops: cc.stale_drops,
            cache_mem_entries: self.cache.mem_len() as u64,
            cache_disk_entries: self.cache.disk_len() as u64,
            wait_p50_ms: self.wait_hist.quantile(0.50),
            wait_p95_ms: self.wait_hist.quantile(0.95),
            wait_max_ms: self.wait_hist.max(),
            run_p50_ms: self.run_hist.quantile(0.50),
            run_p95_ms: self.run_hist.quantile(0.95),
            run_max_ms: self.run_hist.max(),
        }
    }

    /// The Prometheus text-format (exposition 0.0.4) metrics page:
    /// every [`DaemonStats`] field as a counter or gauge, plus the
    /// full bucket vectors of the wait/run/stage histograms.
    fn metrics_text(&self) -> String {
        let stats = self.stats();
        let mut page = PromPage::new();
        self.counters.export(&mut page, "c4d");
        page.counter("c4d_cache_misses_total", "Verdict cache misses (computed).", stats.cache_misses);
        page.counter("c4d_cache_stores_total", "Verdict cache stores.", stats.cache_stores);
        page.counter("c4d_cache_evictions_total", "In-memory LRU evictions.", stats.cache_evictions);
        page.counter(
            "c4d_cache_stale_drops_total",
            "Stale or corrupt disk entries dropped.",
            stats.cache_stale_drops,
        );
        page.counter(
            "c4d_flight_recorded_total",
            "Request timelines recorded by the flight recorder.",
            self.flight.recorded(),
        );
        page.counter(
            "c4d_flight_dumps_total",
            "Flight-recorder anomaly dumps written.",
            self.flight.dumped(),
        );
        page.counter_family(
            "c4d_cache_hits_total",
            "Verdict cache hits by tier.",
            &[
                (&[("tier", "memory")], stats.cache_mem_hits),
                (&[("tier", "disk")], stats.cache_disk_hits),
            ],
        );
        page.gauge("c4d_uptime_milliseconds", "Milliseconds since the daemon started.", stats.uptime_ms);
        page.gauge("c4d_queue_depth", "Jobs currently queued.", stats.queue_len);
        page.gauge("c4d_jobs_running", "Jobs currently running.", stats.running);
        page.gauge("c4d_queue_capacity", "Admission bound on the queue.", stats.queue_cap);
        page.gauge("c4d_workers", "Scheduler worker threads.", stats.workers);
        page.gauge(
            "c4d_jobs_retained",
            "Jobs in the job table (live plus the retirement window).",
            self.jobs.lock().expect("a job-table holder panicked").len() as u64,
        );
        page.gauge_family(
            "c4d_cache_entries",
            "Verdict cache residency by tier.",
            &[
                (&[("tier", "memory")], stats.cache_mem_entries),
                (&[("tier", "disk")], stats.cache_disk_entries),
            ],
        );
        page.histogram_family(
            "c4d_job_wait_milliseconds",
            "Queue wait per completed job.",
            &[(&[], &self.wait_hist)],
        );
        page.histogram_family(
            "c4d_job_run_milliseconds",
            "Pipeline run time per completed job.",
            &[(&[], &self.run_hist)],
        );
        let labels = Stage::ALL.map(|s| [("stage", s.name())]);
        let series: Vec<(&[(&str, &str)], &Histogram)> =
            labels.iter().map(|l| l.as_slice()).zip(&self.stage_hists).collect();
        page.histogram_family(
            "c4d_stage_duration_milliseconds",
            "Per-stage self times of computed jobs.",
            &series,
        );
        page.finish()
    }

    /// Serves a `Trace` request: runs the pipeline synchronously on a
    /// side thread with the recorder enabled and returns both the
    /// report and the JSONL trace. The recorder is process-global, so
    /// concurrent trace requests are serialized under a lock; jobs the
    /// scheduler happens to run meanwhile contribute their events too
    /// (it is a whole-process trace). Tracing is verdict-neutral: the
    /// report bytes equal an untraced run's.
    fn trace_job(&self, features: c4::AnalysisFeatures, source: String) -> Response {
        static TRACE_LOCK: Mutex<()> = Mutex::new(());
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        c4_obs::enable(TRACE_CAPACITY);
        let result = crate::run_analysis_cancellable(&source, &features, None);
        let log = c4_obs::drain();
        if self.trace_ring {
            // The drain disarmed the recorder; re-arm the steady-state
            // ring so later `RingDump` pulls keep working.
            c4_obs::enable(TRACE_CAPACITY);
        }
        match result {
            Ok(result) => Response::Trace {
                report: result.encode_report(),
                trace: c4_obs::export::jsonl(&log),
            },
            Err(e) => Response::Error { message: e.to_string() },
        }
    }

    /// A non-destructive snapshot of this process's recorder ring as
    /// compact JSONL, stamped with the recorder clock (`RingDump`).
    fn ring_dump(&self) -> Response {
        Response::RingDump {
            now_ns: c4_obs::now_ns(),
            trace: c4_obs::export::jsonl(&c4_obs::snapshot()),
        }
    }

    /// A bare daemon's `ClusterTrace`: the single-process merge of its
    /// own ring (offset zero — it is its own reference clock).
    fn cluster_trace(&self) -> Response {
        let ring = c4_obs::merge::ProcessRing {
            name: "c4d".into(),
            jsonl: c4_obs::export::jsonl(&c4_obs::snapshot()),
            offset_ns: 0,
            uncertainty_ns: 0,
        };
        match c4_obs::merge::merge(&[ring]) {
            Ok(trace) => Response::Trace { report: Vec::new(), trace },
            Err(e) => Response::Error { message: format!("trace merge failed: {e}") },
        }
    }

    /// One scheduler worker: run jobs until drained, ringing the event
    /// loop after each so waiters get their terminal `Status`.
    fn worker_loop(self: &Arc<Self>) {
        while let Some(job) = self.sched.next() {
            if job.claim_for_run() {
                self.process(&job);
                self.notices.post(Notice::JobDone(job.id));
            }
            self.sched.done_one();
        }
    }

    /// The per-job pipeline. The job is already in the `Running` state.
    fn process(&self, job: &Job) {
        #[cfg(test)]
        tests::hold_blocker(job);
        let trace_id = job.ctx.map_or(0, |c| c.trace_id);
        // A sampled trace context nests this job's pipeline spans
        // (`abstract_interp`, `unfold`, `smt_query`, …) under a
        // `request` span carrying the cluster-wide trace id, which is
        // the cross-process edge `obs::merge` stitches on.
        let _req_span = match job.ctx {
            Some(c) if c.sampled && c4_obs::enabled() => {
                if c.parent_span != 0 {
                    c4_obs::instant("request_parent", c.parent_span);
                }
                Some(c4_obs::span_arg("request", c.trace_id))
            }
            _ => None,
        };
        let queue_ms = job.submitted_at.elapsed().as_millis() as u64;
        self.wait_hist.observe(queue_ms);
        let run_start = Instant::now();
        let flight = |outcome: &str, marks: Vec<(String, u64)>| {
            let _ = self.flight.record(FlightEntry {
                job_id: job.id,
                trace_id,
                outcome: outcome.into(),
                anomaly: None,
                total_ms: job.submitted_at.elapsed().as_millis() as u64,
                marks,
            });
        };
        let done = |tier: CacheTier, report: Vec<u8>, stages: Vec<(String, u64)>| {
            let run_ms = run_start.elapsed().as_millis() as u64;
            self.run_hist.observe(run_ms);
            let timing = ReqTiming { trace_id, stages, ..ReqTiming::default() };
            JobState::Done { tier, queue_ms, run_ms, report, timing: Some(timing) }
        };

        let canon = match crate::canonical_source(&job.source) {
            Ok(canon) => canon,
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Failed { message: e.to_string() });
                flight("failed", vec![("queue_ms".into(), queue_ms)]);
                return;
            }
        };
        let key = CacheKey::derive(&canon, "program", &job.features);
        if let Some((bytes, tier)) = self.cache.lookup(&key) {
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            job.set_state(done(tier, bytes, Vec::new()));
            let tier_mark = match tier {
                CacheTier::Miss => 0,
                CacheTier::Memory => 1,
                CacheTier::Disk => 2,
            };
            flight("done", vec![("queue_ms".into(), queue_ms), ("cache_tier".into(), tier_mark)]);
            return;
        }

        let result = match crate::run_analysis_cancellable(
            &job.source,
            &job.features,
            Some(job.cancel.clone()),
        ) {
            Ok(result) => result,
            Err(e) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Failed { message: e.to_string() });
                flight("failed", vec![("queue_ms".into(), queue_ms)]);
                return;
            }
        };
        if job.cancel.is_cancelled() {
            // The partial result is an artifact of where cancellation
            // landed — discard it rather than serve or cache it.
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            job.set_state(JobState::Cancelled);
            flight("cancelled", vec![("queue_ms".into(), queue_ms)]);
            return;
        }
        // Stage histograms cover computed jobs only: cache hits never
        // enter the pipeline, so their (absent) stages are not zeros.
        // The same per-stage milliseconds become the `ReqTiming` stage
        // breakdown and the flight-recorder marks.
        let timings = result.stats.timings.iter().zip(&self.stage_hists);
        let stages: Vec<(String, u64)> = timings
            .map(|((stage, d), hist)| {
                let ms = d.as_millis() as u64;
                hist.observe(ms);
                (stage.name().to_string(), ms)
            })
            .collect();
        let bytes = result.encode_report();
        if !result.stats.deadline_hit {
            self.cache.store(&key, &bytes);
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        let run_ms = run_start.elapsed().as_millis() as u64;
        let mut marks = vec![("queue_ms".into(), queue_ms), ("run_ms".into(), run_ms)];
        marks.extend(stages.iter().cloned());
        job.set_state(done(CacheTier::Miss, bytes, stages));
        flight("done", marks);
    }
}

/// The daemon's side of the event loop.
struct DaemonLoop {
    daemon: Arc<Daemon>,
    /// job id → connections awaiting its terminal `Status`.
    waiters: HashMap<u64, Vec<JobWaiter>>,
    /// Connections awaiting `ShutdownAck`.
    ack_waiting: Vec<u64>,
    drain_started: bool,
    /// Terminal job ids still answered from the job table.
    retired: RetireWindow,
}

impl Handler for DaemonLoop {
    type Notice = Notice;

    fn request(&mut self, r: &mut Reactor<Notice>, token: u64, req: Request) {
        let daemon = Arc::clone(&self.daemon);
        let reply = match req {
            Request::Submit { wait, features, source, ctx } => {
                match daemon.admit(features, source, ctx) {
                    Ok(job_id) if wait => {
                        let waiter = JobWaiter { token, unblocks: true };
                        self.waiters.entry(job_id).or_default().push(waiter);
                        r.block(token);
                        // The job may already be terminal (a fast
                        // worker, or a pre-drain race): resolve now.
                        self.resolve_job(r, job_id);
                        return;
                    }
                    Ok(job_id) => Response::Submitted { job_id },
                    Err(refusal) => *refusal,
                }
            }
            Request::Forward { features, source, ctx } => {
                match daemon.admit(features, source, ctx) {
                    Ok(job_id) => {
                        let waiter = JobWaiter { token, unblocks: false };
                        self.waiters.entry(job_id).or_default().push(waiter);
                        // Forwarded jobs are usually terminal long after
                        // this ack, but a cache hit can land instantly.
                        r.reply(token, &Response::Forwarded { job_id });
                        self.resolve_job(r, job_id);
                        return;
                    }
                    Err(refusal) => *refusal,
                }
            }
            Request::Status { job_id } => daemon.status(job_id),
            Request::Cancel { job_id } => {
                let outcome = daemon.cancel(job_id);
                r.reply(token, &Response::Cancelled { ok: outcome != CancelOutcome::TooLate });
                // A queued job cancels synchronously — no worker will
                // ever announce it, so it turns terminal here.
                if outcome == CancelOutcome::CancelledNow {
                    self.job_terminal(r, job_id);
                }
                return;
            }
            Request::Stats => Response::Stats(daemon.stats()),
            Request::Metrics => Response::Metrics { text: daemon.metrics_text() },
            Request::Health => Response::Health(daemon.health()),
            Request::RingDump => daemon.ring_dump(),
            Request::ClusterTrace => daemon.cluster_trace(),
            Request::Trace { features, source } => {
                r.block(token);
                let d = Arc::clone(&daemon);
                daemon.side_threads.spawn(move || {
                    let resp = d.trace_job(features, source);
                    d.notices.post(Notice::SideDone { token, resp });
                });
                return;
            }
            Request::Shutdown => {
                r.block(token);
                self.ack_waiting.push(token);
                daemon.shutdown.store(true, Ordering::SeqCst);
                if !self.drain_started {
                    self.drain_started = true;
                    let d = Arc::clone(&daemon);
                    daemon.side_threads.spawn(move || {
                        d.sched.begin_drain();
                        d.sched.await_drained();
                        if let Err(e) = d.cache.flush_index() {
                            eprintln!("c4d: failed to flush cache index: {e}");
                        }
                        d.notices.post(Notice::DrainDone);
                    });
                }
                return;
            }
        };
        r.reply(token, &reply);
    }

    fn notice(&mut self, r: &mut Reactor<Notice>, notice: Notice) {
        match notice {
            Notice::JobDone(job_id) => self.job_terminal(r, job_id),
            Notice::SideDone { token, resp } => r.unblock(token, &resp),
            Notice::DrainDone => {
                for token in std::mem::take(&mut self.ack_waiting) {
                    r.unblock(token, &Response::ShutdownAck);
                }
                r.exit();
            }
        }
    }
}

impl DaemonLoop {
    /// `job_id` just turned terminal: answers its waiters and retires
    /// it, forgetting the job that falls out of the window.
    fn job_terminal(&mut self, r: &mut Reactor<Notice>, job_id: u64) {
        self.resolve_job(r, job_id);
        if let Some(old) = self.retired.retire(job_id) {
            self.daemon.jobs.lock().expect("a job-table holder panicked").remove(&old);
        }
    }

    /// If `job_id` is terminal, sends its `Status` to every waiter.
    fn resolve_job(&mut self, r: &mut Reactor<Notice>, job_id: u64) {
        if !self.waiters.contains_key(&job_id) {
            return;
        }
        let state = match self.daemon.job_state(job_id) {
            Some(
                s @ (JobState::Done { .. } | JobState::Cancelled | JobState::Failed { .. }),
            ) => s,
            _ => return,
        };
        let resp = Response::Status { job_id, state };
        for w in self.waiters.remove(&job_id).unwrap_or_default() {
            w.answer(r, &resp);
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// call [`wait`](ServerHandle::wait) after a client-initiated shutdown.
pub struct ServerHandle {
    daemon: Arc<Daemon>,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
    /// The bound TCP address (with the OS-assigned port if `:0` was
    /// requested), for clients.
    pub tcp_addr: Option<String>,
    /// The bound metrics address (port resolved), for scrapers.
    pub metrics_addr: Option<String>,
}

impl ServerHandle {
    /// Blocks until the daemon has fully shut down: a client sent
    /// `Shutdown` and every thread exited.
    pub fn wait(self) {
        let _ = self.event_loop.join();
        for h in self.workers {
            let _ = h.join();
        }
        if let Some(m) = self.metrics {
            m.stop();
        }
        self.daemon.side_threads.join_all();
    }
}

/// Starts the daemon: binds the configured listeners, spawns the
/// scheduler workers and the event loop, and returns immediately.
///
/// # Errors
///
/// I/O errors binding a listener or opening the cache directory;
/// `InvalidInput` if no listener is configured.
pub fn serve(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let mut reactor = Reactor::bind(cfg.unix_socket.as_deref(), cfg.tcp.as_deref())?;
    let cache = match &cfg.cache_dir {
        Some(dir) => VerdictCache::open(dir, cfg.mem_cache)?,
        None => VerdictCache::in_memory(cfg.mem_cache),
    };
    let workers = cfg.workers.max(1);
    if cfg.trace_ring {
        c4_obs::enable(TRACE_CAPACITY);
    }
    let daemon = Arc::new(Daemon {
        cache,
        sched: Scheduler::new(cfg.queue_cap),
        jobs: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        started: Instant::now(),
        workers,
        wait_hist: Histogram::latency_ms(),
        run_hist: Histogram::latency_ms(),
        stage_hists: Stage::ALL.map(|_| Histogram::latency_ms()),
        notices: reactor.notices(),
        side_threads: SideThreads::default(),
        trace_ring: cfg.trace_ring,
        flight: FlightRecorder::new(cfg.flight_cap, cfg.flight_latency_ms, cfg.flight_dir.clone()),
    });
    let metrics = match &cfg.metrics_addr {
        Some(addr) => Some(MetricsServer::start(
            addr,
            Arc::clone(&daemon),
            |d| d.shutdown.load(Ordering::SeqCst),
            Daemon::metrics_text,
        )?),
        None => None,
    };

    let worker_handles = (0..workers)
        .map(|_| {
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || d.worker_loop())
        })
        .collect();
    let tcp_addr = reactor.tcp_addr();
    let mut handler = DaemonLoop {
        daemon: Arc::clone(&daemon),
        waiters: HashMap::new(),
        ack_waiting: Vec::new(),
        drain_started: false,
        retired: RetireWindow::default(),
    };
    let event_loop = std::thread::spawn(move || {
        if let Err(e) = reactor.run(&mut handler) {
            eprintln!("c4d: event loop failed: {e}");
        }
    });

    Ok(ServerHandle {
        daemon,
        event_loop,
        workers: worker_handles,
        metrics_addr: metrics.as_ref().map(MetricsServer::addr),
        metrics,
        tcp_addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Endpoint};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    const PROG: &str = "store { map M; }\n\
        txn t1() { M.put(1, 10); }\n\
        txn t2() { M.put(1, 20); }\n\
        session { t1 }\n\
        session { t2 }";

    /// A job with this source holds its worker `Running` until it is
    /// cancelled: a blocker that does not depend on how long any
    /// analysis takes.
    const BLOCKER: &str = "store { register R; }\n\
        txn hold_until_cancelled() { R.put(1); }\n\
        session { hold_until_cancelled }";

    /// Called first thing in [`Daemon::process`] in test builds.
    pub(super) fn hold_blocker(job: &Job) {
        if job.source == BLOCKER {
            while !job.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Submits [`BLOCKER`] and waits until a worker runs it.
    fn start_blocker(client: &Client) -> u64 {
        let blocker = client.submit(BLOCKER, &c4::AnalysisFeatures::default()).unwrap();
        while client.status(blocker).unwrap() == JobState::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(client.status(blocker).unwrap(), JobState::Running);
        blocker
    }

    fn start(cache_dir: Option<PathBuf>) -> (ServerHandle, Client) {
        let handle = serve(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            cache_dir,
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("daemon starts");
        let client = Client::new(Endpoint::Tcp(handle.tcp_addr.clone().unwrap()));
        (handle, client)
    }

    fn report_of(state: JobState) -> (CacheTier, Vec<u8>) {
        match state {
            JobState::Done { tier, report, .. } => (tier, report),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn submit_hits_cache_on_resubmission_and_shuts_down_cleanly() {
        let (handle, client) = start(None);

        let (id1, st1) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (tier1, rep1) = report_of(st1);
        assert_eq!(tier1, CacheTier::Miss, "cold submission computes");

        // Reformatted source, different strategy knobs: same cache key.
        let reformatted = PROG.replace('\n', " ").replace("  ", " ");
        let mut f2 = c4::AnalysisFeatures::default();
        f2.parallelism = 2;
        let (id2, st2) = client.submit_wait(&reformatted, &f2).unwrap();
        let (tier2, rep2) = report_of(st2);
        assert_eq!(tier2, CacheTier::Memory, "warm resubmission hits memory");
        assert_eq!(rep1, rep2, "cache serves byte-identical reports");
        assert_ne!(id1, id2);

        // Status of a finished job is queryable; unknown jobs error.
        assert!(matches!(client.status(id1).unwrap(), JobState::Done { .. }));
        assert!(client.status(9999).is_err());
        assert!(!client.cancel(id1).unwrap(), "terminal jobs are not cancellable");

        // Front-end failures surface as Failed, not crashes.
        let (_, st) = client.submit_wait("store {", &c4::AnalysisFeatures::default()).unwrap();
        assert!(matches!(st, JobState::Failed { .. }));

        let stats = client.stats().unwrap();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.cache_mem_hits, 1);
        assert_eq!(stats.cache_misses, 1);

        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn disk_cache_survives_daemon_restart() {
        let dir = std::env::temp_dir().join(format!("c4d-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (handle, client) = start(Some(dir.clone()));
        let (_, st) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (tier, rep_cold) = report_of(st);
        assert_eq!(tier, CacheTier::Miss);
        client.shutdown().unwrap();
        handle.wait();

        // A fresh daemon over the same directory serves from disk.
        let (handle, client) = start(Some(dir.clone()));
        let (_, st) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (tier, rep_warm) = report_of(st);
        assert_eq!(tier, CacheTier::Disk, "restarted daemon hits the persisted cache");
        assert_eq!(rep_cold, rep_warm);
        client.shutdown().unwrap();
        handle.wait();

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One HTTP GET against the metrics listener.
    fn scrape(addr: &str, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("metrics listener reachable");
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    }

    #[test]
    fn metrics_endpoint_and_latency_summaries_reflect_jobs() {
        let handle = serve(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            metrics_addr: Some("127.0.0.1:0".into()),
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("daemon starts");
        let client = Client::new(Endpoint::Tcp(handle.tcp_addr.clone().unwrap()));
        let metrics_addr = handle.metrics_addr.clone().unwrap();

        let (_, st1) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (_, st2) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        report_of(st1);
        report_of(st2);

        let resp = scrape(&metrics_addr, "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "got: {resp}");
        assert!(resp.contains("Content-Type: text/plain; version=0.0.4"));
        let body = resp.split("\r\n\r\n").nth(1).expect("has a body");
        assert!(body.contains("# TYPE c4d_jobs_submitted_total counter"));
        assert!(body.contains("# HELP c4d_jobs_submitted_total "));
        assert!(body.contains("c4d_jobs_submitted_total 2"));
        assert!(body.contains("c4d_cache_hits_total{tier=\"memory\"} 1"));
        // Both finished jobs are inside the retirement window.
        assert!(body.contains("# TYPE c4d_jobs_retained gauge"));
        assert!(body.contains("c4d_jobs_retained 2"));
        assert!(body.contains("# TYPE c4d_job_run_milliseconds histogram"));
        assert!(body.contains("c4d_job_run_milliseconds_count 2"));
        assert!(body.contains("c4d_job_run_milliseconds_bucket{le=\"+Inf\"} 2"));
        // Exactly one computed job fed the stage histograms.
        for stage in Stage::ALL {
            let count =
                format!("c4d_stage_duration_milliseconds_count{{stage=\"{}\"}} 1", stage.name());
            assert!(body.contains(&count), "no {count}");
        }
        // HELP/TYPE headers appear once per metric name even with
        // several label sets.
        assert_eq!(body.matches("# TYPE c4d_stage_duration_milliseconds histogram").count(), 1);

        assert!(scrape(&metrics_addr, "/other").starts_with("HTTP/1.1 404"));

        // The same page is served on the daemon protocol, and the
        // stats summaries are populated from the same histograms.
        let text = client.metrics().unwrap();
        assert!(text.contains("c4d_jobs_submitted_total 2"));
        let stats = client.stats().unwrap();
        assert!(stats.run_p50_ms <= stats.run_max_ms.max(1));
        assert!(stats.wait_p50_ms <= stats.wait_p95_ms.max(1));

        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn trace_request_is_verdict_neutral_and_returns_events() {
        let (handle, client) = start(None);

        let (report, trace) = client.trace(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (_, st) = client.submit_wait(PROG, &c4::AnalysisFeatures::default()).unwrap();
        let (_, untraced) = report_of(st);
        assert_eq!(report, untraced, "traced report bytes equal an untraced run's");

        assert!(!trace.is_empty());
        for line in trace.lines() {
            c4_obs::json::validate(line)
                .unwrap_or_else(|e| panic!("trace line not valid JSON ({e}): {line}"));
        }
        assert!(trace.contains("\"name\":\"analysis\""));

        assert!(client.trace("store {", &c4::AnalysisFeatures::default()).is_err());

        client.shutdown().unwrap();
        handle.wait();
    }

    #[test]
    fn queued_jobs_cancel_and_draining_daemon_rejects_submissions() {
        // One worker: occupy it, then cancel a job stuck behind it.
        let handle = serve(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let client = Client::new(Endpoint::Tcp(handle.tcp_addr.clone().unwrap()));

        // The blocker holds the only worker until it is cancelled, so
        // the next submission is deterministically stuck behind it.
        let blocker = start_blocker(&client);
        let queued = client.submit(PROG, &c4::AnalysisFeatures::default()).unwrap();
        assert!(client.cancel(queued).unwrap(), "queued job cancels");
        assert_eq!(client.status(queued).unwrap(), JobState::Cancelled);
        assert_eq!(client.status(blocker).unwrap(), JobState::Running, "blocker still runs");
        // Cancel the blocker too so shutdown drains fast (cooperative:
        // the worker stops at its next deadline checkpoint).
        assert!(client.cancel(blocker).unwrap());

        client.shutdown().unwrap();
        assert!(
            client.submit(PROG, &c4::AnalysisFeatures::default()).is_err(),
            "draining daemon rejects new submissions"
        );
        handle.wait();
    }

    /// The cluster surface end-to-end against a live daemon: health
    /// probes, typed busy backpressure, and multiplexed forwards on a
    /// single connection.
    #[test]
    fn health_busy_and_forward_multiplexing() {
        let handle = serve(ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            workers: 1,
            queue_cap: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.tcp_addr.clone().unwrap();
        let client = Client::new(Endpoint::Tcp(addr.clone()));

        let h = client.health().unwrap();
        assert!(h.accepting);
        assert_eq!(h.workers, 1);
        assert_eq!(h.queue_cap, 1);

        // One multiplexed connection: two forwards of the same program
        // produce two Forwarded acks, then two terminal Status frames
        // with byte-identical reports (the second is a cache hit). The
        // 1-slot queue may still hold the first job when the second
        // forward lands, in which case admission answers Busy — retry
        // it, exactly as the gateway does for a busy backend.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let features = c4::AnalysisFeatures::default();
        let forward =
            Request::Forward { features: features.clone(), source: PROG.into(), ctx: None }
                .encode();
        for _ in 0..2 {
            crate::proto::write_frame(&mut stream, &forward).unwrap();
        }
        let mut acked = Vec::new();
        let mut reports = HashMap::new();
        while reports.len() < 2 {
            let payload = crate::proto::read_frame(&mut stream).unwrap().expect("open");
            match Response::decode(&payload).unwrap() {
                Response::Forwarded { job_id } => acked.push(job_id),
                Response::Status { job_id, state } => {
                    let (_, rep) = report_of(state);
                    reports.insert(job_id, rep);
                }
                Response::Busy { .. } => {
                    std::thread::sleep(Duration::from_millis(10));
                    crate::proto::write_frame(&mut stream, &forward).unwrap();
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(acked.len(), 2);
        let reps: Vec<_> = acked.iter().map(|id| reports[id].clone()).collect();
        assert_eq!(reps[0], reps[1], "forwarded jobs are byte-identical");

        // Busy: occupy the single worker, fill the 1-slot queue, and
        // the next submission gets a typed retry-after, not an error.
        let blocker = start_blocker(&client);
        let queued = client.submit(BLOCKER, &c4::AnalysisFeatures::default()).unwrap();
        let mut s = TcpStream::connect(&addr).unwrap();
        crate::proto::write_frame(
            &mut s,
            &Request::Submit { wait: false, features, source: BLOCKER.into(), ctx: None }.encode(),
        )
        .unwrap();
        let payload = crate::proto::read_frame(&mut s).unwrap().expect("open");
        match Response::decode(&payload).unwrap() {
            Response::Busy { retry_after_ms } => {
                assert!((25..=10_000).contains(&retry_after_ms));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        let health = client.health().unwrap();
        assert_eq!(health.queue_len, 1, "one job queued behind the runner");
        assert_eq!(client.status(blocker).unwrap(), JobState::Running, "blocker still runs");

        client.cancel(queued).unwrap();
        client.cancel(blocker).unwrap();
        client.shutdown().unwrap();
        handle.wait();
    }
}
