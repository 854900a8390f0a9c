//! The gateway's side of the event loop: request routing, one
//! persistent multiplexed connection per backend, and a timer heap.
//!
//! The client listeners and connections belong to the shared
//! `c4_service::reactor`, the same loop the daemon runs on. This module
//! adds what only the gateway has: backend links, registered with the
//! reactor's poller under their own tokens; transient side threads for
//! the blocking proxies (`Trace`, `ClusterTrace`); and a timer heap for
//! the two latency-tolerant decisions — hedging a slow job and retrying
//! after a backend loss with backoff.
//!
//! **Backend links.** Each backend gets one connection carrying
//! `Forward` frames. The daemon acks `Forwarded { job_id }` in request
//! order and pushes the terminal `Status { job_id, .. }` whenever the
//! job finishes, so replies on a link are a FIFO of *direct* acks
//! (forward/cancel) interleaved with id-tagged status pushes: the loop
//! keeps a `pending` queue of what direct ack it expects next and
//! matches status pushes through a `(backend, remote job id) → gateway
//! job` map. A link error fails every attempt riding on it over to the
//! next backend in the job's ring preference order.
//!
//! **Job lifecycle.** A client submission becomes a [`GwJob`] with a
//! gateway-assigned id, routed by the content-addressed ring point of
//! its cache key. The first terminal verdict from any attempt wins;
//! other attempts are cancelled through the daemon's job-cancellation
//! path and their late statuses only settle their attempts. Because
//! verdict bytes are content-addressed and deterministic, the winner's
//! identity never changes the reply.
//! A job is retired into a [`RetireWindow`] once it is terminal and
//! every attempt has settled; older ids answer like unknown ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use c4::AnalysisFeatures;
use c4_obs::ctx::TraceCtx;
use c4_obs::flight::FlightEntry;
use c4_obs::merge::ProcessRing;
use c4_service::client::{Client, Endpoint};
use c4_service::conn::{FrameConn, ReadOutcome};
use c4_service::job::{JobWaiter, RetireWindow};
use c4_service::poll::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use c4_service::proto::{JobState, ReqTiming, Request, Response};
use c4_service::reactor::{Handler, Reactor, CALLER_TOKENS};

use crate::{Gateway, Notice};

type R = Reactor<Notice>;

/// Idle poll bound: timers, drain checks, and exit progress are
/// re-evaluated at least this often.
const POLL_TICK: Duration = Duration::from_millis(500);

fn terminal(s: &JobState) -> bool {
    matches!(s, JobState::Done { .. } | JobState::Cancelled | JobState::Failed { .. })
}

/// Backend `b`'s poller token.
fn backend_token(b: usize) -> u64 {
    CALLER_TOKENS.start + b as u64
}

/// The ring point a job routes by: its content-addressed cache key.
/// Unparseable programs still route (and fail) somewhere deterministic:
/// the raw bytes are hashed instead.
fn route_point(source: &str, features: &AnalysisFeatures) -> u64 {
    match c4_service::cache_key(source, features) {
        Ok(key) => key.ring_point(),
        Err(_) => u64::from_be_bytes(
            c4::sha256(source.as_bytes())[..8].try_into().expect("a digest has 8 bytes"),
        ),
    }
}

/// What the next non-status reply on a backend link answers.
enum Direct {
    ForwardAck { job: u64 },
    CancelAck,
}

struct BackendLink {
    conn: FrameConn,
    pending: VecDeque<Direct>,
}

/// One placement of a job on a backend.
struct Attempt {
    backend: usize,
    /// The backend's job id, once `Forwarded` is acked.
    remote_id: Option<u64>,
    /// Acked-and-resolved, failed, or abandoned — no longer live.
    done: bool,
}

struct GwJob {
    source: String,
    features: AnalysisFeatures,
    point: u64,
    state: JobState,
    waiters: Vec<JobWaiter>,
    attempts: Vec<Attempt>,
    /// Backends this job has been placed on (never reused).
    tried: Vec<usize>,
    failures: u32,
    hedged: bool,
    cancel_requested: bool,
    created: Instant,
    /// Distributed trace identity: propagated from the submitter, or
    /// minted at admission. Travels on every `Forward` for this job.
    ctx: TraceCtx,
    /// Failover re-forwards actually sent (distinct from `failures`,
    /// which counts placement attempts that found no backend).
    retry_sends: u32,
    /// The backend whose terminal verdict won, once one has.
    winner: Option<usize>,
}

impl GwJob {
    /// No attempt is still waiting on its backend.
    fn idle(&self) -> bool {
        self.attempts.iter().all(|a| a.done)
    }

    /// `(backend, backend job id)` of every live, acknowledged attempt.
    fn racing(&self) -> Vec<(usize, u64)> {
        let live = self.attempts.iter().filter(|a| !a.done);
        live.filter_map(|a| a.remote_id.map(|rid| (a.backend, rid))).collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Hedge(u64),
    Retry(u64),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SendKind {
    Primary,
    Hedge,
    Retry,
}

struct EventLoop {
    gw: Arc<Gateway>,
    /// Backend index → live link.
    backends: Vec<Option<BackendLink>>,
    jobs: HashMap<u64, GwJob>,
    /// (backend index, backend job id) → gateway job id.
    remote: HashMap<(usize, u64), u64>,
    timers: BinaryHeap<Reverse<(Instant, u64, Timer)>>,
    timer_seq: u64,
    /// Clients awaiting `ShutdownAck`.
    ack_waiting: Vec<u64>,
    next_id: u64,
    /// Settled job ids still answered from `jobs`.
    retired: RetireWindow,
}

/// Spawns the loop thread over `reactor`, whose listeners are bound.
pub(crate) fn spawn(gw: Arc<Gateway>, mut reactor: R) -> JoinHandle<()> {
    let mut el = EventLoop {
        backends: (0..gw.backends.len()).map(|_| None).collect(),
        gw,
        jobs: HashMap::new(),
        remote: HashMap::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
        ack_waiting: Vec::new(),
        next_id: 1,
        retired: RetireWindow::default(),
    };
    std::thread::spawn(move || {
        if let Err(e) = reactor.run(&mut el) {
            eprintln!("c4-gateway: event loop failed: {e}");
        }
    })
}

impl Handler for EventLoop {
    type Notice = Notice;

    fn request(&mut self, r: &mut R, token: u64, req: Request) {
        let _sp = c4_obs::span("gw_dispatch");
        let draining = self.gw.draining.load(Ordering::SeqCst);
        let reply = match req {
            Request::Submit { .. } | Request::Forward { .. } if draining => {
                self.gw.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Response::Error { message: "gateway is shutting down".into() }
            }
            Request::Submit { wait, features, source, ctx } => {
                let id = self.admit(features, source, ctx);
                if wait {
                    if let Some(job) = self.jobs.get_mut(&id) {
                        job.waiters.push(JobWaiter { token, unblocks: true });
                    }
                    r.block(token);
                } else {
                    r.reply(token, &Response::Submitted { job_id: id });
                }
                self.try_send(r, id, SendKind::Primary);
                return;
            }
            Request::Forward { features, source, ctx } => {
                let id = self.admit(features, source, ctx);
                if let Some(job) = self.jobs.get_mut(&id) {
                    job.waiters.push(JobWaiter { token, unblocks: false });
                }
                r.reply(token, &Response::Forwarded { job_id: id });
                self.try_send(r, id, SendKind::Primary);
                return;
            }
            Request::Status { job_id } => match self.jobs.get(&job_id) {
                Some(job) => Response::Status { job_id, state: job.state.clone() },
                None => Response::Error { message: format!("unknown job {job_id}") },
            },
            Request::Cancel { job_id } => {
                let targets = match self.jobs.get_mut(&job_id) {
                    Some(job) if !terminal(&job.state) => {
                        job.cancel_requested = true;
                        Some(job.racing())
                    }
                    _ => None,
                };
                match targets {
                    Some(targets) => {
                        for (b, rid) in targets {
                            self.send_cancel(r, b, rid);
                        }
                        Response::Cancelled { ok: true }
                    }
                    None => Response::Cancelled { ok: false },
                }
            }
            Request::Stats => Response::Stats(self.gw.stats()),
            Request::Metrics => Response::Metrics { text: self.gw.metrics_text() },
            Request::Health => Response::Health(self.gw.health()),
            Request::Trace { features, source } => {
                self.proxy_trace(r, token, features, source);
                return;
            }
            Request::RingDump => Response::RingDump {
                now_ns: c4_obs::now_ns(),
                trace: c4_obs::export::jsonl(&c4_obs::snapshot()),
            },
            Request::ClusterTrace => {
                self.cluster_trace(r, token);
                return;
            }
            Request::Shutdown => {
                r.block(token);
                self.ack_waiting.push(token);
                self.gw.draining.store(true, Ordering::SeqCst);
                self.drain_check(r);
                return;
            }
        };
        r.reply(token, &reply);
    }

    fn notice(&mut self, r: &mut R, notice: Notice) {
        match notice {
            Notice::Connected { backend, stream } => self.install_backend(r, backend, stream),
            Notice::SideDone { token, resp } => r.unblock(token, &resp),
        }
    }

    fn event(&mut self, r: &mut R, token: u64, bits: u32) {
        self.backend_event(r, (token - CALLER_TOKENS.start) as usize, bits);
    }

    fn tick(&mut self, r: &mut R) -> Option<Duration> {
        self.fire_due_timers(r);
        self.drain_check(r);
        self.gw.jobs_retained.store(self.jobs.len() as u64, Ordering::Relaxed);
        self.gw.remote_attempts.store(self.remote.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        let next = self.timers.peek().map(|Reverse((at, _, _))| at.saturating_duration_since(now));
        Some(next.unwrap_or(POLL_TICK).min(POLL_TICK))
    }
}

impl EventLoop {
    // -- timers ----------------------------------------------------------

    fn arm(&mut self, after: Duration, t: Timer) {
        self.timer_seq += 1;
        self.timers.push(Reverse((Instant::now() + after, self.timer_seq, t)));
    }

    fn fire_due_timers(&mut self, r: &mut R) {
        let now = Instant::now();
        while let Some(Reverse((at, _, _))) = self.timers.peek() {
            if *at > now {
                break;
            }
            let Reverse((_, _, timer)) = self.timers.pop().unwrap();
            match timer {
                Timer::Hedge(id) => {
                    let due =
                        |j: &&mut GwJob| !terminal(&j.state) && !j.hedged && !j.cancel_requested;
                    if let Some(j) = self.jobs.get_mut(&id).filter(due) {
                        j.hedged = true;
                        self.try_send(r, id, SendKind::Hedge);
                    }
                }
                Timer::Retry(id) => {
                    if self.stranded(id) {
                        self.try_send(r, id, SendKind::Retry);
                    }
                }
            }
        }
    }

    // -- backend links ---------------------------------------------------

    fn install_backend(&mut self, r: &mut R, b: usize, stream: std::net::TcpStream) {
        if self.backends[b].is_some() || r.exiting() {
            return;
        }
        let Ok(mut conn) = FrameConn::new(stream) else { return };
        if conn.settle(r.poller(), backend_token(b), EPOLLIN).is_err() {
            return;
        }
        self.backends[b] = Some(BackendLink { conn, pending: VecDeque::new() });
        self.gw.backends[b].connected.store(true, Ordering::Relaxed);
    }

    /// Takes backend `b`'s link out of the poller and the rotation.
    fn close_backend(&mut self, r: &mut R, b: usize) -> Option<BackendLink> {
        let mut link = self.backends[b].take()?;
        let _ = link.conn.settle(r.poller(), backend_token(b), 0);
        self.gw.backends[b].connected.store(false, Ordering::Relaxed);
        Some(link)
    }

    fn backend_event(&mut self, r: &mut R, b: usize, bits: u32) {
        if b >= self.backends.len() {
            return;
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.fail_backend(r, b);
            return;
        }
        if bits & EPOLLIN != 0 {
            let outcome = match &mut self.backends[b] {
                Some(link) => link.conn.on_readable(),
                None => return,
            };
            match outcome {
                Ok(ReadOutcome::Open) => self.pump_backend(r, b),
                Ok(ReadOutcome::Eof) => {
                    // Drain what the backend said before it closed.
                    self.pump_backend(r, b);
                    self.fail_backend(r, b);
                }
                Err(_) => self.fail_backend(r, b),
            }
        } else if bits & EPOLLOUT != 0 {
            self.backend_after_io(r, b);
        }
    }

    fn pump_backend(&mut self, r: &mut R, b: usize) {
        loop {
            let frame = match &mut self.backends[b] {
                Some(link) => link.conn.next_frame(),
                None => return,
            };
            match frame {
                Ok(Some(payload)) => self.handle_backend_frame(r, b, &payload),
                Ok(None) => break,
                Err(_) => {
                    self.fail_backend(r, b);
                    return;
                }
            }
        }
        self.backend_after_io(r, b);
    }

    fn handle_backend_frame(&mut self, r: &mut R, b: usize, payload: &[u8]) {
        let Ok(resp) = Response::decode(payload) else {
            self.fail_backend(r, b);
            return;
        };
        if let Response::Status { job_id: rid, state } = resp {
            if terminal(&state) {
                if let Some(&gid) = self.remote.get(&(b, rid)) {
                    self.attempt_terminal(r, gid, b, rid, state);
                }
            }
            return;
        }
        let direct = match &mut self.backends[b] {
            Some(link) => link.pending.pop_front(),
            None => return,
        };
        match direct {
            Some(Direct::ForwardAck { job: gid }) => match resp {
                Response::Forwarded { job_id: rid } => self.attempt_acked(r, gid, b, rid),
                Response::Busy { retry_after_ms } => {
                    self.gw.backends[b].busy.fetch_add(1, Ordering::Relaxed);
                    self.attempt_settled(gid, b);
                    self.surface_busy(r, gid, retry_after_ms);
                }
                Response::Error { .. } => {
                    self.attempt_settled(gid, b);
                    self.retry_after_loss(r, gid);
                }
                _ => self.fail_backend(r, b),
            },
            // Any reply shape settles a cancel; its effect arrives as
            // the job's terminal status push.
            Some(Direct::CancelAck) => {}
            None => self.fail_backend(r, b),
        }
    }

    fn attempt_acked(&mut self, r: &mut R, gid: u64, b: usize, rid: u64) {
        self.remote.insert((b, rid), gid);
        let cancel_now = match self.jobs.get_mut(&gid) {
            Some(job) => {
                if let Some(a) = job.attempts.iter_mut().find(|a| a.backend == b && !a.done) {
                    a.remote_id = Some(rid);
                }
                if job.state == JobState::Queued {
                    job.state = JobState::Running;
                }
                // The job was cancelled (by the client, or as a losing
                // hedge) while this forward was still unacked.
                job.cancel_requested || terminal(&job.state)
            }
            None => true,
        };
        if cancel_now {
            self.send_cancel(r, b, rid);
        }
    }

    /// A terminal status for `(b, rid)` arrived. First one wins the
    /// job; later ones (losing hedges, post-cancel echoes) only settle
    /// their attempt's accounting.
    fn attempt_terminal(&mut self, r: &mut R, gid: u64, b: usize, rid: u64, state: JobState) {
        self.remote.remove(&(b, rid));
        let won = self.jobs.get(&gid).is_some_and(|j| !terminal(&j.state));
        self.attempt_settled(gid, b);
        if !won {
            return;
        }
        let elapsed = self.jobs.get(&gid).map(|j| j.created.elapsed()).unwrap_or_default();
        self.gw.backends[b].forward_hist.observe(elapsed.as_millis() as u64);
        self.gw.forward_hist.observe(elapsed.as_millis() as u64);
        if let Some(job) = self.jobs.get_mut(&gid) {
            job.winner = Some(b);
        }
        self.finish_job(r, gid, state, None);
    }

    /// Marks the live attempt on `b` done (answered, failed or lost)
    /// and settles its counters; retires the job if that was the last
    /// live attempt of a terminal job.
    fn attempt_settled(&mut self, gid: u64, b: usize) {
        let Some(job) = self.jobs.get_mut(&gid) else { return };
        let Some(a) = job.attempts.iter_mut().find(|a| a.backend == b && !a.done) else { return };
        a.done = true;
        if let Some(rid) = a.remote_id {
            self.remote.remove(&(b, rid));
        }
        self.gw.backends[b].inflight.fetch_sub(1, Ordering::Relaxed);
        self.retire_if_settled(gid);
    }

    /// Retires `gid` if it is terminal and no attempt is live, and
    /// forgets the job that falls out of the window. Every caller marks
    /// the moment one of the two conditions starts to hold, so each job
    /// is retired once.
    fn retire_if_settled(&mut self, gid: u64) {
        if !self.jobs.get(&gid).is_some_and(|j| terminal(&j.state) && j.idle()) {
            return;
        }
        if let Some(old) = self.retired.retire(gid) {
            let gone = self.jobs.remove(&old);
            debug_assert!(gone.is_some_and(|j| j.idle()), "retired job {old} had a live attempt");
        }
    }

    /// Whether `gid` still needs a verdict and no attempt is running.
    fn stranded(&self, gid: u64) -> bool {
        self.jobs.get(&gid).is_some_and(|j| !terminal(&j.state) && j.idle())
    }

    /// An attempt was lost (backend error or dead link). If a hedge
    /// copy is still running the job just rides on it; otherwise the
    /// job re-routes, bounded by the retry budget.
    fn retry_after_loss(&mut self, r: &mut R, gid: u64) {
        if self.stranded(gid) {
            self.try_send(r, gid, SendKind::Retry);
        }
    }

    /// A backend said `Busy`. Hedged jobs ride the other copy; a job
    /// with nowhere else to run surfaces the typed backpressure to its
    /// submitter instead of camping on the queue.
    fn surface_busy(&mut self, r: &mut R, gid: u64, retry_after_ms: u64) {
        if !self.stranded(gid) {
            return;
        }
        self.gw.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let state = JobState::Failed {
            message: format!("backend busy; retry after {retry_after_ms} ms"),
        };
        self.finish_job(r, gid, state, Some(retry_after_ms));
    }

    /// Drops a backend link and re-routes everything that was riding
    /// on it: unacked forwards in its pending queue and acked attempts
    /// in the remote map.
    fn fail_backend(&mut self, r: &mut R, b: usize) {
        let Some(link) = self.close_backend(r, b) else { return };
        self.gw.backends[b].healthy.store(false, Ordering::Relaxed);
        let mut affected: Vec<u64> = link
            .pending
            .iter()
            .filter_map(|d| match d {
                Direct::ForwardAck { job } => Some(*job),
                Direct::CancelAck => None,
            })
            .collect();
        affected.extend(
            self.remote.iter().filter(|((bb, _), _)| *bb == b).map(|(_, &gid)| gid),
        );
        // A lost backend is always an anomaly worth a dump: the ring
        // around it holds the requests that were in flight when it
        // died, before their failovers rewrite the story.
        let _ = self.gw.flight.record(FlightEntry {
            job_id: 0,
            trace_id: 0,
            outcome: "backend_lost".to_string(),
            anomaly: Some("backend_lost".to_string()),
            total_ms: 0,
            marks: vec![("backend".to_string(), b as u64)],
        });
        c4_obs::instant("gw_backend_lost", b as u64);
        for gid in affected {
            self.attempt_settled(gid, b);
            self.retry_after_loss(r, gid);
        }
    }

    fn send_cancel(&mut self, r: &mut R, b: usize, rid: u64) {
        let frame = Request::Cancel { job_id: rid }.encode();
        let queued = match &mut self.backends[b] {
            Some(link) => {
                link.conn.queue_frame(&frame);
                link.pending.push_back(Direct::CancelAck);
                true
            }
            None => false,
        };
        if queued {
            self.backend_after_io(r, b);
        }
    }

    /// Routes one placement of `gid`: the first backend in its ring
    /// preference that is connected, preferably probe-healthy, and not
    /// yet tried. With nowhere to place it, hedges dissolve silently,
    /// primaries and retries back off — bounded by the retry budget.
    fn try_send(&mut self, r: &mut R, gid: u64, kind: SendKind) {
        let (point, tried, trace_id, frame) = match self.jobs.get(&gid) {
            Some(job) if !terminal(&job.state) => (
                job.point,
                job.tried.clone(),
                job.ctx.trace_id,
                Request::Forward {
                    features: job.features.clone(),
                    source: job.source.clone(),
                    // This hop's span id is the gateway job id: the
                    // backend's `request` span nests under it in the
                    // merged cluster trace.
                    ctx: Some(job.ctx.forwarded(gid)),
                }
                .encode(),
            ),
            _ => return,
        };
        let pref = self.gw.ring.preference(point);
        let up = |b: &usize| self.backends[*b].is_some() && !tried.contains(b);
        let pick = pref
            .iter()
            .find(|b| up(b) && self.gw.backends[**b].healthy.load(Ordering::Relaxed))
            .or_else(|| pref.iter().find(|b| up(b)))
            .copied();
        let b = match pick {
            Some(b) => b,
            None => {
                if kind == SendKind::Hedge {
                    if let Some(job) = self.jobs.get_mut(&gid) {
                        job.hedged = false;
                    }
                    return;
                }
                let failures = match self.jobs.get_mut(&gid) {
                    Some(job) => {
                        job.failures += 1;
                        job.failures
                    }
                    None => return,
                };
                if failures <= self.gw.cfg.retry_limit {
                    let backoff = self.gw.cfg.retry_backoff * 2u32.pow(failures - 1);
                    self.arm(backoff, Timer::Retry(gid));
                } else {
                    self.finish_job(
                        r,
                        gid,
                        JobState::Failed { message: "no backends available".into() },
                        None,
                    );
                }
                return;
            }
        };
        if let Some(link) = &mut self.backends[b] {
            link.conn.queue_frame(&frame);
            link.pending.push_back(Direct::ForwardAck { job: gid });
        }
        if let Some(job) = self.jobs.get_mut(&gid) {
            job.attempts.push(Attempt { backend: b, remote_id: None, done: false });
            job.tried.push(b);
            if kind == SendKind::Retry {
                job.retry_sends += 1;
            }
        }
        // The forward edge in the merged cluster trace: its arg is the
        // trace id the backend's `request` span will carry, and its
        // timestamp is the causal lower bound `merge::check` verifies.
        c4_obs::instant("gw_forward", trace_id);
        let bs = &self.gw.backends[b];
        bs.inflight.fetch_add(1, Ordering::Relaxed);
        bs.forwards.fetch_add(1, Ordering::Relaxed);
        match kind {
            SendKind::Hedge => {
                bs.hedges.fetch_add(1, Ordering::Relaxed);
                c4_obs::instant("gw_hedge", trace_id);
            }
            SendKind::Retry => {
                bs.retries.fetch_add(1, Ordering::Relaxed);
                c4_obs::instant("gw_retry", trace_id);
            }
            SendKind::Primary => {
                if let Some(delay) = self.gw.cfg.hedge_after {
                    if self.gw.backends.len() > 1 {
                        self.arm(delay, Timer::Hedge(gid));
                    }
                }
            }
        }
        self.backend_after_io(r, b);
    }

    /// Settles a job terminally: state, counters, waiter replies, and
    /// cancellation of any attempts still racing. `busy_hint` switches
    /// submit-wait replies to the typed `Busy` frame.
    ///
    /// A winning `Done` gets its timing summary augmented with the
    /// gateway's view — trace id, winning backend, failover/hedge
    /// counts, end-to-end gateway milliseconds — and every settlement
    /// is recorded in the flight ring, with busy/failover/
    /// hedge settlements flagged as anomalies.
    fn finish_job(&mut self, r: &mut R, gid: u64, mut state: JobState, busy_hint: Option<u64>) {
        let (waiters, trace_id, hedged, retry_sends, winner, gateway_ms) =
            match self.jobs.get_mut(&gid) {
                Some(job) if !terminal(&job.state) => {
                    let gateway_ms = job.created.elapsed().as_millis() as u64;
                    if let JobState::Done { timing, .. } = &mut state {
                        let t = timing.get_or_insert_with(ReqTiming::default);
                        if t.trace_id == 0 {
                            t.trace_id = job.ctx.trace_id;
                        }
                        t.backend = job
                            .winner
                            .map(|b| self.gw.backends[b].addr.clone())
                            .unwrap_or_default();
                        t.retries = job.retry_sends;
                        t.hedged = job.hedged;
                        t.gateway_ms = gateway_ms;
                    }
                    job.state = state.clone();
                    (
                        std::mem::take(&mut job.waiters),
                        job.ctx.trace_id,
                        job.hedged,
                        job.retry_sends,
                        job.winner,
                        gateway_ms,
                    )
                }
                _ => return,
            };
        self.gw.jobs_live.fetch_sub(1, Ordering::Relaxed);
        c4_obs::counter("gw_jobs_live", self.gw.jobs_live.load(Ordering::Relaxed));
        let outcome = match &state {
            JobState::Done { .. } => "done",
            JobState::Cancelled => "cancelled",
            _ => "failed",
        };
        let anomaly = if busy_hint.is_some() {
            Some("busy")
        } else if retry_sends > 0 {
            Some("failover")
        } else if hedged {
            Some("hedge")
        } else {
            None
        };
        let mut marks = vec![
            ("retries".to_string(), u64::from(retry_sends)),
            ("hedged".to_string(), u64::from(hedged)),
        ];
        if let Some(b) = winner {
            marks.push(("winner".to_string(), b as u64));
        }
        let _ = self.gw.flight.record(FlightEntry {
            job_id: gid,
            trace_id,
            outcome: outcome.to_string(),
            anomaly: anomaly.map(String::from),
            total_ms: gateway_ms,
            marks,
        });
        if busy_hint.is_some() {
            c4_obs::instant("gw_busy", trace_id);
        } else {
            c4_obs::instant("gw_done", trace_id);
        }
        let counter = match &state {
            JobState::Done { .. } => &self.gw.counters.completed,
            JobState::Cancelled => &self.gw.counters.cancelled,
            _ => &self.gw.counters.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);

        // Cancel the racing attempts; unacked ones are cancelled when
        // their `Forwarded` arrives (see `attempt_acked`).
        let racing = self.jobs.get(&gid).map(GwJob::racing).unwrap_or_default();
        for (b, rid) in racing {
            self.send_cancel(r, b, rid);
        }

        let status = Response::Status { job_id: gid, state };
        // Typed backpressure for a sequential submitter; a forwarding
        // peer correlates by job id and gets the failed status instead.
        let busy = busy_hint.map(|ms| Response::Busy { retry_after_ms: ms });
        for w in waiters {
            w.answer(r, busy.as_ref().filter(|_| w.unblocks).unwrap_or(&status));
        }
        self.retire_if_settled(gid);
        self.drain_check(r);
    }

    /// Once a drain has no jobs left, acks every `Shutdown`, closes the
    /// backend links, and ends the loop.
    fn drain_check(&mut self, r: &mut R) {
        if r.exiting()
            || !self.gw.draining.load(Ordering::SeqCst)
            || self.ack_waiting.is_empty()
            || self.gw.jobs_live.load(Ordering::Relaxed) > 0
        {
            return;
        }
        for token in std::mem::take(&mut self.ack_waiting) {
            r.unblock(token, &Response::ShutdownAck);
        }
        self.gw.shutdown.store(true, Ordering::SeqCst);
        for b in 0..self.backends.len() {
            self.close_backend(r, b);
        }
        r.exit();
    }

    /// Admits a job and returns its gateway id. A submitter's trace
    /// context is propagated; otherwise the gateway mints one, sampled
    /// iff its own recorder ring is armed.
    fn admit(&mut self, features: AnalysisFeatures, source: String, ctx: Option<TraceCtx>) -> u64 {
        let point = route_point(&source, &features);
        let ctx = ctx.unwrap_or_else(|| c4_obs::ctx::mint(self.gw.cfg.trace_ring));
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            GwJob {
                source,
                features,
                point,
                state: JobState::Queued,
                waiters: Vec::new(),
                attempts: Vec::new(),
                tried: Vec::new(),
                failures: 0,
                hedged: false,
                cancel_requested: false,
                created: Instant::now(),
                ctx,
                retry_sends: 0,
                winner: None,
            },
        );
        self.gw.jobs_live.fetch_add(1, Ordering::Relaxed);
        self.gw.counters.submitted.fetch_add(1, Ordering::Relaxed);
        c4_obs::counter("gw_jobs_live", self.gw.jobs_live.load(Ordering::Relaxed));
        id
    }

    /// Proxies a `Trace` to the routed backend on a side thread — the
    /// request is synchronous on the backend, so it must not occupy
    /// the loop or a multiplexed link.
    fn proxy_trace(&mut self, r: &mut R, token: u64, features: AnalysisFeatures, source: String) {
        let addr = self
            .gw
            .ring
            .preference(route_point(&source, &features))
            .into_iter()
            .find(|&b| self.backends[b].is_some())
            .map(|b| self.gw.backends[b].addr.clone());
        let Some(addr) = addr else {
            r.reply(token, &Response::Error { message: "no backends available".into() });
            return;
        };
        r.block(token);
        let gw = Arc::clone(&self.gw);
        self.gw.side_threads.spawn(move || {
            let client = Client::new(Endpoint::Tcp(addr));
            let resp = match client.trace(&source, &features) {
                Ok((report, trace)) => Response::Trace { report, trace },
                Err(e) => Response::Error { message: e.to_string() },
            };
            gw.notices.post(Notice::SideDone { token, resp });
        });
    }

    /// Assembles one cluster-wide trace: the gateway's own ring plus a
    /// `RingDump` from every connected backend, each mapped onto the
    /// gateway's timeline by the probe-estimated clock offsets. The
    /// blocking backend pulls run on a side thread (same discipline as
    /// [`proxy_trace`](Self::proxy_trace)); the gateway's ring is
    /// snapshotted here on the loop thread so the trace reflects the
    /// moment of the request.
    fn cluster_trace(&mut self, r: &mut R, token: u64) {
        let own = c4_obs::export::jsonl(&c4_obs::snapshot());
        let peers: Vec<(String, i64, u64)> = self
            .gw
            .backends
            .iter()
            .enumerate()
            .filter(|(b, _)| self.backends[*b].is_some())
            .map(|(_, bs)| {
                (
                    bs.addr.clone(),
                    bs.clock_offset_ns.load(Ordering::Relaxed),
                    bs.clock_err_ns.load(Ordering::Relaxed),
                )
            })
            .collect();
        r.block(token);
        let gw = Arc::clone(&self.gw);
        self.gw.side_threads.spawn(move || {
            let mut rings = vec![ProcessRing {
                name: "c4-gateway".to_string(),
                jsonl: own,
                offset_ns: 0,
                uncertainty_ns: 0,
            }];
            for (addr, offset_ns, uncertainty_ns) in peers {
                // A backend that fails the pull (restarting) is
                // left out rather than failing the whole assembly.
                if let Ok((_now, jsonl)) = Client::new(Endpoint::Tcp(addr.clone())).ring_dump() {
                    rings.push(ProcessRing { name: addr, jsonl, offset_ns, uncertainty_ns });
                }
            }
            let resp = match c4_obs::merge::merge(&rings) {
                Ok(trace) => Response::Trace { report: Vec::new(), trace },
                Err(e) => Response::Error { message: format!("trace merge failed: {e}") },
            };
            gw.notices.post(Notice::SideDone { token, resp });
        });
    }

    fn backend_after_io(&mut self, r: &mut R, b: usize) {
        let Some(link) = &mut self.backends[b] else { return };
        let flushed = link.conn.on_writable().is_ok();
        let want = link.conn.interest();
        if !flushed || link.conn.settle(r.poller(), backend_token(b), want).is_err() {
            self.fail_backend(r, b);
        }
    }
}
