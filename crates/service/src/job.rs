//! Jobs and the bounded scheduler queue.
//!
//! A [`Job`] is one admitted analysis request; its lifecycle is the
//! [`JobState`] machine `Queued → Running → {Done, Cancelled, Failed}`
//! (with the shortcut `Queued → Cancelled`), guarded by one mutex per
//! job so state transitions, cancellation and submit-wait blocking are
//! race-free. The [`Scheduler`] is a bounded FIFO with admission
//! control: `try_enqueue` refuses work beyond the configured capacity
//! (back-pressure to the client, which sees a `queue full` error instead
//! of unbounded latency), and `begin_drain`/`await_drained` implement
//! the graceful-shutdown contract — everything admitted completes,
//! nothing new is admitted. A [`RetireWindow`] bounds how many terminal
//! jobs a serving tier keeps answering `Status` for, and a [`JobWaiter`]
//! is a connection waiting for one to turn terminal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use c4::{AnalysisFeatures, CancelToken};
use c4_obs::prom::PromPage;

use crate::proto::{JobState, Response, TraceCtx};
use crate::reactor::Reactor;

/// Outcome of a cancellation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it is now terminally `Cancelled` and
    /// the scheduler will skip it.
    CancelledNow,
    /// The job is running: the cooperative token is set and the worker
    /// will stop at its next deadline checkpoint.
    Requested,
    /// The job already reached a terminal state.
    TooLate,
}

/// One admitted analysis request.
#[derive(Debug)]
pub struct Job {
    /// Daemon-unique id.
    pub id: u64,
    /// CCL source as submitted.
    pub source: String,
    /// Analysis configuration.
    pub features: AnalysisFeatures,
    /// Cooperative cancellation handle, shared with the checker.
    pub cancel: CancelToken,
    /// Admission time, for queue-latency accounting.
    pub submitted_at: Instant,
    /// Distributed trace context the submission carried, if any.
    pub ctx: Option<TraceCtx>,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    /// A freshly admitted job in the `Queued` state.
    pub fn new(
        id: u64,
        source: String,
        features: AnalysisFeatures,
        ctx: Option<TraceCtx>,
    ) -> Arc<Job> {
        Arc::new(Job {
            id,
            source,
            features,
            cancel: CancelToken::new(),
            submitted_at: Instant::now(),
            ctx,
            state: Mutex::new(JobState::Queued),
            cv: Condvar::new(),
        })
    }

    /// A snapshot of the current state.
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }

    /// Moves to `state` and wakes submit-wait blockers.
    pub fn set_state(&self, state: JobState) {
        *self.state.lock().unwrap() = state;
        self.cv.notify_all();
    }

    /// Atomically claims a queued job for execution. Returns `false` if
    /// the job was cancelled while queued (the worker must skip it).
    pub fn claim_for_run(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        match *st {
            JobState::Queued => {
                *st = JobState::Running;
                true
            }
            _ => false,
        }
    }

    /// Attempts cancellation (see [`CancelOutcome`]).
    pub fn try_cancel(&self) -> CancelOutcome {
        let mut st = self.state.lock().unwrap();
        match *st {
            JobState::Queued => {
                self.cancel.cancel();
                *st = JobState::Cancelled;
                self.cv.notify_all();
                CancelOutcome::CancelledNow
            }
            JobState::Running => {
                self.cancel.cancel();
                CancelOutcome::Requested
            }
            _ => CancelOutcome::TooLate,
        }
    }

    /// Blocks until the job reaches a terminal state and returns it.
    pub fn wait_terminal(&self) -> JobState {
        let mut st = self.state.lock().unwrap();
        loop {
            match &*st {
                JobState::Queued | JobState::Running => {
                    st = self.cv.wait(st).unwrap();
                }
                terminal => return terminal.clone(),
            }
        }
    }
}

/// Job totals a serving tier reports in its stats and metrics.
#[derive(Default)]
pub struct Counters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub cancelled: AtomicU64,
    pub failed: AtomicU64,
    pub rejected: AtomicU64,
}

impl Counters {
    /// Adds the totals to `page` as `{tier}_jobs_*_total` counters.
    pub fn export(&self, page: &mut PromPage, tier: &str) {
        for (name, help, c) in [
            ("submitted", "Jobs admitted.", &self.submitted),
            ("completed", "Jobs finished with a verdict.", &self.completed),
            ("cancelled", "Jobs cancelled.", &self.cancelled),
            ("failed", "Jobs that ended in the failed state.", &self.failed),
            ("rejected", "Submissions refused as busy or while draining.", &self.rejected),
        ] {
            page.counter(&format!("{tier}_jobs_{name}_total"), help, c.load(Ordering::Relaxed));
        }
    }
}

/// How many terminal jobs each serving tier keeps in its job table.
pub const RETIRE_WINDOW: usize = 1024;

/// The ids of the last [`RETIRE_WINDOW`] jobs to become terminal,
/// oldest first: a job table keeps those plus its live jobs and forgets
/// the rest, so its size does not grow with the number of requests
/// served. The owner retires each terminal id exactly once and removes
/// the id [`retire`](Self::retire) evicts from its table.
pub struct RetireWindow {
    ids: VecDeque<u64>,
}

impl Default for RetireWindow {
    fn default() -> Self {
        RetireWindow { ids: VecDeque::with_capacity(RETIRE_WINDOW) }
    }
}

impl RetireWindow {
    /// Records `id` as terminal; returns the oldest id once the window
    /// is full, which its owner must now forget.
    pub fn retire(&mut self, id: u64) -> Option<u64> {
        let evicted = if self.ids.len() == RETIRE_WINDOW { self.ids.pop_front() } else { None };
        self.ids.push_back(id);
        evicted
    }
}

/// A connection waiting for a job's terminal `Status`. The wait of a
/// `Submit{wait}` blocks its connection; a `Forward`'s does not (one
/// gateway link multiplexes many forwards).
pub struct JobWaiter {
    pub token: u64,
    pub unblocks: bool,
}

impl JobWaiter {
    /// Sends `resp`, releasing the connection's block if the wait holds
    /// one.
    pub fn answer<N>(&self, r: &mut Reactor<N>, resp: &Response) {
        if self.unblocks {
            r.unblock(self.token, resp);
        } else {
            r.reply(self.token, resp);
        }
    }
}

struct SchedInner {
    queue: VecDeque<Arc<Job>>,
    running: usize,
    draining: bool,
}

/// The bounded job queue feeding the scheduler workers.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    cv: Condvar,
    /// Admission bound: at most this many jobs queued (running jobs do
    /// not count — they already hold a worker).
    pub queue_cap: usize,
}

impl Scheduler {
    /// An empty queue with the given admission bound.
    pub fn new(queue_cap: usize) -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner {
                queue: VecDeque::new(),
                running: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
        }
    }

    /// Admits a job unless the queue is full or the daemon is draining.
    pub fn try_enqueue(&self, job: Arc<Job>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.draining || inner.queue.len() >= self.queue_cap {
            return false;
        }
        inner.queue.push_back(job);
        self.cv.notify_one();
        true
    }

    /// Blocks for the next job; `None` once draining and empty (the
    /// worker should exit).
    pub fn next(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                inner.running += 1;
                return Some(job);
            }
            if inner.draining {
                // Wake `await_drained` blockers: queue empty, and if no
                // job is running either, the drain is complete.
                self.cv.notify_all();
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Marks one claimed job finished (paired with every `Some` from
    /// [`next`](Self::next)).
    pub fn done_one(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.running -= 1;
        self.cv.notify_all();
    }

    /// Stops admission; already-admitted jobs still run to completion.
    pub fn begin_drain(&self) {
        self.inner.lock().unwrap().draining = true;
        self.cv.notify_all();
    }

    /// Blocks until the queue is empty and no job is running. Only
    /// meaningful after [`begin_drain`](Self::begin_drain).
    pub fn await_drained(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !inner.queue.is_empty() || inner.running > 0 {
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// `(queued, running)` right now.
    pub fn lens(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        (inner.queue.len(), inner.running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64) -> Arc<Job> {
        Job::new(id, "store { map M; }".into(), AnalysisFeatures::default(), None)
    }

    #[test]
    fn admission_control_bounds_the_queue() {
        let s = Scheduler::new(2);
        assert!(s.try_enqueue(job(1)));
        assert!(s.try_enqueue(job(2)));
        assert!(!s.try_enqueue(job(3)), "third admission must be refused");
        assert_eq!(s.lens(), (2, 0));
        // Popping frees a slot.
        let j = s.next().unwrap();
        assert_eq!(j.id, 1);
        assert!(s.try_enqueue(job(3)));
        s.done_one();
    }

    #[test]
    fn drain_refuses_admission_and_signals_empty() {
        let s = Scheduler::new(4);
        assert!(s.try_enqueue(job(1)));
        s.begin_drain();
        assert!(!s.try_enqueue(job(2)), "draining refuses admission");
        assert_eq!(s.next().unwrap().id, 1);
        s.done_one();
        assert!(s.next().is_none(), "drained queue ends the worker loop");
        s.await_drained();
    }

    #[test]
    fn queued_jobs_cancel_deterministically() {
        let j = job(9);
        assert_eq!(j.try_cancel(), CancelOutcome::CancelledNow);
        assert_eq!(j.state(), JobState::Cancelled);
        assert_eq!(j.try_cancel(), CancelOutcome::TooLate);
        assert!(!j.claim_for_run(), "cancelled jobs are skipped");
        assert!(j.cancel.is_cancelled());
    }

    #[test]
    fn running_jobs_cancel_cooperatively() {
        let j = job(9);
        assert!(j.claim_for_run());
        assert_eq!(j.state(), JobState::Running);
        assert_eq!(j.try_cancel(), CancelOutcome::Requested);
        assert!(j.cancel.is_cancelled(), "token set for the worker to observe");
        assert_eq!(j.state(), JobState::Running, "worker owns the terminal transition");
    }

    #[test]
    fn retire_window_evicts_the_oldest_once_full() {
        let mut w = RetireWindow::default();
        let n = RETIRE_WINDOW as u64;
        for id in 1..=n {
            assert_eq!(w.retire(id), None, "no eviction below capacity");
        }
        for id in n + 1..=3 * n {
            assert_eq!(w.retire(id), Some(id - n), "the oldest retired id falls out");
        }
        assert_eq!(w.ids.len(), RETIRE_WINDOW);
    }

    #[test]
    fn wait_terminal_blocks_until_done() {
        let j = job(1);
        assert!(j.claim_for_run());
        let j2 = Arc::clone(&j);
        let waiter = std::thread::spawn(move || j2.wait_terminal());
        std::thread::sleep(std::time::Duration::from_millis(20));
        j.set_state(JobState::Failed { message: "nope".into() });
        match waiter.join().unwrap() {
            JobState::Failed { message } => assert_eq!(message, "nope"),
            other => panic!("unexpected terminal state {other:?}"),
        }
    }
}
