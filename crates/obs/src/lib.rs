//! `c4-obs`: the observability substrate for the C4 analysis pipeline.
//!
//! Four pieces, all std-only:
//!
//! * an **event recorder** ([`enable`], [`span`], [`counter`],
//!   [`drain`]) — per-thread ring buffers of timestamped
//!   span-begin/span-end/instant/counter events behind RAII
//!   [`SpanGuard`]s. When tracing is off every probe is a single
//!   relaxed atomic load; when on, recording appends to a
//!   thread-local `Vec` with drop-oldest overflow (bounded memory,
//!   never blocks the hot path, drops are counted);
//! * the always-on **[`ledger`]** of pipeline [`Stage`]s, whose guards
//!   emit the stage spans and book their self times per thread;
//! * two **exporters** ([`export::chrome_trace`], [`export::jsonl`])
//!   plus a hand-rolled JSON validator ([`json`]) used by the
//!   `trace_check` binary and the test suite;
//! * a fixed-bucket, atomic **[`hist::Histogram`]** with quantile
//!   estimation and Prometheus text-format rendering, used by the
//!   `c4d` daemon's `/metrics` surface.
//!
//! # Recording model
//!
//! The recorder is process-global. [`enable`] arms it and starts a
//! fresh *generation*; every event recorded afterwards lands in the
//! recording thread's own buffer, guarded by a mutex only that thread
//! locks in steady state (recording never contends or blocks on other
//! threads). [`drain`] disarms the recorder and collects every
//! buffer — live ones through a weak-handle registry, plus buffers
//! flushed by threads that exited mid-recording — as a [`TraceLog`].
//! Threads that outlive the drain keep a stale generation tag and
//! their leftover events are discarded rather than leaking into the
//! next recording.
//!
//! The intended discipline is bracketed: `enable(); …run…; drain()`,
//! with all worker threads joined before the drain (the analysis
//! pipeline uses scoped threads, so this holds by construction).
//! Spans that straddle an enable/drain boundary lose one endpoint;
//! [`TraceLog::check_nesting`] will report that.
//!
//! Timestamps are nanoseconds on a monotonic clock anchored at the
//! first enable of the process (`Instant`-based; wall-clock
//! adjustments cannot reorder events).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

pub mod ctx;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod merge;
pub mod prom;

pub use ledger::{stage, stage_arg, thread_ledger, Stage, StageGuard, StageTimings};

/// Well-known span argument tags: the pipeline stamps each SMT query
/// span with its verdict so exporters and tests can classify queries
/// without string args.
pub mod tag {
    /// No tag / not yet resolved.
    pub const NONE: u64 = 0;
    /// The query was refuted (unsat).
    pub const UNSAT: u64 = 1;
    /// The query was satisfiable (a counter-example model exists).
    pub const SAT: u64 = 2;
    /// A batched refutation probe (disjunction over pending candidates).
    pub const PROBE: u64 = 3;
    /// A verdict replayed from a symmetry class record, not solved.
    pub const REPLAY: u64 = 4;

    /// Human-readable name for a well-known tag.
    pub fn name(tag: u64) -> Option<&'static str> {
        match tag {
            UNSAT => Some("unsat"),
            SAT => Some("sat"),
            PROBE => Some("probe"),
            REPLAY => Some("replay"),
            _ => None,
        }
    }
}

/// Default per-thread ring capacity (events), used by callers that
/// have no better estimate.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One recorded event body. Names are `&'static str` by design: the
/// instrumentation vocabulary is fixed at compile time, which keeps
/// events `Copy` and recording allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventData {
    /// Span open (paired with a later `End` on the same thread).
    Begin { name: &'static str, arg: u64 },
    /// Span close; `arg` carries the final [`SpanGuard`] argument
    /// (e.g. a [`tag`] verdict).
    End { name: &'static str, arg: u64 },
    /// A point event with no duration.
    Instant { name: &'static str, arg: u64 },
    /// A named sample of a monotone or gauge-like quantity.
    Counter { name: &'static str, value: u64 },
}

/// A timestamped event: nanoseconds since the recorder epoch plus the
/// body.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub t_ns: u64,
    pub data: EventData,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the recorder epoch (the first [`enable`] call of
/// the process).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether the recorder is currently armed. This is the whole cost of
/// an instrumentation probe when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct LocalBuf {
    tid: u32,
    gen: u64,
    cap: usize,
    /// Total events recorded, including ones later overwritten.
    written: u64,
    dropped: u64,
    buf: Vec<Event>,
}

impl LocalBuf {
    fn new(gen: u64) -> Self {
        LocalBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            gen,
            cap: CAPACITY.load(Ordering::Relaxed).max(16),
            written: 0,
            dropped: 0,
            buf: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            // Ring overflow: overwrite the oldest slot. `written % cap`
            // is the oldest index once the ring is full.
            let idx = (self.written % self.cap as u64) as usize;
            self.buf[idx] = ev;
            self.dropped += 1;
        }
        self.written += 1;
    }

    fn take_log(&mut self) -> Option<ThreadLog> {
        if self.buf.is_empty() {
            return None;
        }
        let mut events = std::mem::take(&mut self.buf);
        if self.dropped > 0 {
            // Rotate the ring into time order: the oldest surviving
            // event sits where the next overwrite would land.
            let split = (self.written % self.cap as u64) as usize;
            events.rotate_left(split);
        }
        let log = ThreadLog { tid: self.tid, dropped: self.dropped, events };
        self.written = 0;
        self.dropped = 0;
        Some(log)
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Thread exit before the drain: migrate this buffer to the
        // global sink, unless the recording it belongs to has already
        // been drained (stale generation), in which case the events
        // are discarded.
        if self.gen != GENERATION.load(Ordering::Acquire) {
            return;
        }
        if let Some(log) = self.take_log() {
            if let Ok(mut sink) = SINK.lock() {
                sink.push(log);
            }
        }
    }
}

// Every live buffer is reachable two ways: through its owner thread's
// TLS slot (the recording path) and through this registry of weak
// handles (the drain path). The registry is what makes `drain`
// deterministic with scoped worker threads: a scope reports completion
// when the worker closure returns, which can be *before* the worker's
// TLS destructors run, so the drain cannot rely on exit-time flushes
// alone. The per-buffer mutex is uncontended in steady state — only
// its owner thread locks it — so recording stays a single CAS; drain
// and enable are the only cross-thread lockers.
static REGISTRY: Mutex<Vec<Weak<Mutex<LocalBuf>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<LocalBuf>>>> = const { RefCell::new(None) };
}

#[inline]
fn record(data: EventData) {
    if enabled() {
        record_at(now_ns(), data);
    }
}

/// Appends an event stamped `t_ns` to this thread's buffer; the caller
/// has checked that the recorder is armed.
fn record_at(t_ns: u64, data: EventData) {
    let gen = GENERATION.load(Ordering::Acquire);
    // try_with: recording during thread-local teardown is silently a
    // no-op rather than a panic.
    let _ = LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let arc = Arc::new(Mutex::new(LocalBuf::new(gen)));
            REGISTRY.lock().expect("obs registry poisoned").push(Arc::downgrade(&arc));
            *slot = Some(arc);
        }
        let mut buf = slot.as_ref().unwrap().lock().expect("obs buffer poisoned");
        if buf.gen != gen {
            // The buffer belongs to a drained recording: reset it in
            // place (same tid, fresh ring) and discard the leftovers.
            let tid = buf.tid;
            *buf = LocalBuf::new(gen);
            buf.tid = tid;
        }
        buf.push(Event { t_ns, data });
    });
}

/// Arm the recorder with the given per-thread ring capacity (events).
/// Starts a fresh generation: any buffered events from a previous
/// recording are discarded, the sink is cleared.
pub fn enable(capacity_per_thread: usize) {
    let mut sink = SINK.lock().expect("obs sink poisoned");
    sink.clear();
    REGISTRY.lock().expect("obs registry poisoned").retain(|w| w.strong_count() > 0);
    CAPACITY.store(capacity_per_thread.max(16), Ordering::Relaxed);
    EPOCH.get_or_init(Instant::now);
    GENERATION.fetch_add(1, Ordering::AcqRel);
    ENABLED.store(true, Ordering::SeqCst);
}

/// A non-destructive copy of everything recorded so far in the current
/// generation: live buffers (cloned, rotated into time order) plus the
/// exit-flush sink. The recorder stays armed and no events are
/// consumed — this is the primitive behind the cluster ring-dump
/// request, where a long-running daemon reports its ring without
/// interrupting its own recording. A snapshot taken mid-span contains
/// the `Begin` without its `End`; consumers must tolerate spans that
/// are still open at the snapshot instant.
pub fn snapshot() -> TraceLog {
    let gen = GENERATION.load(Ordering::Acquire);
    let mut threads = Vec::new();
    if ENABLED.load(Ordering::Relaxed) {
        let handles: Vec<Weak<Mutex<LocalBuf>>> =
            REGISTRY.lock().expect("obs registry poisoned").clone();
        for weak in handles {
            if let Some(arc) = weak.upgrade() {
                let buf = arc.lock().expect("obs buffer poisoned");
                if buf.gen == gen && !buf.buf.is_empty() {
                    let mut events = buf.buf.clone();
                    if buf.dropped > 0 {
                        let split = (buf.written % buf.cap as u64) as usize;
                        events.rotate_left(split);
                    }
                    threads.push(ThreadLog { tid: buf.tid, dropped: buf.dropped, events });
                }
            }
        }
        for log in SINK.lock().expect("obs sink poisoned").iter() {
            threads.push(ThreadLog {
                tid: log.tid,
                dropped: log.dropped,
                events: log.events.clone(),
            });
        }
    }
    threads.sort_by_key(|t| t.tid);
    TraceLog { threads }
}

/// Disarm the recorder and collect everything recorded since
/// [`enable`]: every live thread's buffer (via the registry) plus
/// every buffer flushed by threads that exited mid-recording. Other
/// threads must have stopped recording by the time this is called;
/// in the analysis pipeline workers are scoped, so that holds by
/// construction.
pub fn drain() -> TraceLog {
    ENABLED.store(false, Ordering::SeqCst);
    let gen = GENERATION.load(Ordering::Acquire);
    let mut threads = Vec::new();
    // Collect live buffers first, the exit-flush sink second: a thread
    // exiting concurrently either still holds its buffer (collected
    // here, its later destructor finds it empty) or has already pushed
    // to the sink (collected below) — never both, never neither.
    let handles: Vec<Weak<Mutex<LocalBuf>>> =
        REGISTRY.lock().expect("obs registry poisoned").clone();
    for weak in handles {
        if let Some(arc) = weak.upgrade() {
            let mut buf = arc.lock().expect("obs buffer poisoned");
            if buf.gen == gen {
                if let Some(log) = buf.take_log() {
                    threads.push(log);
                }
            }
        }
    }
    threads.append(&mut SINK.lock().expect("obs sink poisoned"));
    // Invalidate straggler buffers from this generation.
    GENERATION.fetch_add(1, Ordering::AcqRel);
    threads.sort_by_key(|t| t.tid);
    TraceLog { threads }
}

/// RAII span handle: records `Begin` on creation (via [`span`] /
/// [`span_arg`]) and `End`, with the same argument, on drop. A stage
/// span ([`StageGuard`]) can change its argument before it closes,
/// which is how SMT query spans get their sat/unsat verdict stamped on
/// the close event.
pub struct SpanGuard {
    name: &'static str,
    arg: u64,
    active: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            record(EventData::End { name: self.name, arg: self.arg });
        }
    }
}

/// Open a span. A disabled recorder makes this a single atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_arg(name, 0)
}

/// Open a span with an initial argument (e.g. the unfolding bound `k`).
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    let active = enabled();
    if active {
        record(EventData::Begin { name, arg });
    }
    SpanGuard { name, arg, active }
}

/// Record a point event.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    record(EventData::Instant { name, arg });
}

/// Record a counter sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    record(EventData::Counter { name, value });
}

/// One thread's worth of recorded events, in time order.
#[derive(Debug)]
pub struct ThreadLog {
    pub tid: u32,
    /// Events overwritten by ring overflow on this thread.
    pub dropped: u64,
    pub events: Vec<Event>,
}

/// Everything one enable/drain cycle recorded: the ledger the
/// exporters and coherence tests work from.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub threads: Vec<ThreadLog>,
}

impl TraceLog {
    /// Total events retained across all threads. Exporters emit
    /// exactly this many records.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to ring overflow across all threads.
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    fn events(&self) -> impl Iterator<Item = &Event> {
        self.threads.iter().flat_map(|t| t.events.iter())
    }

    /// Count `End` events for `name` whose final argument satisfies
    /// the predicate — e.g. SMT query closes tagged sat/unsat/probe.
    pub fn count_ends(&self, name: &str, pred: impl Fn(u64) -> bool) -> usize {
        self.events()
            .filter(|e| matches!(e.data, EventData::End { name: n, arg } if n == name && pred(arg)))
            .count()
    }

    /// Count `Instant` events for `name` with the given argument.
    pub fn count_instants(&self, name: &str, arg: u64) -> usize {
        self.events()
            .filter(
                |e| matches!(e.data, EventData::Instant { name: n, arg: a } if n == name && a == arg),
            )
            .count()
    }

    /// The last `Counter` sample recorded for `name`, if any.
    pub fn last_counter(&self, name: &str) -> Option<u64> {
        let mut last = None;
        for e in self.events() {
            if let EventData::Counter { name: n, value } = e.data {
                if n == name {
                    last = Some(value);
                }
            }
        }
        last
    }

    /// Verify span well-formedness: on every thread, `End` events
    /// match the innermost open `Begin` by name, and no span is left
    /// open. Only meaningful when [`TraceLog::dropped_events`] is zero
    /// (overflow legitimately orphans endpoints).
    pub fn check_nesting(&self) -> Result<(), String> {
        for t in &self.threads {
            let mut stack: Vec<&'static str> = Vec::new();
            for e in &t.events {
                match e.data {
                    EventData::Begin { name, .. } => stack.push(name),
                    EventData::End { name, .. } => match stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return Err(format!(
                                "tid {}: span end {name:?} closes open span {open:?}",
                                t.tid
                            ))
                        }
                        None => {
                            return Err(format!("tid {}: span end {name:?} with no open span", t.tid))
                        }
                    },
                    EventData::Instant { .. } | EventData::Counter { .. } => {}
                }
            }
            if !stack.is_empty() {
                return Err(format!("tid {}: spans left open: {stack:?}", t.tid));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The recorder is process-global; serialize the tests that arm it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        let _ = drain();
        {
            let _s = span("quiet");
            counter("c", 1);
            instant("i", 2);
        }
        enable(64);
        let log = drain();
        assert_eq!(log.event_count(), 0);
    }

    #[test]
    fn spans_nest_and_args_travel() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(1024);
        {
            let _outer = span_arg("outer", tag::SAT);
            {
                let _inner = span("inner");
                counter("widgets", 3);
            }
        }
        instant("mark", tag::REPLAY);
        let log = drain();
        assert_eq!(log.event_count(), 6);
        assert_eq!(log.dropped_events(), 0);
        log.check_nesting().unwrap();
        assert_eq!(log.count_ends("outer", |a| a == tag::SAT), 1);
        assert_eq!(log.count_instants("mark", tag::REPLAY), 1);
        assert_eq!(log.last_counter("widgets"), Some(3));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(16); // capacity floor
        for i in 0..40u64 {
            instant("tick", i);
        }
        let log = drain();
        assert_eq!(log.event_count(), 16);
        assert_eq!(log.dropped_events(), 24);
        // Drop-oldest: the survivors are the newest 16, in order.
        let args: Vec<u64> = log
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .map(|e| match e.data {
                EventData::Instant { arg, .. } => arg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(args, (24..40).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(1024);
        {
            let _root = span("root");
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _w = span("worker");
                        counter("work", 1);
                    });
                }
            });
        }
        let log = drain();
        assert_eq!(log.threads.len(), 4);
        assert_eq!(log.event_count(), 2 + 3 * 3);
        log.check_nesting().unwrap();
        let tids: std::collections::HashSet<u32> = log.threads.iter().map(|t| t.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets a distinct tid");
    }

    #[test]
    fn snapshot_is_nondestructive_and_tolerates_open_spans() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(1024);
        let open = span("still_open");
        instant("mark", 1);
        let snap = snapshot();
        assert_eq!(snap.count_instants("mark", 1), 1);
        assert_eq!(snap.event_count(), 2, "begin + instant visible mid-span");
        assert!(enabled(), "snapshot leaves the recorder armed");
        drop(open);
        let log = drain();
        assert_eq!(log.count_instants("mark", 1), 1, "snapshot consumed nothing");
        log.check_nesting().unwrap();
    }

    #[test]
    fn snapshot_of_a_disabled_recorder_is_empty() {
        let _g = TEST_LOCK.lock().unwrap();
        let _ = drain();
        instant("ghost", 1);
        assert_eq!(snapshot().event_count(), 0);
    }

    #[test]
    fn stages_book_self_time_and_trace_the_same_clock_readings() {
        let _g = TEST_LOCK.lock().unwrap();
        let pause = std::time::Duration::from_millis(2);
        for traced in [false, true] {
            if traced {
                enable(1024);
            }
            let (before, t0) = (thread_ledger(), now_ns());
            {
                let _outer = stage(Stage::Merge);
                {
                    let _query = stage_arg(Stage::SmtQuery, tag::PROBE);
                    let _build = stage(Stage::EncoderBuild);
                    std::thread::sleep(pause);
                }
                std::thread::sleep(pause);
            }
            let window = std::time::Duration::from_nanos(now_ns() - t0);
            let t = thread_ledger() - before;
            assert!(t.get(Stage::EncoderBuild) >= pause && t.get(Stage::Merge) >= pause);
            // Nested stages are excluded: booked once, the three fit the window.
            assert!(t.iter().map(|(_, d)| d).sum::<std::time::Duration>() <= window);
            assert_eq!(t.get(Stage::Validate), std::time::Duration::ZERO);
            let names: Vec<&str> = t.iter().map(|(s, _)| s.name()).collect();
            assert_eq!(names, Stage::ALL.map(Stage::name));
            if traced {
                let log = drain();
                log.check_nesting().unwrap();
                assert_eq!(log.count_ends(Stage::SmtQuery.name(), |a| a == tag::PROBE), 1);
                let t_ns = |name: &str, begin: bool| {
                    log.threads[0].events.iter().find_map(|e| match e.data {
                        EventData::Begin { name: n, .. } if begin && n == name => Some(e.t_ns),
                        EventData::End { name: n, .. } if !begin && n == name => Some(e.t_ns),
                        _ => None,
                    })
                };
                let dur = |name: &str| t_ns(name, false).unwrap() - t_ns(name, true).unwrap();
                let booked = |s: Stage| t.get(s).as_nanos() as u64;
                assert_eq!(booked(Stage::EncoderBuild), dur(Stage::EncoderBuild.name()));
                assert_eq!(
                    booked(Stage::Merge),
                    dur(Stage::Merge.name()) - dur(Stage::SmtQuery.name()),
                    "the ledger folds the recorded timestamps"
                );
            }
        }
    }

    #[test]
    fn stale_generations_do_not_leak_into_the_next_recording() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(1024);
        instant("old", 1);
        let first = drain();
        assert_eq!(first.event_count(), 1);
        enable(1024);
        instant("new", 2);
        let second = drain();
        assert_eq!(second.event_count(), 1);
        assert_eq!(second.count_instants("new", 2), 1);
        assert_eq!(second.count_instants("old", 1), 0);
    }
}
