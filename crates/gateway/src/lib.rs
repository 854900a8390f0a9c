//! `c4-gateway`: a routing tier that fronts a cluster of `c4d`
//! backends behind the ordinary daemon protocol.
//!
//! Clients speak to the gateway exactly as they would to a single
//! daemon: `c4 --tcp <gateway> submit ...` works unchanged, and the
//! reports that come back are byte-identical to a direct single-daemon
//! run — the verdict wire format is content-addressed and
//! deterministic, so *which* backend computes a job is unobservable in
//! its bytes. That determinism is what makes the failure handling
//! below safe.
//!
//! Routing is a consistent hash ([`ring`]) of the job's
//! content-addressed cache key: resubmissions of the same canonical
//! program land on the same backend and hit its warm in-memory verdict
//! cache (cache affinity). Around that core the gateway layers:
//!
//! * **Health checks** ([`health`]): a probe thread sends `Health` to
//!   every backend on an interval, marks them in or out of rotation,
//!   and re-establishes the gateway's persistent multiplexed
//!   connection when a backend comes back.
//! * **Retry with backoff**: if a backend connection dies (crash,
//!   kill, network), every job in flight on it is re-forwarded to the
//!   next backend in its ring preference order, with bounded
//!   exponential backoff when no backend is immediately available.
//! * **Hedging**: a job still unresolved after the hedge delay is
//!   duplicated onto its next preferred backend; the first terminal
//!   verdict wins and the loser is cancelled through the daemon's
//!   job-cancellation path. Both copies would produce the same bytes,
//!   so hedging trades spare capacity for tail latency without
//!   affecting output.
//! * **Typed backpressure**: a backend's `Busy { retry_after_ms }` is
//!   surfaced to the submitting client as-is rather than swallowed.
//!
//! The gateway runs on the daemon's event loop, `c4_service::reactor`:
//! one thread owns the client listener and every client connection,
//! and [`eloop`] adds one persistent multiplexed connection per backend
//! (the daemon's `Forward` frame acks immediately and pushes the
//! terminal `Status` later, so one link carries any number of in-flight
//! jobs). Thread count is O(backends), independent of client count.

pub mod eloop;
pub mod health;
pub mod ring;

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use c4_obs::flight::FlightRecorder;
use c4_obs::hist::Histogram;
use c4_obs::prom::PromPage;
use c4_service::job::Counters;
use c4_service::proto::{DaemonStats, HealthInfo, Response};
use c4_service::reactor::{MetricsServer, NoticeBox, Reactor, SideThreads};

use ring::Ring;

/// Per-thread recorder ring capacity when `--trace-ring` is on.
pub(crate) const TRACE_CAPACITY: usize = 1 << 18;

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// TCP address to listen on for clients, e.g. `127.0.0.1:4340`.
    pub tcp: Option<String>,
    /// Unix-domain socket path to listen on (stale files replaced).
    pub unix_socket: Option<PathBuf>,
    /// Backend `c4d` TCP addresses. At least one is required.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Duplicate a still-unresolved job onto its next preferred
    /// backend after this long; `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// How many times a job is re-forwarded after backend failures
    /// before it fails with an error.
    pub retry_limit: u32,
    /// Base backoff when no backend is available (doubles per retry).
    pub retry_backoff: Duration,
    /// Health-probe interval.
    pub health_interval: Duration,
    /// Per-probe connect/read timeout.
    pub probe_timeout: Duration,
    /// Optional HTTP listener for the Prometheus `/metrics` page.
    pub metrics_addr: Option<String>,
    /// Keep the process-global recorder ring armed
    /// (`c4-gateway --trace-ring`): admitted jobs get sampled trace
    /// contexts, gateway hops record ring events, and `ClusterTrace`
    /// assembles the gateway's ring with every backend's.
    pub trace_ring: bool,
    /// Directory for flight-recorder anomaly dumps
    /// (`c4-gateway --flight-dir`); `None` keeps the ring in-memory.
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (last N request timelines).
    pub flight_cap: usize,
    /// Latency threshold (ms) flagging a request as a `latency`
    /// anomaly; 0 disables.
    pub flight_latency_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            tcp: None,
            unix_socket: None,
            backends: Vec::new(),
            vnodes: 64,
            hedge_after: Some(Duration::from_millis(1000)),
            retry_limit: 4,
            retry_backoff: Duration::from_millis(100),
            health_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            metrics_addr: None,
            trace_ring: false,
            flight_dir: None,
            flight_cap: 256,
            flight_latency_ms: 0,
        }
    }
}

/// Shared per-backend state: the probe thread writes health, the event
/// loop writes traffic counters, the metrics page reads both.
pub(crate) struct BackendState {
    pub addr: String,
    /// Last health probe succeeded and the backend is accepting.
    pub healthy: AtomicBool,
    /// The event loop holds a live multiplexed connection.
    pub connected: AtomicBool,
    /// Forwards awaiting their terminal status.
    pub inflight: AtomicU64,
    pub forwards: AtomicU64,
    pub retries: AtomicU64,
    pub hedges: AtomicU64,
    pub busy: AtomicU64,
    /// Queue depth reported by the last successful probe.
    pub probe_queue_len: AtomicU64,
    /// Estimated recorder-clock offset of this backend relative to the
    /// gateway's recorder clock (`backend_now − gateway_now`, ns),
    /// refined by every successful health probe from its paired
    /// send/receive stamps. Trace merging maps backend timestamps onto
    /// the gateway timeline by subtracting this.
    pub clock_offset_ns: AtomicI64,
    /// Half the probe round-trip (ns): the uncertainty bound on
    /// `clock_offset_ns`, declared in the merged trace header.
    pub clock_err_ns: AtomicU64,
    /// Submit-to-terminal latency of jobs this backend won.
    pub forward_hist: Histogram,
}

/// A cross-thread message into the event loop.
pub(crate) enum Notice {
    /// The probe thread (re-)established a backend connection.
    Connected { backend: usize, stream: TcpStream },
    /// A side thread produced the reply for a blocked client.
    SideDone { token: u64, resp: Response },
}

/// State shared between the event loop, the probe thread, and the
/// metrics listener.
pub(crate) struct Gateway {
    pub cfg: GatewayConfig,
    pub backends: Vec<BackendState>,
    pub ring: Ring,
    pub counters: Counters,
    /// Jobs admitted but not yet terminal.
    pub jobs_live: AtomicU64,
    /// Entries in the event loop's job table and remote-attempt map,
    /// refreshed once per loop turn.
    pub jobs_retained: AtomicU64,
    pub remote_attempts: AtomicU64,
    pub started: Instant,
    /// Stop admitting; set by a client `Shutdown`.
    pub draining: AtomicBool,
    /// Everything is over; probe and metrics threads exit.
    pub shutdown: AtomicBool,
    pub notices: Arc<NoticeBox<Notice>>,
    pub side_threads: SideThreads,
    /// Submit-to-terminal latency across all backends.
    pub forward_hist: Histogram,
    /// Per-request flight recorder (always on; dumps when configured).
    pub flight: FlightRecorder,
}

impl Gateway {
    pub fn healthy_backends(&self) -> u64 {
        self.backends
            .iter()
            .filter(|b| b.healthy.load(Ordering::Relaxed) && b.connected.load(Ordering::Relaxed))
            .count() as u64
    }

    pub fn health(&self) -> HealthInfo {
        HealthInfo {
            accepting: !self.draining.load(Ordering::SeqCst),
            queue_len: self.jobs_live.load(Ordering::Relaxed),
            queue_cap: 0,
            running: self.backends.iter().map(|b| b.inflight.load(Ordering::Relaxed)).sum(),
            workers: self.healthy_backends(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            now_ns: c4_obs::now_ns(),
        }
    }

    /// Gateway statistics in the daemon's stats shape, so `c4 stats`
    /// works unchanged against a gateway: queue fields describe jobs
    /// in flight through the gateway, `workers` is the healthy backend
    /// count, cache fields are zero (caches live in the backends), and
    /// the run summaries are end-to-end forward latencies.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            queue_len: self.jobs_live.load(Ordering::Relaxed),
            running: self.backends.iter().map(|b| b.inflight.load(Ordering::Relaxed)).sum(),
            workers: self.healthy_backends(),
            run_p50_ms: self.forward_hist.quantile(0.50),
            run_p95_ms: self.forward_hist.quantile(0.95),
            run_max_ms: self.forward_hist.max(),
            ..DaemonStats::default()
        }
    }

    /// The gateway's Prometheus text page: totals plus per-backend
    /// health, traffic, and latency series labeled by backend address.
    pub fn metrics_text(&self) -> String {
        let mut page = PromPage::new();
        self.counters.export(&mut page, "c4gw");
        page.gauge(
            "c4gw_jobs_live",
            "Jobs admitted but not yet terminal.",
            self.jobs_live.load(Ordering::Relaxed),
        );
        page.gauge(
            "c4gw_jobs_retained",
            "Jobs in the job table (live plus the retirement window).",
            self.jobs_retained.load(Ordering::Relaxed),
        );
        page.gauge(
            "c4gw_remote_attempts",
            "Acknowledged forwards awaiting their terminal status.",
            self.remote_attempts.load(Ordering::Relaxed),
        );
        page.gauge(
            "c4gw_backends_healthy",
            "Backends in rotation (probe healthy and connected).",
            self.healthy_backends(),
        );
        page.gauge(
            "c4gw_uptime_milliseconds",
            "Milliseconds since the gateway started.",
            self.started.elapsed().as_millis() as u64,
        );
        page.counter(
            "c4gw_flight_recorded_total",
            "Request timelines recorded by the flight recorder.",
            self.flight.recorded(),
        );
        page.counter(
            "c4gw_flight_dumps_total",
            "Flight-recorder anomaly dumps written.",
            self.flight.dumped(),
        );

        let labels: Vec<[(&str, &str); 1]> =
            self.backends.iter().map(|b| [("backend", b.addr.as_str())]).collect();
        let series = |f: &dyn Fn(&BackendState) -> u64| -> Vec<(&[(&str, &str)], u64)> {
            self.backends
                .iter()
                .enumerate()
                .map(|(i, b)| (labels[i].as_slice(), f(b)))
                .collect()
        };
        page.gauge_family(
            "c4gw_backend_healthy",
            "1 if the backend's last probe was healthy, else 0.",
            &series(&|b| u64::from(b.healthy.load(Ordering::Relaxed))),
        );
        page.gauge_family(
            "c4gw_backend_connected",
            "1 if the multiplexed backend connection is up, else 0.",
            &series(&|b| u64::from(b.connected.load(Ordering::Relaxed))),
        );
        page.gauge_family(
            "c4gw_backend_inflight",
            "Forwards awaiting their terminal status, per backend.",
            &series(&|b| b.inflight.load(Ordering::Relaxed)),
        );
        page.gauge_family(
            "c4gw_backend_queue_depth",
            "Backend queue depth from its last health probe.",
            &series(&|b| b.probe_queue_len.load(Ordering::Relaxed)),
        );
        page.counter_family(
            "c4gw_forwards_total",
            "Forwards sent, per backend.",
            &series(&|b| b.forwards.load(Ordering::Relaxed)),
        );
        page.counter_family(
            "c4gw_retries_total",
            "Re-forwards after a backend failure, per (new) backend.",
            &series(&|b| b.retries.load(Ordering::Relaxed)),
        );
        page.counter_family(
            "c4gw_hedges_total",
            "Hedge duplicates sent, per backend.",
            &series(&|b| b.hedges.load(Ordering::Relaxed)),
        );
        page.counter_family(
            "c4gw_busy_total",
            "Busy responses received, per backend.",
            &series(&|b| b.busy.load(Ordering::Relaxed)),
        );
        let hist_series: Vec<(&[(&str, &str)], &Histogram)> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| (labels[i].as_slice(), &b.forward_hist))
            .collect();
        page.histogram_family(
            "c4gw_forward_milliseconds",
            "Submit-to-terminal latency of jobs each backend won.",
            &hist_series,
        );
        page.finish()
    }
}

/// A running gateway. Call [`wait`](GatewayHandle::wait) after a
/// client-initiated shutdown.
pub struct GatewayHandle {
    gw: Arc<Gateway>,
    event_loop: JoinHandle<()>,
    prober: JoinHandle<()>,
    metrics: Option<MetricsServer>,
    /// The bound client-facing TCP address (port resolved).
    pub tcp_addr: Option<String>,
    /// The bound metrics address (port resolved).
    pub metrics_addr: Option<String>,
}

impl GatewayHandle {
    /// Blocks until the gateway has fully shut down.
    pub fn wait(self) {
        let _ = self.event_loop.join();
        let _ = self.prober.join();
        if let Some(m) = self.metrics {
            m.stop();
        }
        self.gw.side_threads.join_all();
    }
}

/// One blocking connect with a timeout, resolving the address first.
/// `TCP_NODELAY` is set — probe and forward frames are small and
/// latency-bound, so Nagle batching only costs.
pub(crate) fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Starts the gateway: binds the client listeners, connects to the
/// backends it can reach (the probe thread keeps trying the rest), and
/// returns immediately.
///
/// # Errors
///
/// `InvalidInput` if no listener or no backend is configured; I/O
/// errors binding a listener. Unreachable backends are not startup
/// errors — they enter rotation when their probes succeed.
pub fn serve(cfg: GatewayConfig) -> io::Result<GatewayHandle> {
    let reactor = Reactor::bind(cfg.unix_socket.as_deref(), cfg.tcp.as_deref())?;
    if cfg.backends.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no backends configured"));
    }

    let ring = Ring::new(&cfg.backends, cfg.vnodes);
    let backends: Vec<BackendState> = cfg
        .backends
        .iter()
        .map(|addr| BackendState {
            addr: addr.clone(),
            healthy: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            forwards: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            probe_queue_len: AtomicU64::new(0),
            clock_offset_ns: AtomicI64::new(0),
            clock_err_ns: AtomicU64::new(0),
            forward_hist: Histogram::latency_ms(),
        })
        .collect();

    if cfg.trace_ring {
        c4_obs::enable(TRACE_CAPACITY);
    }

    let gw = Arc::new(Gateway {
        backends,
        ring,
        counters: Counters::default(),
        jobs_live: AtomicU64::new(0),
        jobs_retained: AtomicU64::new(0),
        remote_attempts: AtomicU64::new(0),
        started: Instant::now(),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        notices: reactor.notices(),
        side_threads: SideThreads::default(),
        forward_hist: Histogram::latency_ms(),
        flight: FlightRecorder::new(cfg.flight_cap, cfg.flight_latency_ms, cfg.flight_dir.clone()),
        cfg,
    });
    let metrics = match &gw.cfg.metrics_addr {
        Some(addr) => Some(MetricsServer::start(
            addr,
            Arc::clone(&gw),
            |gw| gw.shutdown.load(Ordering::SeqCst),
            Gateway::metrics_text,
        )?),
        None => None,
    };

    // Reach the backends that are already up so the first submissions
    // don't wait for a probe tick. An initial connection marks the
    // backend healthy optimistically; the first probe corrects it.
    for (i, b) in gw.backends.iter().enumerate() {
        if let Ok(stream) = connect_timeout(&b.addr, gw.cfg.probe_timeout) {
            b.healthy.store(true, Ordering::Relaxed);
            gw.notices.post(Notice::Connected { backend: i, stream });
        }
    }

    let tcp_addr = reactor.tcp_addr();
    let event_loop = eloop::spawn(Arc::clone(&gw), reactor);
    let prober = {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || health::probe_loop(&gw))
    };
    let metrics_addr = metrics.as_ref().map(MetricsServer::addr);
    Ok(GatewayHandle { gw, event_loop, prober, metrics, tcp_addr, metrics_addr })
}
