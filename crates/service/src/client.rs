//! A blocking client for the `c4d` protocol.
//!
//! Connect-per-request keeps the client stateless and lets a submit
//! with `wait` block server-side for its terminal state without
//! head-of-line-blocking other requests. [`Client::submit_wait`] is the
//! high-traffic path used by the differential tests, the bench and
//! `c4 submit`.
//!
//! [`ClientConfig`] adds the resilience knobs the `c4` CLI exposes as
//! `--connect-timeout` and `--retry`: a bound on connection
//! establishment and a bounded retry loop over transient failures —
//! refused/reset/dropped connections and the daemon's typed
//! [`Response::Busy`] backpressure (which is honored by sleeping out
//! the hinted `retry_after_ms` before resubmitting). Retrying a submit
//! is safe even if the original frame was admitted before the
//! connection died: analysis is content-addressed, so a duplicate
//! admission computes (or cache-hits) the same bytes. With the default
//! config (no timeout, zero retries) behavior is unchanged.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use c4::AnalysisFeatures;

use crate::proto::{
    read_frame, write_frame, DaemonStats, HealthInfo, JobState, Request, Response,
};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:4344`.
    Tcp(String),
}

/// Resilience knobs for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on TCP connection establishment (`None` = OS default).
    /// Unix-domain connects are local and not bounded.
    pub connect_timeout: Option<Duration>,
    /// How many times to retry after a transient failure (refused,
    /// reset, or dropped connection; daemon `Busy`). Zero = fail fast.
    pub retries: u32,
    /// Pause between connection-failure retries. `Busy` retries sleep
    /// the daemon's own `retry_after_ms` hint instead.
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { connect_timeout: None, retries: 0, retry_backoff: Duration::from_millis(200) }
    }
}

/// A blocking `c4d` client.
#[derive(Debug, Clone)]
pub struct Client {
    endpoint: Endpoint,
    config: ClientConfig,
}

fn bad_reply(resp: Response) -> io::Error {
    let msg = match resp {
        Response::Error { message } => message,
        other => format!("unexpected daemon reply: {other:?}"),
    };
    io::Error::new(io::ErrorKind::Other, msg)
}

fn busy_error(retry_after_ms: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::WouldBlock,
        format!("daemon busy; retry after {retry_after_ms} ms"),
    )
}

/// Whether an error is worth a fresh connection attempt: the request
/// may never have reached a healthy daemon.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotFound
    )
}

impl Client {
    /// A client for `endpoint` with default (fail-fast) config. No
    /// connection is made yet.
    pub fn new(endpoint: Endpoint) -> Client {
        Client { endpoint, config: ClientConfig::default() }
    }

    /// A client with explicit resilience knobs.
    pub fn with_config(endpoint: Endpoint, config: ClientConfig) -> Client {
        Client { endpoint, config }
    }

    fn connect_tcp(&self, addr: &str) -> io::Result<TcpStream> {
        let stream = match self.config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                })?;
                TcpStream::connect_timeout(&sock, timeout)?
            }
        };
        // Requests are small frames; Nagle would trade ~40ms of
        // latency for nothing on this request–reply protocol.
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One connect–request–reply exchange, no retries.
    fn roundtrip_once(&self, req: &Request) -> io::Result<Response> {
        let payload = req.encode();
        let reply = match &self.endpoint {
            Endpoint::Unix(path) => {
                let mut s = UnixStream::connect(path)?;
                exchange(&mut s, &payload)?
            }
            Endpoint::Tcp(addr) => {
                let mut s = self.connect_tcp(addr)?;
                exchange(&mut s, &payload)?
            }
        };
        Ok(Response::decode(&reply)?)
    }

    /// The exchange with the configured retry policy: transient
    /// connection failures sleep `retry_backoff`, `Busy` replies sleep
    /// the daemon's hint, both up to `retries` extra attempts.
    fn roundtrip(&self, req: &Request) -> io::Result<Response> {
        let mut remaining = self.config.retries;
        loop {
            match self.roundtrip_once(req) {
                Ok(Response::Busy { retry_after_ms }) => {
                    if remaining == 0 {
                        return Err(busy_error(retry_after_ms));
                    }
                    remaining -= 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 10_000)));
                }
                Ok(resp) => return Ok(resp),
                Err(e) if remaining > 0 && is_transient(&e) => {
                    remaining -= 1;
                    std::thread::sleep(self.config.retry_backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a program and blocks until its terminal [`JobState`].
    ///
    /// # Errors
    ///
    /// Connection/protocol errors, or the daemon's admission rejection
    /// (a full queue surfaces as `WouldBlock` with the retry-after
    /// hint in the message once retries are exhausted).
    pub fn submit_wait(
        &self,
        source: &str,
        features: &AnalysisFeatures,
    ) -> io::Result<(u64, JobState)> {
        let req = Request::Submit {
            wait: true,
            features: features.clone(),
            source: source.to_string(),
            ctx: None,
        };
        match self.roundtrip(&req)? {
            Response::Status { job_id, state } => Ok((job_id, state)),
            other => Err(bad_reply(other)),
        }
    }

    /// Submits a program without waiting; returns the job id.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors, or the daemon's admission rejection.
    pub fn submit(&self, source: &str, features: &AnalysisFeatures) -> io::Result<u64> {
        let req = Request::Submit {
            wait: false,
            features: features.clone(),
            source: source.to_string(),
            ctx: None,
        };
        match self.roundtrip(&req)? {
            Response::Submitted { job_id } => Ok(job_id),
            other => Err(bad_reply(other)),
        }
    }

    /// The job's current state.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors, or `unknown job`.
    pub fn status(&self, job_id: u64) -> io::Result<JobState> {
        match self.roundtrip(&Request::Status { job_id })? {
            Response::Status { state, .. } => Ok(state),
            other => Err(bad_reply(other)),
        }
    }

    /// Requests cancellation; `true` if the job was still cancellable.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn cancel(&self, job_id: u64) -> io::Result<bool> {
        match self.roundtrip(&Request::Cancel { job_id })? {
            Response::Cancelled { ok } => Ok(ok),
            other => Err(bad_reply(other)),
        }
    }

    /// Daemon-wide statistics.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn stats(&self) -> io::Result<DaemonStats> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(bad_reply(other)),
        }
    }

    /// The daemon's health snapshot.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn health(&self) -> io::Result<HealthInfo> {
        match self.roundtrip(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(bad_reply(other)),
        }
    }

    /// The daemon's Prometheus text-format metrics page.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn metrics(&self) -> io::Result<String> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(bad_reply(other)),
        }
    }

    /// Analyzes `source` synchronously with structured tracing enabled;
    /// returns the encoded report — byte-identical to an untraced run —
    /// and the JSONL trace text.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors, or the front-end rejection.
    pub fn trace(
        &self,
        source: &str,
        features: &AnalysisFeatures,
    ) -> io::Result<(Vec<u8>, String)> {
        let req = Request::Trace { features: features.clone(), source: source.to_string() };
        match self.roundtrip(&req)? {
            Response::Trace { report, trace } => Ok((report, trace)),
            other => Err(bad_reply(other)),
        }
    }

    /// A non-destructive snapshot of the peer's recorder ring: its
    /// recorder clock at snapshot time and the ring as compact
    /// JSONL (empty when the peer is not recording).
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn ring_dump(&self) -> io::Result<(u64, String)> {
        match self.roundtrip(&Request::RingDump)? {
            Response::RingDump { now_ns, trace } => Ok((now_ns, trace)),
            other => Err(bad_reply(other)),
        }
    }

    /// One merged cluster trace: a gateway assembles its own
    /// ring with every backend's (clock-offset corrected); a bare
    /// daemon answers with the single-process merge of its own ring.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn cluster_trace(&self) -> io::Result<String> {
        match self.roundtrip(&Request::ClusterTrace)? {
            Response::Trace { trace, .. } => Ok(trace),
            other => Err(bad_reply(other)),
        }
    }

    /// Asks the daemon to drain and exit; returns once acknowledged
    /// (all admitted jobs finished, cache index flushed). Never
    /// retried: a second shutdown frame against a daemon that already
    /// started draining would just hang on a dead listener.
    ///
    /// # Errors
    ///
    /// Connection/protocol errors.
    pub fn shutdown(&self) -> io::Result<()> {
        match self.roundtrip_once(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(bad_reply(other)),
        }
    }
}

fn exchange(stream: &mut (impl Read + Write), payload: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, payload)?;
    read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
    })
}
