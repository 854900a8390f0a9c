//! The connection reactor shared by `c4d` and `c4-gateway`.
//!
//! One thread owns an epoll [`Poller`], the client listeners and every
//! client connection (non-blocking, framed by [`FrameConn`]), so an
//! idle connection costs a registered fd rather than a parked thread.
//! The reactor accepts, turns readiness into frames, decodes each
//! frame into a [`Request`] and hands it to the tier's [`Handler`]; a
//! frame that does not decode is answered with
//! `Error { "protocol error: …" }` here, and the connection keeps
//! serving. Replies are staged with [`Reactor::reply`] and flushed as
//! the socket accepts them.
//!
//! A request the handler cannot answer at once (a submit that waits for
//! its verdict, a trace, a shutdown) [`Reactor::block`]s its
//! connection: further frames from that client stay buffered until
//! [`Reactor::unblock`] sends the answer, which preserves the
//! request-response order a sequential client expects. Other threads
//! reach the loop through a [`NoticeBox`]: a post rings the self-pipe
//! waker and the handler receives the notice on the loop thread.
//!
//! A tier that owns other fds (the gateway's backend links) registers
//! them under a token from [`CALLER_TOKENS`] and gets their readiness
//! through [`Handler::event`]. [`Reactor::exit`] stops accepting, lets
//! pending replies flush for a bounded linger, and ends [`Reactor::run`].
//! Work a handler moves off the loop runs on [`SideThreads`].

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{FrameConn, NetStream, ReadOutcome};
use crate::poll::{waker, Poller, WakeRx, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::proto::{Request, Response};

/// How long the reactor keeps flushing write buffers after
/// [`Reactor::exit`].
const EXIT_LINGER: Duration = Duration::from_secs(5);

/// Poll bound while lingering.
const LINGER_TICK: Duration = Duration::from_millis(50);

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER_BASE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 1 << 16;

/// Poller tokens the reactor never assigns. A handler registering fds
/// of its own takes their tokens from this range.
pub const CALLER_TOKENS: Range<u64> = 8..TOKEN_CONN_BASE;

/// A cross-thread mailbox into the reactor: any thread may
/// [`post`](NoticeBox::post), and the loop hands each notice to
/// [`Handler::notice`].
pub struct NoticeBox<N> {
    queue: Mutex<Vec<N>>,
    waker: Waker,
}

impl<N> NoticeBox<N> {
    /// Queues `notice` and wakes the loop.
    pub fn post(&self, notice: N) {
        self.queue.lock().expect("a notice poster panicked").push(notice);
        self.waker.wake();
    }

    fn take(&self) -> Vec<N> {
        std::mem::take(&mut *self.queue.lock().expect("a notice poster panicked"))
    }
}

/// Transient threads a handler runs blocking work on (trace runs,
/// proxies, the drain). Each [`spawn`](SideThreads::spawn) first joins
/// the threads that have finished, so a long-lived tier holds only the
/// ones still running; [`join_all`](SideThreads::join_all) waits for
/// those at exit.
#[derive(Default)]
pub struct SideThreads {
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl SideThreads {
    /// Reaps the finished threads, then runs `f` on a new one.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let mut handles = self.handles.lock().expect("a side-thread spawner panicked");
        for h in std::mem::take(&mut *handles) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                handles.push(h);
            }
        }
        handles.push(std::thread::spawn(f));
    }

    /// Joins every thread still held.
    pub fn join_all(&self) {
        let handles =
            std::mem::take(&mut *self.handles.lock().expect("a side-thread spawner panicked"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// What a tier adds to the reactor: how it serves requests and what its
/// notices mean.
pub trait Handler {
    /// The message type other threads post through the [`NoticeBox`].
    type Notice;

    /// Serves one request from client `token`: answer it with
    /// [`Reactor::reply`], or [`Reactor::block`] the connection and
    /// answer later with [`Reactor::unblock`].
    fn request(&mut self, r: &mut Reactor<Self::Notice>, token: u64, req: Request);

    /// Handles one posted notice.
    fn notice(&mut self, r: &mut Reactor<Self::Notice>, notice: Self::Notice);

    /// Readiness `bits` on an fd the handler registered under `token`
    /// (from [`CALLER_TOKENS`]).
    fn event(&mut self, _r: &mut Reactor<Self::Notice>, _token: u64, _bits: u32) {}

    /// Runs before every wait; returns how long the wait may block
    /// (`None`: until the next event).
    fn tick(&mut self, _r: &mut Reactor<Self::Notice>) -> Option<Duration> {
        None
    }
}

/// A bound client listener. A Unix listener removes its socket file
/// when dropped.
enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// One non-blocking accept. `Ok(None)` when the backlog is empty.
    fn accept(&self) -> io::Result<Option<NetStream>> {
        let res = match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| NetStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
        };
        match res {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

struct ConnEntry {
    conn: FrameConn,
    /// Pending blocking replies: while non-zero, buffered frames are
    /// not dispatched.
    blocked: u32,
    eof: bool,
}

/// The event loop: poller, waker, listeners and client connections.
pub struct Reactor<N> {
    poller: Poller,
    wake_rx: WakeRx,
    notices: Arc<NoticeBox<N>>,
    /// Listener `i` is registered under token `TOKEN_LISTENER_BASE + i`.
    listeners: Vec<Listener>,
    tcp_addr: Option<String>,
    conns: HashMap<u64, ConnEntry>,
    /// Connections unblocked since their frames were last dispatched.
    unblocked: VecDeque<u64>,
    next_token: u64,
    /// Set by [`Reactor::exit`]: the latest moment `run` returns.
    linger_until: Option<Instant>,
}

impl<N> Reactor<N> {
    /// Binds the client listeners: a Unix socket at `unix_socket` (a
    /// stale file there is replaced) and/or a TCP listener at `tcp`
    /// (`:0` picks a port; see [`Reactor::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// I/O errors binding a listener; `InvalidInput` if neither is
    /// given.
    pub fn bind(unix_socket: Option<&Path>, tcp: Option<&str>) -> io::Result<Reactor<N>> {
        if unix_socket.is_none() && tcp.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listener configured (need a socket path or TCP address)",
            ));
        }
        let mut listeners = Vec::new();
        if let Some(path) = unix_socket {
            // A stale socket file from a crashed process would make bind
            // fail; replace it. A *live* process is not detected here —
            // callers use distinct paths per instance.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            listeners.push(Listener::Unix(l, path.to_path_buf()));
        }
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            tcp_addr = Some(l.local_addr()?.to_string());
            listeners.push(Listener::Tcp(l));
        }
        let (waker, wake_rx) = waker()?;
        Ok(Reactor {
            poller: Poller::new()?,
            wake_rx,
            notices: Arc::new(NoticeBox { queue: Mutex::new(Vec::new()), waker }),
            listeners,
            tcp_addr,
            conns: HashMap::new(),
            unblocked: VecDeque::new(),
            next_token: TOKEN_CONN_BASE,
            linger_until: None,
        })
    }

    /// The bound TCP address, with the port resolved.
    pub fn tcp_addr(&self) -> Option<String> {
        self.tcp_addr.clone()
    }

    /// The mailbox other threads post notices to.
    pub fn notices(&self) -> Arc<NoticeBox<N>> {
        Arc::clone(&self.notices)
    }

    /// The poller, for handlers that register fds of their own.
    pub fn poller(&self) -> &Poller {
        &self.poller
    }

    /// Whether [`Reactor::exit`] has been called.
    pub fn exiting(&self) -> bool {
        self.linger_until.is_some()
    }

    /// Stops accepting; `run` returns once every connection has
    /// flushed its replies and has none pending, or after the linger.
    pub fn exit(&mut self) {
        self.linger_until.get_or_insert_with(|| Instant::now() + EXIT_LINGER);
    }

    /// Sends `resp` to client `token` (a no-op if it has gone).
    pub fn reply(&mut self, token: u64, resp: &Response) {
        if let Some(e) = self.conns.get_mut(&token) {
            e.conn.queue_frame(&resp.encode());
            self.after_io(token);
        }
    }

    /// Holds back client `token`'s further frames until a matching
    /// [`Reactor::unblock`].
    pub fn block(&mut self, token: u64) {
        if let Some(e) = self.conns.get_mut(&token) {
            e.blocked += 1;
        }
    }

    /// Answers a blocked request with `resp`, releases its block, and
    /// resumes dispatch of the client's buffered frames.
    pub fn unblock(&mut self, token: u64, resp: &Response) {
        if let Some(e) = self.conns.get_mut(&token) {
            e.blocked = e.blocked.saturating_sub(1);
            self.unblocked.push_back(token);
            self.reply(token, resp);
        }
    }

    /// Runs the loop until [`Reactor::exit`]'s linger ends.
    ///
    /// # Errors
    ///
    /// Poller failures.
    pub fn run<H: Handler<Notice = N>>(&mut self, h: &mut H) -> io::Result<()> {
        self.poller.register(self.wake_rx.fd(), EPOLLIN, TOKEN_WAKER)?;
        for (i, l) in self.listeners.iter().enumerate() {
            self.poller.register(l.fd(), EPOLLIN, TOKEN_LISTENER_BASE + i as u64)?;
        }
        let mut events = Vec::with_capacity(256);
        loop {
            let mut timeout = h.tick(self);
            self.pump_unblocked(h);
            if let Some(deadline) = self.linger_until {
                // Drop connections with nothing left to say; once
                // everyone is flushed (or the linger passes), return.
                self.listeners.clear();
                self.conns.retain(|_, e| e.conn.wants_write() || e.blocked > 0);
                if self.conns.is_empty() || Instant::now() >= deadline {
                    return Ok(());
                }
                timeout = Some(LINGER_TICK);
            }
            self.poller.wait(&mut events, timeout)?;
            for e in &events {
                match e.token() {
                    TOKEN_WAKER => self.wake_rx.drain(),
                    t if CALLER_TOKENS.contains(&t) => h.event(self, t, e.events()),
                    t if t >= TOKEN_CONN_BASE => self.conn_event(h, t, e.events()),
                    t => self.accept_all((t - TOKEN_LISTENER_BASE) as usize),
                }
                self.pump_unblocked(h);
            }
            for notice in self.notices.take() {
                h.notice(self, notice);
                self.pump_unblocked(h);
            }
        }
    }

    /// Drains listener `i`'s accept backlog.
    fn accept_all(&mut self, i: usize) {
        while let Some(Ok(Some(stream))) = self.listeners.get(i).map(Listener::accept) {
            let Ok(mut conn) = FrameConn::new(stream) else { continue };
            let token = self.next_token;
            self.next_token += 1;
            if conn.settle(&self.poller, token, EPOLLIN).is_ok() {
                self.conns.insert(token, ConnEntry { conn, blocked: 0, eof: false });
            }
        }
    }

    fn conn_event<H: Handler<Notice = N>>(&mut self, h: &mut H, token: u64, bits: u32) {
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.drop_conn(token);
            return;
        }
        if bits & EPOLLIN != 0 {
            let Some(e) = self.conns.get_mut(&token) else { return };
            match e.conn.on_readable() {
                Ok(ReadOutcome::Open) => {}
                Ok(ReadOutcome::Eof) => e.eof = true,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
            self.pump(h, token);
        } else if bits & EPOLLOUT != 0 {
            self.after_io(token);
        }
    }

    /// Dispatches every complete buffered frame of client `token`
    /// (unless it is blocked on a pending reply), then settles its I/O
    /// state.
    fn pump<H: Handler<Notice = N>>(&mut self, h: &mut H, token: u64) {
        loop {
            let Some(e) = self.conns.get_mut(&token) else { return };
            if e.blocked > 0 {
                break;
            }
            match e.conn.next_frame() {
                Ok(Some(frame)) => match Request::decode(&frame) {
                    Ok(req) => h.request(self, token, req),
                    Err(err) => self.reply(token, &Response::Error { message: err.to_string() }),
                },
                Ok(None) => break,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        self.after_io(token);
    }

    fn pump_unblocked<H: Handler<Notice = N>>(&mut self, h: &mut H) {
        while let Some(token) = self.unblocked.pop_front() {
            self.pump(h, token);
        }
    }

    /// Flushes what the socket will take and reconciles epoll interest
    /// with buffer state; drops the connection when it is finished.
    fn after_io(&mut self, token: u64) {
        let Some(e) = self.conns.get_mut(&token) else { return };
        let finished =
            e.conn.on_writable().is_err() || (e.eof && e.blocked == 0 && !e.conn.wants_write());
        // After EOF there is nothing more to read: only flushing, or
        // waiting for a blocked reply, during which the fd needs no
        // events.
        let want = match (e.eof, e.conn.wants_write()) {
            (false, _) => e.conn.interest(),
            (true, true) => EPOLLOUT,
            (true, false) => 0,
        };
        if finished || e.conn.settle(&self.poller, token, want).is_err() {
            self.drop_conn(token);
        }
    }

    /// Closes and forgets a client connection. A handler still holding
    /// its token finds it gone, and its reply is dropped.
    fn drop_conn(&mut self, token: u64) {
        if let Some(mut e) = self.conns.remove(&token) {
            let _ = e.conn.settle(&self.poller, token, 0);
        }
    }
}

/// The HTTP listener that serves a Prometheus `/metrics` page on a
/// thread of its own.
pub struct MetricsServer {
    addr: String,
    thread: JoinHandle<()>,
}

impl MetricsServer {
    /// Binds `addr` (`:0` picks a port) and serves `page(&state)` to
    /// every scrape until `stopped(&state)` holds. Scrapes are cheap
    /// and allocation-bounded, so they are served inline.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn start<S: Send + Sync + 'static>(
        addr: &str,
        state: Arc<S>,
        stopped: fn(&S) -> bool,
        page: fn(&S) -> String,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        let thread = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if stopped(&state) {
                return;
            }
            if let Ok((mut stream, _)) = accepted {
                c4_obs::prom::serve_http_conn(&mut stream, &|| page(&state));
            }
        });
        Ok(MetricsServer { addr, thread })
    }

    /// The bound address, with the port resolved.
    pub fn addr(&self) -> String {
        self.addr.clone()
    }

    /// Joins the acceptor once `stopped` holds; a connect wakes the
    /// blocked accept so it observes the flag.
    pub fn stop(self) {
        let _ = TcpStream::connect(&self.addr);
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_threads_reap_finished_threads_on_spawn() {
        let threads = SideThreads::default();
        for _ in 0..16 {
            threads.spawn(|| {});
            while !threads.handles.lock().unwrap().iter().all(JoinHandle::is_finished) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(threads.handles.lock().unwrap().len() <= 1, "finished threads are reaped");
        threads.join_all();
        assert!(threads.handles.lock().unwrap().is_empty());
    }
}
