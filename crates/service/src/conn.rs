//! Per-connection framing state machine for readiness-driven I/O.
//!
//! The blocking path ([`proto::read_frame`]/[`proto::write_frame`])
//! assumes it may park a thread per connection. The event-loop daemons
//! instead keep *all* connections on one thread, so each connection
//! owns explicit partial-read/partial-write buffers and the loop drives
//! them on readiness:
//!
//! * `EPOLLIN` → [`FrameConn::on_readable`] appends whatever the socket
//!   has into the read buffer, then [`FrameConn::next_frame`] is called
//!   until it yields `None` (frames are length-prefixed, so "complete"
//!   is a pure buffer predicate — no I/O);
//! * replies are staged with [`FrameConn::queue_frame`] and flushed by
//!   [`FrameConn::on_writable`], which writes as much as the socket
//!   accepts and leaves the rest buffered;
//! * [`FrameConn::interest`] derives the epoll bit set from buffer
//!   state: always `EPOLLIN`, plus `EPOLLOUT` exactly while bytes are
//!   pending, so an idle connection costs one registered fd and ~0
//!   bytes of buffer — the property that lets one `c4d` hold thousands
//!   of idle editor/CI connections;
//! * [`FrameConn::settle`] reconciles the connection's epoll
//!   registration with the interest its owner wants, tracking what is
//!   registered so a change costs one `epoll_ctl` and no change none.
//!
//! Wire format is unchanged from [`proto`]: 4-byte big-endian length,
//! then the payload, capped at [`proto::MAX_FRAME`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

use crate::poll::{self, Poller, EPOLLIN, EPOLLOUT};
use crate::proto::MAX_FRAME;

/// Either transport the daemons accept, behind one readiness-driven
/// face.
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }
}

impl AsRawFd for NetStream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl From<TcpStream> for NetStream {
    fn from(s: TcpStream) -> NetStream {
        NetStream::Tcp(s)
    }
}

impl From<UnixStream> for NetStream {
    fn from(s: UnixStream) -> NetStream {
        NetStream::Unix(s)
    }
}

/// What a readability pass observed.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The socket may produce more later; buffered data (if any) was
    /// consumed into the read buffer.
    Open,
    /// The peer closed cleanly (EOF). Buffered complete frames are
    /// still retrievable; the connection should close once drained.
    Eof,
}

/// A non-blocking connection with explicit framing buffers.
pub struct FrameConn {
    stream: NetStream,
    rbuf: Vec<u8>,
    /// Parse cursor into `rbuf`: bytes before it belong to frames
    /// already yielded. Compacted opportunistically.
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Present in a poller's interest set, and with which bits.
    registered: Option<u32>,
}

impl FrameConn {
    /// Wraps `stream`, switching it to non-blocking mode. TCP streams
    /// additionally get `TCP_NODELAY`: replies on a multiplexed
    /// connection are small frames written back-to-back (a forward ack
    /// followed by its terminal status), and Nagle batching against
    /// the peer's delayed ACK would stall the second frame ~40ms.
    pub fn new(stream: impl Into<NetStream>) -> io::Result<FrameConn> {
        let stream = stream.into();
        if let NetStream::Tcp(s) = &stream {
            s.set_nodelay(true)?;
        }
        poll::set_nonblocking(stream.as_raw_fd())?;
        Ok(FrameConn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            registered: None,
        })
    }

    /// The fd to register with a poller.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The epoll interest implied by buffer state.
    pub fn interest(&self) -> u32 {
        if self.wants_write() { EPOLLIN | EPOLLOUT } else { EPOLLIN }
    }

    /// Registers, re-registers or deregisters the fd with `poller` so
    /// its interest set is exactly `want` (0: no events at all).
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failures; the owner should drop the connection.
    pub fn settle(&mut self, poller: &Poller, token: u64, want: u32) -> io::Result<()> {
        let fd = self.fd();
        self.registered = match (self.registered, want) {
            (Some(_), 0) => {
                poller.deregister(fd);
                None
            }
            (Some(cur), w) if cur != w => {
                poller.reregister(fd, w, token)?;
                Some(w)
            }
            (None, w) if w != 0 => {
                poller.register(fd, w, token)?;
                Some(w)
            }
            (r, _) => r,
        };
        Ok(())
    }

    /// True while queued reply bytes are waiting for the socket.
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Reads everything currently available into the read buffer.
    ///
    /// # Errors
    ///
    /// Real socket errors (connection reset etc.). `WouldBlock` is the
    /// normal exhaustion signal and is absorbed, not returned.
    pub fn on_readable(&mut self) -> io::Result<ReadOutcome> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if self.rbuf.len() - self.rpos > MAX_FRAME as usize + 4 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "frame exceeds maximum size",
                        ));
                    }
                    if n < chunk.len() {
                        return Ok(ReadOutcome::Open);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete frame from the read buffer, if one is
    /// fully present.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the peer announces a frame over
    /// [`MAX_FRAME`] — the connection should be dropped, the stream
    /// can no longer be trusted.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.rbuf[self.rpos..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds maximum {MAX_FRAME}"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            self.compact();
            return Ok(None);
        }
        let frame = avail[4..total].to_vec();
        self.rpos += total;
        Ok(Some(frame))
    }

    /// Reclaims consumed read-buffer space once it dominates the
    /// buffer; amortized O(1) per byte.
    fn compact(&mut self) {
        if self.rpos > 4096 && self.rpos * 2 >= self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Stages one frame (length prefix + payload) for writing. Call
    /// [`FrameConn::on_writable`] to push it; update poller interest
    /// via [`FrameConn::interest`].
    pub fn queue_frame(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() <= MAX_FRAME as usize);
        self.wbuf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Writes as much staged output as the socket accepts.
    ///
    /// # Errors
    ///
    /// Real socket errors; `WouldBlock` is absorbed.
    pub fn on_writable(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};
    use std::net::TcpListener;

    fn pair() -> (FrameConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (FrameConn::new(server).unwrap(), peer)
    }

    #[test]
    fn partial_reads_reassemble_into_whole_frames() {
        use std::io::Write as _;
        let (mut conn, mut peer) = pair();
        let frames = [b"hello".to_vec(), b"world!".to_vec()];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // Frame `i` is complete once this many bytes have arrived.
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                *at += 4 + f.len();
                Some(*at)
            })
            .collect();
        // Send the two frames in two writes split at every byte offset,
        // then one byte per write: after each write, exactly the frames
        // complete so far must come out, never a partial one.
        let rounds = (0..=wire.len())
            .map(|k| vec![k, wire.len()])
            .chain(std::iter::once((1..=wire.len()).collect::<Vec<_>>()));
        for cuts in rounds {
            let mut seen: Vec<Vec<u8>> = Vec::new();
            let mut sent = 0;
            for &cut in &cuts {
                peer.write_all(&wire[sent..cut]).unwrap();
                peer.flush().unwrap();
                sent = cut;
                // Busy-poll the nonblocking side until every sent byte
                // is either in a yielded frame or buffered.
                loop {
                    assert_eq!(conn.on_readable().unwrap(), ReadOutcome::Open, "peer still open");
                    while let Some(f) = conn.next_frame().unwrap() {
                        seen.push(f);
                    }
                    let yielded: usize = seen.iter().map(|f| 4 + f.len()).sum();
                    if yielded + conn.rbuf.len() - conn.rpos == sent {
                        break;
                    }
                    std::thread::yield_now();
                }
                let complete = ends.iter().filter(|&&e| e <= sent).count();
                assert_eq!(seen, frames[..complete], "cuts {cuts:?}, after {sent} bytes");
            }
        }
    }

    #[test]
    fn queued_frames_flush_and_interest_tracks_buffers() {
        let (mut conn, mut peer) = pair();
        assert_eq!(conn.interest(), EPOLLIN, "idle conn reads only");
        conn.queue_frame(b"reply-1");
        conn.queue_frame(b"reply-2");
        assert_eq!(conn.interest(), EPOLLIN | EPOLLOUT);
        while conn.wants_write() {
            conn.on_writable().unwrap();
        }
        assert_eq!(conn.interest(), EPOLLIN);
        assert_eq!(read_frame(&mut peer).unwrap().unwrap(), b"reply-1");
        assert_eq!(read_frame(&mut peer).unwrap().unwrap(), b"reply-2");
    }

    #[test]
    fn oversized_frame_announcement_is_rejected() {
        let (mut conn, mut peer) = pair();
        use std::io::Write as _;
        peer.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        peer.flush().unwrap();
        loop {
            conn.on_readable().unwrap();
            if conn.rbuf.len() >= 4 {
                break;
            }
            std::thread::yield_now();
        }
        assert!(conn.next_frame().is_err());
    }

    #[test]
    fn eof_is_reported_after_buffered_frames_drain() {
        let (mut conn, mut peer) = pair();
        write_frame(&mut peer, b"last").unwrap();
        drop(peer);
        // Keep reading until EOF shows up; the buffered frame must
        // still come out.
        loop {
            if conn.on_readable().unwrap() == ReadOutcome::Eof {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(conn.next_frame().unwrap().unwrap(), b"last");
        assert_eq!(conn.next_frame().unwrap(), None);
    }
}
