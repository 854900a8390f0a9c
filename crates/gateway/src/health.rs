//! The backend probe thread.
//!
//! Every `health_interval` it sends a `Health` request to each backend
//! on a short-lived connection with hard connect/read timeouts (probes
//! must never hang the rotation decision on a wedged backend). A
//! backend is healthy iff the probe round-trips and reports
//! `accepting`. Whenever a probe finds a healthy backend whose
//! persistent multiplexed connection is down — at startup, or after
//! the event loop dropped it on an error — the prober dials a fresh
//! connection and hands it to the loop via a [`Notice::Connected`],
//! keeping all blocking dials off the event loop.

use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::Duration;

use c4_service::proto::{read_frame, write_frame, HealthInfo, Request, Response};

use crate::{connect_timeout, Gateway, Notice};

/// One probe round-trip against `addr`. `None` on any failure.
///
/// A successful probe against a backend reporting a non-zero recorder
/// clock also yields a clock estimate
/// `(offset_ns, uncertainty_ns)`: the backend's recorder clock minus
/// the gateway's at the exchange midpoint, uncertain by half the
/// round-trip. Trace merging uses it to put backend ring events on the
/// gateway's timeline.
fn probe(addr: &str, timeout: Duration) -> Option<(HealthInfo, Option<(i64, u64)>)> {
    let mut stream = connect_timeout(addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let t0 = c4_obs::now_ns();
    let h = probe_exchange(&mut stream)?;
    let t1 = c4_obs::now_ns();
    let clock = (h.now_ns != 0).then(|| {
        let mid = t0 + (t1 - t0) / 2;
        (h.now_ns as i64 - mid as i64, (t1 - t0) / 2)
    });
    Some((h, clock))
}

fn probe_exchange(stream: &mut (impl Read + Write)) -> Option<HealthInfo> {
    write_frame(stream, &Request::Health.encode()).ok()?;
    let payload = read_frame(stream).ok()??;
    match Response::decode(&payload).ok()? {
        Response::Health(h) => Some(h),
        _ => None,
    }
}

/// The probe loop; runs until the gateway's shutdown flag is set.
pub(crate) fn probe_loop(gw: &Gateway) {
    loop {
        if gw.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for (i, b) in gw.backends.iter().enumerate() {
            let verdict = probe(&b.addr, gw.cfg.probe_timeout);
            match verdict {
                Some((h, clock)) => {
                    b.healthy.store(h.accepting, Ordering::Relaxed);
                    b.probe_queue_len.store(h.queue_len, Ordering::Relaxed);
                    if let Some((offset, err)) = clock {
                        b.clock_offset_ns.store(offset, Ordering::Relaxed);
                        b.clock_err_ns.store(err, Ordering::Relaxed);
                    }
                    if h.accepting && !b.connected.load(Ordering::Relaxed) {
                        if let Ok(stream) = connect_timeout(&b.addr, gw.cfg.probe_timeout) {
                            gw.notices.post(Notice::Connected { backend: i, stream });
                        }
                    }
                }
                None => b.healthy.store(false, Ordering::Relaxed),
            }
        }
        // Sleep in small steps so shutdown is observed promptly.
        let mut left = gw.cfg.health_interval;
        while !left.is_zero() {
            if gw.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left -= step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe against a daemon-shaped responder parses the health
    /// frame; garbage or closed streams read as unhealthy.
    #[test]
    fn probe_parses_health_and_rejects_garbage() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First conn: answer health; second: garbage; third: close.
            let (mut s, _) = listener.accept().unwrap();
            let payload = read_frame(&mut s).unwrap().unwrap();
            assert!(matches!(Request::decode(&payload), Ok(Request::Health)));
            let h = HealthInfo {
                accepting: true,
                queue_len: 3,
                queue_cap: 64,
                running: 1,
                workers: 2,
                uptime_ms: 5,
                now_ns: c4_obs::now_ns(),
            };
            write_frame(&mut s, &Response::Health(h).encode()).unwrap();
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_frame(&mut s);
            s.write_all(&[0, 0, 0, 1, 0xFF]).unwrap();
            let (s, _) = listener.accept().unwrap();
            drop(s);
        });

        let t = Duration::from_millis(500);
        let (h, clock) = probe(&addr, t).expect("healthy probe");
        assert!(h.accepting);
        assert_eq!(h.queue_len, 3);
        let (_offset, err) = clock.expect("health carries a clock stamp");
        assert!(err < 500_000_000, "uncertainty bounded by the round-trip");
        assert!(probe(&addr, t).is_none(), "garbage frame is unhealthy");
        assert!(probe(&addr, t).is_none(), "closed stream is unhealthy");
        server.join().unwrap();

        // Nothing listening at all.
        assert!(probe("127.0.0.1:1", t).is_none());
    }
}
