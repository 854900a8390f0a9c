//! The gateway's serving contract over a two-backend cluster: reports
//! routed through `c4-gateway` are byte-identical to a direct
//! in-process `run_analysis`, under consistent-hash sharding, under a
//! backend killed mid-job (bounded retry onto the survivor), under
//! backpressure (a full backend surfaces as a typed retry-after), and
//! under request hedging (first finisher wins, loser cancelled). The
//! determinism argument is the same one the single-daemon differential
//! rests on — verdicts are content-addressed and deterministic — so
//! *which* backend answered is unobservable in the bytes.

mod cluster;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use c4::CacheTier;
use c4_gateway::ring::Ring;
use c4_gateway::GatewayConfig;
use c4_service::client::{Client, Endpoint};
use c4_service::job::RETIRE_WINDOW;
use c4_service::proto::JobState;
use cluster::{
    counter_sum, features, selection, served_report, start_backend, start_gateway, tmp_dir,
};

/// Sharded determinism: the full selection routed through a 2-backend
/// gateway is byte-identical to direct analysis at 1 and 4 workers,
/// warm resubmissions hit the owning backend's memory cache (cache
/// affinity), and the per-backend forward counts match the ring's
/// static assignment exactly.
#[test]
fn gateway_reports_match_direct_analysis_across_two_backends() {
    let (dir_a, dir_b) = (tmp_dir("shard-a"), tmp_dir("shard-b"));
    let (backend_a, addr_a) = start_backend(&dir_a, 2, 64);
    let (backend_b, addr_b) = start_backend(&dir_b, 2, 64);
    let addrs = vec![addr_a.clone(), addr_b.clone()];
    // Hedging off so the forward counts below are exact.
    let (gateway, client) = start_gateway(addrs.clone(), None);

    let health = client.health().expect("gateway health");
    assert!(health.accepting, "fresh gateway accepts");
    assert_eq!(health.workers, 2, "both backends are healthy");

    let ring = Ring::new(&addrs, GatewayConfig::default().vnodes);
    let mut expected_forwards = [0u64; 2];
    for b in selection() {
        let direct1 = c4_service::run_analysis(b.source, &features(1)).expect("direct run");
        let direct4 = c4_service::run_analysis(b.source, &features(4)).expect("direct run");
        let (d1, d4) = (direct1.encode_report(), direct4.encode_report());
        assert_eq!(d1, d4, "{}: direct reports diverge across worker counts", b.name);

        let point = c4_service::cache_key(b.source, &features(1)).expect("key").ring_point();
        expected_forwards[ring.primary(point).expect("ring routes")] += 2;

        // Cold through the gateway: the owning backend computes.
        let (tier, cold) = served_report(&client, b.source, &features(1));
        assert_eq!(tier, CacheTier::Miss, "{}: first submission must compute", b.name);
        assert_eq!(cold, d1, "{}: gateway-served report differs from direct", b.name);

        // Warm at a different worker count: the ring point is the
        // verdict-cache key, so the resubmission lands on the same
        // backend and hits its in-memory cache.
        let (tier, warm) = served_report(&client, b.source, &features(4));
        assert_eq!(tier, CacheTier::Memory, "{}: affinity resubmission must hit memory", b.name);
        assert_eq!(warm, d1, "{}: warm gateway report differs from direct", b.name);
    }

    let n = selection().len() as u64;
    let stats = client.stats().expect("gateway stats");
    assert_eq!(stats.submitted, 2 * n);
    assert_eq!(stats.completed, 2 * n);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.rejected, 0);

    let metrics = client.metrics().expect("gateway metrics");
    for (i, addr) in addrs.iter().enumerate() {
        assert_eq!(
            counter_sum(&metrics, "c4gw_forwards_total", Some(addr)),
            expected_forwards[i],
            "backend {addr}: forwards must match the ring assignment exactly"
        );
    }
    assert_eq!(counter_sum(&metrics, "c4gw_retries_total", None), 0);
    assert_eq!(counter_sum(&metrics, "c4gw_hedges_total", None), 0);
    // The table gauges: every job is settled, so the table holds only
    // retired jobs and no forward awaits its status.
    for family in ["c4gw_jobs_retained", "c4gw_remote_attempts"] {
        assert!(metrics.contains(&format!("# TYPE {family} gauge")), "{family} is exported");
    }
    assert!(counter_sum(&metrics, "c4gw_jobs_retained", None) <= RETIRE_WINDOW as u64);
    assert_eq!(counter_sum(&metrics, "c4gw_remote_attempts", None), 0);

    client.shutdown().expect("gateway shutdown");
    gateway.wait();
    for (handle, addr) in [(backend_a, addr_a), (backend_b, addr_b)] {
        Client::new(Endpoint::Tcp(addr)).shutdown().expect("backend shutdown");
        handle.wait();
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A spawned `c4d` process (the fault-injection tests need a backend
/// that can die abruptly, which an in-process daemon cannot).
struct SpawnedBackend {
    child: Child,
    addr: String,
    // Kept open: dropping it would close the pipe and fault the
    // daemon's stdout writes.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for SpawnedBackend {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The workspace's `c4d` binary next to the test executable
/// (`target/<profile>/c4d`); `None` when only the test target was
/// built.
fn c4d_binary() -> Option<PathBuf> {
    let mut p = std::env::current_exe().ok()?;
    p.pop(); // deps/
    p.pop(); // target/<profile>/
    p.push(format!("c4d{}", std::env::consts::EXE_SUFFIX));
    p.exists().then_some(p)
}

fn spawn_backend(bin: &Path, cache_dir: &Path) -> SpawnedBackend {
    let mut child = Command::new(bin)
        .args(["--tcp", "127.0.0.1:0", "--jobs", "1"])
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c4d");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut addr = None;
    for _ in 0..20 {
        let mut line = String::new();
        if stdout.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("c4d listening on tcp ") {
            addr = Some(rest.to_string());
            break;
        }
    }
    let addr = addr.expect("c4d prints its bound tcp address");
    SpawnedBackend { child, addr, _stdout: stdout }
}

fn poll_until<T>(timeout: Duration, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Fault injection: kill the backend that owns a job while the job is
/// in flight on it. The gateway must retry the forward onto the
/// survivor and the final report must still be byte-identical to the
/// direct single-daemon run at 1 and 4 workers.
#[test]
fn killing_the_owning_backend_mid_job_retries_onto_the_survivor() {
    let Some(bin) = c4d_binary() else {
        eprintln!("skipping: c4d binary not built (run `cargo test` at the workspace root)");
        return;
    };
    let (dir_a, dir_b) = (tmp_dir("kill-a"), tmp_dir("kill-b"));
    let mut backends = vec![spawn_backend(&bin, &dir_a), spawn_backend(&bin, &dir_b)];
    let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();
    // Hedging off: the job must stay pinned to the primary until the
    // kill, so the retry path (not the hedge path) serves it.
    let (gateway, client) = start_gateway(addrs.clone(), None);

    // The job under test: a small program with a known direct verdict.
    let job = selection().into_iter().next().expect("suite is non-empty");
    let direct1 = c4_service::run_analysis(job.source, &features(1)).expect("direct run");
    let direct4 = c4_service::run_analysis(job.source, &features(4)).expect("direct run");
    assert_eq!(direct1.encode_report(), direct4.encode_report());
    let expected = direct1.encode_report();

    // Occupy the owning backend's single worker with the largest suite
    // program, submitted directly (not through the gateway), so the
    // gateway-routed job is pinned in flight behind it when we kill.
    let point = c4_service::cache_key(job.source, &features(1)).expect("key").ring_point();
    let ring = Ring::new(&addrs, GatewayConfig::default().vnodes);
    let primary = ring.primary(point).expect("ring routes");
    let blocker = c4_suite::benchmarks()
        .into_iter()
        .max_by_key(|b| b.paper.t * b.paper.e)
        .expect("suite is non-empty");
    let primary_client = Client::new(Endpoint::Tcp(addrs[primary].clone()));
    let blocker_id = primary_client.submit(blocker.source, &features(1)).expect("blocker");
    poll_until(Duration::from_secs(30), "blocker to start running", || {
        matches!(primary_client.status(blocker_id), Ok(JobState::Running)).then_some(())
    });

    // Route the job through the gateway; once the gateway reports it
    // Running, the owning backend has acknowledged the forward.
    let gw_id = client.submit(job.source, &features(1)).expect("gateway submit");
    poll_until(Duration::from_secs(30), "forward to be acknowledged", || {
        matches!(client.status(gw_id), Ok(JobState::Running)).then_some(())
    });

    // The blocker must still hold the worker, or the job is no longer
    // queued behind it and the kill would not land mid-job.
    assert!(
        matches!(primary_client.status(blocker_id), Ok(JobState::Running)),
        "the blocker finished before the kill; pick a heavier blocker"
    );

    // Kill the owner abruptly, mid-job.
    backends[primary].child.kill().expect("kill primary");
    let _ = backends[primary].child.wait();

    // The gateway notices the dead link, retries onto the survivor,
    // and the verdict is bit-for-bit the direct one.
    let state = poll_until(Duration::from_secs(300), "retried job to finish", || {
        match client.status(gw_id).expect("gateway status") {
            JobState::Queued | JobState::Running => None,
            terminal => Some(terminal),
        }
    });
    match state {
        JobState::Done { report, .. } => {
            assert_eq!(report, expected, "report after failover differs from direct analysis");
        }
        other => panic!("expected a verdict after failover, got {other:?}"),
    }
    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        counter_sum(&metrics, "c4gw_retries_total", None) >= 1,
        "the failover must be a recorded retry"
    );

    client.shutdown().expect("gateway shutdown");
    gateway.wait();
    drop(backends); // kills the survivor
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Backpressure: a backend whose queue is full answers `Busy`, and the
/// gateway surfaces it to a waiting client as the same typed
/// retry-after (mapped by the client library to a clean `WouldBlock`
/// error, never a panic or a hang).
#[test]
fn full_backend_queue_surfaces_as_typed_retry_after_through_the_gateway() {
    let dir = tmp_dir("busy");
    let (backend, addr) = start_backend(&dir, 1, 1);
    let (gateway, client) = start_gateway(vec![addr.clone()], None);
    let direct = Client::new(Endpoint::Tcp(addr));

    // Fill the backend directly: one running + one queued = at capacity.
    let mut big = c4_suite::benchmarks();
    big.sort_by_key(|b| std::cmp::Reverse(b.paper.t * b.paper.e));
    let b1 = direct.submit(big[0].source, &features(1)).expect("blocker 1");
    // The one queue slot is free only once the worker has claimed b1.
    poll_until(Duration::from_secs(30), "blocker 1 to start running", || {
        matches!(direct.status(b1), Ok(JobState::Running)).then_some(())
    });
    let b2 = direct.submit(big[1].source, &features(1)).expect("blocker 2");
    poll_until(Duration::from_secs(30), "backend queue to fill", || {
        let s = direct.stats().expect("backend stats");
        (s.running == 1 && s.queue_len == 1).then_some(())
    });

    // A third program through the gateway: typed busy, not an opaque
    // failure. The default client config does not retry.
    let err = client
        .submit_wait(big[2].source, &features(1))
        .expect_err("a full queue must surface as an error");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "busy maps to WouldBlock: {err}");
    let msg = err.to_string();
    assert!(msg.contains("retry after"), "busy error carries the retry hint: {msg}");
    // The queue must still have been full when the busy answer came:
    // b1 running, b2 queued behind it.
    assert!(
        matches!(direct.status(b1), Ok(JobState::Running)),
        "blocker 1 finished before the busy check; pick heavier blockers"
    );
    assert!(
        matches!(direct.status(b2), Ok(JobState::Queued)),
        "blocker 2 left the queue before the busy check; pick heavier blockers"
    );
    let metrics = client.metrics().expect("gateway metrics");
    assert_eq!(counter_sum(&metrics, "c4gw_busy_total", None), 1);

    // A client configured to retry rides out the backpressure once the
    // backend drains (cancel both blockers; the running one stops at
    // its next cooperative cancellation point).
    assert!(direct.cancel(b2).expect("cancel queued blocker"), "queued job cancels");
    direct.cancel(b1).expect("cancel running blocker");
    let retrying = Client::with_config(
        Endpoint::Tcp(gateway.tcp_addr.clone().expect("tcp bound")),
        c4_service::client::ClientConfig {
            retries: 10,
            retry_backoff: Duration::from_millis(100),
            ..c4_service::client::ClientConfig::default()
        },
    );
    let expected = c4_service::run_analysis(big[2].source, &features(1))
        .expect("direct run")
        .encode_report();
    let (_, state) = retrying.submit_wait(big[2].source, &features(1)).expect("retried submit");
    match state {
        JobState::Done { report, .. } => assert_eq!(report, expected),
        other => panic!("expected a verdict after retrying past busy, got {other:?}"),
    }

    poll_until(Duration::from_secs(120), "blockers to reach terminal states", || {
        let s1 = direct.status(b1).expect("status");
        let s2 = direct.status(b2).expect("status");
        (!matches!(s1, JobState::Queued | JobState::Running)
            && !matches!(s2, JobState::Queued | JobState::Running))
        .then_some(())
    });
    client.shutdown().expect("gateway shutdown");
    gateway.wait();
    direct.shutdown().expect("backend shutdown");
    backend.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hedging: with an aggressive hedge timer both backends race the same
/// job; the first terminal verdict wins, the loser is cancelled, and
/// the winning bytes are — by content-addressed determinism — the
/// direct bytes, so hedging is unobservable in the report.
#[test]
fn hedged_requests_return_the_direct_bytes_and_record_the_hedge() {
    let (dir_a, dir_b) = (tmp_dir("hedge-a"), tmp_dir("hedge-b"));
    let (backend_a, addr_a) = start_backend(&dir_a, 1, 64);
    let (backend_b, addr_b) = start_backend(&dir_b, 1, 64);
    let (gateway, client) =
        start_gateway(vec![addr_a.clone(), addr_b.clone()], Some(Duration::from_millis(1)));

    // Any analysis outlives a 1ms hedge timer by orders of magnitude,
    // so the hedge reliably fires while the primary is computing.
    let bench = selection()
        .into_iter()
        .max_by_key(|b| b.paper.t * b.paper.e)
        .expect("suite is non-empty");
    let expected =
        c4_service::run_analysis(bench.source, &features(1)).expect("direct run").encode_report();
    let (tier, report) = served_report(&client, bench.source, &features(1));
    assert_eq!(tier, CacheTier::Miss, "both racers compute; the winner's tier is a miss");
    assert_eq!(report, expected, "hedged report differs from direct analysis");

    let metrics = client.metrics().expect("gateway metrics");
    assert!(
        counter_sum(&metrics, "c4gw_hedges_total", None) >= 1,
        "the race must be a recorded hedge"
    );
    let stats = client.stats().expect("gateway stats");
    assert_eq!(stats.completed, 1, "one verdict for one submission, however many racers");

    client.shutdown().expect("gateway shutdown");
    gateway.wait();
    for (handle, addr) in [(backend_a, addr_a), (backend_b, addr_b)] {
        Client::new(Endpoint::Tcp(addr)).shutdown().expect("backend shutdown");
        handle.wait();
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
