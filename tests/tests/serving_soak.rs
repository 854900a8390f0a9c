//! Bounded serving state under a soak: both tiers retire terminal jobs
//! into a fixed window (`c4_service::job::RETIRE_WINDOW`), so after
//! several windows' worth of requests their job tables hold at most a
//! window, every verdict is still byte-identical to a direct
//! `run_analysis`, the oldest jobs answer `unknown job`, and the newest
//! still answer `Done` with the same bytes.
//!
//! Hedging makes losing attempts. One gateway hedges after 1 ms over
//! two real backends, so losers are cancelled and echo back. A second
//! gateway hedges onto a stalled backend (a listener that never
//! accepts), so one job's losing attempt stays live through the whole
//! soak: the job must stay answerable until that attempt settles, and
//! every in-flight count must return to zero once it does.

mod cluster;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use c4::AnalysisFeatures;
use c4_service::client::{Client, Endpoint};
use c4_service::job::RETIRE_WINDOW;
use c4_service::proto::JobState;
use cluster::{
    counter_sum, features, selection, served_report, start_backend, start_gateway, tmp_dir,
};

/// Warm requests per path: three windows, so each tier forgets at
/// least two windows of jobs.
const SOAK: usize = 3 * RETIRE_WINDOW;

fn done_report(state: JobState) -> Vec<u8> {
    match state {
        JobState::Done { report, .. } => report,
        other => panic!("expected a verdict, got {other:?}"),
    }
}

/// Polls `client`'s metrics page until `ok` holds for it.
fn poll_metrics(client: &Client, what: &str, ok: impl Fn(&str) -> bool) -> String {
    let start = Instant::now();
    loop {
        let page = client.metrics().expect("metrics page");
        if ok(&page) {
            return page;
        }
        assert!(start.elapsed() < Duration::from_secs(60), "timed out waiting for {what}:\n{page}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn assert_forgotten(client: &Client, job_id: u64, tier: &str) {
    let err = client.status(job_id).expect_err("a forgotten job has no status");
    assert_eq!(err.to_string(), format!("unknown job {job_id}"), "{tier}");
    assert!(!client.cancel(job_id).expect("cancel answers"), "{tier}: forgotten job cancelled");
}

fn assert_settled(client: &Client, tier: &str) {
    let page = poll_metrics(client, &format!("{tier} to settle every attempt"), |m| {
        counter_sum(m, "c4gw_backend_inflight", None) == 0
            && counter_sum(m, "c4gw_remote_attempts", None) == 0
    });
    let retained = counter_sum(&page, "c4gw_jobs_retained", None);
    assert!(retained <= RETIRE_WINDOW as u64, "{tier} retains {retained} jobs");
}

#[test]
fn job_tables_stay_bounded_under_warm_and_hedged_load() {
    let dirs = [tmp_dir("soak-a"), tmp_dir("soak-b")];
    let (backend_a, addr_a) = start_backend(&dirs[0], 1, 64);
    let (backend_b, addr_b) = start_backend(&dirs[1], 1, 64);
    let direct = [&addr_a, &addr_b].map(|a| Client::new(Endpoint::Tcp(a.clone())));
    let (gateway, gw) =
        start_gateway(vec![addr_a.clone(), addr_b.clone()], Some(Duration::from_millis(1)));
    // The stalled backend: connections complete in the listen backlog,
    // but nothing ever reads them, so probes time out (unhealthy) and a
    // forward placed there is never answered.
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind stalled backend");
    let stalled_addr = stalled.local_addr().expect("bound").to_string();
    let (gateway2, gw2) =
        start_gateway(vec![addr_a.clone(), stalled_addr.clone()], Some(Duration::from_millis(50)));

    // Warm traffic uses the four smallest programs; the largest of the
    // selection outlives a 1 ms hedge timer by orders of magnitude.
    let mut programs = selection();
    programs.sort_by_key(|b| b.paper.t * b.paper.e);
    let race = programs.pop().expect("suite is non-empty");
    programs.truncate(4);
    let expected = |source: &str| {
        c4_service::run_analysis(source, &features(1)).expect("direct run").encode_report()
    };
    let warm: Vec<(&str, Vec<u8>)> =
        programs.iter().map(|b| (b.source, expected(b.source))).collect();

    // Hedged round: every program cold through the first gateway, so
    // the slow ones race both backends and the losers are cancelled.
    for (source, want) in std::iter::once((race.source, expected(race.source)))
        .chain(warm.iter().map(|(s, r)| (*s, r.clone())))
    {
        let (_, report) = served_report(&gw, source, &features(1));
        assert_eq!(report, want, "hedged report differs from direct analysis");
    }
    let page = gw.metrics().expect("gateway metrics");
    assert!(counter_sum(&page, "c4gw_hedges_total", None) >= 1, "no hedge fired");

    // Stalled round: once the second gateway has marked the stalled
    // backend unhealthy, a job held in backend A's queue (behind
    // blockers submitted directly) hedges onto the stalled backend and
    // then wins on A. Its losing attempt stays live.
    poll_metrics(&gw2, "the stalled backend to fail its probe", |m| {
        counter_sum(m, "c4gw_backend_healthy", Some(&stalled_addr)) == 0
    });
    // Three cold runs of the heaviest program (bounds no other request
    // uses) hold A's single worker far longer than the hedge delay.
    let heavy = c4_suite::benchmark("Relatd").expect("suite has Relatd");
    let blockers: Vec<u64> = (5..8)
        .map(|max_k| direct[0].submit(heavy.source, &AnalysisFeatures { max_k, ..features(1) }))
        .collect::<Result<_, _>>()
        .expect("blockers");
    let (pinned_source, pinned_report) = &warm[0];
    let pinned = gw2.submit(pinned_source, &features(1)).expect("gateway submit");
    poll_metrics(&gw2, "the hedge onto the stalled backend", |m| {
        counter_sum(m, "c4gw_hedges_total", Some(&stalled_addr)) == 1
    });
    for id in blockers {
        direct[0].cancel(id).expect("cancel a blocker");
    }
    let start = Instant::now();
    while matches!(gw2.status(pinned).expect("pinned status"), JobState::Queued | JobState::Running)
    {
        assert!(start.elapsed() < Duration::from_secs(60), "pinned job never finished");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Soak: every request once direct (alternating backends) and once
    // through each gateway.
    let mut last_direct = [0u64; 2];
    let mut last_gw = 0;
    for i in 0..SOAK {
        let (source, want) = &warm[i % warm.len()];
        let (id, state) = direct[i % 2].submit_wait(source, &features(1)).expect("direct submit");
        assert_eq!(&done_report(state), want, "direct request {i} differs");
        last_direct[i % 2] = id;
        for (g, client) in [&gw, &gw2].into_iter().enumerate() {
            let (id, state) = client.submit_wait(source, &features(1)).expect("gateway submit");
            assert_eq!(&done_report(state), want, "gateway {g} request {i} differs");
            if g == 0 {
                last_gw = id;
            }
        }
    }

    // Three windows later the pinned job is still answerable: a job is
    // retired only once its last attempt has settled. Releasing the
    // stalled backend fails that attempt, which must find its job.
    let state = gw2.status(pinned).expect("a job with a live attempt is kept");
    assert_eq!(&done_report(state), pinned_report);
    drop(stalled);
    assert_settled(&gw2, "the stalled-backend gateway");
    assert_settled(&gw, "the hedging gateway");

    for (i, client) in direct.iter().enumerate() {
        let page = poll_metrics(client, "the backend to finish its hedge losers", |m| {
            counter_sum(m, "c4d_jobs_running", None) == 0
        });
        let retained = counter_sum(&page, "c4d_jobs_retained", None);
        assert!(retained <= RETIRE_WINDOW as u64, "backend {i} retains {retained} jobs");
        assert_forgotten(client, 1, &format!("backend {i}"));
        let latest = client.status(last_direct[i]).expect("latest direct job is retained");
        assert_eq!(&done_report(latest), &warm[(SOAK - 2 + i) % warm.len()].1);
    }
    assert_forgotten(&gw, 1, "gateway");
    let latest = gw.status(last_gw).expect("latest gateway job is retained");
    assert_eq!(&done_report(latest), &warm[(SOAK - 1) % warm.len()].1);

    for (client, handle) in [(gw, gateway), (gw2, gateway2)] {
        client.shutdown().expect("gateway shutdown");
        handle.wait();
    }
    for (client, handle) in direct.iter().zip([backend_a, backend_b]) {
        client.shutdown().expect("backend shutdown");
        handle.wait();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
