//! The in-process cluster harness shared by `gateway_cluster.rs` and
//! `serving_soak.rs`: `c4d` backends and a `c4-gateway` on ephemeral
//! TCP ports, plus helpers for served reports and metrics pages.

// Each test file uses its own part of this module.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use c4::{AnalysisFeatures, CacheTier};
use c4_gateway::{serve as serve_gateway, GatewayConfig, GatewayHandle};
use c4_service::client::{Client, Endpoint};
use c4_service::proto::JobState;
use c4_service::server::{serve, ServerConfig, ServerHandle};

pub fn features(parallelism: usize) -> AnalysisFeatures {
    AnalysisFeatures { parallelism, ..AnalysisFeatures::default() }
}

/// Same debug-build bound as the daemon differential suite.
pub fn selection() -> Vec<c4_suite::Benchmark> {
    let mut bs = c4_suite::benchmarks();
    if cfg!(debug_assertions) {
        bs.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    bs
}

pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c4gw-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn start_backend(cache_dir: &Path, workers: usize, queue_cap: usize) -> (ServerHandle, String) {
    let handle = serve(ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        cache_dir: Some(cache_dir.to_path_buf()),
        workers,
        queue_cap,
        ..ServerConfig::default()
    })
    .expect("backend starts");
    let addr = handle.tcp_addr.clone().expect("tcp bound");
    (handle, addr)
}

pub fn start_gateway(
    backends: Vec<String>,
    hedge_after: Option<Duration>,
) -> (GatewayHandle, Client) {
    let handle = serve_gateway(GatewayConfig {
        tcp: Some("127.0.0.1:0".into()),
        backends,
        hedge_after,
        retry_backoff: Duration::from_millis(50),
        health_interval: Duration::from_millis(100),
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let client = Client::new(Endpoint::Tcp(handle.tcp_addr.clone().expect("tcp bound")));
    (handle, client)
}

pub fn served_report(client: &Client, source: &str, f: &AnalysisFeatures) -> (CacheTier, Vec<u8>) {
    let (_, state) = client.submit_wait(source, f).expect("submit");
    match state {
        JobState::Done { tier, report, .. } => (tier, report),
        other => panic!("expected a verdict, got {other:?}"),
    }
}

/// Sums a labeled counter family in a Prometheus page, optionally
/// restricted to one `backend="..."` label value.
pub fn counter_sum(metrics: &str, family: &str, backend: Option<&str>) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter(|l| backend.is_none_or(|b| l.contains(&format!("backend=\"{b}\""))))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}
