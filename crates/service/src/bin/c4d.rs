//! `c4d` — the persistent analysis daemon.
//!
//! ```text
//! c4d [--socket PATH] [--tcp ADDR] [--cache-dir DIR]
//!     [--jobs N] [--queue-cap N] [--mem-cache N]
//!     [--metrics-addr ADDR] [--trace-ring]
//!     [--flight-dir DIR] [--flight-cap N] [--flight-latency-ms MS]
//! ```
//!
//! With no listener flag, listens on `$C4D_SOCKET` or `/tmp/c4d.sock`.
//! `--metrics-addr` additionally serves the Prometheus text-format
//! metrics page over HTTP at `/metrics` (`:0` picks a free port; the
//! resolved address is printed at startup). `--trace-ring` keeps the
//! recorder ring armed so sampled requests leave pipeline spans
//! behind for `RingDump`/`ClusterTrace` pulls. `--flight-dir` makes
//! flight-recorder anomalies (busy rejections, over-threshold latency
//! per `--flight-latency-ms`) dump the last `--flight-cap` request
//! timelines as JSONL into DIR. Runs until a client sends `shutdown`;
//! exits 0 after draining all admitted jobs and flushing the cache
//! index.

use std::path::PathBuf;
use std::process::exit;

use c4_service::server::{serve, ServerConfig};

fn default_socket() -> PathBuf {
    std::env::var_os("C4D_SOCKET").map(PathBuf::from).unwrap_or_else(|| "/tmp/c4d.sock".into())
}

fn usage() -> ! {
    eprintln!(
        "usage: c4d [--socket PATH] [--tcp ADDR] [--cache-dir DIR] \
         [--jobs N] [--queue-cap N] [--mem-cache N] [--metrics-addr ADDR] \
         [--trace-ring] [--flight-dir DIR] [--flight-cap N] \
         [--flight-latency-ms MS]"
    );
    exit(2)
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut explicit_listener = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            exit(2)
        });
        match a.as_str() {
            "--socket" => {
                cfg.unix_socket = Some(PathBuf::from(value("--socket")));
                explicit_listener = true;
            }
            "--tcp" => {
                cfg.tcp = Some(value("--tcp"));
                explicit_listener = true;
            }
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--jobs" => cfg.workers = parse_num(&value("--jobs"), "--jobs"),
            "--queue-cap" => cfg.queue_cap = parse_num(&value("--queue-cap"), "--queue-cap"),
            "--mem-cache" => cfg.mem_cache = parse_num(&value("--mem-cache"), "--mem-cache"),
            "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")),
            "--trace-ring" => cfg.trace_ring = true,
            "--flight-dir" => cfg.flight_dir = Some(PathBuf::from(value("--flight-dir"))),
            "--flight-cap" => cfg.flight_cap = parse_num(&value("--flight-cap"), "--flight-cap"),
            "--flight-latency-ms" => {
                cfg.flight_latency_ms =
                    parse_num(&value("--flight-latency-ms"), "--flight-latency-ms") as u64
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other}");
                usage()
            }
        }
    }
    if !explicit_listener {
        cfg.unix_socket = Some(default_socket());
    }

    let handle = match serve(cfg.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("c4d: failed to start: {e}");
            exit(1)
        }
    };
    if let Some(path) = &cfg.unix_socket {
        println!("c4d listening on unix socket {}", path.display());
    }
    if let Some(addr) = &handle.tcp_addr {
        println!("c4d listening on tcp {addr}");
    }
    if let Some(addr) = &handle.metrics_addr {
        println!("c4d metrics on http://{addr}/metrics");
    }
    match &cfg.cache_dir {
        Some(dir) => println!("c4d cache dir {}", dir.display()),
        None => println!("c4d cache memory-only"),
    }
    println!("c4d ready ({} worker(s), queue capacity {})", cfg.workers.max(1), cfg.queue_cap);
    handle.wait();
    println!("c4d shut down cleanly");
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a number, got {s}");
        exit(2)
    })
}
