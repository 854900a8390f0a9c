//! `c4` — thin client for the `c4d` analysis daemon.
//!
//! ```text
//! c4 [--socket PATH | --tcp ADDR] [--connect-timeout MS] [--retry N]
//!    <command>
//!
//! c4 ... submit [--no-wait] [--timing] [--budget S]
//!        [--threads N] [--max-k K] [--out FILE] FILE
//! c4 ... status [--out FILE] JOB
//! c4 ... cancel JOB
//! c4 ... stats
//! c4 ... health
//! c4 ... metrics
//! c4 ... trace [--budget S] [--threads N]
//!        [--max-k K] [--out FILE] --trace-out FILE FILE
//! c4 ... trace --cluster --trace-out FILE
//! c4 ... shutdown
//! ```
//!
//! `--connect-timeout MS` bounds TCP connection establishment;
//! `--retry N` retries refused/reset/dropped connections N times (with
//! a short backoff) and honors the daemon's typed busy backpressure by
//! sleeping out its retry-after hint before resubmitting. Both default
//! off; all connection failures exit 1 with a message, never a panic.
//!
//! `--out FILE` writes the raw encoded report bytes (the cache-stable
//! wire format) so scripts can compare daemon-served verdicts
//! byte-for-byte. `metrics` prints the daemon's Prometheus text page
//! (the same document its `--metrics-addr` HTTP listener serves);
//! `trace` analyzes a program synchronously with structured tracing
//! enabled and writes the recorded JSONL trace to `--trace-out`
//! (tracing is verdict-neutral — the report equals an untraced run's).
//! `trace --cluster` instead asks the peer for one merged cluster
//! trace: against a gateway that is its own recorder ring plus every
//! connected backend's, clock-offset corrected onto the gateway's
//! timeline; against a bare daemon, its single ring. `submit --timing`
//! prints the per-request timing summary the peer rides back on the
//! verdict — trace id, winning backend, gateway time, failover/hedge
//! counts, and per-stage pipeline milliseconds on a computed miss.
//! Exit status: 0 on success (including a `done` job), 3 if the job
//! was cancelled or failed, 1 on connection/daemon errors, 2 on usage
//! errors.

use std::path::PathBuf;
use std::process::exit;

use c4::{AnalysisFeatures, AnalysisResult};
use c4_service::client::{Client, ClientConfig, Endpoint};
use c4_service::proto::JobState;

fn default_socket() -> PathBuf {
    std::env::var_os("C4D_SOCKET").map(PathBuf::from).unwrap_or_else(|| "/tmp/c4d.sock".into())
}

fn usage() -> ! {
    eprintln!(
        "usage: c4 [--socket PATH | --tcp ADDR] [--connect-timeout MS] \
         [--retry N] <command>\n\
         commands:\n\
         \x20 submit [--no-wait] [--timing] [--budget S] [--threads N] [--max-k K] \
         [--out FILE] FILE\n\
         \x20 status [--out FILE] JOB\n\
         \x20 cancel JOB\n\
         \x20 stats\n\
         \x20 health\n\
         \x20 metrics\n\
         \x20 trace [--budget S] [--threads N] [--max-k K] [--out FILE] \
         --trace-out FILE FILE\n\
         \x20 trace --cluster --trace-out FILE\n\
         \x20 shutdown"
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("c4: {msg}");
    exit(1)
}

fn main() {
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ClientConfig::default();
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Global endpoint/resilience flags come before the command.
    while let Some(first) = args.first().cloned() {
        match first.as_str() {
            "--socket" => {
                if args.len() < 2 {
                    usage()
                }
                endpoint = Some(Endpoint::Unix(PathBuf::from(args.remove(1))));
                args.remove(0);
            }
            "--tcp" => {
                if args.len() < 2 {
                    usage()
                }
                endpoint = Some(Endpoint::Tcp(args.remove(1)));
                args.remove(0);
            }
            "--connect-timeout" => {
                if args.len() < 2 {
                    usage()
                }
                let ms: u64 = args.remove(1).parse().unwrap_or_else(|_| {
                    eprintln!("error: --connect-timeout needs a number of milliseconds");
                    exit(2)
                });
                config.connect_timeout = Some(std::time::Duration::from_millis(ms.max(1)));
                args.remove(0);
            }
            "--retry" => {
                if args.len() < 2 {
                    usage()
                }
                config.retries = args.remove(1).parse().unwrap_or_else(|_| {
                    eprintln!("error: --retry needs a number");
                    exit(2)
                });
                args.remove(0);
            }
            _ => break,
        }
    }
    let client = Client::with_config(
        endpoint.unwrap_or_else(|| Endpoint::Unix(default_socket())),
        config,
    );
    if args.is_empty() {
        usage()
    }
    let command = args.remove(0);
    match command.as_str() {
        "submit" => submit(&client, args),
        "status" => status(&client, args),
        "cancel" => cancel(&client, args),
        "stats" => stats(&client),
        "health" => health(&client),
        "metrics" => match client.metrics() {
            Ok(text) => print!("{text}"),
            Err(e) => fail(e),
        },
        "trace" => trace(&client, args),
        "shutdown" => match client.shutdown() {
            Ok(()) => println!("daemon drained and shut down"),
            Err(e) => fail(e),
        },
        _ => usage(),
    }
}

fn submit(client: &Client, mut args: Vec<String>) {
    let mut features = AnalysisFeatures::default();
    let mut wait = true;
    let mut timing = false;
    let mut out: Option<PathBuf> = None;
    let mut file: Option<String> = None;
    while let Some(a) = pop(&mut args) {
        match a.as_str() {
            "--no-wait" => wait = false,
            "--timing" => timing = true,
            "--budget" => features.time_budget_secs = num(&mut args, "--budget"),
            "--threads" => features.parallelism = num(&mut args, "--threads"),
            "--max-k" => features.max_k = num(&mut args, "--max-k"),
            "--out" => out = Some(PathBuf::from(required(&mut args, "--out"))),
            other if !other.starts_with('-') && file.is_none() => file = Some(a),
            _ => usage(),
        }
    }
    let file = file.unwrap_or_else(|| usage());
    let source =
        std::fs::read_to_string(&file).unwrap_or_else(|e| fail(format!("reading {file}: {e}")));
    if wait {
        match client.submit_wait(&source, &features) {
            Ok((job_id, state)) => {
                println!("job {job_id}");
                if timing {
                    print_timing(&state);
                }
                print_state(&state, out.as_deref());
            }
            Err(e) => fail(e),
        }
    } else {
        match client.submit(&source, &features) {
            Ok(job_id) => println!("job {job_id}"),
            Err(e) => fail(e),
        }
    }
}

/// The `--timing` breakdown: the per-request summary the peer rides
/// back on the verdict. Non-`Done` outcomes have none to print.
fn print_timing(state: &JobState) {
    let timing = match state {
        JobState::Done { timing: Some(t), .. } => t,
        JobState::Done { timing: None, .. } => {
            println!("timing: unavailable");
            return;
        }
        _ => return,
    };
    let backend = if timing.backend.is_empty() { "direct" } else { &timing.backend };
    println!(
        "timing: trace {:#018x} via {backend} (gateway {} ms, retries {}, hedged {})",
        timing.trace_id,
        timing.gateway_ms,
        timing.retries,
        if timing.hedged { "yes" } else { "no" },
    );
    for (stage, ms) in &timing.stages {
        println!("  {stage:<14} {ms} ms");
    }
}

fn trace(client: &Client, mut args: Vec<String>) {
    let mut features = AnalysisFeatures::default();
    let mut cluster = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut file: Option<String> = None;
    while let Some(a) = pop(&mut args) {
        match a.as_str() {
            "--cluster" => cluster = true,
            "--budget" => features.time_budget_secs = num(&mut args, "--budget"),
            "--threads" => features.parallelism = num(&mut args, "--threads"),
            "--max-k" => features.max_k = num(&mut args, "--max-k"),
            "--out" => out = Some(PathBuf::from(required(&mut args, "--out"))),
            "--trace-out" => trace_out = Some(PathBuf::from(required(&mut args, "--trace-out"))),
            other if !other.starts_with('-') && file.is_none() => file = Some(a),
            _ => usage(),
        }
    }
    if cluster {
        if file.is_some() {
            usage()
        }
        let trace_out = trace_out.unwrap_or_else(|| usage());
        let trace = match client.cluster_trace() {
            Ok(t) => t,
            Err(e) => fail(e),
        };
        std::fs::write(&trace_out, &trace)
            .unwrap_or_else(|e| fail(format!("writing {}: {e}", trace_out.display())));
        println!("cluster trace: {} lines -> {}", trace.lines().count(), trace_out.display());
        return;
    }
    let file = file.unwrap_or_else(|| usage());
    let trace_out = trace_out.unwrap_or_else(|| usage());
    let source =
        std::fs::read_to_string(&file).unwrap_or_else(|e| fail(format!("reading {file}: {e}")));
    let (report, trace) = match client.trace(&source, &features) {
        Ok(r) => r,
        Err(e) => fail(e),
    };
    std::fs::write(&trace_out, &trace)
        .unwrap_or_else(|e| fail(format!("writing {}: {e}", trace_out.display())));
    println!("trace: {} events -> {}", trace.lines().count(), trace_out.display());
    print_report(&report, out.as_deref());
}

fn status(client: &Client, mut args: Vec<String>) {
    let mut out: Option<PathBuf> = None;
    let mut job: Option<u64> = None;
    while let Some(a) = pop(&mut args) {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(required(&mut args, "--out"))),
            _ if job.is_none() => job = a.parse().ok().or_else(|| usage()),
            _ => usage(),
        }
    }
    let job = job.unwrap_or_else(|| usage());
    match client.status(job) {
        Ok(state) => {
            println!("job {job}");
            print_state(&state, out.as_deref());
        }
        Err(e) => fail(e),
    }
}

fn cancel(client: &Client, mut args: Vec<String>) {
    let job: u64 = pop(&mut args).and_then(|a| a.parse().ok()).unwrap_or_else(|| usage());
    match client.cancel(job) {
        Ok(true) => println!("job {job} cancelled"),
        Ok(false) => {
            println!("job {job} not cancellable (unknown or already finished)");
            exit(3)
        }
        Err(e) => fail(e),
    }
}

fn stats(client: &Client) {
    let s = match client.stats() {
        Ok(s) => s,
        Err(e) => fail(e),
    };
    println!("uptime_ms        {}", s.uptime_ms);
    println!("submitted        {}", s.submitted);
    println!("completed        {}", s.completed);
    println!("cancelled        {}", s.cancelled);
    println!("failed           {}", s.failed);
    println!("rejected         {}", s.rejected);
    println!("queue            {}/{} (running {})", s.queue_len, s.queue_cap, s.running);
    println!("workers          {}", s.workers);
    println!(
        "cache hits       {} memory, {} disk; misses {}",
        s.cache_mem_hits, s.cache_disk_hits, s.cache_misses
    );
    println!(
        "cache entries    {} memory, {} disk (stores {}, evictions {}, stale drops {})",
        s.cache_mem_entries, s.cache_disk_entries, s.cache_stores, s.cache_evictions,
        s.cache_stale_drops
    );
    println!(
        "queue wait ms    p50 {} / p95 {} / max {}",
        s.wait_p50_ms, s.wait_p95_ms, s.wait_max_ms
    );
    println!(
        "run time ms      p50 {} / p95 {} / max {}",
        s.run_p50_ms, s.run_p95_ms, s.run_max_ms
    );
}

fn health(client: &Client) {
    let h = match client.health() {
        Ok(h) => h,
        Err(e) => fail(e),
    };
    println!("accepting        {}", h.accepting);
    println!("queue            {}/{} (running {})", h.queue_len, h.queue_cap, h.running);
    println!("workers          {}", h.workers);
    println!("uptime_ms        {}", h.uptime_ms);
    if !h.accepting {
        exit(3)
    }
}

fn print_state(state: &JobState, out: Option<&std::path::Path>) {
    match state {
        JobState::Queued => println!("state: queued"),
        JobState::Running => println!("state: running"),
        JobState::Done { tier, queue_ms, run_ms, report, .. } => {
            println!("state: done ({tier}, queued {queue_ms} ms, ran {run_ms} ms)");
            print_report(report, out);
        }
        JobState::Cancelled => {
            println!("state: cancelled");
            exit(3)
        }
        JobState::Failed { message } => {
            println!("state: failed ({message})");
            exit(3)
        }
    }
}

fn print_report(report: &[u8], out: Option<&std::path::Path>) {
    if let Some(path) = out {
        std::fs::write(path, report)
            .unwrap_or_else(|e| fail(format!("writing {}: {e}", path.display())));
        println!("report: {} bytes -> {}", report.len(), path.display());
    }
    match AnalysisResult::decode_report(report) {
        Ok(res) => {
            if res.violations.is_empty() {
                println!("verdict: serializable (bound k={})", res.max_k);
            } else {
                println!(
                    "verdict: {} violation(s){} (bound k={})",
                    res.violations.len(),
                    if res.generalized { ", generalized" } else { "" },
                    res.max_k
                );
                for v in &res.violations {
                    println!("  {v}");
                }
            }
            if res.stats.deadline_hit {
                println!("note: time budget hit; verdict is a lower bound");
            }
        }
        Err(e) => fail(format!("undecodable report: {e}")),
    }
}

fn pop(args: &mut Vec<String>) -> Option<String> {
    if args.is_empty() {
        None
    } else {
        Some(args.remove(0))
    }
}

fn required(args: &mut Vec<String>, flag: &str) -> String {
    pop(args).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        exit(2)
    })
}

fn num<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> T {
    required(args, flag).parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a number");
        exit(2)
    })
}
