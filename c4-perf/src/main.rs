//! `c4-perf`: one benchmark for the C4 system's end-to-end and per-layer
//! numbers, with every answer checked against a known-answer oracle.
//!
//! ```text
//! c4-perf run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!             [--sets N] [--smoke] [--out FILE]
//! ```
//!
//! With `--workload`, the workload runs in this process and the last line
//! of stdout is its result as one JSON object. Without it, every workload
//! of `BENCHMARK.json` runs in a child process of its own (so set-up time
//! and peak memory are per workload), `--sets` times over; with two or
//! more sets, each end-to-end metric's relative difference between the
//! first two sets is compared with the metric's bound, and the exit code
//! is nonzero if any exceeds it. The workloads, metrics, units and bounds
//! are read from `BENCHMARK.json` at the repository root.

mod heap;
mod json;
mod layers;
mod mc;
mod measure;
mod oracle;
mod serve;
mod speed;
mod stats;
mod suite;
mod variant;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use measure::{Opts, Outcome, DEFAULT_SEED};

const SPEC: &str = include_str!("../../BENCHMARK.json");

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

struct MetricSpec {
    name: String,
    unit: String,
    /// End-to-end metrics only: how much worse a later commit may be.
    bound: Option<f64>,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
    run_seconds: f64,
}

fn spec() -> Spec {
    let v = json::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<MetricSpec> {
        v.get(key)
            .expect("BENCHMARK.json lists metrics")
            .as_array()
            .iter()
            .map(|m| MetricSpec {
                name: m
                    .get("name")
                    .and_then(json::Value::as_str)
                    .expect("metric name")
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(json::Value::as_str)
                    .expect("metric unit")
                    .to_string(),
                bound: m.get("bound").and_then(json::Value::as_f64),
            })
            .collect()
    };
    Spec {
        workloads: v
            .get("workloads")
            .expect("BENCHMARK.json lists workloads")
            .as_array()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .expect("workload name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
        run_seconds: v
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .expect("run_seconds"),
    }
}

struct Args {
    workload: Option<String>,
    opts: Opts,
    sets: usize,
    out: Option<String>,
}

/// `BENCHMARK.json`'s `command` is run with `--workload W --seed S
/// --seconds N --trace 0|1` appended, so `--seconds` and the valued form
/// of `--trace` are part of the benchmark's interface; a bare `--trace`
/// is the short form.
fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    if args.next().as_deref() != Some("run") {
        return Err(
            "usage: c4-perf run [--workload W] [--seed S] [--seconds N] \
                    [--trace [0|1]] [--sets N] [--smoke] [--out FILE]"
                .into(),
        );
    }
    let (mut workload, mut seconds, mut out) = (None, None, None);
    let (mut seed, mut sets, mut trace, mut smoke) = (DEFAULT_SEED, 1, false, false);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--sets" => {
                sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--out" => out = Some(value("--out")?),
            "--smoke" => smoke = true,
            "--trace" => {
                let explicit = matches!(args.peek().map(String::as_str), Some("0" | "1"));
                trace = !explicit || args.next().as_deref() == Some("1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w:?}; BENCHMARK.json has {:?}",
                spec.workloads
            ));
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 2.0 } else { spec.run_seconds });
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            trace,
            smoke,
        },
        sets,
        out,
    })
}

fn run_workload(name: &str, opts: &Opts) -> Outcome {
    let mut out = match name {
        "suite-cold" => suite::run(opts),
        "serve-warm" => serve::run_warm(opts),
        "serve-mixed" => serve::run_mixed(opts),
        "mc-bounded" => mc::run(opts),
        other => {
            panic!("BENCHMARK.json names workload {other:?}, which c4-perf does not implement")
        }
    };
    out.set("peak_heap_mb", heap::peak_mb(), 1);
    out.detail("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    let attempted = out.attempted as usize;
    out.detail(
        "fail_ratio",
        stats::ratio(out.failed as f64, attempted as f64),
        "ratio",
        attempted,
    );
    out
}

/// Prints the metrics a run reports, one per line, then the result line.
fn report(spec: &Spec, name: &str, opts: &Opts, out: &Outcome) {
    let listed = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "c4-perf {name}: seed {} seconds {} trace {}{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { " (smoke)" } else { "" }
    );
    let mut fields = Vec::new();
    for m in listed {
        // A layer the workload does not reach did no work: 0.
        let got = out
            .metrics
            .get(m.name.as_str())
            .copied()
            .unwrap_or(measure::Metric {
                value: 0.0,
                samples: 0,
            });
        println!(
            "  {:<28} {:>14.4} {:<6} (n={})",
            m.name, got.value, m.unit, got.samples
        );
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(&m.name),
            finite(got.value),
            json::quote(&m.unit)
        ));
    }
    for (name, value, unit, n) in &out.details {
        println!("  {:<28} {:>14.4} {:<6} (n={n}, detail)", name, value, unit);
    }
    println!("  checked {} answers, {} failed", out.attempted, out.failed);
    for e in &out.errors {
        eprintln!("c4-perf {name}: FAILED {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    line: String,
}

fn run_child(workload: &str, opts: &Opts) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload]);
    cmd.args(["--seed", &opts.seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string()]);
    if opts.trace {
        cmd.arg("--trace");
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // Oracle mismatches, panics and the port fallback go to stderr.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    // A child whose answers failed still prints its result line.
    let last = stdout.lines().last().unwrap_or_default();
    let v = json::parse(last).map_err(|e| {
        format!(
            "{workload}: exited with {} and no result line ({e})",
            output.status
        )
    })?;
    let metrics = v
        .get("metrics")
        .map(|m| {
            m.as_object()
                .iter()
                .map(|(k, x)| {
                    (
                        k.clone(),
                        x.get("value")
                            .and_then(json::Value::as_f64)
                            .unwrap_or(f64::NAN),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(json::Value::as_bool)
            .unwrap_or(false),
        attempted: v
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0),
        failed: v.get("failed").and_then(json::Value::as_f64).unwrap_or(0.0),
        metrics,
        line: last.to_string(),
    })
}

/// Runs every workload in its own process, `sets` times; compares the
/// first two sets against the end-to-end bounds.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<(String, ChildResult)>> = Vec::new();
    for _ in 0..args.sets.max(1) {
        let mut set = Vec::new();
        for w in &spec.workloads {
            set.push((w.clone(), run_child(w, &args.opts)?));
        }
        sets.push(set);
    }
    let mut ok = sets.iter().flatten().all(|(_, r)| r.correct);
    let attempted: f64 = sets.iter().flatten().map(|(_, r)| r.attempted).sum();
    let failed: f64 = sets.iter().flatten().map(|(_, r)| r.failed).sum();
    if sets.len() >= 2 && !args.opts.trace {
        println!(
            "set-to-set difference of each end-to-end metric, |b - a| / a, against its bound:"
        );
        for ((w, a), (_, b)) in sets[0].iter().zip(&sets[1]) {
            for m in &spec.end_to_end {
                let (x, y) = (a.metrics[&m.name], b.metrics[&m.name]);
                let diff = stats::ratio((y - x).abs(), x.abs());
                let bound = m.bound.unwrap_or(0.0);
                let within = diff <= bound;
                ok &= within;
                println!(
                    "  {w:<12} {:<16} {x:>14.4} {y:>14.4} {:>7.1}% bound {:>5.1}% {}",
                    m.name,
                    diff * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "EXCEEDS" }
                );
            }
        }
    }
    if let Some(path) = &args.out {
        let body: Vec<String> = sets
            .iter()
            .map(|set| {
                let ws: Vec<String> = set
                    .iter()
                    .map(|(w, r)| format!("{}: {}", json::quote(w), r.line))
                    .collect();
                format!("{{{}}}", ws.join(", "))
            })
            .collect();
        let text = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sets\": [{}]}}\n",
            args.opts.seed,
            args.opts.seconds,
            args.opts.trace,
            body.join(", ")
        );
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"sets\": {}}}",
        sets.iter().flatten().all(|(_, r)| r.correct),
        attempted,
        failed,
        sets.len()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = spec();
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("c4-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = &args.workload {
        let out = run_workload(w, &args.opts);
        report(&spec, w, &args.opts, &out);
        return if out.failed == 0 && out.attempted > 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run_all(&spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("c4-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
