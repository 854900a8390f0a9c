//! `mc-bounded`: the dynamic side of the system. Each pass model-checks
//! the EXPERIMENTS rows that finish in under a second (2 sessions, DPOR,
//! one worker, 200 000 executions cap), runs random walks over the same
//! bounded execution trees, and runs the §9.5 randomized exploration
//! (150 runs) on every suite program, in a seeded order. The mc, store
//! and dsg layers do all the work; the static SMT does none (the static
//! signatures the oracle compares against are computed before set-up).

use std::collections::BTreeSet;
use std::time::Instant;

use c4_dynamic::ExploreConfig;
use c4_lang::Program;
use c4_mc::{McConfig, McReport, RandomWalkReport};
use rand::{rngs::StdRng, SeedableRng};

use crate::measure::{features, overhead, passes, repeated_setup, Opts, Outcome, Timings};
use crate::oracle::{self, McRow};
use crate::speed::{self, Span};
use crate::stats::{mean, median, ms, ratio, shuffle};
use crate::suite::SMOKE_PROGRAMS;

const WALKS: u64 = 50;
/// The model-checking rows left out: each call takes over a second at
/// the reference speed (FieldGPS ≈ 1.9 s, Events ≈ 4 s), too long for
/// the speed samples at its ends to follow the speed through it (see
/// `speed`). Over six runs their corrected times had a coefficient of
/// variation of 7 % and 15 %; every shorter row, walk and exploration
/// one of at most 4 %.
const LONG_ROWS: [&str; 2] = ["FieldGPS", "Events"];
/// Smoke runs keep to the rows that check in milliseconds.
const SMOKE_MC_ROWS: usize = 4;

type Sigs = Vec<BTreeSet<String>>;

struct McTarget {
    row: McRow,
    program: Program,
}

struct DynTarget {
    name: &'static str,
    program: Program,
    /// Unfiltered static signatures: every dynamic cycle must contain one.
    unfiltered: Sigs,
    /// Filtered static signatures: the §9.5 counts.
    filtered: Sigs,
}

struct Setup {
    mc: Vec<McTarget>,
    dynamic: Vec<DynTarget>,
}

fn parse(name: &str) -> Program {
    c4_lang::parse(c4_suite::benchmark(name).expect("suite program").source)
        .expect("suite sources parse")
}

/// The programs the dynamic side explores, with their static signatures
/// (computed here, once, before the timed set-ups).
fn static_signatures(opts: &Opts) -> Vec<(&'static str, Sigs, Sigs)> {
    let features = features();
    c4_suite::benchmarks()
        .into_iter()
        .filter(|b| !opts.smoke || SMOKE_PROGRAMS.contains(&b.name))
        .map(|b| {
            let outcome = c4_suite::analyze(&b, &features);
            let sigs = |v: &[(BTreeSet<String>, c4_suite::Class)]| {
                v.iter().map(|(s, _)| s.clone()).collect()
            };
            (b.name, sigs(&outcome.unfiltered), sigs(&outcome.filtered))
        })
        .collect()
}

/// Set-up: parses every program the workload checks or explores.
fn setup(opts: &Opts, signatures: &[(&'static str, Sigs, Sigs)]) -> Setup {
    let mut rows = oracle::mc_rows();
    rows.retain(|r| !LONG_ROWS.contains(&r.name.as_str()));
    if opts.smoke {
        rows.truncate(SMOKE_MC_ROWS);
    }
    let mc = rows
        .into_iter()
        .map(|row| McTarget {
            program: parse(&row.name),
            row,
        })
        .collect();
    let dynamic = signatures
        .iter()
        .map(|(name, unfiltered, filtered)| DynTarget {
            name,
            program: parse(name),
            unfiltered: unfiltered.clone(),
            filtered: filtered.clone(),
        })
        .collect();
    Setup { mc, dynamic }
}

/// One unit of a pass.
#[derive(Clone, Copy)]
enum Task {
    ModelCheck(usize),
    Walks(usize),
    Explore(usize),
}

/// What one pass found, checked once the pass is complete.
#[derive(Default)]
struct PassLog {
    mc: Vec<Option<McReport>>,
    walks: Vec<Option<RandomWalkReport>>,
    /// Per dynamic target: violations and cyclic runs.
    explored: Vec<Option<(Sigs, usize)>>,
    mc_ms: f64,
    walks_ms: f64,
    explore_ms: f64,
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let signatures = static_signatures(opts);
    let s = repeated_setup(opts, &mut out, |_| setup(opts, &signatures));
    let mc_config = McConfig {
        sessions: 2,
        dpor: true,
        workers: 1,
        max_execs: 200_000,
        depth: None,
    };
    let d = oracle::dynamic_row();
    let explore = ExploreConfig {
        runs: d.runs,
        seed: opts.seed,
        ..ExploreConfig::default()
    };
    let mut tasks: Vec<(usize, Task)> = (0..s.mc.len())
        .flat_map(|i| [Task::ModelCheck(i), Task::Walks(i)])
        .chain((0..s.dynamic.len()).map(Task::Explore))
        .enumerate()
        .collect();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut logs: Vec<PassLog> = Vec::new();

    let mut pass = |t: &mut Timings, out: &mut Outcome| -> PassLog {
        shuffle(&mut tasks, &mut rng);
        let mut log = PassLog {
            mc: vec![None; s.mc.len()],
            walks: vec![None; s.mc.len()],
            explored: vec![None; s.dynamic.len()],
            ..PassLog::default()
        };
        for &(id, task) in &tasks {
            let start = Instant::now();
            match task {
                Task::ModelCheck(i) => {
                    log.mc[i] = Some(c4_mc::model_check(&s.mc[i].program, &mc_config));
                    log.mc_ms += ms(start.elapsed());
                }
                Task::Walks(i) => {
                    log.walks[i] = Some(c4_mc::random_walks(
                        &s.mc[i].program,
                        &mc_config,
                        WALKS,
                        opts.seed,
                    ));
                    log.walks_ms += ms(start.elapsed());
                }
                Task::Explore(i) => {
                    let r = c4_dynamic::explore(&s.dynamic[i].program, &explore);
                    log.explored[i] = Some((r.violations, r.cyclic_runs));
                    log.explore_ms += ms(start.elapsed());
                }
            }
            let span = Span::since(start);
            speed::sample();
            t.verdict(span);
            t.item(id, span);
        }
        check_pass(&s, &log, opts.seed == d.seed && !opts.smoke, out);
        log
    };

    let mut untraced = Timings::default();
    passes(opts.window(), None, &mut untraced, |t| {
        logs.push(pass(t, &mut out))
    });
    if !opts.trace {
        untraced.report(&mut out);
        let mc_s: Vec<f64> = logs.iter().map(|l| l.mc_ms / 1e3).collect();
        let sampler_s: Vec<f64> = logs
            .iter()
            .map(|l| (l.walks_ms + l.explore_ms) / 1e3)
            .collect();
        out.detail("mc_pass_s", median(&mc_s), "s", mc_s.len());
        out.detail("sampler_s", median(&sampler_s), "s", sampler_s.len());
        return out;
    }

    let mut traced = Timings::default();
    let mut dropped = 0;
    passes(opts.window(), None, &mut traced, |t| {
        c4_obs::enable(crate::layers::TRACE_CAPACITY);
        pass(t, &mut out);
        dropped += c4_obs::drain().dropped_events();
    });
    if dropped > 0 {
        out.fail(format!("trace rings dropped {dropped} events"));
    }
    // Layer numbers come from the untraced passes; the traced ones only
    // measure the recorder's overhead and check it drops nothing.
    let n_mc = (logs.len() * s.mc.len()) as f64;
    let n_dyn = (logs.len() * s.dynamic.len()) as f64;
    let reports = || logs.iter().flat_map(|l| l.mc.iter().flatten());
    let execs: f64 = reports().map(|r| r.executions as f64).sum();
    let mc_ms: f64 = logs.iter().map(|l| l.mc_ms).sum();
    out.set("mc.executions", execs / n_mc, n_mc as usize);
    out.set(
        "mc.pruned",
        reports().map(|r| r.pruned as f64).sum::<f64>() / n_mc,
        n_mc as usize,
    );
    out.set(
        "mc.classes",
        reports().map(|r| r.classes as f64).sum::<f64>() / n_mc,
        n_mc as usize,
    );
    out.set("mc.execs_per_s", ratio(execs, mc_ms / 1e3), n_mc as usize);
    out.set(
        "mc.random_walks_ms",
        logs.iter().map(|l| l.walks_ms).sum::<f64>() / n_mc,
        n_mc as usize,
    );
    out.set(
        "dynamic.explore_ms",
        logs.iter().map(|l| l.explore_ms).sum::<f64>() / n_dyn,
        n_dyn as usize,
    );
    let cyclic: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.explored.iter().flatten().map(|(_, c)| *c as f64))
        .collect();
    out.set("dynamic.cyclic_runs", mean(&cyclic), cyclic.len());
    out.set("obs.dropped_events", dropped as f64, traced.passes.len());
    out.set(
        "obs.trace_overhead_ratio",
        overhead(&untraced, &traced),
        traced.passes.len(),
    );
    out
}

/// The oracle checks of one pass: every model-checking row against its
/// transcribed row, random walks within the checker's findings, every
/// dynamic cycle predicted statically, and — at the published seed —
/// the §9.5 counts (see `expected/dynamic.txt`).
fn check_pass(s: &Setup, log: &PassLog, published_seed: bool, out: &mut Outcome) {
    for (i, t) in s.mc.iter().enumerate() {
        let r = log.mc[i].as_ref().expect("every task ran");
        out.check(oracle::check_mc(&t.row, r));
        let walks = log.walks[i].as_ref().expect("every task ran");
        let stray: Vec<_> = walks
            .violations
            .iter()
            .filter(|v| !r.violations.contains(v))
            .collect();
        out.check(if stray.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: random walks found {stray:?}, missed by the model checker",
                t.row.name
            ))
        });
    }
    let mut static_total = 0;
    let mut reproduced = 0;
    for (i, t) in s.dynamic.iter().enumerate() {
        let (violations, _) = log.explored[i].as_ref().expect("every task ran");
        let unpredicted: Vec<_> = violations
            .iter()
            .filter(|d| !t.unfiltered.iter().any(|s| s.is_subset(d)))
            .collect();
        out.check(if unpredicted.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: dynamic cycles {unpredicted:?} not predicted statically",
                t.name
            ))
        });
        static_total += t.filtered.len();
        reproduced += t
            .filtered
            .iter()
            .filter(|s| violations.iter().any(|d| s.is_subset(d)))
            .count();
    }
    if published_seed {
        let d = oracle::dynamic_row();
        out.check(if static_total == d.static_violations && reproduced >= d.reproduced {
            Ok(())
        } else {
            Err(format!(
                "§9.5: expected {} static / at least {} reproduced, got {static_total} / {reproduced}",
                d.static_violations, d.reproduced
            ))
        });
    }
}
