//! `suite-cold`: every Table 1 program through `c4_suite::analyze`
//! (unfiltered and filtered views) at one worker, no cache, in a seeded
//! order per pass. The analysis pipeline — SMT, SSG, encoder — does all
//! the work; the service, gateway and model-checker layers do none.

use std::time::Instant;

use c4_suite::Benchmark;
use rand::{rngs::StdRng, SeedableRng};

use crate::layers::{front_end, Pipeline, Tally, TRACE_CAPACITY};
use crate::measure::{features, overhead, passes, repeated_setup, Opts, Outcome, Timings};
use crate::oracle::{self, Table1Row};
use crate::speed::{self, Span};
use crate::stats::{median, shuffle};

/// Cheap programs (each well under 10 ms released): the inputs of smoke
/// runs and suite-cold's warm-up.
pub const SMOKE_PROGRAMS: [&str; 6] = [
    "EC2 Demo Chat",
    "Contest Voting",
    "Tetris",
    "Instant Poll",
    "curr-exchange",
    "dstax-queueing",
];

/// The suite programs paired with their Table 1 rows, each program's
/// front end checked against its row's `T` and `E` before any pass.
fn programs(smoke: bool, out: &mut Outcome) -> Vec<(Benchmark, Table1Row)> {
    let rows = oracle::table1();
    c4_suite::benchmarks()
        .into_iter()
        .filter(|b| !smoke || SMOKE_PROGRAMS.contains(&b.name))
        .map(|b| {
            let row = rows
                .iter()
                .find(|r| r.name == b.name)
                .expect("every program has a row")
                .clone();
            let history = c4_lang::parse(b.source)
                .map_err(|e| e.to_string())
                .and_then(|p| c4_lang::abstract_history(&p).map_err(|e| e.to_string()));
            out.check(match history {
                Ok(h) if (h.txs.len(), h.event_count()) == (row.t, row.e) => Ok(()),
                Ok(h) => Err(format!(
                    "{}: T/E {}/{}, expected {}/{}",
                    b.name,
                    h.txs.len(),
                    h.event_count(),
                    row.t,
                    row.e
                )),
                Err(e) => Err(format!("{}: {e}", b.name)),
            });
            (b, row)
        })
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (progs, setup_out) = repeated_setup(opts, &mut out, |_| {
        let mut setup_out = Outcome::default();
        let progs = programs(opts.smoke, &mut setup_out);
        // Warm-up: the cheap programs once through the whole pipeline, so
        // code, caches and the allocator are warm before the first pass.
        // It also gives set-up enough work that the per-process hash seed
        // of the front end's maps does not decide its time.
        for (b, row) in progs
            .iter()
            .filter(|(b, _)| SMOKE_PROGRAMS.contains(&b.name))
        {
            setup_out.check(oracle::check_table1(
                row,
                &c4_suite::analyze(b, &features()),
            ));
        }
        (progs, setup_out)
    });
    out.merge(setup_out);
    let features = features();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut order: Vec<usize> = (0..progs.len()).collect();

    let mut untraced = Timings::default();
    passes(opts.window(), None, &mut untraced, |t| {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let (b, row) = &progs[i];
            let start = Instant::now();
            let res = c4_suite::analyze(b, &features);
            let span = Span::since(start);
            speed::sample();
            t.verdict(span);
            t.item(i, span);
            out.check(oracle::check_table1(row, &res));
        }
    });
    if !opts.trace {
        untraced.report(&mut out);
        let per_pass = progs.len();
        let slowest: Vec<f64> = untraced
            .verdict_us()
            .chunks(per_pass)
            .map(|p| p.iter().copied().fold(0.0, f64::max) / 1e3)
            .collect();
        out.detail(
            "suite_cold_s",
            untraced.pass_time(),
            "s",
            untraced.passes.len(),
        );
        out.detail("slowest_program_ms", median(&slowest), "ms", slowest.len());
        return out;
    }

    let mut layers = Pipeline::default();
    let mut traced = Timings::default();
    passes(opts.window(), None, &mut traced, |t| {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let (b, row) = &progs[i];
            let start = Instant::now();
            c4_obs::enable(TRACE_CAPACITY);
            let res = c4_suite::analyze(b, &features);
            let span = Span::since(start);
            layers.absorb(&Tally::of(&c4_obs::drain()));
            speed::sample();
            t.verdict(span);
            t.item(i, span);
            out.check(oracle::check_table1(row, &res));
        }
    });
    if layers.dropped > 0 {
        out.fail(format!("trace rings dropped {} events", layers.dropped));
    }
    let n = layers.verdicts;
    out.set_layers(layers.finish(), n);
    let sources: Vec<&str> = progs.iter().map(|(b, _)| b.source).collect();
    out.set_layers(front_end(&sources, &features, true), sources.len());
    out.set("obs.dropped_events", layers.dropped as f64, n);
    out.set(
        "obs.trace_overhead_ratio",
        overhead(&untraced, &traced),
        traced.passes.len(),
    );
    out
}
