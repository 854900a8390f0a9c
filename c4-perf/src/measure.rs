//! What every workload shares: run options, the outcome it reports, the
//! repeated set-up, and latency bookkeeping.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::speed::{self, Span, Stopwatch};
use crate::stats::{mean, median};

/// The seed the published §9.5 counts were measured with; the default
/// workload seed, so a bare `c4-perf run` also checks those counts.
pub const DEFAULT_SEED: u64 = 0xC4C4;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measured seconds per run (per phase half on traced runs).
    pub seconds: f64,
    pub trace: bool,
    /// Reduced inputs and a single set-up, for the test suite.
    pub smoke: bool,
}

impl Opts {
    /// The measured window of one phase: a traced run measures half its
    /// seconds untraced and half traced.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// The analysis configuration of every workload: the defaults at one
/// worker, so no workload's numbers depend on the core count.
pub fn features() -> c4::AnalysisFeatures {
    c4::AnalysisFeatures {
        parallelism: 1,
        ..Default::default()
    }
}

/// One reported metric: its value and how many samples it summarizes.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

/// A workload's result: correctness accounting plus named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, for the log.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Workload-specific views of the same measurements (name, value,
    /// unit, samples), printed for people and not part of the result.
    pub details: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Outcome {
    /// Counts one checked answer.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failure of an answer already counted as attempted.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Metric { value, samples });
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.details.push((name, value, unit, samples));
    }

    /// Records the per-layer values of a traced phase (one sample each).
    pub fn set_layers(&mut self, layers: BTreeMap<&'static str, f64>, samples: usize) {
        for (name, value) in layers {
            self.set(name, value, samples);
        }
    }

    /// Adds another client's accounting.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
        self.metrics.extend(other.metrics);
        self.details.extend(other.details);
    }
}

/// Runs `setup` repeatedly and reports the median corrected time as
/// `setup_s` (and the median measured time as the `setup_raw_s` detail):
/// at least three set-ups and at least a second of them, speed samples
/// included; one in smoke mode. `setup` gets the stopwatch that times
/// it, so that a long set-up
/// can sample the speed between its steps. Expected answers are computed
/// before, not in, `setup`: they are the oracle's cost, not the system's.
/// The last instance is returned; earlier ones are dropped before the
/// next one starts, so servers free their ports.
pub fn repeated_setup<T>(
    opts: &Opts,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Stopwatch) -> T,
) -> T {
    let (min_runs, min_wall) = if opts.smoke {
        (1, Duration::ZERO)
    } else {
        (3, Duration::from_secs(1))
    };
    let (mut raw, mut steady) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while raw.len() < min_runs || start.elapsed() < min_wall {
        drop(last.take());
        let mut watch = Stopwatch::start();
        last = Some(setup(&mut watch));
        let (r, s) = watch.stop();
        raw.push(r);
        steady.push(s);
    }
    out.set("setup_s", median(&steady), steady.len());
    out.detail("setup_raw_s", median(&raw), "s", raw.len());
    last.expect("set-up ran at least once")
}

/// Verdict latencies and pass times of one measured phase.
#[derive(Debug, Default)]
pub struct Timings {
    /// Each verdict of the workload's primary request class. Classes are
    /// kept apart so that the mean does not depend on how many requests
    /// of each class a run completed.
    pub verdicts: Vec<Span>,
    /// Each pass item's time, per item, across passes.
    pub items: Vec<Vec<Span>>,
    /// Each complete pass.
    pub passes: Vec<Span>,
    pub elapsed: Duration,
}

impl Timings {
    pub fn verdict(&mut self, s: Span) {
        self.verdicts.push(s);
    }

    /// Records the time pass item `id` took.
    pub fn item(&mut self, id: usize, s: Span) {
        if self.items.len() <= id {
            self.items.resize(id + 1, Vec::new());
        }
        self.items[id].push(s);
    }

    /// Measured verdict latencies, µs.
    pub fn verdict_us(&self) -> Vec<f64> {
        self.verdicts.iter().map(|s| s.raw_s() * 1e6).collect()
    }

    /// The time of one pass, by `seconds`: the sum of each item's mean
    /// time across passes.
    fn pass_time_by(&self, seconds: impl Fn(&Span) -> f64) -> f64 {
        self.items
            .iter()
            .map(|t| mean(&t.iter().map(&seconds).collect::<Vec<_>>()))
            .sum()
    }

    /// The corrected time of one pass.
    pub fn pass_time(&self) -> f64 {
        self.pass_time_by(Span::steady_s)
    }

    /// The end-to-end metrics every workload reports, corrected for the
    /// machine's speed, with the measured values as details. Both are
    /// means, not medians: a mean over a run's items does not jump when
    /// a few of them fall in a slow stretch.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.verdicts.len();
        let verdicts = |seconds: fn(&Span) -> f64| {
            mean(&self.verdicts.iter().map(seconds).collect::<Vec<_>>()) * 1e6
        };
        out.set("pass_s", self.pass_time(), self.passes.len());
        out.set("verdict_mean_us", verdicts(Span::steady_s), n);
        out.detail(
            "pass_raw_s",
            self.pass_time_by(Span::raw_s),
            "s",
            self.passes.len(),
        );
        out.detail("verdict_mean_raw_us", verdicts(Span::raw_s), "us", n);
    }
}

/// Runs whole passes, at least one, for as close to `window` as whole
/// passes allow: another pass starts while less than half of it would
/// run past the window. Each pass's time is recorded, and the machine's
/// speed is sampled before the first pass and after each one. With a
/// `period`, a pass starts no sooner than `period` after the previous
/// one started: a closed loop with think time, whose late passes start
/// at once.
pub fn passes(
    window: Duration,
    period: Option<Duration>,
    timings: &mut Timings,
    mut pass: impl FnMut(&mut Timings),
) {
    let start = Instant::now();
    let mut slot = start;
    speed::sample();
    loop {
        if let Some(period) = period {
            std::thread::sleep(slot.saturating_duration_since(Instant::now()));
            slot = slot.max(Instant::now()) + period;
        }
        let t = Instant::now();
        pass(timings);
        let span = Span::since(t);
        timings.passes.push(span);
        speed::sample();
        if start.elapsed() + span.d / 2 >= window {
            break;
        }
    }
    timings.elapsed = start.elapsed();
}

/// A traced phase's tracing overhead: its pass time against the
/// untraced phase's, minus one.
pub fn overhead(untraced: &Timings, traced: &Timings) -> f64 {
    crate::stats::ratio(traced.pass_time(), untraced.pass_time()) - 1.0
}
