//! Corrects measured times for the machine's speed at the moment they
//! were taken.
//!
//! On a shared host the same work takes 1.0–1.7x as long from one second
//! to the next, and whole half-minutes run at the slow speed, because
//! other tenants' threads share the physical cores, caches and memory
//! bus. No summary of one run's times removes that. So the workloads
//! interleave a fixed calibration [`kernel`] with their work: [`sample`]
//! runs it and logs when it ran and how long it took, and [`factor`]
//! turns the samples taken around an interval into the ratio of the
//! kernel's reference time to its time then. An interval's corrected
//! time is its measured time times that factor: what it would have taken
//! at the reference speed.
//!
//! The kernel does what the analyses and the servers do most —
//! allocating, walking and updating ordered maps, formatting small
//! strings — on a fixed seed, so its time moves with theirs. It is the
//! benchmark's own code: no change to the program under test changes
//! what it computes.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel's time, in seconds, at full speed on the machine the
/// bounds were set on (a 2-vCPU Intel Xeon VM, see the README): the
/// speed that corrected times are expressed at.
pub const REFERENCE_S: f64 = 0.0010;

/// Every sample so far: when the kernel started and ended.
static SAMPLES: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());

/// The calibration work: about a millisecond at the reference speed.
pub fn kernel() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 512).or_default().push(i);
        if let Some(v) = map.get(&(x.rotate_left(7) % 512)) {
            sum = sum.wrapping_add(v.len() as u64);
        }
        if i % 7 == 0 {
            map.remove(&(x.rotate_left(3) % 512));
        }
        sum = sum.wrapping_add(format!("{}-{i}", x % 512).len() as u64);
    }
    sum
}

/// Runs the kernel once and logs the sample.
pub fn sample() {
    let start = Instant::now();
    std::hint::black_box(kernel());
    let end = Instant::now();
    SAMPLES
        .lock()
        .expect("no sampler panics")
        .push((start, end));
}

/// The speed correction for an interval: [`REFERENCE_S`] over the mean
/// kernel time of the samples around it — the last one to end before it
/// starts, the first one to start after it ends, and any that ran within
/// half the interval's length of it (on another thread, or around the
/// neighbouring intervals). The speed during a long interval is not
/// sampled, so it is taken from its surroundings: with only the two
/// samples at its ends, suite-cold's corrected pass time spread 7.9 %
/// over six runs, with its surroundings 2.2 %. 1 when nothing was
/// sampled.
pub fn factor(start: Instant, end: Instant) -> f64 {
    let samples = SAMPLES.lock().expect("no sampler panics");
    let before = samples.iter().filter(|s| s.1 <= start).max_by_key(|s| s.1);
    let after = samples.iter().filter(|s| s.0 >= end).min_by_key(|s| s.0);
    let half = (end - start) / 2;
    let during = samples
        .iter()
        .filter(|s| s.0 < end + half && s.1 + half > start);
    let near: Vec<Duration> = before
        .into_iter()
        .chain(after)
        .chain(during)
        .map(|(s, e)| *e - *s)
        .collect();
    if near.is_empty() {
        return 1.0;
    }
    let mean = near.iter().sum::<Duration>().as_secs_f64() / near.len() as f64;
    REFERENCE_S / mean
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: Instant,
    pub d: Duration,
}

impl Span {
    /// The interval from `start` until now.
    pub fn since(start: Instant) -> Span {
        Span {
            start,
            d: start.elapsed(),
        }
    }

    /// Measured seconds.
    pub fn raw_s(&self) -> f64 {
        self.d.as_secs_f64()
    }

    /// Seconds at the reference speed.
    pub fn steady_s(&self) -> f64 {
        self.raw_s() * factor(self.start, self.start + self.d)
    }
}

/// Times one stretch of work that is too long for samples at its two
/// ends to follow the speed through it: the work calls [`Stopwatch::lap`]
/// between its steps, which samples the speed there. The samples' own
/// time is not counted.
pub struct Stopwatch {
    laps: Vec<Span>,
    start: Instant,
}

impl Stopwatch {
    /// Samples the speed and starts timing.
    pub fn start() -> Stopwatch {
        sample();
        Stopwatch {
            laps: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Ends the current lap, samples the speed, and starts the next lap.
    pub fn lap(&mut self) {
        self.laps.push(Span::since(self.start));
        sample();
        self.start = Instant::now();
    }

    /// Ends timing; returns the measured and the corrected seconds.
    pub fn stop(mut self) -> (f64, f64) {
        self.lap();
        (
            self.laps.iter().map(Span::raw_s).sum(),
            self.laps.iter().map(Span::steady_s).sum(),
        )
    }
}
