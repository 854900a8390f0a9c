//! The stage ledger: one clock for every stage of the pipeline.
//!
//! A [`StageGuard`] opens a span named after its [`Stage`] and, whether
//! tracing is on or off, adds the span's *self time* — its duration
//! minus the durations of the stages nested in it — to a per-thread
//! [`StageTimings`] ledger. It reads the clock once at each end and
//! stamps its trace events with those same readings, so a thread's
//! ledger equals, to the nanosecond, the self-time fold of the stage
//! spans it recorded. Plain spans are transparent to the ledger, so a
//! stage never encloses one.

use std::cell::Cell;
use std::ops::{AddAssign, Sub};
use std::time::Duration;

use crate::{enabled, now_ns, record_at, EventData};

/// A stage of the analysis pipeline. Its name is its span's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Definition 4 unfolding of every transaction into the body arena.
    InternArena,
    /// The pair tables, once per run.
    PairTables,
    /// SC1 pre-filter, SSG construction and candidate-cycle enumeration.
    SsgFilter,
    /// Building `CycleEncoder`s and flushing their assertions into the
    /// solver session.
    EncoderBuild,
    /// One bounded-search query or batched probe, its flush excluded.
    SmtQuery,
    /// One Section 7.2 generalization query, its flush excluded.
    GenQuery,
    /// Counter-example decoding, concrete validation and rendering.
    Validate,
    /// The pool's in-order merge of one record, its solves excluded.
    Merge,
}

impl Stage {
    /// Every stage, in ledger order.
    pub const ALL: [Stage; 8] = [
        Stage::InternArena,
        Stage::PairTables,
        Stage::SsgFilter,
        Stage::EncoderBuild,
        Stage::SmtQuery,
        Stage::GenQuery,
        Stage::Validate,
        Stage::Merge,
    ];

    /// The stage's span name.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::InternArena => "intern_arena",
            Stage::PairTables => "pair_tables",
            Stage::SsgFilter => "ssg_filter",
            Stage::EncoderBuild => "encoder_build",
            Stage::SmtQuery => "smt_query",
            Stage::GenQuery => "gen_query",
            Stage::Validate => "validate",
            Stage::Merge => "merge",
        }
    }
}

/// Self time per [`Stage`]. Pool runs add up their workers' ledgers, so
/// the sum of the stages is CPU time and can exceed the wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings([u64; Stage::ALL.len()]);

impl StageTimings {
    /// The self time booked to `stage`.
    pub fn get(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.0[stage as usize])
    }

    /// Every stage with its self time, in ledger order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Duration)> + '_ {
        Stage::ALL.into_iter().map(|s| (s, self.get(s)))
    }
}

impl AddAssign for StageTimings {
    fn add_assign(&mut self, other: StageTimings) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

impl Sub for StageTimings {
    type Output = StageTimings;

    fn sub(mut self, earlier: StageTimings) -> StageTimings {
        for (a, b) in self.0.iter_mut().zip(earlier.0) {
            *a -= b;
        }
        self
    }
}

thread_local! {
    static LEDGER: Cell<StageTimings> = const { Cell::new(StageTimings([0; Stage::ALL.len()])) };
    /// Nanoseconds the stages nested in the innermost open stage took.
    static NESTED: Cell<u64> = const { Cell::new(0) };
}

/// Everything the stages of this thread have booked since it started.
/// The difference of two readings is what ran between them.
pub fn thread_ledger() -> StageTimings {
    LEDGER.get()
}

/// RAII guard of one stage: see the module docs.
pub struct StageGuard {
    stage: Stage,
    arg: u64,
    start: u64,
    /// The enclosing stage's nested time when this one opened.
    outer: u64,
    traced: bool,
}

impl StageGuard {
    /// Update the argument the closing `End` event will carry.
    #[inline]
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let end = now_ns();
        if self.traced && enabled() {
            record_at(end, EventData::End { name: self.stage.name(), arg: self.arg });
        }
        // Saturating, so a guard dropped out of order cannot panic here.
        let dur = end.saturating_sub(self.start);
        let mut ledger = LEDGER.get();
        ledger.0[self.stage as usize] += dur.saturating_sub(NESTED.get());
        LEDGER.set(ledger);
        NESTED.set(self.outer + dur);
    }
}

/// Open a stage.
#[inline]
pub fn stage(stage: Stage) -> StageGuard {
    stage_arg(stage, 0)
}

/// Open a stage whose span carries an initial argument.
pub fn stage_arg(stage: Stage, arg: u64) -> StageGuard {
    let start = now_ns();
    let traced = enabled();
    if traced {
        record_at(start, EventData::Begin { name: stage.name(), arg });
    }
    StageGuard { stage, arg, start, outer: NESTED.replace(0), traced }
}
