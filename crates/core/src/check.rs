//! Algorithm 1: the end-to-end serializability check.
//!
//! `CheckBounded(H, k, V)` enumerates the k-unfoldings, pre-filters them
//! with the SSG analysis (Theorem 3), skips candidate cycles subsumed by
//! already-found violations, and asks the SMT stage for concrete models.
//! `Check(H)` iterates `k = 2, 3, …` until the Section 7.2 generalization
//! establishes that the found violations subsume all cycles on any number
//! of sessions, or the `k` bound is reached.
//!
//! # Parallel driver
//!
//! Per-unfolding work — SC1 pre-filter, SSG construction, candidate-cycle
//! enumeration, SMT solving, and counter-example validation — is
//! independent across unfoldings except for the violation subsumption
//! set. The driver therefore splits the bounded search into two phases:
//!
//! 1. **Parallel discovery.** A scoped worker pool pulls
//!    `(unfolding_index, Unfolding)` items from a shared dispenser and
//!    evaluates them against the shared read-only [`PairTables`] and
//!    [`FarSpec`], emitting one [`WorkRecord`] per unfolding with the
//!    per-candidate SMT verdicts. Workers consult a best-effort snapshot
//!    of the merged subsumption set to skip already-covered candidates
//!    early; the snapshot only ever prunes work, never changes output.
//! 2. **Sequential merge.** The driver thread replays records in
//!    ascending `unfolding_index`, applying exactly the sequential
//!    subsumption logic (`subsumes`/`retain`). Because a candidate's SMT
//!    verdict depends only on the unfolding and the candidate — not on
//!    the violation set — the merged `AnalysisResult` is identical to the
//!    sequential run's.
//!
//! The snapshot-prune is sound for the replay because subsumption is
//! *monotone*: the merged set only ever replaces a violation by a
//! transaction-subset of itself, so a candidate subsumed by any merged
//! prefix stays subsumed at its own replay point. Cancellation is
//! cooperative: a wall-clock [`Deadline`] is checked per unfolding and
//! per SMT query by every worker and by the sequential path, so a single
//! expensive round can no longer blow the budget unboundedly.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, RwLock};
use std::time::{Duration, Instant};

use c4_algebra::{FarSpec, RewriteSpec};

use std::sync::Arc;

use crate::abstract_history::{AbsArg, AbsTx, AbstractHistory};
use crate::counterexample::CounterExample;
use crate::intern::TxArena;
use crate::report::{AnalysisResult, AnalysisStats, Violation};
use crate::ssg::{candidate_cycles_with, CandidateCycle, PairLookup, PairTables, Ssg, SsgLabel};
use crate::unfold::{arena_for, unfoldings, Unfolding, UnfoldingInstance};

/// Feature toggles of the analysis (Section 9.3 ablations plus the
/// Section 8 extensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisFeatures {
    /// Argument-sensitive commutativity formulas in the SMT stage (off:
    /// SSG-level yes/no commutativity only).
    pub commutativity: bool,
    /// Absorption reasoning in the SMT stage.
    pub absorption: bool,
    /// Invariants: shared parameters / session-local / global constants
    /// and branch-condition formulas.
    pub constraints: bool,
    /// Control flow: path-sensitive event activation.
    pub control_flow: bool,
    /// Asymmetric commutativity for anti-dependencies (Section 8).
    pub asymmetric: bool,
    /// Fresh-unique-value axioms for `add_row` (Section 8).
    pub freshness: bool,
    /// Return-value justification axioms for membership queries (ties
    /// `contains` outcomes to visible creations — valid in all legal
    /// schedules; prunes pre-schedule-only phantoms).
    pub ret_justification: bool,
    /// Largest number of sessions to try before giving the bounded answer.
    pub max_k: usize,
    /// Wall-clock budget in seconds; when exhausted the checker returns
    /// the bounded result obtained so far (checked per unfolding and per
    /// SMT query, so even a single `k` round is cancelled promptly).
    pub time_budget_secs: u64,
    /// Re-validate every counter-example against the concrete DSG
    /// machinery (defense against encoding bugs).
    pub validate_counterexamples: bool,
    /// Incremental SMT: one shared encoder per suspicious unfolding, with
    /// candidate queries solved under assumption literals so learnt
    /// clauses, the Tseitin table and theory blocking clauses carry over
    /// between candidates. Off: the legacy fresh-encoder-per-candidate
    /// path. Both modes produce byte-identical results (SAT verdicts are
    /// re-solved on a fresh encoder for the canonical counter-example
    /// model); the toggle exists for differential testing and
    /// benchmarking.
    pub incremental_smt: bool,
    /// Worker threads for the bounded search: `0` = one per available
    /// hardware thread, `1` = the exact legacy sequential path, `n > 1`
    /// = a pool of `n` workers. Every setting produces the same
    /// violations, `generalized` flag, `max_k` and counter-example
    /// renderings (see the module docs for the determinism argument).
    pub parallelism: usize,
    /// Symmetry reduction: unfoldings identical up to session renaming
    /// form an equivalence class; the SSG + SMT stages run once on the
    /// first-enumerated representative and verdicts are replayed onto the
    /// other members (DESIGN §5.12). Off: every unfolding is analyzed
    /// independently (the legacy path). Both modes produce byte-identical
    /// reports; the toggle exists for differential testing and
    /// benchmarking.
    pub symmetry_reduction: bool,
}

impl Default for AnalysisFeatures {
    fn default() -> Self {
        AnalysisFeatures {
            commutativity: true,
            absorption: true,
            constraints: true,
            control_flow: true,
            asymmetric: true,
            freshness: true,
            ret_justification: true,
            max_k: 4,
            time_budget_secs: 120,
            validate_counterexamples: true,
            incremental_smt: true,
            parallelism: 0,
            symmetry_reduction: true,
        }
    }
}

/// An externally owned cancellation handle for a running analysis.
///
/// Cloning shares the flag: the owner calls [`cancel`](Self::cancel)
/// from any thread, and a [`Checker`] built with
/// [`Checker::with_cancel`] observes it through the same [`Deadline`]
/// checks that implement the wall-clock budget (per unfolding and per
/// SMT query). A cancelled run returns promptly with the partial — still
/// well-formed — result obtained so far and `stats.deadline_hit` set, so
/// callers (e.g. the `c4-service` daemon) can distinguish a complete
/// verdict from an interrupted one and must not cache the latter.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent; visible to all clones).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cooperative cancellation: a wall-clock budget shared by the driver
/// and all workers, plus an optional external [`CancelToken`].
/// `expired` latches into an [`AtomicBool`] so that once any thread
/// observes exhaustion, every subsequent check is a single relaxed load.
#[derive(Debug)]
struct Deadline {
    start: Instant,
    budget: Duration,
    hit: AtomicBool,
    cancel: Option<CancelToken>,
}

impl Deadline {
    fn new(budget_secs: u64, cancel: Option<CancelToken>) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs(budget_secs),
            hit: AtomicBool::new(false),
            cancel,
        }
    }

    /// Whether the budget is exhausted or cancellation was requested
    /// (latches on first observation).
    fn expired(&self) -> bool {
        if self.hit.load(Ordering::Relaxed) {
            return true;
        }
        if self.budget.is_zero()
            || self.start.elapsed() > self.budget
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        {
            self.hit.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Whether any thread ever observed exhaustion.
    fn was_hit(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }
}

/// Worker verdict for one candidate cycle.
enum CandOutcome {
    /// Skipped early: the best-effort subsumption snapshot covered it.
    Pruned,
    /// The SMT stage refuted the cycle.
    Refuted,
    /// The SMT stage found a model. `rendered` is the counter-example
    /// rendering, `None` when validation was requested and failed.
    Sat { rendered: Option<String> },
    /// Symmetry member in parallel mode: the worker ran only the SSG
    /// stage; the merge resolves the verdict from the class record.
    Deferred,
}

/// One candidate cycle's worker result, replayed by the merge.
struct CandidateRecord {
    txs: BTreeSet<usize>,
    labels: Vec<SsgLabel>,
    cand: CandidateCycle,
    outcome: CandOutcome,
}

/// One unfolding's worker result.
struct WorkRecord {
    index: usize,
    /// SC1 passed and at least one candidate cycle exists.
    suspicious: bool,
    /// The unfolding, kept for suspicious records so the merge can
    /// re-solve a pre-pruned candidate if the replay ever needs it.
    unfolding: Option<Unfolding>,
    cands: Vec<CandidateRecord>,
    /// The candidate list was cut short by the deadline, so a class
    /// record built from it must not be treated as exhaustive.
    truncated: bool,
    /// Symmetry role assigned by the dispenser.
    sym: SymTag,
}

/// Symmetry role of a dispensed unfolding (DESIGN §5.12).
enum SymTag {
    /// Symmetry reduction off: the legacy path.
    Plain,
    /// First enumerated member of its equivalence class: analyzed in
    /// full, and its verdicts are recorded for the other members.
    Rep { fp: Vec<u64> },
    /// Member whose fingerprint sequence equals the representative's
    /// verbatim: instance indices line up one-to-one, so the rep's
    /// candidate list (and rendered counter-examples) replay directly.
    Identity { rep: usize },
    /// Member that matches the representative only after a session
    /// permutation: the SSG stage runs to get member-order candidates,
    /// and verdicts are looked up in rep coordinates.
    Permuted { rep: usize, fp: Vec<u64> },
}

/// A representative's recorded verdicts, replayed onto every other
/// member of its equivalence class.
struct ClassRecord {
    /// The representative's per-session fingerprints (unsorted).
    rep_fp: Vec<u64>,
    /// The representative had candidate cycles. By the isomorphism
    /// between class members, so does every member (and vice versa).
    suspicious: bool,
    /// The candidate list is exhaustive (no deadline truncation).
    complete: bool,
    /// Candidates in the representative's enumeration order.
    cands: Vec<RepCand>,
    /// Lookup from a candidate's canonical key (rep coordinates, minimal
    /// node first) to its position in `cands`.
    by_key: HashMap<CandKey, usize>,
}

struct RepCand {
    cand: CandidateCycle,
    outcome: RepOutcome,
}

/// The position-independent part of a representative's verdict.
enum RepOutcome {
    /// UNSAT — transfers to every member (the SMT encoding is isomorphic
    /// under session renaming, so satisfiability is invariant).
    Refuted,
    /// SAT with the canonical model's rendering. Reusable verbatim for
    /// identity members only; permuted members re-solve so their
    /// rendering reflects their own session order.
    Sat { rendered: Option<String> },
    /// Subsumed at the representative's position. Subsumption depends on
    /// the member's transaction set, so members re-check and, if live,
    /// re-solve.
    Skipped,
}

/// A candidate cycle in class-canonical form: nodes and steps in rep
/// coordinates, rotated so the minimal node leads.
type CandKey = (Vec<usize>, Vec<(usize, usize, SsgLabel, usize, usize)>);

/// Matches member sessions to rep sessions with equal fingerprints
/// (stable: ties pair up in ascending session order on both sides).
fn session_map(member_fp: &[u64], rep_fp: &[u64]) -> Vec<usize> {
    let k = member_fp.len();
    let mut m_idx: Vec<usize> = (0..k).collect();
    m_idx.sort_by_key(|&s| (member_fp[s], s));
    let mut r_idx: Vec<usize> = (0..k).collect();
    r_idx.sort_by_key(|&s| (rep_fp[s], s));
    let mut map = vec![0usize; k];
    for (ms, rs) in m_idx.into_iter().zip(r_idx) {
        map[ms] = rs;
    }
    map
}

/// Instance index of `(session, pos)` in an unfolding with the given
/// per-session fingerprints (instances are laid out session-major; the
/// low fingerprint half is non-zero exactly for two-element chains).
fn slot_index(fp: &[u64], session: usize, pos: usize) -> usize {
    let mut idx = 0usize;
    for &f in &fp[..session] {
        idx += if f & 0xFFFF_FFFF != 0 { 2 } else { 1 };
    }
    idx + pos
}

/// Maps each member instance index to the corresponding rep instance.
fn instance_map(u: &Unfolding, member_fp: &[u64], rep_fp: &[u64]) -> Vec<usize> {
    let smap = session_map(member_fp, rep_fp);
    u.instances.iter().map(|inst| slot_index(rep_fp, smap[inst.session], inst.pos)).collect()
}

/// The canonical key of a candidate under an instance mapping.
fn cand_key_mapped(cand: &CandidateCycle, map: &[usize]) -> CandKey {
    let nodes: Vec<usize> = cand.nodes.iter().map(|&n| map[n]).collect();
    let steps: Vec<(usize, usize, SsgLabel, usize, usize)> = cand
        .steps
        .iter()
        .map(|e| (map[e.from], map[e.to], e.label, e.src_event, e.tgt_event))
        .collect();
    let n = nodes.len();
    let r = (0..n).min_by_key(|&i| nodes[i]).unwrap_or(0);
    let rot_nodes = (0..n).map(|i| nodes[(r + i) % n]).collect();
    let rot_steps = (0..n).map(|i| steps[(r + i) % n]).collect();
    (rot_nodes, rot_steps)
}

impl ClassRecord {
    fn push(&mut self, cand: CandidateCycle, outcome: RepOutcome, map: &[usize]) {
        let key = cand_key_mapped(&cand, map);
        self.by_key.insert(key, self.cands.len());
        self.cands.push(RepCand { cand, outcome });
    }
}

/// Per-worker counters and stage clocks, folded into [`AnalysisStats`]
/// after the pool drains.
#[derive(Default)]
struct WorkerLocal {
    queries: usize,
    preprune_skips: usize,
    assumption_solves: usize,
    sat_resolves: usize,
    learnt_clauses: usize,
    ssg_filter: Duration,
    smt: Duration,
    encoder_build: Duration,
    query_solve: Duration,
    validate: Duration,
}

/// The Algorithm 1 driver.
#[derive(Debug)]
pub struct Checker {
    h: AbstractHistory,
    far: FarSpec,
    features: AnalysisFeatures,
    cancel: Option<CancelToken>,
    /// Validated counter-example structures, retained when
    /// [`log_witnesses`](Self::log_witnesses) is on. Kept out of
    /// [`AnalysisResult`] so reports and cache keys are unaffected.
    witnesses: Mutex<Vec<CounterExample>>,
    log_witnesses: bool,
}

impl Checker {
    /// Creates a checker for an abstract history.
    ///
    /// # Panics
    ///
    /// Panics if the history fails validation.
    pub fn new(h: AbstractHistory, features: AnalysisFeatures) -> Self {
        h.validate().expect("well-formed abstract history");
        let far = FarSpec::compute(RewriteSpec::new(), &h.alphabet());
        Checker { h, far, features, cancel: None, witnesses: Mutex::new(Vec::new()), log_witnesses: false }
    }

    /// Enables retention of every validated counter-example structure
    /// (for replay-based cross-checks); drain them with
    /// [`take_witnesses`](Self::take_witnesses) after [`run`](Self::run).
    pub fn log_witnesses(mut self) -> Self {
        self.log_witnesses = true;
        self
    }

    /// Drains the counter-examples retained by
    /// [`log_witnesses`](Self::log_witnesses). Includes one entry per
    /// validated SAT verdict, even those later subsumed by a smaller
    /// violation.
    pub fn take_witnesses(&self) -> Vec<CounterExample> {
        std::mem::take(&mut self.witnesses.lock().unwrap())
    }

    /// Attaches an external cancellation token: [`run`](Self::run)
    /// observes it at every deadline checkpoint (per unfolding, per SMT
    /// query, on the driver and on every worker) and returns the partial
    /// result with `stats.deadline_hit` set.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The abstract history under analysis.
    pub fn history(&self) -> &AbstractHistory {
        &self.h
    }

    /// The far rewrite relations for the history's alphabet.
    pub fn far(&self) -> &FarSpec {
        &self.far
    }

    /// The resolved worker count: `parallelism`, with `0` mapped to the
    /// available hardware parallelism.
    pub fn effective_parallelism(&self) -> usize {
        match self.features.parallelism {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }

    /// Runs the full check (Algorithm 1).
    pub fn run(&self) -> AnalysisResult {
        let _span = c4_obs::span("analysis");
        let deadline = Deadline::new(self.features.time_budget_secs, self.cancel.clone());
        let workers = self.effective_parallelism();
        let mut result = AnalysisResult::default();
        result.stats.workers = workers;
        result.stats.per_worker_queries = vec![0; workers];
        let t0 = Instant::now();
        {
            let _unfold = c4_obs::span("unfold");
            let arena = arena_for(&self.h);
            let tables = PairTables::compute(arena.bodies(), &self.far);
            result.stats.timings.unfold += t0.elapsed();
            drop(_unfold);
            let mut k = 2usize;
            loop {
                {
                    let _k_span = c4_obs::span_arg("check_bounded", k as u64);
                    if workers <= 1 {
                        self.check_bounded(&arena, &tables, k, &deadline, &mut result);
                    } else {
                        self.check_bounded_parallel(
                            &arena, &tables, k, workers, &deadline, &mut result,
                        );
                    }
                }
                result.max_k = k;
                let generalized = {
                    let _gen_span = c4_obs::span_arg("generalize", k as u64);
                    !deadline.expired()
                        && self.generalizes(
                            &arena,
                            &tables,
                            k,
                            &deadline,
                            &result.violations,
                            &mut result.stats,
                        )
                };
                if generalized {
                    result.generalized = true;
                    break;
                }
                k += 1;
                if k > self.features.max_k || deadline.expired() {
                    break;
                }
            }
        }
        result.stats.deadline_hit = deadline.was_hit();
        if c4_obs::enabled() {
            result.stats.emit_counters();
        }
        result
    }

    /// Fast rejection: SC1 needs anti-dependency capability between the
    /// unfolding's instances (at least two potential ⊖ pairs, or one plus
    /// a ⊗ pair).
    fn sc1_possible(&self, u: &Unfolding, tables: &PairTables) -> bool {
        let mut anti = 0usize;
        let mut conflict = 0usize;
        let n = u.instances.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let same = u.instances[i].session == u.instances[j].session;
                if tables.anti_between(u.instances[i].orig_tx, u.instances[j].orig_tx, same) {
                    anti += 1;
                }
                if tables.conflict_between(u.instances[i].orig_tx, u.instances[j].orig_tx, same) {
                    conflict += 1;
                }
            }
        }
        anti >= 2 || (anti >= 1 && conflict >= 1)
    }

    /// SC1 pre-filter + SSG + candidate enumeration for one unfolding.
    fn filter_candidates(
        &self,
        u: &Unfolding,
        tables: &PairTables,
        local: &mut WorkerLocal,
    ) -> Vec<CandidateCycle> {
        let _span = c4_obs::span("ssg_filter");
        let t0 = Instant::now();
        let cands = if self.sc1_possible(u, tables) {
            let ssg = Ssg::of_unfolding_cached(u, tables);
            candidate_cycles_with(u, &ssg, PairLookup::Cached(tables))
        } else {
            Vec::new()
        };
        local.ssg_filter += t0.elapsed();
        cands
    }

    /// Solves one candidate cycle: SMT query plus counter-example
    /// decoding, validation and rendering. Independent of the violation
    /// set, hence safe to run on any worker in any order.
    ///
    /// With a `shared` incremental encoder, the candidate is first decided
    /// through the persistent session under an assumption literal; only a
    /// SAT verdict falls through to a fresh encoder, which produces the
    /// canonical counter-example model. The fresh path is authoritative:
    /// its outcome is what gets committed, so both modes yield
    /// byte-identical results.
    fn solve_candidate(
        &self,
        u: &Unfolding,
        cand: &CandidateCycle,
        shared: Option<&mut crate::encode::CycleEncoder>,
        local: &mut WorkerLocal,
    ) -> CandOutcome {
        if let Some(enc) = shared {
            let mut q = c4_obs::span("smt_query");
            let t0 = Instant::now();
            let sat = enc.check_shared(cand);
            let dt = t0.elapsed();
            q.set_arg(if sat { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
            drop(q);
            local.smt += dt;
            local.query_solve += dt;
            local.queries += 1;
            local.assumption_solves += 1;
            if !sat {
                return CandOutcome::Refuted;
            }
            local.sat_resolves += 1;
        }
        let t0 = Instant::now();
        let enc = crate::encode::CycleEncoder::new(u, &self.far, &self.features);
        local.encoder_build += t0.elapsed();
        let t1 = Instant::now();
        let mut q = c4_obs::span("smt_query");
        let model = enc.check(cand);
        q.set_arg(if model.is_some() { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
        drop(q);
        local.query_solve += t1.elapsed();
        local.smt += t0.elapsed();
        local.queries += 1;
        match model {
            None => CandOutcome::Refuted,
            Some(model) => {
                let _v = c4_obs::span("validate");
                let t1 = Instant::now();
                let ce = CounterExample::build(u, &model);
                let rendered = if self.features.validate_counterexamples {
                    match ce.validate(&self.far, cand, u, self.features.asymmetric) {
                        Ok(()) => Some(ce.render_with_cycle(u, cand)),
                        Err(_) => None,
                    }
                } else {
                    Some(ce.render_with_cycle(u, cand))
                };
                if self.log_witnesses && rendered.is_some() {
                    self.witnesses.lock().unwrap().push(ce);
                }
                local.validate += t1.elapsed();
                CandOutcome::Sat { rendered }
            }
        }
    }

    /// Commits one candidate verdict to the result with the sequential
    /// subsumption semantics. Shared between the legacy sequential path
    /// and the parallel merge so both produce identical results.
    fn commit_outcome(
        &self,
        txs: BTreeSet<usize>,
        labels: Vec<SsgLabel>,
        outcome: CandOutcome,
        k: usize,
        result: &mut AnalysisResult,
    ) {
        match outcome {
            CandOutcome::Pruned => unreachable!("pruned candidates are re-solved before commit"),
            CandOutcome::Deferred => {
                unreachable!("deferred candidates are resolved from the class record before commit")
            }
            CandOutcome::Refuted => result.stats.smt_refuted += 1,
            CandOutcome::Sat { rendered } => {
                result.stats.smt_sat += 1;
                if rendered.is_none() && self.features.validate_counterexamples {
                    result.stats.validation_failures += 1;
                }
                // Subsumption housekeeping: drop previously found
                // violations strictly subsumed by this one? No —
                // a *smaller* cycle subsumes a larger one, so keep
                // the new one only; existing entries were not
                // subsumed by it (checked above in reverse), but
                // the new one might subsume older larger entries.
                result.violations.retain(|v| !(txs.is_subset(&v.txs) && txs != v.txs));
                result.violations.push(Violation {
                    txs,
                    labels,
                    sessions: k,
                    counterexample: rendered,
                });
            }
        }
    }

    /// `CheckBounded`: finds all unsubsumed violations on `k` sessions —
    /// the exact legacy sequential path (`parallelism = 1`), with
    /// per-unfolding and per-query deadline checks.
    fn check_bounded(
        &self,
        arena: &Arc<TxArena>,
        tables: &PairTables,
        k: usize,
        deadline: &Deadline,
        result: &mut AnalysisResult,
    ) {
        let mut local = WorkerLocal::default();
        let symmetry = self.features.symmetry_reduction;
        // Equivalence classes of this k-round, keyed by canonical form.
        let mut classes: HashMap<Vec<u64>, ClassRecord> = HashMap::new();
        let mut any = false;
        for u in unfoldings(&self.h, arena, k) {
            if deadline.expired() {
                break;
            }
            any = true;
            result.stats.unfoldings += 1;
            if symmetry {
                let fp = u.fp_seq();
                let mut key = fp.clone();
                key.sort_unstable();
                if let Some(rec) = classes.get(&key) {
                    result.stats.class_members_skipped += 1;
                    self.replay_member(&u, &fp, rec, tables, k, deadline, result, &mut local);
                    continue;
                }
                result.stats.classes += 1;
                let rec =
                    self.process_rep(&u, Some(fp), tables, k, deadline, result, &mut local);
                classes.insert(key, rec);
            } else {
                self.process_rep(&u, None, tables, k, deadline, result, &mut local);
            }
        }
        if any {
            // The streaming enumeration keeps exactly one unfolding (plus
            // the class records) resident at a time on this path.
            result.stats.peak_unfoldings_resident =
                result.stats.peak_unfoldings_resident.max(1);
        }
        result.stats.speculative_smt_queries += local.queries;
        result.stats.preprune_skips += local.preprune_skips;
        result.stats.assumption_solves += local.assumption_solves;
        result.stats.sat_resolves += local.sat_resolves;
        result.stats.learnt_clauses += local.learnt_clauses;
        if let Some(q) = result.stats.per_worker_queries.get_mut(0) {
            *q += local.queries;
        }
        result.stats.timings.ssg_filter += local.ssg_filter;
        result.stats.timings.smt += local.smt;
        result.stats.timings.encoder_build += local.encoder_build;
        result.stats.timings.query_solve += local.query_solve;
        result.stats.timings.validate += local.validate;
    }

    /// Analyzes one unfolding on the sequential path — the exact legacy
    /// per-unfolding body — and, when `fp` is given (symmetry reduction
    /// on), captures a [`ClassRecord`] of its verdicts for the other
    /// members of its equivalence class.
    #[allow(clippy::too_many_arguments)]
    fn process_rep(
        &self,
        u: &Unfolding,
        fp: Option<Vec<u64>>,
        tables: &PairTables,
        k: usize,
        deadline: &Deadline,
        result: &mut AnalysisResult,
        local: &mut WorkerLocal,
    ) -> ClassRecord {
        let mut rec = ClassRecord {
            rep_fp: fp.unwrap_or_default(),
            suspicious: false,
            complete: true,
            cands: Vec::new(),
            by_key: HashMap::new(),
        };
        let capture = !rec.rep_fp.is_empty();
        let cands = self.filter_candidates(u, tables, local);
        if cands.is_empty() {
            return rec;
        }
        rec.suspicious = true;
        result.stats.suspicious_unfoldings += 1;
        // The rep's own coordinates are already canonical (identity map).
        let idmap: Vec<usize> = (0..u.instances.len()).collect();
        // One shared incremental encoder per suspicious unfolding,
        // built lazily at the first candidate that actually solves.
        let mut shared: Option<crate::encode::CycleEncoder> = None;
        // Batched refutation probe: one disjunctive solve over the
        // not-yet-subsumed candidates. UNSAT refutes them all — the
        // common case — so the per-candidate assumption solves collapse
        // into a single solver call; SAT falls back to the exact
        // per-candidate loop below. The pending set matches the loop's
        // subsumption checks because the violation set cannot change
        // while every verdict is Refuted.
        let mut all_refuted = false;
        if self.features.incremental_smt && cands.len() >= 2 && !deadline.expired() {
            let pending: Vec<&CandidateCycle> = cands
                .iter()
                .filter(|cand| {
                    let txs: BTreeSet<usize> =
                        cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
                    !result.violations.iter().any(|v| v.subsumes(&txs))
                })
                .collect();
            if pending.len() >= 2 {
                let t0 = Instant::now();
                shared = Some(crate::encode::CycleEncoder::new(u, &self.far, &self.features));
                let dt = t0.elapsed();
                local.encoder_build += dt;
                local.smt += dt;
                let t1 = Instant::now();
                let _probe = c4_obs::span_arg("smt_query", c4_obs::tag::PROBE);
                let sat = shared
                    .as_mut()
                    .expect("just built")
                    .check_shared_any(&pending);
                drop(_probe);
                let dt = t1.elapsed();
                local.smt += dt;
                local.query_solve += dt;
                local.queries += 1;
                local.assumption_solves += 1;
                all_refuted = !sat;
            }
        }
        for cand in cands {
            let txs: BTreeSet<usize> =
                cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
            if result.violations.iter().any(|v| v.subsumes(&txs)) {
                result.stats.subsumed_candidates += 1;
                if capture {
                    rec.push(cand, RepOutcome::Skipped, &idmap);
                }
                continue;
            }
            if deadline.expired() {
                rec.complete = false;
                break;
            }
            if !all_refuted && self.features.incremental_smt && shared.is_none() {
                let t0 = Instant::now();
                shared = Some(crate::encode::CycleEncoder::new(u, &self.far, &self.features));
                let dt = t0.elapsed();
                local.encoder_build += dt;
                local.smt += dt;
            }
            result.stats.smt_queries += 1;
            let labels = cand.steps.iter().map(|s| s.label).collect();
            let outcome = if all_refuted {
                CandOutcome::Refuted
            } else {
                self.solve_candidate(u, &cand, shared.as_mut(), local)
            };
            if capture {
                let rep_outcome = match &outcome {
                    CandOutcome::Refuted => RepOutcome::Refuted,
                    CandOutcome::Sat { rendered } => {
                        RepOutcome::Sat { rendered: rendered.clone() }
                    }
                    CandOutcome::Pruned | CandOutcome::Deferred => {
                        unreachable!("solve_candidate returns only Refuted or Sat")
                    }
                };
                rec.push(cand, rep_outcome, &idmap);
            }
            self.commit_outcome(txs, labels, outcome, k, result);
        }
        if let Some(enc) = &shared {
            local.learnt_clauses += enc.session_stats().2;
        }
        rec
    }

    /// Replays a representative's verdicts onto another member of its
    /// class (sequential path). Identity members (same fingerprint
    /// sequence) reuse the rep's candidate list — and rendered
    /// counter-examples — verbatim; permuted members re-run the SSG stage
    /// for member-order candidates and look verdicts up in rep
    /// coordinates. Only UNSAT verdicts transfer across a permutation;
    /// SAT members re-solve on the authoritative fresh path so renderings
    /// reflect their own session order, and rep-subsumed candidates are
    /// re-checked against the member's transaction set.
    #[allow(clippy::too_many_arguments)]
    fn replay_member(
        &self,
        u: &Unfolding,
        fp: &[u64],
        rec: &ClassRecord,
        tables: &PairTables,
        k: usize,
        deadline: &Deadline,
        result: &mut AnalysisResult,
        local: &mut WorkerLocal,
    ) {
        if !rec.suspicious {
            // The SSG stage is isomorphic across the class: no candidates
            // on the rep means none here either.
            return;
        }
        if fp == rec.rep_fp && rec.complete {
            result.stats.suspicious_unfoldings += 1;
            for rc in &rec.cands {
                let txs: BTreeSet<usize> =
                    rc.cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
                if result.violations.iter().any(|v| v.subsumes(&txs)) {
                    result.stats.subsumed_candidates += 1;
                    continue;
                }
                if deadline.expired() {
                    break;
                }
                result.stats.smt_queries += 1;
                let labels = rc.cand.steps.iter().map(|s| s.label).collect();
                let outcome = match &rc.outcome {
                    RepOutcome::Refuted => {
                        c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                        CandOutcome::Refuted
                    }
                    RepOutcome::Sat { rendered } => {
                        c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                        CandOutcome::Sat { rendered: rendered.clone() }
                    }
                    RepOutcome::Skipped => self.solve_candidate(u, &rc.cand, None, local),
                };
                self.commit_outcome(txs, labels, outcome, k, result);
            }
            return;
        }
        // Permuted member (or an incomplete record): candidate order is
        // member-specific, so the SSG stage runs here.
        let found = self.filter_candidates(u, tables, local);
        if found.is_empty() {
            return;
        }
        result.stats.suspicious_unfoldings += 1;
        let map = instance_map(u, fp, &rec.rep_fp);
        for cand in found {
            let txs: BTreeSet<usize> =
                cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
            if result.violations.iter().any(|v| v.subsumes(&txs)) {
                result.stats.subsumed_candidates += 1;
                continue;
            }
            if deadline.expired() {
                break;
            }
            result.stats.smt_queries += 1;
            let labels = cand.steps.iter().map(|s| s.label).collect();
            let key = cand_key_mapped(&cand, &map);
            let outcome = match rec.by_key.get(&key).map(|&i| &rec.cands[i].outcome) {
                // Only refutations transfer: a rep-side Sat witness is a
                // model of the rep's instances and renders with the rep's
                // transaction names, so the member re-solves to keep the
                // report identical to the symmetry-off run.
                Some(RepOutcome::Refuted) => {
                    c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                    CandOutcome::Refuted
                }
                _ => self.solve_candidate(u, &cand, None, local),
            };
            self.commit_outcome(txs, labels, outcome, k, result);
        }
    }

    /// Worker body: evaluates one unfolding into a [`WorkRecord`].
    #[allow(clippy::too_many_arguments)]
    fn process_unfolding(
        &self,
        index: usize,
        u: Unfolding,
        tables: &PairTables,
        snapshot: &RwLock<Vec<BTreeSet<usize>>>,
        deadline: &Deadline,
        local: &mut WorkerLocal,
        sym: SymTag,
    ) -> WorkRecord {
        let found = self.filter_candidates(&u, tables, local);
        if found.is_empty() {
            return WorkRecord {
                index,
                suspicious: false,
                unfolding: None,
                cands: Vec::new(),
                truncated: false,
                sym,
            };
        }
        let mut cands = Vec::with_capacity(found.len());
        let mut truncated = false;
        // One shared incremental encoder per suspicious unfolding; the
        // session is worker-private, so determinism of the merge is
        // untouched.
        let mut shared: Option<crate::encode::CycleEncoder> = None;
        // Batched refutation probe against the current snapshot (see
        // `process_rep`). The snapshot only grows, so every candidate the
        // loop below finds un-pruned was part of the probed pending set
        // and UNSAT covers it.
        let mut all_refuted = false;
        if self.features.incremental_smt && found.len() >= 2 && !deadline.expired() {
            let pending: Vec<&CandidateCycle> = {
                let snap = snapshot.read().expect("subsumption snapshot lock");
                found
                    .iter()
                    .filter(|cand| {
                        let txs: BTreeSet<usize> =
                            cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
                        !snap.iter().any(|v| v.is_subset(&txs))
                    })
                    .collect()
            };
            if pending.len() >= 2 {
                let t0 = Instant::now();
                shared =
                    Some(crate::encode::CycleEncoder::new(&u, &self.far, &self.features));
                let dt = t0.elapsed();
                local.encoder_build += dt;
                local.smt += dt;
                let t1 = Instant::now();
                let _probe = c4_obs::span_arg("smt_query", c4_obs::tag::PROBE);
                let sat = shared
                    .as_mut()
                    .expect("just built")
                    .check_shared_any(&pending);
                drop(_probe);
                let dt = t1.elapsed();
                local.smt += dt;
                local.query_solve += dt;
                local.queries += 1;
                local.assumption_solves += 1;
                all_refuted = !sat;
            }
        }
        for cand in found {
            if deadline.expired() {
                // Truncated record: the merge replays only what exists.
                truncated = true;
                break;
            }
            let txs: BTreeSet<usize> =
                cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
            let labels = cand.steps.iter().map(|s| s.label).collect();
            let pruned = snapshot
                .read()
                .expect("subsumption snapshot lock")
                .iter()
                .any(|v| v.is_subset(&txs));
            let outcome = if pruned {
                local.preprune_skips += 1;
                CandOutcome::Pruned
            } else if all_refuted {
                CandOutcome::Refuted
            } else {
                if self.features.incremental_smt && shared.is_none() {
                    let t0 = Instant::now();
                    shared =
                        Some(crate::encode::CycleEncoder::new(&u, &self.far, &self.features));
                    let dt = t0.elapsed();
                    local.encoder_build += dt;
                    local.smt += dt;
                }
                self.solve_candidate(&u, &cand, shared.as_mut(), local)
            };
            cands.push(CandidateRecord { txs, labels, cand, outcome });
        }
        if let Some(enc) = &shared {
            local.learnt_clauses += enc.session_stats().2;
        }
        drop(shared);
        WorkRecord { index, suspicious: true, unfolding: Some(u), cands, truncated, sym }
    }

    /// Fresh, authoritative solve on the merge thread (the legacy
    /// sequential path), with its counters and clocks folded straight
    /// into the result. Its queries count as the merge thread's own
    /// (`merge_smt_queries`), not toward any worker's.
    fn resolve_on_merge(
        &self,
        u: &Unfolding,
        cand: &CandidateCycle,
        result: &mut AnalysisResult,
    ) -> CandOutcome {
        let mut local = WorkerLocal::default();
        let o = self.solve_candidate(u, cand, None, &mut local);
        result.stats.merge_smt_queries += local.queries;
        result.stats.timings.smt += local.smt;
        result.stats.timings.encoder_build += local.encoder_build;
        result.stats.timings.query_solve += local.query_solve;
        result.stats.timings.validate += local.validate;
        o
    }

    /// Merge phase: replays one record with the sequential semantics and
    /// refreshes the shared subsumption snapshot. `classes` maps a
    /// representative's unfolding index to its recorded verdicts; the
    /// strictly in-order merge guarantees a member's representative was
    /// merged first (its index is smaller), except when a deadline abort
    /// dropped the rep record — members then skip, exactly like the rest
    /// of the post-deadline tail.
    fn merge_record(
        &self,
        rec: WorkRecord,
        k: usize,
        snapshot: &RwLock<Vec<BTreeSet<usize>>>,
        classes: &mut HashMap<usize, ClassRecord>,
        result: &mut AnalysisResult,
    ) {
        let _span = c4_obs::span("merge");
        result.stats.unfoldings += 1;
        let WorkRecord { index, suspicious, unfolding, cands, truncated, sym } = rec;
        let mut pushed = false;
        match sym {
            SymTag::Identity { rep } => {
                result.stats.class_members_skipped += 1;
                let Some(class) = classes.get(&rep) else { return };
                if !class.suspicious {
                    return;
                }
                let u = unfolding.expect("identity member carries its unfolding");
                result.stats.suspicious_unfoldings += 1;
                for rc in &class.cands {
                    let txs: BTreeSet<usize> =
                        rc.cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect();
                    if result.violations.iter().any(|v| v.subsumes(&txs)) {
                        result.stats.subsumed_candidates += 1;
                        continue;
                    }
                    result.stats.smt_queries += 1;
                    let labels = rc.cand.steps.iter().map(|s| s.label).collect();
                    let outcome = match &rc.outcome {
                        RepOutcome::Refuted => {
                            c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                            CandOutcome::Refuted
                        }
                        RepOutcome::Sat { rendered } => {
                            c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                            CandOutcome::Sat { rendered: rendered.clone() }
                        }
                        RepOutcome::Skipped => self.resolve_on_merge(&u, &rc.cand, result),
                    };
                    if matches!(outcome, CandOutcome::Sat { .. }) {
                        pushed = true;
                    }
                    self.commit_outcome(txs, labels, outcome, k, result);
                }
            }
            SymTag::Permuted { rep, fp } => {
                result.stats.class_members_skipped += 1;
                if !suspicious {
                    return;
                }
                let Some(class) = classes.get(&rep) else { return };
                let u = unfolding.expect("permuted member carries its unfolding");
                result.stats.suspicious_unfoldings += 1;
                let map = instance_map(&u, &fp, &class.rep_fp);
                for c in cands {
                    if result.violations.iter().any(|v| v.subsumes(&c.txs)) {
                        result.stats.subsumed_candidates += 1;
                        continue;
                    }
                    result.stats.smt_queries += 1;
                    let key = cand_key_mapped(&c.cand, &map);
                    let outcome = match class.by_key.get(&key).map(|&i| &class.cands[i].outcome)
                    {
                        Some(RepOutcome::Refuted) => {
                            c4_obs::instant("smt_query", c4_obs::tag::REPLAY);
                            CandOutcome::Refuted
                        }
                        _ => self.resolve_on_merge(&u, &c.cand, result),
                    };
                    if matches!(outcome, CandOutcome::Sat { .. }) {
                        pushed = true;
                    }
                    self.commit_outcome(c.txs, c.labels, outcome, k, result);
                }
            }
            sym @ (SymTag::Plain | SymTag::Rep { .. }) => {
                let capture = matches!(sym, SymTag::Rep { .. });
                let mut class = ClassRecord {
                    rep_fp: match sym {
                        SymTag::Rep { fp } => fp,
                        _ => Vec::new(),
                    },
                    suspicious,
                    complete: !truncated,
                    cands: Vec::new(),
                    by_key: HashMap::new(),
                };
                if capture {
                    result.stats.classes += 1;
                }
                if !suspicious {
                    if capture {
                        classes.insert(index, class);
                    }
                    return;
                }
                result.stats.suspicious_unfoldings += 1;
                let u = unfolding.expect("suspicious record carries its unfolding");
                // The rep's own coordinates are already canonical.
                let idmap: Vec<usize> = (0..u.instances.len()).collect();
                for c in cands {
                    if result.violations.iter().any(|v| v.subsumes(&c.txs)) {
                        result.stats.subsumed_candidates += 1;
                        if capture {
                            class.push(c.cand, RepOutcome::Skipped, &idmap);
                        }
                        continue;
                    }
                    result.stats.smt_queries += 1;
                    let outcome = match c.outcome {
                        CandOutcome::Pruned => {
                            // The worker's snapshot claimed subsumption but
                            // the replay set does not — impossible while
                            // the snapshot holds only merged violations
                            // (monotonicity), so this is a self-check
                            // path; re-solve (on the legacy fresh path) to
                            // stay exact.
                            result.stats.preprune_fallbacks += 1;
                            self.resolve_on_merge(&u, &c.cand, result)
                        }
                        o => o,
                    };
                    if capture {
                        let rep_outcome = match &outcome {
                            CandOutcome::Refuted => RepOutcome::Refuted,
                            CandOutcome::Sat { rendered } => {
                                RepOutcome::Sat { rendered: rendered.clone() }
                            }
                            CandOutcome::Pruned | CandOutcome::Deferred => {
                                unreachable!("rep verdicts are resolved before capture")
                            }
                        };
                        class.push(c.cand.clone(), rep_outcome, &idmap);
                    }
                    if matches!(outcome, CandOutcome::Sat { .. }) {
                        pushed = true;
                    }
                    self.commit_outcome(c.txs, c.labels, outcome, k, result);
                }
                if capture {
                    classes.insert(index, class);
                }
            }
        }
        if pushed {
            *snapshot.write().expect("subsumption snapshot lock") =
                result.violations.iter().map(|v| v.txs.clone()).collect();
        }
    }

    /// `CheckBounded`, parallel flavor: work-stealing discovery over a
    /// shared dispenser plus deterministic in-order merge on this thread.
    fn check_bounded_parallel(
        &self,
        arena: &Arc<TxArena>,
        tables: &PairTables,
        k: usize,
        workers: usize,
        deadline: &Deadline,
        result: &mut AnalysisResult,
    ) {
        let snapshot: RwLock<Vec<BTreeSet<usize>>> =
            RwLock::new(result.violations.iter().map(|v| v.txs.clone()).collect());
        let symmetry = self.features.symmetry_reduction;
        // The dispenser classifies each unfolding under its lock: the
        // first member of an equivalence class (by canonical fingerprint
        // key) becomes the representative, later members are tagged with
        // the rep's index. Classification is part of the enumeration
        // order, so it is deterministic regardless of worker count.
        let dispenser = Mutex::new((
            unfoldings(&self.h, arena, k).enumerate(),
            HashMap::<Vec<u64>, (usize, Vec<u64>)>::new(),
        ));
        // Unfoldings handed out but not yet merged — the resident window
        // the streaming enumeration keeps alive at any instant.
        let dispensed = AtomicUsize::new(0);
        // Bounded channel: backpressure keeps workers close to the merge
        // frontier, so the subsumption snapshot stays fresh and little
        // speculative SMT work is wasted on candidates the merge will
        // skip as subsumed. The merge never blocks on a *specific* index
        // (out-of-order records are stashed), so a full buffer cannot
        // deadlock — workers just wait for the merge to drain.
        let (record_tx, record_rx) = mpsc::sync_channel::<WorkRecord>(workers * 2);
        // Unfoldings are cheap to reject individually, so workers claim
        // them in small chunks to keep dispenser-lock traffic low without
        // widening the in-flight window.
        const CHUNK: usize = 4;
        let locals: Vec<WorkerLocal> = std::thread::scope(|scope| {
            let snapshot = &snapshot;
            let dispenser = &dispenser;
            let dispensed = &dispensed;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let record_tx = record_tx.clone();
                    scope.spawn(move || {
                        let mut local = WorkerLocal::default();
                        let mut chunk: Vec<(usize, Unfolding, SymTag)> =
                            Vec::with_capacity(CHUNK);
                        'pull: loop {
                            if deadline.expired() {
                                break;
                            }
                            {
                                let mut guard = dispenser.lock().expect("dispenser lock");
                                let (it, seen) = &mut *guard;
                                for (index, u) in it.by_ref().take(CHUNK) {
                                    let tag = if symmetry {
                                        let fp = u.fp_seq();
                                        let mut key = fp.clone();
                                        key.sort_unstable();
                                        match seen.get(&key) {
                                            Some((rep, rep_fp)) => {
                                                if fp == *rep_fp {
                                                    SymTag::Identity { rep: *rep }
                                                } else {
                                                    SymTag::Permuted { rep: *rep, fp }
                                                }
                                            }
                                            None => {
                                                seen.insert(key, (index, fp.clone()));
                                                SymTag::Rep { fp }
                                            }
                                        }
                                    } else {
                                        SymTag::Plain
                                    };
                                    chunk.push((index, u, tag));
                                }
                                dispensed.fetch_add(chunk.len(), Ordering::Relaxed);
                            }
                            if chunk.is_empty() {
                                break;
                            }
                            for (index, u, tag) in chunk.drain(..) {
                                let rec = match tag {
                                    tag @ (SymTag::Plain | SymTag::Rep { .. }) => self
                                        .process_unfolding(
                                            index, u, tables, snapshot, deadline, &mut local,
                                            tag,
                                        ),
                                    tag @ SymTag::Identity { .. } => {
                                        // All work replays off the rep's
                                        // class record at merge time.
                                        WorkRecord {
                                            index,
                                            suspicious: false,
                                            unfolding: Some(u),
                                            cands: Vec::new(),
                                            truncated: false,
                                            sym: tag,
                                        }
                                    }
                                    tag @ SymTag::Permuted { .. } => {
                                        // Candidate order is member
                                        // specific, so only the SSG stage
                                        // runs here; verdicts resolve from
                                        // the class record at merge time.
                                        let found =
                                            self.filter_candidates(&u, tables, &mut local);
                                        let suspicious = !found.is_empty();
                                        let cands = found
                                            .into_iter()
                                            .map(|cand| {
                                                let txs = cand
                                                    .nodes
                                                    .iter()
                                                    .map(|&n| u.instances[n].orig_tx)
                                                    .collect();
                                                let labels = cand
                                                    .steps
                                                    .iter()
                                                    .map(|s| s.label)
                                                    .collect();
                                                CandidateRecord {
                                                    txs,
                                                    labels,
                                                    cand,
                                                    outcome: CandOutcome::Deferred,
                                                }
                                            })
                                            .collect();
                                        WorkRecord {
                                            index,
                                            suspicious,
                                            unfolding: Some(u),
                                            cands,
                                            truncated: false,
                                            sym: tag,
                                        }
                                    }
                                };
                                if record_tx.send(rec).is_err() {
                                    break 'pull;
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            drop(record_tx);
            // Deterministic replay, concurrent with discovery: records
            // merge strictly in ascending unfolding index, so the
            // published snapshot is always a fully merged prefix.
            let mut classes: HashMap<usize, ClassRecord> = HashMap::new();
            let mut stash: BTreeMap<usize, WorkRecord> = BTreeMap::new();
            let mut next_merge = 0usize;
            let mut merged = 0usize;
            let mut merge_clock = Duration::ZERO;
            while let Ok(rec) = record_rx.recv() {
                stash.insert(rec.index, rec);
                while let Some(rec) = stash.remove(&next_merge) {
                    let t0 = Instant::now();
                    self.merge_record(rec, k, snapshot, &mut classes, result);
                    merge_clock += t0.elapsed();
                    next_merge += 1;
                    merged += 1;
                }
                // Dispensed-but-unmerged unfoldings are the live window:
                // in-flight on workers, in the channel, or stashed here.
                let resident = dispensed.load(Ordering::Relaxed).saturating_sub(merged);
                result.stats.peak_unfoldings_resident =
                    result.stats.peak_unfoldings_resident.max(resident);
            }
            // A deadline abort can leave index gaps; replay stragglers in
            // ascending order (exactness is moot once the budget fired,
            // but partial results must still be well-formed).
            for (_, rec) in std::mem::take(&mut stash) {
                let t0 = Instant::now();
                self.merge_record(rec, k, snapshot, &mut classes, result);
                merge_clock += t0.elapsed();
            }
            result.stats.timings.merge += merge_clock;
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        for (w, local) in locals.iter().enumerate() {
            result.stats.speculative_smt_queries += local.queries;
            result.stats.preprune_skips += local.preprune_skips;
            result.stats.assumption_solves += local.assumption_solves;
            result.stats.sat_resolves += local.sat_resolves;
            result.stats.learnt_clauses += local.learnt_clauses;
            if let Some(q) = result.stats.per_worker_queries.get_mut(w) {
                *q += local.queries;
            }
            result.stats.timings.ssg_filter += local.ssg_filter;
            result.stats.timings.smt += local.smt;
            result.stats.timings.encoder_build += local.encoder_build;
            result.stats.timings.query_solve += local.query_solve;
            result.stats.timings.validate += local.validate;
        }
    }

    /// Section 7.2 generalization: every DSG path segment with an
    /// anti-dependency spanning `k + 1` sessions is either subsumed by a
    /// found violation or can be short-cut onto fewer sessions.
    ///
    /// Segments follow the Figure 9 schema and are enumerated directly
    /// over the abstract history: a head transaction `T1`, a middle
    /// session chain, and a tail transaction `T3` receiving the
    /// anti-dependency. The short-cut check re-instantiates the
    /// anti-dependency's source transaction as a *mirror* (same inputs and
    /// outcomes) at the end of `T1`'s session and proves via SMT that the
    /// anti-dependency to `T3` persists in every model of the segment.
    /// Implemented for `k = 2` (the case every benchmark needs, as in the
    /// paper); larger `k` falls back to the bounded guarantee.
    fn generalizes(
        &self,
        arena: &Arc<TxArena>,
        tables: &PairTables,
        k: usize,
        deadline: &Deadline,
        violations: &[Violation],
        stats: &mut AnalysisStats,
    ) -> bool {
        if k != 2 {
            return false;
        }
        let unfolded = arena.bodies();
        let n_tx = self.h.txs.len();
        let chains = crate::unfold::session_choices(&self.h);
        // Shortcut features: closed-world axioms off (the real history may
        // contain events outside the segment), mirroring requires
        // freshness off.
        let features = AnalysisFeatures {
            freshness: false,
            ret_justification: false,
            ..self.features.clone()
        };
        for t1 in 0..n_tx {
            for chain in &chains {
                if deadline.expired() {
                    // Cannot finish the proof within budget: fall back to
                    // the bounded guarantee.
                    return false;
                }
                let mids: Vec<usize> = match *chain {
                    crate::unfold::SessionChoice::Single(m) => vec![m],
                    crate::unfold::SessionChoice::Pair(a, b) => vec![a, b],
                };
                let m_first = mids[0];
                let m_last = *mids.last().expect("non-empty chain");
                // The ⊖ source must be a query of the chain's last member.
                if !unfolded[m_last].events.iter().any(|e| e.kind.is_query()) {
                    continue;
                }
                for t3 in 0..n_tx {
                    // Fast feasibility from the pair tables.
                    let dep_possible = tables.anti_between(t1, m_first, false)
                        || tables.conflict_between(t1, m_first, false)
                        || tables.anti_between(m_first, t1, false)
                        || any_dep_between(tables, unfolded, t1, m_first);
                    if !dep_possible || !tables.anti_between(m_last, t3, false) {
                        continue;
                    }
                    let mut txs: BTreeSet<usize> = mids.iter().copied().collect();
                    txs.insert(t1);
                    txs.insert(t3);
                    if violations.iter().any(|v| v.subsumes(&txs)) {
                        continue;
                    }
                    if deadline.expired() {
                        return false;
                    }
                    // Build the segment unfolding plus the mirror ghost.
                    let mut instances =
                        vec![UnfoldingInstance { orig_tx: t1, session: 0, pos: 0 }];
                    for (pos, &m) in mids.iter().enumerate() {
                        instances.push(UnfoldingInstance { orig_tx: m, session: 1, pos });
                    }
                    instances.push(UnfoldingInstance { orig_tx: t3, session: 2, pos: 0 });
                    let t3_idx = instances.len() - 1;
                    let m_last_idx = t3_idx - 1;
                    let ghost_idx = instances.len();
                    instances.push(UnfoldingInstance { orig_tx: m_last, session: 0, pos: 1 });
                    let u = Unfolding { arena: Arc::clone(arena), instances, k: 3 };
                    stats.smt_queries += 1;
                    stats.generalization_queries += 1;
                    let t0 = Instant::now();
                    let mut enc =
                        crate::encode::CycleEncoder::new(&u, &self.far, &features);
                    enc.assert_some_dependency(0, 1);
                    enc.assert_step(m_last_idx, t3_idx, SsgLabel::Anti);
                    enc.assert_mirror(ghost_idx, m_last_idx);
                    enc.assert_no_anti_args(ghost_idx, t3_idx);
                    let mut q = c4_obs::span("gen_query");
                    let sat = enc.solve().is_some();
                    q.set_arg(if sat { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
                    drop(q);
                    stats.timings.smt += t0.elapsed();
                    if sat {
                        // Some model of the segment admits no short-cut.
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Whether any dependency edge (⊕/⊖/⊗, either orientation into the
/// chain head) is possible between instances of two transactions on
/// different sessions.
fn any_dep_between(
    tables: &PairTables,
    unfolded: &[AbsTx],
    a: usize,
    b: usize,
) -> bool {
    use crate::ssg::PairCtx;
    let ctx = PairCtx::distinct();
    for (ea, e) in unfolded[a].events.iter().enumerate() {
        for (eb, f) in unfolded[b].events.iter().enumerate() {
            if (e.kind.is_update() || f.kind.is_update()) && tables.notcom(a, ea, b, eb, ctx) {
                return true;
            }
        }
    }
    false
}

/// Whether a transaction references session-local constants (and is thus
/// pinned to its session).
pub fn references_locals(tx: &AbsTx) -> bool {
    let is_local = |a: &AbsArg| matches!(a, AbsArg::Local(_));
    tx.events.iter().any(|e| e.args.iter().any(is_local))
        || tx.edges.iter().any(|e| e.cond.iter().any(|c| is_local(&c.lhs) || is_local(&c.rhs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_history::{ev, straight_line_tx, AbsEventSpec, Cond, EoEdge, Node, RelOp};
    use c4_store::op::OpKind;
    use c4_store::Value;

    fn figure1a(key_p: AbsArg, key_g: AbsArg) -> AbstractHistory {
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![key_p, AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![key_g])]));
        h.free_session_order();
        h
    }

    #[test]
    fn free_keys_program_is_flagged_and_generalizes() {
        let h = figure1a(AbsArg::Wild, AbsArg::Wild);
        let res = Checker::new(h, AnalysisFeatures::default()).run();
        assert!(!res.violations.is_empty());
        assert!(res.generalized, "violations must subsume all larger cycles");
        assert_eq!(res.max_k, 2, "the paper reports k = 2 everywhere");
        // The violation involves both transactions and has a counterexample.
        let v = &res.violations[0];
        assert!(v.txs.contains(&0) && v.txs.contains(&1));
        assert!(v.counterexample.is_some(), "counter-example must validate");
    }

    #[test]
    fn session_local_keys_proved_serializable() {
        let mut h = AbstractHistory::new();
        let u = h.local("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![u.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![u])]));
        h.free_session_order();
        let res = Checker::new(h, AnalysisFeatures::default()).run();
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert!(res.generalized, "the Section 7.2 short-cut must fire");
        assert!(res.serializable());
    }

    #[test]
    fn global_keys_proved_serializable_by_ssg_alone() {
        let mut h = AbstractHistory::new();
        let g = h.global("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![g.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![g])]));
        h.free_session_order();
        let res = Checker::new(h, AnalysisFeatures::default()).run();
        assert!(res.violations.is_empty());
        assert!(res.generalized);
        assert_eq!(res.stats.smt_sat, 0);
    }

    /// The Figure 11 addFollower pattern: guarded implicit creation. With
    /// control flow and asymmetric commutativity the program has no
    /// 2-session violation; without control flow the Figure 11c false
    /// alarm appears.
    fn add_follower_history() -> AbstractHistory {
        let mut h = AbstractHistory::new();
        let mut tx = AbsTx {
            name: "addFollower".into(),
            params: vec!["n1".into(), "n2".into()],
            events: vec![
                ev("Users", OpKind::TblContains, vec![AbsArg::Param(0)]),
                AbsEventSpec {
                    object: "Users".into(),
                    kind: OpKind::FldAdd("flwrs".into()),
                    args: vec![AbsArg::Param(0), AbsArg::Param(1)],
                    display: false,
                },
            ],
            edges: vec![],
        };
        tx.edges.push(EoEdge { src: Node::Entry, tgt: Node::Event(0), cond: vec![] });
        tx.edges.push(EoEdge {
            src: Node::Event(0),
            tgt: Node::Event(1),
            cond: vec![Cond {
                lhs: AbsArg::Ret(0),
                op: RelOp::Eq,
                rhs: AbsArg::Const(Value::bool(true)),
            }],
        });
        tx.edges.push(EoEdge {
            src: Node::Event(0),
            tgt: Node::Exit,
            cond: vec![Cond {
                lhs: AbsArg::Ret(0),
                op: RelOp::Eq,
                rhs: AbsArg::Const(Value::bool(false)),
            }],
        });
        tx.edges.push(EoEdge { src: Node::Event(1), tgt: Node::Exit, cond: vec![] });
        h.add_tx(tx);
        h.free_session_order();
        h
    }

    #[test]
    fn add_follower_needs_control_flow_and_asymmetry() {
        let h = add_follower_history();
        let res = Checker::new(h.clone(), AnalysisFeatures::default()).run();
        assert!(
            res.violations.is_empty(),
            "guarded addFollower is serializable: {:?}",
            res.violations.iter().map(|v| &v.labels).collect::<Vec<_>>()
        );
        // Figure 11c: without control flow, two implicit creations both
        // observing contains:false become a (false) alarm.
        let no_cf = AnalysisFeatures { control_flow: false, ..AnalysisFeatures::default() };
        let res2 = Checker::new(h, no_cf).run();
        assert!(!res2.violations.is_empty(), "control-flow ablation must re-introduce the alarm");
    }

    #[test]
    fn references_locals_detection() {
        let mut h = AbstractHistory::new();
        let l = h.local("u");
        let tx = straight_line_tx("t", vec![], vec![ev("M", OpKind::MapGet, vec![l])]);
        assert!(references_locals(&tx));
        let tx2 = straight_line_tx("t2", vec![], vec![ev("M", OpKind::MapGet, vec![AbsArg::Wild])]);
        assert!(!references_locals(&tx2));
    }

    #[test]
    fn parallel_run_matches_sequential_on_figure1a() {
        let h = figure1a(AbsArg::Wild, AbsArg::Wild);
        let seq = Checker::new(
            h.clone(),
            AnalysisFeatures { parallelism: 1, ..AnalysisFeatures::default() },
        )
        .run();
        let par = Checker::new(
            h,
            AnalysisFeatures { parallelism: 4, ..AnalysisFeatures::default() },
        )
        .run();
        assert!(seq.same_verdict(&par));
        assert_eq!(seq.stats.replay_counters(), par.stats.replay_counters());
        assert_eq!(par.stats.workers, 4);
        assert_eq!(par.stats.preprune_fallbacks, 0);
    }

    #[test]
    fn zero_budget_returns_partial_result_quickly() {
        for parallelism in [1usize, 4] {
            let h = figure1a(AbsArg::Wild, AbsArg::Wild);
            let features = AnalysisFeatures {
                time_budget_secs: 0,
                parallelism,
                ..AnalysisFeatures::default()
            };
            let start = Instant::now();
            let res = Checker::new(h, features).run();
            assert!(start.elapsed() < Duration::from_secs(2));
            assert!(res.stats.deadline_hit, "parallelism {parallelism} must flag the deadline");
            assert!(!res.generalized, "an exhausted budget cannot prove generalization");
            assert_eq!(res.max_k, 2, "partial results still report the k they attempted");
        }
    }
}
