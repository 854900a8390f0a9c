//! Algorithm 1: the end-to-end serializability check.
//!
//! `CheckBounded(H, k, V)` enumerates the k-unfoldings, pre-filters them
//! with the SSG analysis (Theorem 3), skips candidate cycles subsumed by
//! already-found violations, and asks the SMT stage for concrete models.
//! `Check(H)` iterates `k = 2, 3, …` until the Section 7.2 generalization
//! establishes that the found violations subsume all cycles on any number
//! of sessions, or the `k` bound is reached.
//!
//! # The bounded-search driver
//!
//! One driver runs `CheckBounded`, in two steps per unfolding:
//!
//! 1. **Discover.** The unfolding is classified by symmetry (DESIGN
//!    §5.12): the first member of an equivalence class is its
//!    representative, later members replay its verdicts. A
//!    representative gets the SC1 pre-filter, the SSG stage, candidate
//!    enumeration and the batched refutation probe; a permuted member
//!    gets only the SSG stage; an identity member gets nothing. The result
//!    is one [`WorkRecord`].
//! 2. **Merge.** Records are committed strictly in enumeration order
//!    with the sequential subsumption semantics (`subsumes`/`retain`). A
//!    candidate that is still unsubsumed when reached and has no verdict
//!    yet is solved right there.
//!
//! With `n > 1` workers, discovery runs on a scoped pool that pulls
//! unfoldings from a shared dispenser and *solves eagerly*: every
//! candidate the best-effort subsumption snapshot does not cover is
//! solved on the worker. The calling thread merges concurrently. Because
//! a candidate's SMT verdict depends only on the unfolding and the
//! candidate, not on the violation set, the merged result does not depend
//! on scheduling. The snapshot only ever prunes work: subsumption is
//! *monotone* (the merged set only ever replaces a violation by a
//! transaction-subset of itself), so a candidate a merged prefix subsumes
//! stays subsumed at its own merge point.
//!
//! With one worker there is no thread, channel or stash: each record is
//! merged on the calling thread as soon as it is discovered, and the
//! merge *solves lazily* through the unfolding's shared incremental
//! session, so a verdict committed by one candidate is seen before the
//! next candidate is solved and no query is speculative.
//!
//! Cancellation is cooperative: a wall-clock [`Deadline`] is checked per
//! unfolding and per SMT query, on every worker and in the merge.
//!
//! [`Checker::run_reference`] is the same search with none of the
//! driver's policies (no pool, no symmetry classes, no probe, no shared
//! session). The differential tests compare the two.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, RwLock};
use std::time::{Duration, Instant};

use c4_algebra::{FarSpec, RewriteSpec};
use c4_store::txset::TxSet;

use std::sync::Arc;

use crate::abstract_history::{AbsArg, AbsTx, AbstractHistory};
use crate::counterexample::CounterExample;
use crate::encode::{CycleEncoder, SmtWorkspace};
use crate::intern::TxArena;
use crate::report::{AnalysisResult, AnalysisStats, Stage, StageTimings, Violation};
use crate::ssg::{candidate_cycles, CandidateCycle, Candidates, PairTables, Ssg, SsgLabel};
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
    /// Worker threads for the bounded search: `0` = one per available
    /// hardware thread, `1` = discovery and merge inline on the calling
    /// thread, `n > 1` = a pool of `n` workers. Every setting produces the
    /// same violations, `generalized` flag, `max_k` and counter-example
    /// renderings (see the module docs for the determinism argument).
    pub parallelism: usize,
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
            parallelism: 0,
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

/// A candidate cycle's verdict, as discovered and as committed.
#[derive(Clone)]
enum CandOutcome {
    /// No verdict yet: the merge solves the candidate if it is still
    /// unsubsumed when reached. In a [`ClassRecord`], the candidate was
    /// subsumed at the representative's position, so members re-check
    /// their own transaction set and, if live, solve.
    Pending,
    /// The SMT stage refuted the cycle.
    Refuted,
    /// The SMT stage found a model. `rendered` is the counter-example
    /// rendering, `None` when validation was requested and failed.
    Sat { rendered: Option<String> },
}

/// One unfolding's discovery result, committed by the merge.
struct WorkRecord {
    /// Position in the enumeration order.
    index: usize,
    /// Symmetry role assigned at classification.
    sym: SymTag,
    /// SC1 passed and at least one candidate cycle exists (not computed
    /// for identity members).
    suspicious: bool,
    /// Candidates in enumeration order: none for an identity member, and
    /// a representative's stop where its worker hit the deadline.
    cands: Candidates,
    /// A representative's verdict per candidate, as discovered.
    outcomes: Vec<CandOutcome>,
}

/// Symmetry role of an enumerated unfolding (DESIGN §5.12).
enum SymTag {
    /// First enumerated member of its equivalence class: analyzed in
    /// full, and its verdicts are recorded for the other members.
    Rep { fp: Vec<u64> },
    /// Member whose fingerprint sequence equals the representative's
    /// verbatim: instance indices line up one-to-one, so the rep's
    /// candidate list (and rendered counter-examples) replay directly.
    Identity { class: usize },
    /// Member that matches the representative only after a session
    /// permutation: the SSG stage runs to get member-order candidates,
    /// and verdicts are looked up in rep coordinates.
    Permuted { class: usize, fp: Vec<u64> },
}

/// Classifies unfoldings against the classes seen so far, keyed by
/// canonical form (the sorted fingerprint sequence) and numbered in order
/// of first appearance. Classification follows the enumeration order, so
/// it does not depend on the worker count. Lookups go through two reused
/// buffers; only a new class or a permuted member allocates.
#[derive(Default)]
struct Classifier {
    /// Canonical key → (class number, the representative's per-session
    /// fingerprints).
    seen: HashMap<Vec<u64>, (usize, Vec<u64>)>,
    /// The current unfolding's fingerprints, and their sorted copy.
    fp: Vec<u64>,
    key: Vec<u64>,
}

impl Classifier {
    fn classify(&mut self, u: &Unfolding) -> SymTag {
        u.fp_seq_into(&mut self.fp);
        self.key.clone_from(&self.fp);
        self.key.sort_unstable();
        match self.seen.get(self.key.as_slice()) {
            Some(&(class, ref rep_fp)) if self.fp == *rep_fp => SymTag::Identity { class },
            Some(&(class, _)) => SymTag::Permuted { class, fp: self.fp.clone() },
            None => {
                let class = self.seen.len();
                self.seen.insert(self.key.clone(), (class, self.fp.clone()));
                SymTag::Rep { fp: self.fp.clone() }
            }
        }
    }
}

/// A representative's committed verdicts, replayed onto every other
/// member of its equivalence class. Only refutations transfer across a
/// session permutation: the SMT encoding is isomorphic under session
/// renaming, so satisfiability is invariant, but a SAT rendering names
/// the rep's transactions and is reused verbatim by identity members
/// only.
struct ClassRecord {
    /// The representative's per-session fingerprints (unsorted).
    rep_fp: Vec<u64>,
    /// The representative had candidate cycles. By the isomorphism
    /// between class members, so does every member (and vice versa).
    suspicious: bool,
    /// The representative's candidates in its enumeration order, up to
    /// where its merge stopped.
    cands: Candidates,
    /// The verdict committed for each candidate: `Pending` where it was
    /// subsumed at the representative's position.
    outcomes: Vec<CandOutcome>,
    /// The refuted candidates as `(key hash, index)`, sorted. A permuted
    /// member replays only a refutation (it re-solves on a pending or SAT
    /// entry as on a missing one), so no other candidate needs a key.
    refuted: Vec<(u64, u32)>,
}

impl ClassRecord {
    /// Whether the representative refuted member candidate `i` of
    /// `cands`, whose instances `map` takes to rep coordinates.
    fn refutes(&self, cands: &Candidates, i: usize, map: &[usize]) -> bool {
        let mapped = |n: usize| map[n];
        let h = key_hash(canonical_steps(cands, i, mapped));
        let lo = self.refuted.partition_point(|&(k, _)| k < h);
        self.refuted[lo..].iter().take_while(|&&(k, _)| k == h).any(|&(_, j)| {
            canonical_steps(&self.cands, j as usize, |n| n).eq(canonical_steps(cands, i, mapped))
        })
    }
}

/// Candidate `i`'s steps in class-canonical form: `(from, to, label,
/// src_event, tgt_event)` with the nodes in rep coordinates (`map` takes
/// an instance there), rotated so the step leaving the minimal node leads.
fn canonical_steps<'c>(
    cands: &'c Candidates,
    i: usize,
    map: impl Fn(usize) -> usize + Copy + 'c,
) -> impl Iterator<Item = (usize, usize, SsgLabel, usize, usize)> + 'c {
    let steps = cands.steps(i);
    let edges = cands.ssg().edges();
    let m = steps.len();
    let r = (0..m).min_by_key(|&s| map(edges[steps[s] as usize].from)).unwrap_or(0);
    (0..m).map(move |s| {
        let e = &edges[steps[(r + s) % m] as usize];
        (map(e.from), map(e.to), e.label, e.src_event, e.tgt_event)
    })
}

/// The hash a canonical key is filed under in [`ClassRecord::refuted`].
fn key_hash(steps: impl Iterator<Item = (usize, usize, SsgLabel, usize, usize)>) -> u64 {
    let mut h = DefaultHasher::new();
    steps.for_each(|step| step.hash(&mut h));
    h.finish()
}

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

/// Refills `txs` with the original transactions candidate `i` of `cands`
/// runs through in `u`.
fn load_txs(txs: &mut TxSet, u: &Unfolding, cands: &Candidates, i: usize) {
    txs.clear();
    for e in cands.edges(i) {
        txs.insert(u.instances[e.from].orig_tx);
    }
}

/// The merge's subsumption state: the committed violations' transaction
/// sets, kept in step with `result.violations`, and the set of the
/// candidate being merged.
struct Subsumers {
    sets: Vec<TxSet>,
    txs: TxSet,
}

impl Subsumers {
    fn new(violations: &[Violation]) -> Self {
        let mut subs = Subsumers { sets: Vec::new(), txs: TxSet::default() };
        subs.refresh(violations);
        subs
    }

    /// Re-reads the committed violations after a SAT verdict changed them.
    fn refresh(&mut self, violations: &[Violation]) {
        self.sets = violations.iter().map(|v| v.txs.iter().copied().collect()).collect();
    }

    /// Loads candidate `i`'s transactions in `u`; whether a committed
    /// violation subsumes them.
    fn load(&mut self, u: &Unfolding, cands: &Candidates, i: usize) -> bool {
        load_txs(&mut self.txs, u, cands, i);
        self.sets.iter().any(|v| v.is_subset(&self.txs))
    }
}

/// The reference search's transaction set of a candidate: the original
/// transactions it runs through.
fn tx_set(u: &Unfolding, cand: &CandidateCycle) -> BTreeSet<usize> {
    cand.nodes.iter().map(|&n| u.instances[n].orig_tx).collect()
}

/// Whether any committed violation subsumes a candidate's transactions
/// (the reference search's test).
fn subsumed(result: &AnalysisResult, txs: &BTreeSet<usize>) -> bool {
    result.violations.iter().any(|v| v.subsumes(txs))
}

/// Per-thread state: counters, folded into [`AnalysisStats`] at the end
/// of a round, and the SMT workspaces the thread's encoders are built on.
#[derive(Default)]
struct WorkerLocal {
    queries: usize,
    preprune_skips: usize,
    assumption_solves: usize,
    sat_resolves: usize,
    learnt_clauses: usize,
    /// Retired encoders' workspaces, for the next encoders to reuse. A
    /// thread has at most two encoders live at once (an unfolding's
    /// shared session and one model-producing encoder), so at most two
    /// are kept. They die with the thread's state, within one
    /// [`Checker::run`].
    spare: Vec<SmtWorkspace>,
    /// Builds every encoder on a new workspace and keeps none (the
    /// reference search).
    fresh_workspaces: bool,
}

impl WorkerLocal {
    /// A workspace for the next encoder: a retired one if any is kept.
    fn workspace(&mut self) -> SmtWorkspace {
        self.spare.pop().unwrap_or_default()
    }

    /// Retires an encoder, keeping its workspace for the next one.
    fn recycle(&mut self, enc: CycleEncoder<'_>) {
        if !self.fresh_workspaces && self.spare.len() < 2 {
            self.spare.push(enc.into_workspace());
        }
    }

    /// Retires an unfolding's shared session, keeping its learnt-clause
    /// count.
    fn retire(&mut self, session: Option<CycleEncoder<'_>>) {
        if let Some(enc) = session {
            self.learnt_clauses += enc.session_stats().2;
            self.recycle(enc);
        }
    }

    /// Folds these counters into `stats` and zeroes them: as worker `w`'s
    /// when `worker` is `Some(w)`, as the pool's merge thread's otherwise.
    fn fold(&mut self, stats: &mut AnalysisStats, worker: Option<usize>) {
        match worker {
            Some(w) => {
                stats.speculative_smt_queries += self.queries;
                if let Some(q) = stats.per_worker_queries.get_mut(w) {
                    *q += self.queries;
                }
            }
            None => stats.merge_smt_queries += self.queries,
        }
        stats.preprune_skips += self.preprune_skips;
        stats.assumption_solves += self.assumption_solves;
        stats.sat_resolves += self.sat_resolves;
        stats.learnt_clauses += self.learnt_clauses;
        *self = WorkerLocal {
            spare: std::mem::take(&mut self.spare),
            fresh_workspaces: self.fresh_workspaces,
            ..WorkerLocal::default()
        };
    }
}

/// The shared state of one `k` round, read by discovery and the merge.
struct Round<'r> {
    k: usize,
    tables: &'r PairTables,
    deadline: &'r Deadline,
    /// The merged violations' transaction sets, republished by the merge
    /// after every record that committed a SAT verdict.
    snapshot: RwLock<Vec<TxSet>>,
    /// Discovery runs on a pool and solves eagerly; otherwise it runs
    /// inline and the merge solves lazily.
    pool: bool,
}

/// The merge's own state in one `k` round.
struct Merge<'r> {
    round: &'r Round<'r>,
    /// Class records, indexed by class number: the in-order merge
    /// commits every representative, in class order, before its members.
    classes: Vec<ClassRecord>,
    /// The state charged with the solves the merge runs itself: the
    /// worker's own at one worker, the merge thread's in the pool.
    local: &'r mut WorkerLocal,
    subs: Subsumers,
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
        let workers = self.effective_parallelism();
        self.search(workers, WorkerLocal::default(), |arena, tables, k, deadline, result, local| {
            self.check_bounded(arena, tables, k, workers, deadline, result, local)
        })
    }

    /// The differential oracle: the same search with none of the driver's
    /// policies — sequential, no symmetry classes, no batched probe, no
    /// shared session, one fresh encoder per candidate, each on a new
    /// [`SmtWorkspace`], so no solver state passes between queries. Its
    /// report bytes equal [`run`](Self::run)'s; its `classes`, session
    /// counters and merge counters stay zero.
    #[doc(hidden)]
    pub fn run_reference(&self) -> AnalysisResult {
        let fresh = WorkerLocal { fresh_workspaces: true, ..WorkerLocal::default() };
        self.search(1, fresh, |arena, tables, k, deadline, result, local| {
            for u in unfoldings(&self.h, arena, k) {
                if deadline.expired() {
                    break;
                }
                result.stats.unfoldings += 1;
                let cands = self.filter_candidates(&u, tables);
                if !cands.is_empty() {
                    result.stats.suspicious_unfoldings += 1;
                }
                for cand in cands.cycles() {
                    let txs = tx_set(&u, &cand);
                    if subsumed(result, &txs) {
                        result.stats.subsumed_candidates += 1;
                        continue;
                    }
                    if deadline.expired() {
                        break;
                    }
                    result.stats.smt_queries += 1;
                    let outcome = self.solve_candidate(&u, &cand, None, local);
                    self.commit_outcome(outcome, k, result, || {
                        (txs, cand.steps.iter().map(|s| s.label).collect())
                    });
                }
            }
            local.fold(&mut result.stats, Some(0));
        })
    }

    /// `Check(H)`: bounded rounds `k = 2, 3, …` until the generalization
    /// fires, `max_k` is reached or the deadline expires. `round` runs
    /// one `CheckBounded`; it and the generalization queries run on this
    /// thread's `local` state, which the search drops when it returns.
    fn search(
        &self,
        workers: usize,
        mut local: WorkerLocal,
        mut round: impl FnMut(
            &Arc<TxArena>,
            &PairTables,
            usize,
            &Deadline,
            &mut AnalysisResult,
            &mut WorkerLocal,
        ),
    ) -> AnalysisResult {
        let _span = c4_obs::span("analysis");
        // Stages this thread books from here on are the run's; a pool
        // round adds its workers'.
        let clock = c4_obs::thread_ledger();
        let deadline = Deadline::new(self.features.time_budget_secs, self.cancel.clone());
        let mut result = AnalysisResult::default();
        result.stats.workers = workers;
        result.stats.per_worker_queries = vec![0; workers];
        let _unfold = c4_obs::span("unfold");
        let arena = arena_for(&self.h);
        let tables = PairTables::compute(arena.bodies(), &self.far);
        drop(_unfold);
        let mut k = 2usize;
        loop {
            {
                let _k_span = c4_obs::span_arg("check_bounded", k as u64);
                round(&arena, &tables, k, &deadline, &mut result, &mut local);
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
                        &mut local,
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
        result.stats.deadline_hit = deadline.was_hit();
        result.stats.timings += c4_obs::thread_ledger() - clock;
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
    fn filter_candidates(&self, u: &Unfolding, tables: &PairTables) -> Candidates {
        let _stage = c4_obs::stage(Stage::SsgFilter);
        if self.sc1_possible(u, tables) {
            candidate_cycles(u, Ssg::of_unfolding(u, tables), tables)
        } else {
            Candidates::default()
        }
    }

    /// A new encoder for `u` on one of `local`'s workspaces: a shared
    /// session or a one-query encoder.
    fn encoder<'a>(&'a self, u: &'a Unfolding, local: &mut WorkerLocal) -> CycleEncoder<'a> {
        CycleEncoder::new(u, &self.far, &self.features, local.workspace())
    }

    /// Solves one candidate cycle: SMT query plus counter-example
    /// decoding, validation and rendering. Independent of the violation
    /// set, hence safe to run on any worker in any order.
    ///
    /// With a `shared` incremental session, the candidate is first decided
    /// through it under an assumption literal; only a SAT verdict falls
    /// through to a fresh encoder, which produces the canonical
    /// counter-example model. The fresh path is authoritative: its outcome
    /// is what gets committed, so a verdict does not depend on the
    /// session's history.
    fn solve_candidate(
        &self,
        u: &Unfolding,
        cand: &CandidateCycle,
        shared: Option<&mut CycleEncoder>,
        local: &mut WorkerLocal,
    ) -> CandOutcome {
        if let Some(enc) = shared {
            let mut q = c4_obs::stage(Stage::SmtQuery);
            let sat = enc.check_shared(cand);
            q.set_arg(if sat { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
            drop(q);
            local.queries += 1;
            local.assumption_solves += 1;
            if !sat {
                return CandOutcome::Refuted;
            }
            local.sat_resolves += 1;
        }
        let mut enc = self.encoder(u, local);
        let mut q = c4_obs::stage(Stage::SmtQuery);
        let model = enc.check(cand);
        q.set_arg(if model.is_some() { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
        drop(q);
        local.recycle(enc);
        local.queries += 1;
        match model {
            None => CandOutcome::Refuted,
            Some(model) => {
                let _v = c4_obs::stage(Stage::Validate);
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
                CandOutcome::Sat { rendered }
            }
        }
    }

    /// Commits one candidate verdict to the result with the sequential
    /// subsumption semantics. A SAT verdict drops the committed violations
    /// it strictly subsumes (a smaller cycle subsumes a larger one) and
    /// joins the set with the transactions and step labels that
    /// `violation` yields; only a SAT verdict calls it.
    fn commit_outcome(
        &self,
        outcome: CandOutcome,
        k: usize,
        result: &mut AnalysisResult,
        violation: impl FnOnce() -> (BTreeSet<usize>, Vec<SsgLabel>),
    ) {
        match outcome {
            CandOutcome::Pending => unreachable!("pending candidates are solved before commit"),
            CandOutcome::Refuted => result.stats.smt_refuted += 1,
            CandOutcome::Sat { rendered } => {
                result.stats.smt_sat += 1;
                if rendered.is_none() && self.features.validate_counterexamples {
                    result.stats.validation_failures += 1;
                }
                let (txs, labels) = violation();
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

    /// Commits the verdict of live candidate `i` of `cands`, whose
    /// transactions `subs` holds, from the merge; the transaction set
    /// becomes a `BTreeSet` only for a SAT verdict, which also refreshes
    /// `subs`.
    fn commit_merged(
        &self,
        subs: &mut Subsumers,
        cands: &Candidates,
        i: usize,
        outcome: CandOutcome,
        k: usize,
        result: &mut AnalysisResult,
    ) {
        let sat = matches!(outcome, CandOutcome::Sat { .. });
        self.commit_outcome(outcome, k, result, || {
            (subs.txs.iter().collect(), cands.edges(i).map(|e| e.label).collect())
        });
        if sat {
            subs.refresh(&result.violations);
        }
    }

    /// `CheckBounded`: finds all unsubsumed violations on `k` sessions.
    /// One worker discovers and merges inline; more run the pool.
    fn check_bounded(
        &self,
        arena: &Arc<TxArena>,
        tables: &PairTables,
        k: usize,
        workers: usize,
        deadline: &Deadline,
        result: &mut AnalysisResult,
        local: &mut WorkerLocal,
    ) {
        let subs = Subsumers::new(&result.violations);
        let round = Round {
            k,
            tables,
            deadline,
            snapshot: RwLock::new(subs.sets.clone()),
            pool: workers > 1,
        };
        let mut m = Merge { round: &round, classes: Vec::new(), local, subs };
        if round.pool {
            self.discover_on_pool(arena, workers, &mut m, result);
            m.local.fold(&mut result.stats, None);
            return;
        }
        let mut classifier = Classifier::default();
        let mut any = false;
        for (index, u) in unfoldings(&self.h, arena, k).enumerate() {
            if deadline.expired() {
                break;
            }
            any = true;
            let mut sym = classifier.classify(&u);
            if let SymTag::Permuted { class, .. } = sym {
                // The SSG stage is isomorphic across a class: a member of
                // a class without candidates has none either, so it needs
                // no SSG stage, just like an identity member.
                if !m.classes[class].suspicious {
                    sym = SymTag::Identity { class };
                }
            }
            let mut session = None;
            let rec = self.discover(index, &u, sym, &round, &mut session, m.local);
            self.merge_record(rec, &u, &mut session, &mut m, result);
        }
        if any {
            // The streaming enumeration keeps exactly one unfolding (plus
            // the class records) resident at a time.
            result.stats.peak_unfoldings_resident = result.stats.peak_unfoldings_resident.max(1);
        }
        m.local.fold(&mut result.stats, Some(0));
    }

    /// Discovery for one unfolding: the SSG stage and, for a
    /// representative, the batched refutation probe. On the pool the
    /// worker also solves every candidate the snapshot does not cover;
    /// inline, candidates the probe did not refute stay
    /// [`CandOutcome::Pending`] for the merge. The unfolding's shared
    /// session, if one is built, is left in `session` (an out-parameter:
    /// the encoder is large, and most unfoldings build none).
    fn discover<'a>(
        &'a self,
        index: usize,
        u: &'a Unfolding,
        sym: SymTag,
        round: &Round,
        session: &mut Option<CycleEncoder<'a>>,
        local: &mut WorkerLocal,
    ) -> WorkRecord {
        let Round { tables, deadline, pool: eager, .. } = *round;
        let mut rec = WorkRecord {
            index,
            sym,
            suspicious: false,
            cands: Candidates::default(),
            outcomes: Vec::new(),
        };
        if matches!(rec.sym, SymTag::Identity { .. }) {
            // All work replays off the rep's class record at merge time.
            return rec;
        }
        rec.cands = self.filter_candidates(u, tables);
        rec.suspicious = !rec.cands.is_empty();
        if matches!(rec.sym, SymTag::Permuted { .. }) {
            // Candidate order is member specific, so only the SSG stage
            // runs here; verdicts resolve from the class record.
            return rec;
        }
        let cands = &rec.cands;
        let mut txs = TxSet::default();
        let mut covered = |i: usize| {
            load_txs(&mut txs, u, cands, i);
            round.snapshot.read().expect("subsumption snapshot lock").iter().any(|v| v.is_subset(&txs))
        };
        // Batched refutation probe: one disjunctive solve over the
        // candidates the snapshot does not cover. UNSAT refutes them all —
        // the common case — so the per-candidate assumption solves
        // collapse into a single solver call; SAT falls back to solving
        // each candidate. The snapshot only grows and the violation set
        // cannot change while every verdict is Refuted, so every candidate
        // the merge finds live was part of the probed set.
        let mut all_refuted = false;
        if cands.len() >= 2 && !deadline.expired() {
            let pending: Vec<usize> = (0..cands.len()).filter(|&i| !covered(i)).collect();
            if pending.len() >= 2 {
                let enc = session.insert(self.encoder(u, local));
                let probe = c4_obs::stage_arg(Stage::SmtQuery, c4_obs::tag::PROBE);
                let sat = enc.check_shared_any(cands, &pending);
                drop(probe);
                local.queries += 1;
                local.assumption_solves += 1;
                all_refuted = !sat;
            }
        }
        let mut outcomes = Vec::with_capacity(cands.len());
        for i in 0..cands.len() {
            // Inline, nothing below costs time worth a deadline check.
            if eager && deadline.expired() {
                break;
            }
            let outcome = if eager && covered(i) {
                local.preprune_skips += 1;
                CandOutcome::Pending
            } else if all_refuted {
                CandOutcome::Refuted
            } else if !eager {
                CandOutcome::Pending
            } else {
                let enc = session.get_or_insert_with(|| self.encoder(u, local));
                self.solve_candidate(u, &cands.cycle(i), Some(enc), local)
            };
            outcomes.push(outcome);
        }
        rec.cands.truncate(outcomes.len());
        rec.outcomes = outcomes;
        rec
    }

    /// Commits one record with the sequential semantics: in enumeration
    /// order, a candidate a committed violation subsumes is skipped, and
    /// a live one counts a query and commits its verdict, solving it
    /// first if it is still pending. `session` is the unfolding's shared
    /// session when discovery ran inline.
    fn merge_record<'a>(
        &'a self,
        rec: WorkRecord,
        u: &'a Unfolding,
        session: &mut Option<CycleEncoder<'a>>,
        m: &mut Merge,
        result: &mut AnalysisResult,
    ) {
        result.stats.unfoldings += 1;
        let sat_before = result.stats.smt_sat;
        let k = m.round.k;
        let WorkRecord { sym, suspicious, mut cands, outcomes, .. } = rec;
        match sym {
            SymTag::Rep { fp } => {
                result.stats.classes += 1;
                if suspicious {
                    result.stats.suspicious_unfoldings += 1;
                }
                let mut committed = Vec::with_capacity(outcomes.len());
                let mut refuted = Vec::new();
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    let outcome = if m.subs.load(u, &cands, i) {
                        result.stats.subsumed_candidates += 1;
                        CandOutcome::Pending
                    } else if m.round.deadline.expired() {
                        break;
                    } else {
                        result.stats.smt_queries += 1;
                        let outcome = match outcome {
                            // Pre-pruned by the worker's snapshot yet live
                            // here — impossible while the snapshot holds
                            // only merged violations (monotonicity), so
                            // this is a self-check path.
                            CandOutcome::Pending if m.round.pool => {
                                result.stats.preprune_fallbacks += 1;
                                self.solve_candidate(u, &cands.cycle(i), None, m.local)
                            }
                            CandOutcome::Pending => {
                                let enc = session.get_or_insert_with(|| self.encoder(u, m.local));
                                self.solve_candidate(u, &cands.cycle(i), Some(enc), m.local)
                            }
                            o => o,
                        };
                        if let CandOutcome::Refuted = outcome {
                            // The rep's own coordinates are canonical.
                            refuted.push((key_hash(canonical_steps(&cands, i, |n| n)), i as u32));
                        }
                        self.commit_merged(&mut m.subs, &cands, i, outcome.clone(), k, result);
                        outcome
                    };
                    committed.push(outcome);
                }
                cands.truncate(committed.len());
                refuted.sort_unstable();
                m.local.retire(session.take());
                m.classes.push(ClassRecord {
                    rep_fp: fp,
                    suspicious,
                    cands,
                    outcomes: committed,
                    refuted,
                });
            }
            SymTag::Identity { class } => {
                result.stats.class_members_skipped += 1;
                let class = &m.classes[class];
                if !class.suspicious {
                    return;
                }
                result.stats.suspicious_unfoldings += 1;
                for (i, known) in class.outcomes.iter().enumerate() {
                    if m.subs.load(u, &class.cands, i) {
                        result.stats.subsumed_candidates += 1;
                        continue;
                    }
                    if m.round.deadline.expired() {
                        break;
                    }
                    result.stats.smt_queries += 1;
                    let outcome = match known {
                        CandOutcome::Pending => {
                            self.solve_candidate(u, &class.cands.cycle(i), None, m.local)
                        }
                        o => {
                            c4_obs::instant(Stage::SmtQuery.name(), c4_obs::tag::REPLAY);
                            o.clone()
                        }
                    };
                    self.commit_merged(&mut m.subs, &class.cands, i, outcome, k, result);
                }
            }
            SymTag::Permuted { class, fp } => {
                result.stats.class_members_skipped += 1;
                if !suspicious {
                    return;
                }
                let class = &m.classes[class];
                result.stats.suspicious_unfoldings += 1;
                let map = instance_map(u, &fp, &class.rep_fp);
                for i in 0..cands.len() {
                    if m.subs.load(u, &cands, i) {
                        result.stats.subsumed_candidates += 1;
                        continue;
                    }
                    if m.round.deadline.expired() {
                        break;
                    }
                    result.stats.smt_queries += 1;
                    let outcome = if class.refutes(&cands, i, &map) {
                        c4_obs::instant(Stage::SmtQuery.name(), c4_obs::tag::REPLAY);
                        CandOutcome::Refuted
                    } else {
                        self.solve_candidate(u, &cands.cycle(i), None, m.local)
                    };
                    self.commit_merged(&mut m.subs, &cands, i, outcome, k, result);
                }
            }
        }
        if result.stats.smt_sat != sat_before {
            *m.round.snapshot.write().expect("subsumption snapshot lock") = m.subs.sets.clone();
        }
    }

    /// Pool discovery: workers pull unfoldings from a shared dispenser
    /// and solve eagerly, while this thread merges their records in
    /// ascending enumeration order. The merge is a stage here, where it
    /// runs beside the workers; the solves it runs are booked as theirs.
    fn discover_on_pool(
        &self,
        arena: &Arc<TxArena>,
        workers: usize,
        m: &mut Merge,
        result: &mut AnalysisResult,
    ) {
        let round = m.round;
        // The dispenser classifies each unfolding under its lock, in
        // enumeration order.
        let dispenser =
            Mutex::new((unfoldings(&self.h, arena, round.k).enumerate(), Classifier::default()));
        // Unfoldings handed out but not yet merged — the resident window
        // the streaming enumeration keeps alive at any instant.
        let dispensed = AtomicUsize::new(0);
        // Bounded channel: backpressure keeps workers close to the merge
        // frontier, so the subsumption snapshot stays fresh and little
        // speculative SMT work is wasted on candidates the merge will
        // skip as subsumed. The merge never blocks on a *specific* index
        // (out-of-order records are stashed), so a full buffer cannot
        // deadlock — workers just wait for the merge to drain.
        let (record_tx, record_rx) = mpsc::sync_channel::<(WorkRecord, Unfolding)>(workers * 2);
        // Unfoldings are cheap to reject individually, so workers claim
        // them in small chunks to keep dispenser-lock traffic low without
        // widening the in-flight window.
        const CHUNK: usize = 4;
        let locals: Vec<(WorkerLocal, StageTimings)> = std::thread::scope(|scope| {
            let dispenser = &dispenser;
            let dispensed = &dispensed;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let record_tx = record_tx.clone();
                    scope.spawn(move || {
                        let mut local = WorkerLocal::default();
                        let mut chunk: Vec<(usize, Unfolding, SymTag)> = Vec::with_capacity(CHUNK);
                        'pull: loop {
                            if round.deadline.expired() {
                                break;
                            }
                            {
                                let mut guard = dispenser.lock().expect("dispenser lock");
                                let (it, classifier) = &mut *guard;
                                for (index, u) in it.by_ref().take(CHUNK) {
                                    let sym = classifier.classify(&u);
                                    chunk.push((index, u, sym));
                                }
                                dispensed.fetch_add(chunk.len(), Ordering::Relaxed);
                            }
                            if chunk.is_empty() {
                                break;
                            }
                            for (index, u, sym) in chunk.drain(..) {
                                let mut session = None;
                                let rec =
                                    self.discover(index, &u, sym, round, &mut session, &mut local);
                                local.retire(session);
                                if record_tx.send((rec, u)).is_err() {
                                    break 'pull;
                                }
                            }
                        }
                        // A scoped worker is a fresh thread: its whole
                        // ledger is this round's.
                        (local, c4_obs::thread_ledger())
                    })
                })
                .collect();
            drop(record_tx);
            let mut stash: BTreeMap<usize, (WorkRecord, Unfolding)> = BTreeMap::new();
            let mut next_merge = 0usize;
            while let Ok(item) = record_rx.recv() {
                stash.insert(item.0.index, item);
                while let Some((rec, u)) = stash.remove(&next_merge) {
                    let _stage = c4_obs::stage(Stage::Merge);
                    self.merge_record(rec, &u, &mut None, m, result);
                    next_merge += 1;
                }
                // Dispensed-but-unmerged unfoldings are the live window:
                // in-flight on workers, in the channel, or stashed here.
                let resident = dispensed.load(Ordering::Relaxed).saturating_sub(next_merge);
                result.stats.peak_unfoldings_resident =
                    result.stats.peak_unfoldings_resident.max(resident);
            }
            // A worker stops only between chunks and sends every unfolding
            // it took, so the records have no index gaps and the stash
            // drains completely, even after a deadline abort.
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        for (w, (mut local, stages)) in locals.into_iter().enumerate() {
            local.fold(&mut result.stats, Some(w));
            result.stats.timings += stages;
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
        local: &mut WorkerLocal,
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
                    let mut enc = CycleEncoder::new(&u, &self.far, &features, local.workspace());
                    enc.assert_some_dependency(0, 1);
                    enc.assert_step(m_last_idx, t3_idx, SsgLabel::Anti);
                    enc.assert_mirror(ghost_idx, m_last_idx);
                    enc.assert_no_anti_args(ghost_idx, t3_idx);
                    let mut q = c4_obs::stage(Stage::GenQuery);
                    let sat = enc.solve().is_some();
                    q.set_arg(if sat { c4_obs::tag::SAT } else { c4_obs::tag::UNSAT });
                    drop(q);
                    local.recycle(enc);
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
