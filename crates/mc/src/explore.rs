//! The sleep-set DPOR explorer.
//!
//! The explorer enumerates causally-consistent executions of a fixed
//! [`Workload`] at transaction granularity. Scheduling actions are
//!
//! * `Run(s)` — session *s* runs its next scripted transaction
//!   (begin…commit) at its own replica, and
//! * `Deliver(t → r)` — a committed transaction is applied at a remote
//!   replica (subject to causal delivery).
//!
//! A state is terminal when every session has exhausted its script;
//! deliveries towards a replica whose session is exhausted are elided in
//! both modes (they cannot affect any transaction's snapshot, hence not
//! the DSG). On every terminal state the concrete DSG is built and
//! cycle-checked, exactly as in the randomized dynamic analysis.
//!
//! **Pruning.** In DPOR mode, sleep sets prune interleavings that only
//! reorder *independent* adjacent actions. The independence relation is
//! conservative and justified per pair:
//!
//! * `Deliver × Deliver` — co-enabled deliveries target monotone applied
//!   sets; either order yields the identical store state.
//! * `Run(s) × Deliver(t → r)`, `r ≠ s` — a run reads only its own
//!   replica; the delivery touches another. Identical state either way.
//! * `Run(s₁) × Run(s₂)`, `s₁ ≠ s₂` with disjoint *static object
//!   footprints* — the two commits swap arbitration indices, but since
//!   no object is shared, no query replay, dependency edge, or causal
//!   gate distinguishes the two orders: the DSGs are isomorphic.
//!
//! Sleep sets never skip an entire subtree blindly: every enabled,
//! non-sleeping action is explored, so each Mazurkiewicz trace keeps at
//! least one explored linearization (checked empirically against naive
//! enumeration by the differential tests via Foata keys).
//!
//! **Determinism.** Children are expanded in canonical action order, the
//! parallel mode splits a breadth-first frontier whose size is
//! independent of the worker count, jobs are merged by index, and leaf
//! caps are per-job — so findings and counts are identical at any
//! worker count.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use c4_dsg::{ConcreteCheck, LocalCheck};
use c4_lang::ast::Program;
use c4_lang::TxnRunner;
use c4_store::sim::{CausalSim, PendingDelivery, SimSession};
use c4_store::{History, Schedule};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::trace::{foata_key, StableAction};
use crate::vclock;
use crate::workload::{self, Workload};

/// Bounds and knobs of a model-checking run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Sessions (and replicas) in the workload.
    pub sessions: usize,
    /// Bound on the total number of scripted transactions (`None`: the
    /// full derived scripts).
    pub depth: Option<usize>,
    /// Sleep-set pruning on (`false`: naive full enumeration, used for
    /// differential testing and pruning-ratio measurement).
    pub dpor: bool,
    /// Worker threads (results are identical for any value).
    pub workers: usize,
    /// Safety cap on explored executions per argument profile; when
    /// hit, [`McReport::capped`] is set.
    pub max_execs: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { sessions: 2, depth: None, dpor: true, workers: 1, max_execs: 1 << 20 }
    }
}

/// A violation witness: an explored schedule whose concrete DSG is
/// cyclic, recorded with path-stable action labels so it can be
/// replayed.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Transaction names on the DSG cycle.
    pub violation: BTreeSet<String>,
    /// Index of the argument profile (into the derived workloads).
    pub profile: usize,
    /// The schedule: the exact action sequence explored.
    pub trace: Vec<StableAction>,
}

/// The outcome of a model-checking run.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// Completed executions whose DSG was checked (across profiles).
    pub executions: u64,
    /// Executions ending in a cyclic DSG.
    pub cyclic: u64,
    /// Branches skipped by sleep-set pruning.
    pub pruned: u64,
    /// Distinct Mazurkiewicz classes (Foata keys) among explored
    /// executions.
    pub classes: u64,
    /// Distinct violations: transaction-name sets on observed cycles.
    pub violations: Vec<BTreeSet<String>>,
    /// One replayable witness per violation (first found).
    pub witnesses: Vec<Witness>,
    /// Executions abandoned on a concrete execution error.
    pub exec_errors: u64,
    /// Whether any profile hit the execution cap (exploration
    /// incomplete).
    pub capped: bool,
    /// Whether the depth bound truncated the scripts.
    pub truncated: bool,
    /// Number of argument profiles explored.
    pub profiles: usize,
}

impl McReport {
    /// Whether exploration was exhaustive for the derived workloads.
    pub fn complete(&self) -> bool {
        !self.capped && self.exec_errors == 0
    }
}

/// A scheduling action. `Deliver.tx` is the global commit index, which
/// is stable along one exploration path (commits are append-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Run { session: usize },
    Deliver { tx: usize, to: usize },
}

/// Immutable per-profile exploration context.
struct Ctx<'p> {
    program: &'p Program,
    workload: &'p Workload,
    handles: Vec<SimSession>,
    dpor: bool,
    /// The leaf check, shared by every profile and worker of one call.
    check: &'p ConcreteCheck,
    /// The interpreter, bound to the workload's constants; read-only
    /// during runs, so every worker shares it.
    runner: TxnRunner<'p>,
    /// `overlap[a * txns + b]`: the static object footprints of
    /// transaction declarations `a` and `b` intersect.
    overlap: Vec<bool>,
}

impl<'p> Ctx<'p> {
    fn new(
        program: &'p Program,
        workload: &'p Workload,
        dpor: bool,
        check: &'p ConcreteCheck,
    ) -> Self {
        let (_, handles) = Node::root(workload.scripts.len());
        let mut runner = TxnRunner::new(program);
        for ((s, name), v) in &workload.locals {
            runner.set_local(*s, name.clone(), v.clone());
        }
        for (name, v) in &workload.globals {
            runner.set_global(name.clone(), v.clone());
        }
        let f = &workload.footprints;
        let overlap = f.iter().flat_map(|a| f.iter().map(move |b| !a.is_disjoint(b))).collect();
        Ctx { program, workload, handles, dpor, check, runner, overlap }
    }

    /// Whether the footprints of session `s1`'s `k1`-th and session
    /// `s2`'s `k2`-th scripted transactions intersect.
    fn overlaps(&self, (s1, k1): (usize, usize), (s2, k2): (usize, usize)) -> bool {
        let scripts = &self.workload.scripts;
        let (a, b) = (scripts[s1][k1].txn, scripts[s2][k2].txn);
        self.overlap[a * self.workload.footprints.len() + b]
    }

    /// Independence of two actions (see the module docs). `Run`
    /// footprints are looked up at the node's current script position,
    /// which is frozen for as long as the action sits in a sleep set.
    fn independent(&self, node: &Node, a: &Action, b: &Action) -> bool {
        match (a, b) {
            (Action::Deliver { .. }, Action::Deliver { .. }) => true,
            (Action::Run { session }, Action::Deliver { to, .. })
            | (Action::Deliver { to, .. }, Action::Run { session }) => to != session,
            (Action::Run { session: s1 }, Action::Run { session: s2 }) => {
                s1 != s2 && !self.overlaps((*s1, node.pos[*s1]), (*s2, node.pos[*s2]))
            }
        }
    }

    /// Dependence over stable labels (workload-static), used for Foata
    /// canonicalization. Mirrors [`Ctx::independent`].
    fn stable_dependent(&self, a: &StableAction, b: &StableAction) -> bool {
        match (a, b) {
            (StableAction::Deliver { .. }, StableAction::Deliver { .. }) => false,
            (StableAction::Run { session, .. }, StableAction::Deliver { to, .. })
            | (StableAction::Deliver { to, .. }, StableAction::Run { session, .. }) => {
                to == session
            }
            (
                StableAction::Run { session: s1, index: k1 },
                StableAction::Run { session: s2, index: k2 },
            ) => s1 == s2 || self.overlaps((*s1, *k1), (*s2, *k2)),
        }
    }

    /// The name of every transaction of an explored history: the k-th
    /// transaction of session s is the k-th scripted run of s.
    fn tx_names(&self, history: &History) -> Vec<String> {
        let mut counters = vec![0usize; self.workload.scripts.len()];
        let mut names = Vec::new();
        for t in history.transactions() {
            let s = t.session.0 as usize;
            let entry = &self.workload.scripts[s][counters[s]];
            names.push(self.program.txns[entry.txn].name.clone());
            counters[s] += 1;
        }
        names
    }
}

/// One node of the execution tree: the forked simulator plus the
/// version-vector bookkeeping that makes delivery gating a clock
/// comparison.
#[derive(Clone)]
struct Node {
    sim: CausalSim,
    /// Next script position per session.
    pos: Vec<usize>,
    /// Sleep set (canonically sorted).
    sleep: Vec<Action>,
    /// The action sequence that produced this node, in stable labels.
    trace: Vec<StableAction>,
    /// Committed transaction → (session, per-session ordinal).
    tx_meta: Vec<(usize, usize)>,
    /// Committed transaction t's inclusive happens-before clock, one
    /// component per session: `tx_clock[t * sessions..][..sessions]`.
    tx_clock: Vec<u32>,
    /// Replica r's clock of its (causally closed) applied set, laid out
    /// like `tx_clock`.
    replica_clock: Vec<u32>,
    /// Outstanding deliveries `(tx, to)`.
    pending: Vec<(usize, usize)>,
    /// A concrete execution error occurred (branch is abandoned).
    failed: bool,
}

impl Node {
    fn root(sessions: usize) -> (Node, Vec<SimSession>) {
        let mut sim = CausalSim::new(sessions);
        let handles: Vec<SimSession> = (0..sessions).map(|r| sim.session(r)).collect();
        let node = Node {
            sim,
            pos: vec![0; sessions],
            sleep: Vec::new(),
            trace: Vec::new(),
            tx_meta: Vec::new(),
            tx_clock: Vec::new(),
            replica_clock: vec![0; sessions * sessions],
            pending: Vec::new(),
            failed: false,
        };
        (node, handles)
    }

    /// Committed transaction `tx`'s clock.
    fn tx_clock(&self, tx: usize) -> &[u32] {
        let lines = self.pos.len();
        &self.tx_clock[tx * lines..][..lines]
    }

    /// Replica `r`'s clock.
    fn replica_clock(&self, r: usize) -> &[u32] {
        let lines = self.pos.len();
        &self.replica_clock[r * lines..][..lines]
    }

    /// Enabled actions in canonical order. Deliveries are gated by the
    /// version-vector comparison (and elided once the target session is
    /// exhausted).
    fn enabled(&self, ctx: &Ctx<'_>) -> Vec<Action> {
        let mut out = Vec::new();
        for (s, script) in ctx.workload.scripts.iter().enumerate() {
            if self.pos[s] < script.len() {
                out.push(Action::Run { session: s });
            }
        }
        for &(tx, to) in &self.pending {
            if self.pos[to] >= ctx.workload.scripts[to].len() {
                continue; // useless delivery: target session is done
            }
            let line = self.tx_meta[tx].0;
            if vclock::leq_discounting(self.tx_clock(tx), self.replica_clock(to), line) {
                out.push(Action::Deliver { tx, to });
            }
        }
        out.sort_unstable();
        debug_assert!(
            {
                let sim_deliverable: BTreeSet<(usize, usize)> = self
                    .sim
                    .deliverable()
                    .into_iter()
                    .filter(|d| self.pos[d.to] < ctx.workload.scripts[d.to].len())
                    .map(|d| (d.tx, d.to))
                    .collect();
                let ours: BTreeSet<(usize, usize)> = out
                    .iter()
                    .filter_map(|a| match a {
                        Action::Deliver { tx, to } => Some((*tx, *to)),
                        _ => None,
                    })
                    .collect();
                sim_deliverable == ours
            },
            "clock-gated deliverable set diverged from the simulator's"
        );
        out
    }

    fn apply(&mut self, ctx: &Ctx<'_>, a: Action) {
        match a {
            Action::Run { session } => {
                let k = self.pos[session];
                let entry = &ctx.workload.scripts[session][k];
                let name = &ctx.program.txns[entry.txn].name;
                let res =
                    ctx.runner.run(&mut self.sim, ctx.handles[session], session, name, &entry.args);
                self.pos[session] = k + 1;
                let idx = self.sim.committed_count() - 1;
                debug_assert_eq!(idx, self.tx_meta.len());
                self.tx_meta.push((session, k));
                let lines = self.pos.len();
                let clock = &mut self.replica_clock[session * lines..][..lines];
                clock[session] += 1;
                self.tx_clock.extend_from_slice(clock);
                for r in 0..lines {
                    if r != session {
                        self.pending.push((idx, r));
                    }
                }
                self.trace.push(StableAction::Run { session, index: k });
                if res.is_err() {
                    self.failed = true;
                }
            }
            Action::Deliver { tx, to } => {
                let delivered = self.sim.deliver(PendingDelivery { tx, to });
                debug_assert!(delivered, "explorer enabled an undeliverable message");
                let pos = self
                    .pending
                    .iter()
                    .position(|&p| p == (tx, to))
                    .expect("delivery is pending");
                self.pending.swap_remove(pos);
                let lines = self.pos.len();
                vclock::join(
                    &mut self.replica_clock[to * lines..][..lines],
                    &self.tx_clock[tx * lines..][..lines],
                );
                let (session, index) = self.tx_meta[tx];
                self.trace.push(StableAction::Deliver { session, index, to });
            }
        }
    }
}

/// Per-job accumulation (merged deterministically by job index).
#[derive(Default)]
struct Acc {
    executions: u64,
    cyclic: u64,
    pruned: u64,
    exec_errors: u64,
    capped: bool,
    classes: HashSet<Vec<u8>>,
    /// Violations in first-found order with their witnesses.
    found: Vec<Witness>,
}

impl Acc {
    fn absorb(&mut self, other: Acc) {
        self.executions += other.executions;
        self.cyclic += other.cyclic;
        self.pruned += other.pruned;
        self.exec_errors += other.exec_errors;
        self.capped |= other.capped;
        self.classes.extend(other.classes);
        for w in other.found {
            if !self.found.iter().any(|f| f.violation == w.violation) {
                self.found.push(w);
            }
        }
    }
}

/// Builds the DSG of a terminal node and records the outcome.
fn settle_leaf(
    ctx: &Ctx<'_>,
    check: &mut LocalCheck<'_>,
    node: Node,
    profile: usize,
    acc: &mut Acc,
) {
    if node.failed {
        acc.exec_errors += 1;
        return;
    }
    acc.executions += 1;
    acc.classes.insert(foata_key(&node.trace, |a, b| ctx.stable_dependent(a, b)));
    let trace = node.trace;
    let mut sim = node.sim;
    sim.deliver_all();
    let (history, schedule) = sim.into_history();
    if let Some(sig) = cycle_signature(ctx, check, &history, &schedule) {
        acc.cyclic += 1;
        if !acc.found.iter().any(|f| f.violation == sig) {
            acc.found.push(Witness { violation: sig, profile, trace });
        }
    }
}

/// The concrete-DSG cycle check shared with the dynamic baseline
/// ([`ConcreteCheck`]), naming the transactions on a cycle (if any).
fn cycle_signature(
    ctx: &Ctx<'_>,
    check: &mut LocalCheck<'_>,
    history: &History,
    schedule: &Schedule,
) -> Option<BTreeSet<String>> {
    let cycle = check.cycle(history, schedule)?;
    let names = ctx.tx_names(history);
    Some(cycle.iter().map(|t| names[t.index()].clone()).collect())
}

/// Depth-first sleep-set exploration from `node`.
fn dfs(
    ctx: &Ctx<'_>,
    check: &mut LocalCheck<'_>,
    node: Node,
    profile: usize,
    acc: &mut Acc,
    cap: u64,
) {
    if acc.executions + acc.exec_errors >= cap {
        acc.capped = true;
        return;
    }
    let enabled = node.enabled(ctx);
    if node.failed || enabled.is_empty() {
        settle_leaf(ctx, check, node, profile, acc);
        return;
    }
    let mut sleep = node.sleep.clone();
    for a in enabled {
        if ctx.dpor && sleep.contains(&a) {
            acc.pruned += 1;
            continue;
        }
        let mut child = node.clone();
        child.apply(ctx, a);
        child.sleep = if ctx.dpor {
            sleep.iter().filter(|b| ctx.independent(&node, b, &a)).copied().collect()
        } else {
            Vec::new()
        };
        dfs(ctx, check, child, profile, acc, cap);
        if ctx.dpor {
            sleep.push(a);
            sleep.sort_unstable();
        }
    }
}

/// Number of frontier jobs the tree is split into for the parallel
/// phase. Fixed (not derived from the worker count) so that per-job
/// caps — and therefore all results — are identical at any worker
/// count.
const FRONTIER_JOBS: usize = 64;

/// Explores one workload profile exhaustively (up to the cap).
fn explore_workload(ctx: &Ctx<'_>, config: &McConfig, profile: usize) -> Acc {
    let _sp = c4_obs::span("mc.profile");
    let (root, _) = Node::root(ctx.workload.scripts.len());
    let mut pre = Acc::default();
    let mut check = ctx.check.local();

    // Breadth-first frontier split: expand nodes (recording leaves and
    // pruning exactly as the DFS would) until enough independent jobs
    // exist. Expansion is sequential and worker-count independent.
    let mut frontier: std::collections::VecDeque<Node> = std::collections::VecDeque::new();
    frontier.push_back(root);
    while frontier.len() < FRONTIER_JOBS {
        // Narrow trees can drain entirely through this loop, so the
        // execution cap applies here too, not just per job below.
        if pre.executions + pre.exec_errors >= config.max_execs {
            pre.capped = true;
            return pre;
        }
        let Some(node) = frontier.pop_front() else { break };
        let enabled = node.enabled(ctx);
        if node.failed || enabled.is_empty() {
            settle_leaf(ctx, &mut check, node, profile, &mut pre);
            continue;
        }
        let mut sleep = node.sleep.clone();
        for a in enabled {
            if ctx.dpor && sleep.contains(&a) {
                pre.pruned += 1;
                continue;
            }
            let mut child = node.clone();
            child.apply(ctx, a);
            child.sleep = if ctx.dpor {
                sleep.iter().filter(|b| ctx.independent(&node, b, &a)).copied().collect()
            } else {
                Vec::new()
            };
            frontier.push_back(child);
            if ctx.dpor {
                sleep.push(a);
                sleep.sort_unstable();
            }
        }
        if frontier.is_empty() {
            break;
        }
    }

    let jobs: Vec<Node> = frontier.into_iter().collect();
    if jobs.is_empty() {
        return pre;
    }
    let spent = pre.executions + pre.exec_errors;
    let cap_per_job = config.max_execs.saturating_sub(spent).div_ceil(jobs.len() as u64).max(1);

    let workers = config.workers.max(1).min(jobs.len());
    let results: Mutex<Vec<Option<Acc>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    if workers == 1 {
        for (i, job) in jobs.into_iter().enumerate() {
            let mut acc = Acc::default();
            dfs(ctx, &mut check, job, profile, &mut acc, cap_per_job);
            results.lock().unwrap()[i] = Some(acc);
        }
    } else {
        let next = AtomicUsize::new(0);
        let jobs = &jobs;
        let results = &results;
        let next = &next;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || {
                    let mut check = ctx.check.local();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let mut acc = Acc::default();
                        dfs(ctx, &mut check, jobs[i].clone(), profile, &mut acc, cap_per_job);
                        results.lock().unwrap()[i] = Some(acc);
                    }
                });
            }
        });
    }
    // Deterministic merge: by job index, regardless of completion order.
    let mut total = pre;
    for acc in results.into_inner().unwrap() {
        total.absorb(acc.expect("every job ran"));
    }
    total
}

/// Model-checks a program: derives the bounded workloads and explores
/// every causally-consistent schedule of each (modulo pruning).
pub fn model_check(program: &Program, config: &McConfig) -> McReport {
    let _sp = c4_obs::span("mc.model_check");
    let workloads = workload::derive(program, config.sessions, config.depth);
    let mut report = McReport { profiles: workloads.len(), ..McReport::default() };
    let check = ConcreteCheck::new();
    for (pi, w) in workloads.iter().enumerate() {
        report.truncated |= w.truncated;
        if program.txns.is_empty() || w.total_txns() == 0 {
            continue;
        }
        let ctx = Ctx::new(program, w, config.dpor, &check);
        let acc = explore_workload(&ctx, config, pi);
        report.executions += acc.executions;
        report.cyclic += acc.cyclic;
        report.pruned += acc.pruned;
        report.classes += acc.classes.len() as u64;
        report.exec_errors += acc.exec_errors;
        report.capped |= acc.capped;
        for wit in acc.found {
            if !report.violations.contains(&wit.violation) {
                report.violations.push(wit.violation.clone());
                report.witnesses.push(wit);
            }
        }
    }
    c4_obs::counter("mc.executions", report.executions);
    c4_obs::counter("mc.pruned", report.pruned);
    c4_obs::counter("mc.violations", report.violations.len() as u64);
    report
}

/// Replays a witness schedule on a fresh simulator, returning the
/// resulting history, schedule, and per-transaction names (callers
/// assert the concrete DSG cycle).
pub fn replay_witness(
    program: &Program,
    config: &McConfig,
    witness: &Witness,
) -> (History, Schedule, Vec<String>) {
    let workloads = workload::derive(program, config.sessions, config.depth);
    let w = &workloads[witness.profile];
    let check = ConcreteCheck::new();
    let ctx = Ctx::new(program, w, false, &check);
    let mut sim = Node::root(w.scripts.len()).0.sim;
    let mut commit_of: HashMap<(usize, usize), usize> = HashMap::new();
    for a in &witness.trace {
        match *a {
            StableAction::Run { session, index } => {
                let entry = &w.scripts[session][index];
                let name = &program.txns[entry.txn].name;
                ctx.runner
                    .run(&mut sim, ctx.handles[session], session, name, &entry.args)
                    .expect("witness replay executes cleanly");
                commit_of.insert((session, index), sim.committed_count() - 1);
            }
            StableAction::Deliver { session, index, to } => {
                let tx = commit_of[&(session, index)];
                assert!(
                    sim.deliver(PendingDelivery { tx, to }),
                    "witness delivery must be causally deliverable"
                );
            }
        }
    }
    sim.deliver_all();
    let (history, schedule) = sim.into_history();
    let names = ctx.tx_names(&history);
    (history, schedule, names)
}

/// The outcome of randomized walks over the model checker's state
/// space (the bounded-workload analogue of the dynamic baseline).
#[derive(Debug, Clone, Default)]
pub struct RandomWalkReport {
    /// Walks executed.
    pub walks: u64,
    /// Walks ending in a cyclic DSG.
    pub cyclic: u64,
    /// Distinct violations observed.
    pub violations: Vec<BTreeSet<String>>,
}

/// Samples random maximal schedules from the same execution tree the
/// model checker enumerates. Every finding is, by construction, within
/// the model checker's search space.
pub fn random_walks(
    program: &Program,
    config: &McConfig,
    walks: u64,
    seed: u64,
) -> RandomWalkReport {
    let _sp = c4_obs::span("mc.random_walks");
    let mut rng = StdRng::seed_from_u64(seed);
    let workloads = workload::derive(program, config.sessions, config.depth);
    let mut report = RandomWalkReport::default();
    if program.txns.is_empty() {
        return report;
    }
    let check = ConcreteCheck::new();
    for (pi, w) in workloads.iter().enumerate() {
        if w.total_txns() == 0 {
            continue;
        }
        let ctx = Ctx::new(program, w, false, &check);
        let mut local = check.local();
        let root = Node::root(w.scripts.len()).0;
        for _ in 0..walks {
            let mut node = root.clone();
            loop {
                let enabled = node.enabled(&ctx);
                if node.failed || enabled.is_empty() {
                    break;
                }
                let a = enabled[rng.gen_range(0..enabled.len())];
                node.apply(&ctx, a);
            }
            let mut acc = Acc::default();
            settle_leaf(&ctx, &mut local, node, pi, &mut acc);
            report.walks += 1;
            report.cyclic += acc.cyclic;
            for f in acc.found {
                if !report.violations.contains(&f.violation) {
                    report.violations.push(f.violation);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1A: &str =
        "store { map M; } txn P(x,y) { M.put(x,y); } txn G(z) { M.get(z); }";
    const LOST_UPDATE: &str = r#"store { register Best; }
        txn submit(s) { if (Best.get() < s) { Best.put(s); } }"#;

    fn check(src: &str, config: &McConfig) -> McReport {
        model_check(&c4_lang::parse(src).unwrap(), config)
    }

    #[test]
    fn finds_lost_update_exhaustively() {
        let r = check(LOST_UPDATE, &McConfig::default());
        assert!(r.complete());
        assert_eq!(r.violations, vec![BTreeSet::from(["submit".to_owned()])]);
        assert!(r.cyclic > 0);
    }

    #[test]
    fn finds_the_figure1a_cross_race() {
        let r = check(FIGURE1A, &McConfig::default());
        assert!(r.complete());
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("P") && v.contains("G")));
    }

    #[test]
    fn serializable_program_has_no_violations() {
        let r = check("store { counter C; } txn bump() { C.inc(1); }", &McConfig::default());
        assert!(r.complete());
        assert!(r.violations.is_empty());
        assert_eq!(r.cyclic, 0);
    }

    #[test]
    fn dpor_agrees_with_naive_enumeration() {
        for src in [FIGURE1A, LOST_UPDATE] {
            let naive = check(src, &McConfig { dpor: false, ..McConfig::default() });
            let dpor = check(src, &McConfig::default());
            assert!(naive.complete() && dpor.complete());
            // Same Mazurkiewicz classes, same verdicts — pruning only
            // removes redundant linearizations.
            assert_eq!(naive.classes, dpor.classes, "{src}");
            assert_eq!(naive.violations, dpor.violations, "{src}");
            assert!(dpor.executions <= naive.executions);
        }
    }

    #[test]
    fn dpor_prunes_but_stays_optimal_here() {
        let r = check(FIGURE1A, &McConfig::default());
        assert!(r.pruned > 0, "sleep sets should cut interleavings");
        // On these workloads sleep sets happen to be trace-optimal:
        // exactly one execution per class.
        assert_eq!(r.executions, r.classes);
    }

    #[test]
    fn deterministic_across_runs_and_worker_counts() {
        let base = check(FIGURE1A, &McConfig::default());
        let again = check(FIGURE1A, &McConfig::default());
        let wide = check(FIGURE1A, &McConfig { workers: 4, ..McConfig::default() });
        for other in [&again, &wide] {
            assert_eq!(base.executions, other.executions);
            assert_eq!(base.pruned, other.pruned);
            assert_eq!(base.classes, other.classes);
            assert_eq!(base.violations, other.violations);
        }
    }

    #[test]
    fn witnesses_replay_to_concrete_cycles() {
        let program = c4_lang::parse(FIGURE1A).unwrap();
        let config = McConfig::default();
        let report = model_check(&program, &config);
        assert!(!report.witnesses.is_empty());
        for w in &report.witnesses {
            let (history, schedule, names) = replay_witness(&program, &config, w);
            schedule.check(&history).unwrap();
            let cycle = ConcreteCheck::new()
                .cycle(&history, &schedule)
                .expect("witness must replay to a DSG cycle");
            let sig: BTreeSet<String> = cycle.iter().map(|t| names[t.index()].clone()).collect();
            assert_eq!(sig, w.violation);
        }
    }

    #[test]
    fn random_walks_stay_within_mc_findings() {
        let program = c4_lang::parse(FIGURE1A).unwrap();
        let config = McConfig::default();
        let mc = model_check(&program, &config);
        let walks = random_walks(&program, &config, 50, 7);
        assert_eq!(walks.walks, 50 * 4); // four argument profiles
        for v in &walks.violations {
            assert!(mc.violations.contains(v), "walk finding {v:?} missed by MC");
        }
    }

    #[test]
    fn execution_cap_reports_incompleteness() {
        let r = check(FIGURE1A, &McConfig { max_execs: 10, ..McConfig::default() });
        assert!(r.capped);
        assert!(!r.complete());
        assert!(r.executions <= 4 * crate::explore::FRONTIER_JOBS as u64 + 10 * 4);
    }
}
