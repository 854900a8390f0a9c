//! A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS-style branching with phase saving, geometric restarts.

/// A propositional variable (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal with the given polarity.
    pub fn lit(self, value: bool) -> Lit {
        if value {
            self.positive()
        } else {
            self.negative()
        }
    }
}

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A CNF formula under construction: every clause's literals in one flat
/// buffer, delimited by end offsets.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    /// Number of variables.
    pub n_vars: u32,
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Adds a clause.
    pub fn add(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.lits.extend(lits);
        self.ends.push(self.lits.len() as u32);
    }

    /// The clauses, in insertion order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.lits[s as usize..e as usize])
    }

    /// Removes every clause, keeping the variable count and the buffers.
    pub fn clear_clauses(&mut self) {
        self.lits.clear();
        self.ends.clear();
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

/// Result of a [`SatSolver::solve_under_assumptions`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssumeOutcome {
    /// Satisfiable under the assumptions; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable under the assumptions. The payload is a conflict
    /// subset of the assumptions (not guaranteed minimal); it is empty iff
    /// the formula is unsatisfiable regardless of the assumptions.
    Unsat(Vec<Lit>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Undef,
    True,
    False,
}

/// A clause header: its literals are `lits[start..start + len]` of the
/// solver's arena.
#[derive(Debug)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    /// Bump-and-decay usefulness score (learnt clauses only).
    activity: f64,
    /// Literal-block distance at learn time (learnt clauses only).
    lbd: u32,
}

/// The CDCL solver. Supports repeated [`SatSolver::solve`] /
/// [`SatSolver::solve_under_assumptions`] calls interleaved with
/// [`SatSolver::add_clause`] and [`SatSolver::new_var`] (for lazy-SMT
/// blocking clauses and incremental sessions); learnt clauses are
/// retained between calls and pruned by activity when the database
/// outgrows its budget.
///
/// Every clause's literals live in one arena (`lits`), in clause order;
/// reducing the learnt database compacts it in place.
#[derive(Debug)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    lits: Vec<Lit>,
    watches: Vec<Vec<usize>>, // lit index -> clause indices
    values: Vec<Value>,       // per var
    levels: Vec<u32>,
    reasons: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    saved_phase: Vec<bool>,
    unsat: bool,
    n_conflicts: u64,
    n_decisions: u64,
    n_propagations: u64,
    n_learnt: usize,
    cla_inc: f64,
    max_learnts: usize,
    n_reduces: u64,
    /// Per-variable marks for conflict analysis; all false between calls.
    seen: Vec<bool>,
    /// Scratch for the clause being added and for the learnt clause.
    add_buf: Vec<Lit>,
    learnt_buf: Vec<Lit>,
    /// Scratch for a learnt clause's decision levels.
    lbd_buf: Vec<u32>,
    /// The last SAT answer's assignment and the last UNSAT answer's
    /// conflict subset of the assumptions (see [`SatSolver::search`]).
    model: Vec<bool>,
    core: Vec<Lit>,
    /// Emptied watch lists of a [`SatSolver::reset`], handed out again
    /// by [`SatSolver::new_var`].
    spare_watches: Vec<Vec<usize>>,
}

impl SatSolver {
    /// Creates a solver over `n_vars` variables.
    pub fn new(n_vars: u32) -> Self {
        let n = n_vars as usize;
        SatSolver {
            clauses: Vec::new(),
            lits: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            values: vec![Value::Undef; n],
            levels: vec![0; n],
            reasons: vec![None; n],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            saved_phase: vec![false; n],
            unsat: false,
            n_conflicts: 0,
            n_decisions: 0,
            n_propagations: 0,
            n_learnt: 0,
            cla_inc: 1.0,
            max_learnts: 0,
            n_reduces: 0,
            seen: vec![false; n],
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
            lbd_buf: Vec::new(),
            model: Vec::new(),
            core: Vec::new(),
            spare_watches: Vec::new(),
        }
    }

    /// Empties the solver for reuse, keeping its buffers. Afterwards it is
    /// indistinguishable from `SatSolver::new(0)`: no variables, clauses
    /// or learnt clauses, zero counters, the initial activity increments
    /// and the adaptive learnt budget. Its watch lists go to a spare pool
    /// that [`SatSolver::new_var`] draws from, so the reused solver fills
    /// them without allocating.
    pub fn reset(&mut self) {
        self.clauses.clear();
        self.lits.clear();
        // Reversed, so `new_var` hands each literal the list it had.
        for mut w in self.watches.drain(..).rev() {
            w.clear();
            self.spare_watches.push(w);
        }
        self.values.clear();
        self.levels.clear();
        self.reasons.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.prop_head = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.saved_phase.clear();
        self.unsat = false;
        self.n_conflicts = 0;
        self.n_decisions = 0;
        self.n_propagations = 0;
        self.n_learnt = 0;
        self.cla_inc = 1.0;
        self.max_learnts = 0;
        self.n_reduces = 0;
        self.seen.clear();
        self.model.clear();
        self.core.clear();
    }

    /// Allocates a fresh variable (usable between solve calls).
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.values.len() as u32);
        self.values.push(Value::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        for _ in 0..2 {
            let w = self.spare_watches.pop().unwrap_or_default();
            self.watches.push(w);
        }
        v
    }

    /// Grows the variable space to at least `n_vars` variables.
    pub fn ensure_vars(&mut self, n_vars: u32) {
        while (self.values.len() as u32) < n_vars {
            self.new_var();
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.values.len() as u32
    }

    /// Builds a solver from a CNF.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = SatSolver::new(cnf.n_vars);
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Number of conflicts encountered so far.
    pub fn conflicts(&self) -> u64 {
        self.n_conflicts
    }

    /// Number of decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.n_decisions
    }

    /// Number of literals propagated so far.
    pub fn propagations(&self) -> u64 {
        self.n_propagations
    }

    /// Number of learnt clauses currently in the database (maintained
    /// counter; root-level learnt units are enqueued, not stored, and are
    /// not counted).
    pub fn learnt_count(&self) -> usize {
        debug_assert_eq!(self.n_learnt, self.clauses.iter().filter(|c| c.learnt).count());
        self.n_learnt
    }

    /// Number of learnt-database reductions performed so far.
    pub fn reductions(&self) -> u64 {
        self.n_reduces
    }

    /// Overrides the learnt-clause budget that triggers database
    /// reduction (`0` restores the adaptive default, chosen at the next
    /// solve call). The budget still grows geometrically after each
    /// reduction.
    pub fn set_learnt_budget(&mut self, n: usize) {
        self.max_learnts = n;
    }

    fn value_lit(&self, l: Lit) -> Value {
        match self.values[l.var().0 as usize] {
            Value::Undef => Value::Undef,
            Value::True => {
                if l.is_positive() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.is_positive() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    fn level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) -> bool {
        match self.value_lit(l) {
            Value::True => true,
            Value::False => false,
            Value::Undef => {
                let v = l.var().0 as usize;
                self.values[v] = if l.is_positive() { Value::True } else { Value::False };
                self.levels[v] = self.level();
                self.reasons[v] = reason;
                self.saved_phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    /// Adds a clause. May be called between `solve` calls; the solver
    /// backtracks to the root level first.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.backtrack(0);
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend(lits);
        self.add_sorted(&mut c);
        self.add_buf = c;
    }

    /// Sorts, simplifies against the root assignment and stores `c`.
    fn add_sorted(&mut self, c: &mut Vec<Lit>) {
        c.sort_unstable();
        c.dedup();
        // Tautology?
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        // Remove root-level falsified literals; detect satisfied clauses.
        c.retain(|&l| self.value_lit(l) != Value::False);
        if c.iter().any(|&l| self.value_lit(l) == Value::True) {
            return;
        }
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(c[0], None) {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach(c, false, 0.0, 0);
            }
        }
    }

    /// Stores a clause of at least two literals in the arena and watches
    /// its first two; returns its index.
    fn attach(&mut self, c: &[Lit], learnt: bool, activity: f64, lbd: u32) -> usize {
        let idx = self.clauses.len();
        self.watches[c[0].negate().index()].push(idx);
        self.watches[c[1].negate().index()].push(idx);
        let start = self.lits.len() as u32;
        self.lits.extend_from_slice(c);
        self.clauses.push(Clause { start, len: c.len() as u32, learnt, activity, lbd });
        idx
    }

    /// The arena range of clause `ci`'s literals.
    fn span(&self, ci: usize) -> std::ops::Range<usize> {
        let c = &self.clauses[ci];
        c.start as usize..(c.start + c.len) as usize
    }

    /// Literal-block distance: the number of distinct decision levels
    /// among a clause's literals (Glucose's quality measure; lower is
    /// better).
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels = std::mem::take(&mut self.lbd_buf);
        levels.clear();
        levels.extend(lits.iter().map(|l| self.levels[l.var().0 as usize]));
        levels.sort_unstable();
        levels.dedup();
        let n = levels.len() as u32;
        self.lbd_buf = levels;
        n
    }

    /// Stores the clause in `learnt_buf` as a learnt clause.
    fn attach_learnt(&mut self) -> usize {
        let c = std::mem::take(&mut self.learnt_buf);
        let lbd = self.lbd(&c);
        let idx = self.attach(&c, true, self.cla_inc, lbd);
        self.learnt_buf = c;
        self.n_learnt += 1;
        idx
    }

    fn bump_clause(&mut self, ci: usize) {
        let c = &mut self.clauses[ci];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Shrinks the learnt-clause database to roughly half: drops the
    /// lowest-activity learnt clauses, always keeping binary clauses,
    /// clauses with LBD ≤ 2, and locked clauses (reasons of current
    /// assignments). Rebuilds watches and remaps reasons.
    fn reduce_learnts(&mut self) {
        let mut locked = vec![false; self.clauses.len()];
        for r in &self.reasons {
            if let Some(ci) = r {
                locked[*ci] = true;
            }
        }
        let mut cands: Vec<(f64, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|&(i, c)| c.learnt && !locked[i] && c.len > 2 && c.lbd > 2)
            .map(|(i, c)| (c.activity, i))
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let n_drop = cands.len().min(self.n_learnt / 2);
        if n_drop == 0 {
            // Nothing removable: raise the budget so we don't re-enter on
            // every conflict.
            self.max_learnts += self.max_learnts / 2;
            return;
        }
        self.n_reduces += 1;
        let mut remove = vec![false; self.clauses.len()];
        for &(_, i) in cands.iter().take(n_drop) {
            remove[i] = true;
        }
        // Compact the headers and the arena in place: survivors keep their
        // order, so each one only ever moves towards the front.
        let mut new_idx = vec![usize::MAX; self.clauses.len()];
        let (mut kept, mut end) = (0usize, 0usize);
        for i in 0..self.clauses.len() {
            if remove[i] {
                continue;
            }
            let r = self.span(i);
            let len = r.len();
            self.lits.copy_within(r, end);
            self.clauses.swap(kept, i);
            self.clauses[kept].start = end as u32;
            new_idx[i] = kept;
            kept += 1;
            end += len;
        }
        self.clauses.truncate(kept);
        self.lits.truncate(end);
        self.n_learnt -= n_drop;
        for r in &mut self.reasons {
            if let Some(ci) = r {
                debug_assert_ne!(new_idx[*ci], usize::MAX, "locked clause removed");
                *ci = new_idx[*ci];
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            let first = self.lits[c.start as usize];
            let second = self.lits[c.start as usize + 1];
            self.watches[first.negate().index()].push(i);
            self.watches[second.negate().index()].push(i);
        }
        // Geometric growth keeps reductions rare as the session ages.
        self.max_learnts += self.max_learnts / 2;
    }

    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clauses watching ¬l must be visited: they are in watches[l].
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[l.index()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                let false_lit = l.negate();
                let r = self.span(ci);
                let (c0, c1) = (r.start, r.start + 1);
                // Normalize: put the false literal at position 1.
                if self.lits[c0] == false_lit {
                    self.lits.swap(c0, c1);
                }
                let first = self.lits[c0];
                if self.value_lit(first) == Value::True {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in c1 + 1..r.end {
                    let lk = self.lits[k];
                    if self.value_lit(lk) != Value::False {
                        self.lits.swap(c1, k);
                        self.watches[lk.negate().index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflict.
                self.n_propagations += 1;
                if !self.enqueue(first, Some(ci)) {
                    // Conflict: put the list back whole, the entries not
                    // yet visited included.
                    self.restore_watches(l, watch_list);
                    return Some(ci);
                }
                i += 1;
            }
            self.restore_watches(l, watch_list);
        }
        None
    }

    /// Puts `l`'s watch list back after [`SatSolver::propagate`] visited
    /// it. Nothing watches `l` meanwhile: a clause moves its watch only to
    /// a literal that is not false, and `¬l` is. So the slot is still the
    /// empty list the visit left, and the list's buffer goes back as is.
    fn restore_watches(&mut self, l: Lit, watch_list: Vec<usize>) {
        let slot = &mut self.watches[l.index()];
        debug_assert!(slot.is_empty(), "a watch moved to a false literal");
        *slot = watch_list;
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `learnt_buf` (asserting literal first, a highest-level other
    /// literal second) and returns the backtrack level.
    fn analyze(&mut self, mut conflict: usize) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut resolve_var: Option<Var> = None;
        loop {
            // Visit the literals of the conflicting/reason clause, skipping
            // the literal currently being resolved on.
            self.bump_clause(conflict);
            for k in self.span(conflict) {
                let q = self.lits[k];
                if Some(q.var()) == resolve_var {
                    continue;
                }
                let v = q.var().0 as usize;
                if !self.seen[v] && self.levels[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.levels[v] == self.level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next literal to resolve on from the trail.
            loop {
                trail_idx -= 1;
                let p = self.trail[trail_idx];
                if self.seen[p.var().0 as usize] {
                    self.seen[p.var().0 as usize] = false;
                    counter -= 1;
                    if counter == 0 {
                        learnt[0] = p.negate();
                        // Lower-level literals stay marked until here.
                        for q in &learnt[1..] {
                            self.seen[q.var().0 as usize] = false;
                        }
                        // Put the second-highest-level literal at position 1
                        // (watch invariant after backtracking) and compute
                        // the backtrack level.
                        let mut bt = 0;
                        if learnt.len() > 1 {
                            let max_i = (1..learnt.len())
                                .max_by_key(|&i| self.levels[learnt[i].var().0 as usize])
                                .expect("non-empty tail");
                            learnt.swap(1, max_i);
                            bt = self.levels[learnt[1].var().0 as usize];
                        }
                        self.learnt_buf = learnt;
                        return bt;
                    }
                    resolve_var = Some(p.var());
                    conflict = self.reasons[p.var().0 as usize]
                        .expect("non-decision literal has a reason");
                    break;
                }
            }
        }
    }

    fn backtrack(&mut self, level: u32) {
        while self.level() > level {
            let lim = self.trail_lim.pop().expect("trail limit");
            for &l in &self.trail[lim..] {
                let v = l.var().0 as usize;
                self.values[v] = Value::Undef;
                self.reasons[v] = None;
            }
            self.trail.truncate(lim);
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    fn pick_branch(&mut self) -> Option<Var> {
        let mut best: Option<(Var, f64)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v == Value::Undef {
                let a = self.activity[i];
                if best.map_or(true, |(_, ba)| a > ba) {
                    best = Some((Var(i as u32), a));
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// The conflict subset of the assumptions responsible for the failed
    /// assumption `p` (whose negation holds on the trail): walks the
    /// implication graph from `¬p` back to the assumption decisions
    /// (MiniSat's `analyzeFinal`). Leaves assumption literals, `p`
    /// included, in `core`.
    fn analyze_final(&mut self, p: Lit) {
        let mut out = std::mem::take(&mut self.core);
        out.clear();
        out.push(p);
        if self.trail_lim.is_empty() {
            // ¬p is implied at the root: p alone conflicts with the formula.
            self.core = out;
            return;
        }
        let base = self.trail_lim[0];
        self.seen[p.var().0 as usize] = true;
        for i in (base..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            if !self.seen[v] {
                continue;
            }
            match self.reasons[v] {
                // Decisions above the root are exactly the assumptions.
                None => out.push(l),
                Some(ci) => {
                    for k in self.span(ci) {
                        let qv = self.lits[k].var().0 as usize;
                        if self.levels[qv] > 0 {
                            self.seen[qv] = true;
                        }
                    }
                }
            }
        }
        // Every mark is on `p` or on a variable assigned above the root.
        self.seen[p.var().0 as usize] = false;
        for i in base..self.trail.len() {
            self.seen[self.trail[i].var().0 as usize] = false;
        }
        self.core = out;
    }

    /// Solves the current formula. Returns a full model or `Unsat`.
    ///
    /// After a `Sat` answer the solver is at the root level; blocking
    /// clauses can be added and `solve` called again.
    pub fn solve(&mut self) -> SatOutcome {
        match self.solve_under_assumptions(&[]) {
            AssumeOutcome::Sat(m) => SatOutcome::Sat(m),
            AssumeOutcome::Unsat(_) => SatOutcome::Unsat,
        }
    }

    /// Solves the current formula under the given assumption literals,
    /// MiniSat style: assumptions are enqueued as the first decisions (one
    /// level each), everything learnt while solving is a consequence of
    /// the formula alone and is retained for later calls. On UNSAT the
    /// payload is a conflict subset of the assumptions; clauses and
    /// variables may be added between calls.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> AssumeOutcome {
        if self.search(assumptions) {
            AssumeOutcome::Sat(self.model.clone())
        } else {
            AssumeOutcome::Unsat(self.core.clone())
        }
    }

    /// The assignment of the last SAT answer of [`SatSolver::search`].
    pub(crate) fn model(&self) -> &[bool] {
        &self.model
    }

    /// [`SatSolver::solve_under_assumptions`] without copying its answer
    /// out: `true` for SAT, with the model in [`SatSolver::model`]; on
    /// UNSAT the conflict subset is left in `core`.
    pub(crate) fn search(&mut self, assumptions: &[Lit]) -> bool {
        self.core.clear();
        if self.unsat {
            return false;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return false;
        }
        if self.max_learnts == 0 {
            self.max_learnts = ((self.clauses.len() - self.n_learnt) / 3).max(2000);
        }
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.n_conflicts += 1;
                conflicts_since_restart += 1;
                if self.level() == 0 {
                    self.unsat = true;
                    return false;
                }
                let bt = self.analyze(conflict);
                self.backtrack(bt);
                self.var_inc *= 1.0 / 0.95;
                self.cla_inc *= 1.0 / 0.999;
                let asserting = self.learnt_buf[0];
                if self.learnt_buf.len() == 1 {
                    if !self.enqueue(asserting, None) {
                        self.unsat = true;
                        return false;
                    }
                } else {
                    let ci = self.attach_learnt();
                    if !self.enqueue(asserting, Some(ci)) {
                        self.unsat = true;
                        return false;
                    }
                }
                if self.n_learnt > self.max_learnts {
                    self.reduce_learnts();
                }
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit = restart_limit * 3 / 2;
                    self.backtrack(0);
                }
            } else if (self.level() as usize) < assumptions.len() {
                // Establish the next assumption as a decision.
                let a = assumptions[self.level() as usize];
                match self.value_lit(a) {
                    // Already implied: open an empty level to keep the
                    // level ↔ assumption correspondence.
                    Value::True => self.trail_lim.push(self.trail.len()),
                    Value::False => {
                        self.analyze_final(a);
                        self.backtrack(0);
                        return false;
                    }
                    Value::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, None);
                        debug_assert!(ok);
                    }
                }
            } else {
                match self.pick_branch() {
                    None => {
                        self.model.clear();
                        self.model.extend(self.values.iter().map(|&v| v == Value::True));
                        self.backtrack(0);
                        return true;
                    }
                    Some(v) => {
                        self.n_decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.saved_phase[v.0 as usize];
                        let ok = self.enqueue(v.lit(phase), None);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

impl SatSolver {
    /// Panics unless the clause store is consistent: the clauses tile the
    /// arena in order, each clause is watched by exactly its first two
    /// literals, the learnt counter is exact, no analysis mark leaked and
    /// every spare watch list is empty. A test aid; the solver never calls
    /// it.
    #[doc(hidden)]
    pub fn check_arena(&self) {
        let mut end = 0usize;
        let mut watched = vec![0usize; self.clauses.len()];
        for w in &self.watches {
            for &ci in w {
                watched[ci] += 1;
            }
        }
        for ci in 0..self.clauses.len() {
            let r = self.span(ci);
            assert_eq!(r.start, end, "clause {ci} does not start where its predecessor ends");
            assert!(r.len() >= 2 && r.end <= self.lits.len(), "clause {ci} outside the arena");
            end = r.end;
            for &l in &self.lits[r.start..r.start + 2] {
                let n = self.watches[l.negate().index()].iter().filter(|&&x| x == ci).count();
                assert_eq!(n, 1, "clause {ci} watched {n} times by {l:?}");
            }
            assert_eq!(watched[ci], 2, "clause {ci} has stray watches");
        }
        assert_eq!(end, self.lits.len(), "arena holds literals of no clause");
        assert_eq!(self.n_learnt, self.clauses.iter().filter(|c| c.learnt).count());
        assert!(self.seen.iter().all(|&m| !m), "analysis marks leaked");
        assert!(self.spare_watches.iter().all(Vec::is_empty), "a spare watch list is not empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        let var = Var((v.unsigned_abs() - 1) as u32);
        var.lit(v > 0)
    }

    fn solve(n: u32, clauses: &[&[i32]]) -> SatOutcome {
        let mut s = SatSolver::new(n);
        for c in clauses {
            s.add_clause(c.iter().map(|&v| lit(v)));
        }
        s.solve()
    }

    #[test]
    fn trivial_sat_unsat() {
        assert!(matches!(solve(1, &[&[1]]), SatOutcome::Sat(_)));
        assert!(matches!(solve(1, &[&[1], &[-1]]), SatOutcome::Unsat));
        assert!(matches!(solve(0, &[]), SatOutcome::Sat(_)));
        assert!(matches!(solve(1, &[&[]]), SatOutcome::Unsat));
    }

    #[test]
    fn unit_propagation_chain() {
        // 1, ¬1∨2, ¬2∨3 ⟹ 3.
        let out = solve(3, &[&[1], &[-1, 2], &[-2, 3]]);
        let SatOutcome::Sat(m) = out else { panic!("expected sat") };
        assert!(m[0] && m[1] && m[2]);
    }

    #[test]
    fn simple_conflict_learning() {
        // (1∨2) ∧ (1∨¬2) ∧ (¬1∨3) ∧ (¬1∨¬3) is unsat.
        assert!(matches!(solve(3, &[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]), SatOutcome::Unsat));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_ij: pigeon i in hole j; vars 1..=6 (i*2+j).
        let v = |i: i32, j: i32| i * 2 + j + 1; // i∈0..3, j∈0..2
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    clauses.push(vec![-v(i1, j), -v(i2, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert!(matches!(solve(6, &refs), SatOutcome::Unsat));
    }

    #[test]
    fn blocking_clauses_enumerate_models() {
        // 2 free variables: exactly 4 models.
        let mut s = SatSolver::new(2);
        s.add_clause([lit(1), lit(-1)]); // tautology, ignored
        let mut count = 0;
        loop {
            match s.solve() {
                SatOutcome::Sat(m) => {
                    count += 1;
                    assert!(count <= 4, "more models than possible");
                    s.add_clause((0..2).map(|i| Var(i as u32).lit(!m[i])));
                }
                SatOutcome::Unsat => break,
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        // ¬1∨2, ¬2∨3: satisfiable under [1], and the model obeys the chain.
        let mut s = SatSolver::new(3);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        let AssumeOutcome::Sat(m) = s.solve_under_assumptions(&[lit(1)]) else {
            panic!("expected sat under [1]")
        };
        assert!(m[0] && m[1] && m[2]);
        // Unsat under [1, ¬3], but the formula itself stays satisfiable.
        let AssumeOutcome::Unsat(core) = s.solve_under_assumptions(&[lit(1), lit(-3)]) else {
            panic!("expected unsat under [1, ¬3]")
        };
        assert!(!core.is_empty(), "assumption conflict must name assumptions");
        for l in &core {
            assert!([lit(1), lit(-3)].contains(l), "core literal {l:?} is not an assumption");
        }
        assert!(matches!(s.solve(), SatOutcome::Sat(_)), "formula must stay satisfiable");
    }

    #[test]
    fn assumption_conflict_subset_is_tight() {
        // Variables 3 and 4 are irrelevant to the conflict between 1 and 2.
        let mut s = SatSolver::new(4);
        s.add_clause([lit(-1), lit(-2)]);
        let assumptions = [lit(3), lit(4), lit(1), lit(2)];
        let AssumeOutcome::Unsat(core) = s.solve_under_assumptions(&assumptions) else {
            panic!("expected unsat")
        };
        let mut core = core;
        core.sort();
        assert_eq!(core, vec![lit(1), lit(2)], "irrelevant assumptions must not appear");
        // Contradictory assumptions conflict even over an empty formula.
        let mut s2 = SatSolver::new(1);
        let AssumeOutcome::Unsat(core2) = s2.solve_under_assumptions(&[lit(1), lit(-1)]) else {
            panic!("expected unsat")
        };
        let mut core2 = core2;
        core2.sort();
        assert_eq!(core2, vec![lit(1), lit(-1)]);
    }

    #[test]
    fn assumptions_are_not_permanent() {
        let mut s = SatSolver::new(2);
        s.add_clause([lit(1), lit(2)]);
        assert!(matches!(s.solve_under_assumptions(&[lit(-1)]), AssumeOutcome::Sat(_)));
        // The previous call's assumption must not constrain this one.
        let AssumeOutcome::Sat(m) = s.solve_under_assumptions(&[lit(1), lit(-2)]) else {
            panic!("expected sat")
        };
        assert!(m[0] && !m[1]);
    }

    #[test]
    fn clauses_and_variables_grow_between_solves() {
        let mut s = SatSolver::new(1);
        s.add_clause([lit(1)]);
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
        let v = s.new_var();
        assert_eq!(s.num_vars(), 2);
        s.add_clause([v.negative()]);
        let AssumeOutcome::Sat(m) = s.solve_under_assumptions(&[]) else { panic!("sat") };
        assert!(m[0] && !m[1]);
        let AssumeOutcome::Unsat(core) = s.solve_under_assumptions(&[v.positive()]) else {
            panic!("unsat under the retired guard")
        };
        assert_eq!(core, vec![v.positive()]);
    }

    /// Learnt clauses are retained across calls: re-solving the same hard
    /// UNSAT instance under a fresh (irrelevant) assumption does strictly
    /// less propagation/conflict work the second time.
    #[test]
    fn clause_retention_observable_via_counters() {
        // Pigeonhole 4→3, guarded by an activation literal so the solver
        // itself never latches a root-level UNSAT.
        let holes = 3;
        let pigeons = 4;
        let v = |i: u32, j: u32| Var(1 + i * holes + j); // var 0 is the guard
        let guard = Var(0).positive();
        let mut s = SatSolver::new(1 + pigeons * holes);
        for i in 0..pigeons {
            let mut c: Vec<Lit> = (0..holes).map(|j| v(i, j).positive()).collect();
            c.push(guard.negate());
            s.add_clause(c);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([v(i1, j).negative(), v(i2, j).negative(), guard.negate()]);
                }
            }
        }
        assert!(matches!(s.solve_under_assumptions(&[guard]), AssumeOutcome::Unsat(_)));
        let conflicts_first = s.conflicts();
        let props_first = s.propagations();
        assert!(conflicts_first > 0, "pigeonhole needs search");
        assert!(s.learnt_count() > 0, "learnt clauses must be retained");
        assert!(matches!(s.solve_under_assumptions(&[guard]), AssumeOutcome::Unsat(_)));
        let conflicts_second = s.conflicts() - conflicts_first;
        let props_second = s.propagations() - props_first;
        assert!(
            conflicts_second < conflicts_first,
            "retained clauses must reduce conflicts: {conflicts_second} vs {conflicts_first}"
        );
        assert!(
            props_second < props_first,
            "retained clauses must reduce propagations: {props_second} vs {props_first}"
        );
    }

    /// Aggressive learnt-database reduction (tiny budget) on an
    /// incremental clause stream never changes verdicts, and the database
    /// stays bounded.
    #[test]
    fn learnt_reduction_bounds_database_and_stays_correct() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let brute = |n: u32, clauses: &[Vec<Lit>]| -> bool {
            (0..(1u32 << n)).any(|bits| {
                clauses.iter().all(|c| {
                    c.iter().any(|l| {
                        let val = bits & (1 << l.var().0) != 0;
                        if l.is_positive() { val } else { !val }
                    })
                })
            })
        };
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(6..10) as u32;
            let mut s = SatSolver::new(n);
            s.set_learnt_budget(2);
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..60 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Var(rng.gen_range(0..n)).lit(rng.gen_bool(0.5)))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
                let expect = brute(n, &clauses);
                assert_eq!(
                    matches!(s.solve(), SatOutcome::Sat(_)),
                    expect,
                    "verdict diverged under reduction: {clauses:?}"
                );
                if !expect {
                    break;
                }
            }
            assert!(s.learnt_count() <= 200, "database unbounded: {}", s.learnt_count());
        }
        // The tiny random streams may tip UNSAT before the database fills,
        // so force the compaction path deterministically with a guarded
        // pigeonhole (5→4) under a budget of 1: the instance generates many
        // long, high-LBD learnt clauses and stays re-solvable because only
        // the assumption makes it inconsistent.
        let holes = 4;
        let pigeons = 5;
        let v = |i: u32, j: u32| Var(1 + i * holes + j); // var 0 is the guard
        let guard = Var(0).positive();
        let mut s = SatSolver::new(1 + pigeons * holes);
        s.set_learnt_budget(1);
        for i in 0..pigeons {
            let mut c: Vec<Lit> = (0..holes).map(|j| v(i, j).positive()).collect();
            c.push(guard.negate());
            s.add_clause(c);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([v(i1, j).negative(), v(i2, j).negative(), guard.negate()]);
                }
            }
        }
        for _ in 0..3 {
            assert!(matches!(s.solve_under_assumptions(&[guard]), AssumeOutcome::Unsat(_)));
        }
        assert!(s.reductions() > 0, "the tiny budget must trigger reductions");
        assert!(
            matches!(s.solve_under_assumptions(&[]), AssumeOutcome::Sat(_)),
            "formula stays satisfiable without the guard after reductions"
        );
    }

    /// Random clause additions interleaved with solves under random
    /// assumptions, with a learnt budget of one so nearly every conflict
    /// compacts the arena: the store stays consistent after every call.
    #[test]
    fn arena_invariants_hold_across_adds_solves_and_reductions() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut reductions = 0;
        for _ in 0..40 {
            let n = rng.gen_range(20..40) as u32;
            let mut s = SatSolver::new(n);
            s.set_learnt_budget(1);
            s.check_arena();
            for _ in 0..(5 * n) {
                let len = [1, 2, 3, 3, 3, 3, 4, 5][rng.gen_range(0..8usize)];
                let c: Vec<Lit> =
                    (0..len).map(|_| Var(rng.gen_range(0..n)).lit(rng.gen_bool(0.5))).collect();
                s.add_clause(c);
                s.check_arena();
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..4))
                    .map(|_| Var(rng.gen_range(0..n)).lit(rng.gen_bool(0.5)))
                    .collect();
                let out = s.solve_under_assumptions(&assumptions);
                s.check_arena();
                if out == AssumeOutcome::Unsat(Vec::new()) && s.solve() == SatOutcome::Unsat {
                    break;
                }
                s.check_arena();
            }
            reductions += s.reductions();
        }
        assert!(reductions > 0, "the budget of one must compact the arena");
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let n = rng.gen_range(3..9);
            let m = rng.gen_range(1..30);
            let clauses: Vec<Vec<i32>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=n) as i32;
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let v = (l.unsigned_abs() - 1) as u32;
                        let val = bits & (1 << v) != 0;
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
            let out = solve(n as u32, &refs);
            match out {
                SatOutcome::Sat(model) => {
                    assert!(brute_sat, "solver said sat, brute force disagrees: {clauses:?}");
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| {
                                let v = (l.unsigned_abs() - 1) as usize;
                                if l > 0 {
                                    model[v]
                                } else {
                                    !model[v]
                                }
                            }),
                            "model does not satisfy {c:?}"
                        );
                    }
                }
                SatOutcome::Unsat => {
                    assert!(!brute_sat, "solver said unsat, brute force found a model: {clauses:?}");
                }
            }
        }
    }
}
