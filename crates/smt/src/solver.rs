//! The lazy DPLL(T) loop and models.
//!
//! [`Incremental`] is the persistent entry point: one session owns a SAT
//! solver, the preprocess rewrite cache and the Tseitin term→literal
//! table, and answers a *sequence* of queries over a growing assertion
//! set. Queries are posed as assumption literals, so retired assertions
//! cost nothing, and everything learnt — CDCL clauses and theory-conflict
//! blocking clauses alike — carries over to later queries.
//! [`Context::solve`] is the one-shot convenience wrapper.

use std::collections::HashMap;

use crate::cnf;
use crate::sat::{AssumeOutcome, Cnf, Lit, SatSolver};
use crate::term::{Context, Sort, TermData, TermId};
use crate::theory::{self, TheoryModel, TheoryResult};

/// A first-order model of the assertions.
#[derive(Debug, Default)]
pub struct Model {
    bools: HashMap<TermId, bool>,
    ints: HashMap<TermId, i64>,
    classes: HashMap<TermId, TermId>,
}

impl Model {
    /// Truth value of a boolean subterm of the assertions, if it occurred.
    pub fn bool_value(&self, t: TermId) -> Option<bool> {
        self.bools.get(&t).copied()
    }

    /// Integer value of a term, if it was constrained by any comparison.
    pub fn int_value(&self, t: TermId) -> Option<i64> {
        self.ints.get(&t).copied()
    }

    /// Whether two uninterpreted-sort terms are equal in the model.
    ///
    /// Terms that never occurred in an asserted equality are unconstrained;
    /// the model makes them equal only to themselves.
    pub fn eval_eq(&self, a: TermId, b: TermId) -> Option<bool> {
        let ra = self.classes.get(&a).copied().unwrap_or(a);
        let rb = self.classes.get(&b).copied().unwrap_or(b);
        Some(ra == rb)
    }

    /// The model's equivalence-class representative of a term (itself if
    /// unconstrained).
    pub fn class_of(&self, t: TermId) -> TermId {
        self.classes.get(&t).copied().unwrap_or(t)
    }
}

/// Result of [`Context::solve`].
#[derive(Debug)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

impl Context {
    /// Decides the conjunction of `assertions` (one-shot: a fresh
    /// [`Incremental`] session per call).
    ///
    /// # Panics
    ///
    /// Panics if an assertion is not boolean.
    pub fn solve(&mut self, assertions: &[TermId]) -> SatResult {
        let mut session = Incremental::new();
        for &a in assertions {
            session.assert(self, a);
        }
        session.solve_under(self, &[])
    }
}

/// A persistent incremental solving session over one term context.
///
/// The session caches, across solve calls:
///
/// * the preprocess rewrite map (term → theory-normal form),
/// * the Tseitin term → literal table (each boolean subterm is encoded
///   into CNF exactly once, ever),
/// * the CDCL solver itself, with its learnt clauses and variable
///   activities, and
/// * every theory-conflict blocking clause — theory lemmas are valid
///   formulas, so once learnt they refute the same boolean assignment in
///   every later query.
///
/// Queries follow the MiniSat assumption discipline: permanent facts go
/// in with [`Incremental::assert`], or as one clause over term literals
/// with [`Incremental::assert_clause`]; retractable facts are guarded by an
/// [`Incremental::activation`] literal via [`Incremental::assert_under`]
/// and enabled by passing the guard to [`Incremental::solve_under`] /
/// [`Incremental::check_sat_assuming`]. Retiring a guard
/// ([`Incremental::retire`]) permanently deactivates its assertions.
#[derive(Debug)]
pub struct Incremental {
    sat: SatSolver,
    tseitin: cnf::Tseitin,
    pre: Preprocessor,
    /// Reused buffer for the variables and definition clauses one
    /// assertion adds.
    delta: Cnf,
    /// Reused buffer for the literals of an asserted clause.
    clause: Vec<Lit>,
    n_solves: u64,
    n_blocking: u64,
}

impl Default for Incremental {
    fn default() -> Self {
        Incremental::new()
    }
}

impl Incremental {
    /// Creates an empty session.
    pub fn new() -> Self {
        Incremental {
            sat: SatSolver::new(0),
            tseitin: cnf::Tseitin::new(),
            pre: Preprocessor::default(),
            delta: Cnf::new(),
            clause: Vec::new(),
            n_solves: 0,
            n_blocking: 0,
        }
    }

    /// Preprocesses and Tseitin-encodes `t`, flushing any new variables
    /// and definition clauses into the solver, and returns its literal.
    fn encode_lit(&mut self, ctx: &mut Context, t: TermId) -> Lit {
        assert_eq!(ctx.sort(t), Sort::Bool, "assertions must be boolean");
        let r = self.pre.rewrite(ctx, t);
        self.delta.n_vars = self.sat.num_vars();
        let l = self.tseitin.lit(ctx, r, &mut self.delta);
        self.sat.ensure_vars(self.delta.n_vars);
        for c in self.delta.clauses() {
            self.sat.add_clause(c.iter().copied());
        }
        self.delta.clear_clauses();
        l
    }

    /// Asserts `t` permanently (all later queries see it).
    pub fn assert(&mut self, ctx: &mut Context, t: TermId) {
        let l = self.encode_lit(ctx, t);
        self.sat.add_clause([l]);
    }

    /// Asserts the disjunction of the boolean terms `lits` permanently, as
    /// one clause: each term is encoded to a literal (composite terms
    /// through Tseitin, in order), but the disjunction itself gets no
    /// variable of its own.
    pub fn assert_clause(&mut self, ctx: &mut Context, lits: &[TermId]) {
        let mut c = std::mem::take(&mut self.clause);
        c.clear();
        for &t in lits {
            let l = self.encode_lit(ctx, t);
            c.push(l);
        }
        self.sat.add_clause(c.iter().copied());
        self.clause = c;
    }

    /// A fresh activation literal, not tied to any term.
    pub fn activation(&mut self) -> Lit {
        self.sat.new_var().positive()
    }

    /// Asserts `guard → t`: the assertion is active exactly in queries
    /// that assume `guard`.
    pub fn assert_under(&mut self, ctx: &mut Context, guard: Lit, t: TermId) {
        let l = self.encode_lit(ctx, t);
        self.sat.add_clause([guard.negate(), l]);
    }

    /// Permanently deactivates a guard's assertions by asserting the unit
    /// `¬guard`. That satisfies every clause the guard protects at the
    /// root level, so no later query can use them. The clauses themselves
    /// stay in the solver's database and watch lists: `add_clause` only
    /// drops clauses already satisfied when they are added, and nothing
    /// removes them afterwards.
    pub fn retire(&mut self, guard: Lit) {
        self.sat.add_clause([guard.negate()]);
    }

    /// Satisfiability of the permanent assertions plus the assumptions.
    /// Cheaper than [`Incremental::solve_under`]: no model is built.
    pub fn check_sat_assuming(&mut self, ctx: &Context, assumptions: &[Lit]) -> bool {
        self.solve_internal(ctx, assumptions).is_some()
    }

    /// Decides the permanent assertions plus the assumptions, with a
    /// model on `Sat`.
    pub fn solve_under(&mut self, ctx: &Context, assumptions: &[Lit]) -> SatResult {
        match self.solve_internal(ctx, assumptions) {
            None => SatResult::Unsat,
            Some((assignment, tm)) => {
                let mut bools = HashMap::new();
                for (t, l) in self.tseitin.encoded() {
                    let v = assignment[l.var().0 as usize];
                    bools.insert(t, if l.is_positive() { v } else { !v });
                }
                SatResult::Sat(Model { bools, ints: tm.ints, classes: tm.classes })
            }
        }
    }

    /// The DPLL(T) loop: boolean models from the SAT core, refuted by the
    /// theories until one is consistent or the core runs dry.
    fn solve_internal(
        &mut self,
        ctx: &Context,
        assumptions: &[Lit],
    ) -> Option<(Vec<bool>, TheoryModel)> {
        self.n_solves += 1;
        // Trace the SAT-core effort this query cost (deltas, so parallel
        // sessions on different threads stay independent).
        let traced = c4_obs::enabled();
        let (c0, d0, p0) = if traced {
            (self.sat.conflicts(), self.sat.decisions(), self.sat.propagations())
        } else {
            (0, 0, 0)
        };
        let out = self.solve_loop(ctx, assumptions);
        if traced {
            c4_obs::counter("sat_conflicts", self.sat.conflicts() - c0);
            c4_obs::counter("sat_decisions", self.sat.decisions() - d0);
            c4_obs::counter("sat_propagations", self.sat.propagations() - p0);
        }
        out
    }

    fn solve_loop(
        &mut self,
        ctx: &Context,
        assumptions: &[Lit],
    ) -> Option<(Vec<bool>, TheoryModel)> {
        loop {
            match self.sat.solve_under_assumptions(assumptions) {
                AssumeOutcome::Unsat(_) => return None,
                AssumeOutcome::Sat(assignment) => {
                    let atoms = self.tseitin.atoms();
                    let asserted: Vec<(TermId, bool)> =
                        atoms.iter().map(|&(t, v)| (t, assignment[v.0 as usize])).collect();
                    match theory::check(ctx, &asserted) {
                        TheoryResult::Consistent(tm) => return Some((assignment, tm)),
                        TheoryResult::Conflict(core) => {
                            // Block this combination of theory literals.
                            // The lemma is valid, not query-specific: it
                            // stays unguarded and serves every later query.
                            self.n_blocking += 1;
                            self.sat.add_clause(core.iter().map(|&i| {
                                let (_, var) = atoms[i];
                                var.lit(!asserted[i].1)
                            }));
                        }
                    }
                }
            }
        }
    }

    /// Solve calls answered so far.
    pub fn solves(&self) -> u64 {
        self.n_solves
    }

    /// Theory-conflict blocking clauses learnt so far (persistent).
    pub fn blocking_clauses(&self) -> u64 {
        self.n_blocking
    }

    /// Learnt CDCL clauses currently retained by the SAT core.
    pub fn learnt_count(&self) -> usize {
        self.sat.learnt_count()
    }

    /// The underlying SAT solver (for diagnostics and tests).
    pub fn sat(&self) -> &SatSolver {
        &self.sat
    }
}

/// Rewrites away constructs the theories do not handle natively:
/// `Eq` over `Int` (→ two `Le`), `Eq` over `Bool` (→ `Iff`), `Distinct`
/// (→ pairwise negated equalities).
///
/// The rewrite cache is dense, indexed by [`TermId`], and grows with the
/// context. N-ary operands are copied onto a shared stack instead of
/// cloning the node.
#[derive(Debug, Default)]
struct Preprocessor {
    cache: Vec<TermId>,
    stack: Vec<TermId>,
}

/// Marks a term the preprocess cache has not rewritten yet.
const UNSEEN: TermId = TermId(u32::MAX);

impl Preprocessor {
    fn rewrite(&mut self, ctx: &mut Context, t: TermId) -> TermId {
        let i = t.0 as usize;
        if i < self.cache.len() && self.cache[i] != UNSEEN {
            return self.cache[i];
        }
        // N-ary operands go on the stack first: rewriting them adds terms
        // to `ctx`, so the node cannot stay borrowed.
        let base = match ctx.data(t) {
            TermData::And(xs) | TermData::Or(xs) | TermData::Distinct(xs) => {
                let base = self.stack.len();
                self.stack.extend_from_slice(xs);
                base
            }
            _ => self.stack.len(),
        };
        let result = match *ctx.data(t) {
            TermData::Eq(a, b) => match ctx.sort(a) {
                Sort::Int => {
                    let le1 = ctx.le(a, b);
                    let le2 = ctx.le(b, a);
                    ctx.and([le1, le2])
                }
                Sort::Bool => {
                    let a = self.rewrite(ctx, a);
                    let b = self.rewrite(ctx, b);
                    let iff = ctx.iff(a, b);
                    self.rewrite(ctx, iff)
                }
                Sort::Uninterpreted(_) => t,
            },
            TermData::Distinct(_) => {
                let n = self.stack.len() - base;
                let mut conj = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let e = ctx.eq(self.stack[base + i], self.stack[base + j]);
                        let e = self.rewrite(ctx, e);
                        conj.push(ctx.not(e));
                    }
                }
                self.stack.truncate(base);
                ctx.and(conj)
            }
            TermData::Not(a) => {
                let a = self.rewrite(ctx, a);
                ctx.not(a)
            }
            TermData::And(_) => {
                self.rewrite_operands(ctx, base);
                let r = ctx.and(self.stack[base..].iter().copied());
                self.stack.truncate(base);
                r
            }
            TermData::Or(_) => {
                self.rewrite_operands(ctx, base);
                let r = ctx.or(self.stack[base..].iter().copied());
                self.stack.truncate(base);
                r
            }
            TermData::Implies(a, b) => {
                let a = self.rewrite(ctx, a);
                let b = self.rewrite(ctx, b);
                ctx.implies(a, b)
            }
            TermData::Iff(a, b) => {
                let a = self.rewrite(ctx, a);
                let b = self.rewrite(ctx, b);
                ctx.iff(a, b)
            }
            _ => t,
        };
        if i >= self.cache.len() {
            self.cache.resize(ctx.term_count(), UNSEEN);
        }
        self.cache[i] = result;
        result
    }

    /// Replaces the operands on the stack from `base` on, in order, by
    /// their rewrites.
    fn rewrite_operands(&mut self, ctx: &mut Context, base: usize) {
        for k in base..self.stack.len() {
            let r = self.rewrite(ctx, self.stack[k]);
            self.stack[k] = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euf_chain_unsat() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let vs: Vec<TermId> = (0..5).map(|i| ctx.var(format!("v{i}"), s)).collect();
        let mut conj: Vec<TermId> = (0..4).map(|i| ctx.eq(vs[i], vs[i + 1])).collect();
        let e = ctx.eq(vs[0], vs[4]);
        conj.push(ctx.not(e));
        let f = ctx.and(conj);
        assert!(!ctx.solve(&[f]).is_sat());
    }

    #[test]
    fn int_equality_is_rewritten() {
        let mut ctx = Context::new();
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let eq = ctx.eq(i, j);
        let lt = ctx.lt(i, j);
        assert!(!ctx.solve(&[eq, lt]).is_sat());
        let neq = ctx.not(eq);
        let SatResult::Sat(m) = ctx.solve(&[neq]) else { panic!("sat expected") };
        assert_ne!(m.int_value(i), m.int_value(j));
    }

    #[test]
    fn distinct_rewriting() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let z = ctx.var("z", s);
        let d = ctx.distinct(vec![x, y, z]);
        let exy = ctx.eq(x, y);
        assert!(!ctx.solve(&[d, exy]).is_sat());
        let SatResult::Sat(m) = ctx.solve(&[d]) else { panic!("sat expected") };
        assert_eq!(m.eval_eq(x, y), Some(false));
        assert_eq!(m.eval_eq(y, z), Some(false));
    }

    #[test]
    fn boolean_equality_as_iff() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let e = ctx.eq(a, b);
        let nb = ctx.not(b);
        assert!(!ctx.solve(&[e, a, nb]).is_sat());
        assert!(ctx.solve(&[e, a, b]).is_sat());
    }

    #[test]
    fn mixed_theories_with_boolean_structure() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let i = ctx.var("i", Sort::Int);
        let ten = ctx.int(10);
        // (x=y → i<10) ∧ (x≠y → 10<i) ∧ i=10 is unsat.
        let exy = ctx.eq(x, y);
        let lt10 = ctx.lt(i, ten);
        let gt10 = ctx.lt(ten, i);
        let nexy = ctx.not(exy);
        let i1 = ctx.implies(exy, lt10);
        let i2 = ctx.implies(nexy, gt10);
        let eq10 = ctx.eq(i, ten);
        assert!(!ctx.solve(&[i1, i2, eq10]).is_sat());
        // Dropping the pin makes it sat and the model obeys the implication.
        let SatResult::Sat(m) = ctx.solve(&[i1, i2]) else { panic!("sat expected") };
        let xy_equal = m.eval_eq(x, y).unwrap();
        let iv = m.int_value(i).unwrap();
        if xy_equal {
            assert!(iv < 10);
        } else {
            assert!(iv > 10);
        }
    }

    #[test]
    fn model_covers_boolean_subterms() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let or = ctx.or([a, b]);
        let na = ctx.not(a);
        let SatResult::Sat(m) = ctx.solve(&[or, na]) else { panic!("sat expected") };
        assert_eq!(m.bool_value(a), Some(false));
        assert_eq!(m.bool_value(b), Some(true));
        assert_eq!(m.bool_value(or), Some(true));
    }

    #[test]
    fn functions_through_full_pipeline() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let f = ctx.func("f", vec![s], s);
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let fx = ctx.app(f, vec![x]);
        let fy = ctx.app(f, vec![y]);
        let exy = ctx.eq(x, y);
        let efxfy = ctx.eq(fx, fy);
        let nefxfy = ctx.not(efxfy);
        assert!(!ctx.solve(&[exy, nefxfy]).is_sat());
        assert!(ctx.solve(&[efxfy, exy]).is_sat());
    }

    #[test]
    fn incremental_session_guards_and_retires() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let z = ctx.var("z", s);
        let xy = ctx.eq(x, y);
        let yz = ctx.eq(y, z);
        let xz = ctx.eq(x, z);
        let nxz = ctx.not(xz);
        let mut session = Incremental::new();
        // Permanent: x = y and y = z.
        session.assert(&mut ctx, xy);
        session.assert(&mut ctx, yz);
        // Query 1 under guard g1: x ≠ z — transitivity refutes it.
        let g1 = session.activation();
        session.assert_under(&mut ctx, g1, nxz);
        assert!(!session.solve_under(&ctx, &[g1]).is_sat());
        session.retire(g1);
        // Query 2 under guard g2: x = z — consistent; the retired g1
        // assertion must not leak in.
        let g2 = session.activation();
        session.assert_under(&mut ctx, g2, xz);
        let SatResult::Sat(m) = session.solve_under(&ctx, &[g2]) else {
            panic!("retired guard must not constrain later queries")
        };
        assert_eq!(m.eval_eq(x, z), Some(true));
        assert_eq!(session.solves(), 2);
    }

    /// Theory-conflict blocking clauses persist across incremental calls:
    /// a lemma learnt refuting one query's boolean model is not
    /// re-derived when a later query proposes the same assignment.
    #[test]
    fn theory_blocking_clauses_survive_across_calls() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let vs: Vec<TermId> = (0..5).map(|i| ctx.var(format!("v{i}"), s)).collect();
        // Permanent chain v0 = v1 = … = v4 plus a free boolean choice the
        // guards toggle, so each query re-enumerates boolean models.
        let mut session = Incremental::new();
        for w in vs.windows(2) {
            let e = ctx.eq(w[0], w[1]);
            session.assert(&mut ctx, e);
        }
        let e04 = ctx.eq(vs[0], vs[4]);
        let ne04 = ctx.not(e04);
        let g1 = session.activation();
        session.assert_under(&mut ctx, g1, ne04);
        assert!(!session.solve_under(&ctx, &[g1]).is_sat());
        let after_first = session.blocking_clauses();
        assert!(after_first > 0, "refuting the chain needs theory lemmas");
        // The same query under a fresh guard: every boolean model it could
        // propose is already blocked, so no new lemmas are learnt.
        let g2 = session.activation();
        session.assert_under(&mut ctx, g2, ne04);
        assert!(!session.solve_under(&ctx, &[g2]).is_sat());
        assert_eq!(
            session.blocking_clauses(),
            after_first,
            "persisted blocking clauses must not be re-derived"
        );
    }

    /// The one-shot `Context::solve` and a reused incremental session give
    /// the same verdicts over a mixed query sequence.
    #[test]
    fn incremental_agrees_with_one_shot() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let i = ctx.var("i", Sort::Int);
        let ten = ctx.int(10);
        let exy = ctx.eq(x, y);
        let nexy = ctx.not(exy);
        let lt = ctx.lt(i, ten);
        let nlt = ctx.not(lt);
        let base = vec![ctx.implies(exy, lt)];
        let queries: Vec<Vec<TermId>> = vec![
            vec![exy, nlt],
            vec![exy, lt],
            vec![nexy, nlt],
            vec![exy],
            vec![exy, nlt],
        ];
        let mut session = Incremental::new();
        for &b in &base {
            session.assert(&mut ctx, b);
        }
        for q in &queries {
            let guard = session.activation();
            for &t in q {
                session.assert_under(&mut ctx, guard, t);
            }
            let inc = session.check_sat_assuming(&ctx, &[guard]);
            session.retire(guard);
            let mut all = base.clone();
            all.extend(q.iter().copied());
            let one_shot = ctx.solve(&all).is_sat();
            assert_eq!(inc, one_shot, "verdicts diverged on {q:?}");
        }
    }

    #[test]
    fn blocking_loop_terminates_on_hard_combination() {
        // Several interacting atoms that force multiple theory refutations.
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let vs: Vec<TermId> = (0..4).map(|i| ctx.var(format!("v{i}"), s)).collect();
        let iv: Vec<TermId> = (0..4).map(|i| ctx.var(format!("i{i}"), Sort::Int)).collect();
        let mut parts = Vec::new();
        // Pigeonhole-ish: all vs distinct, but each equal to one of two
        // "pigeons".
        let d = ctx.distinct(vs.clone());
        parts.push(d);
        let p = ctx.var("p", s);
        let q = ctx.var("q", s);
        for &v in &vs {
            let ep = ctx.eq(v, p);
            let eq_ = ctx.eq(v, q);
            parts.push(ctx.or([ep, eq_]));
        }
        // Plus an integer chain to exercise arith blocking.
        for w in iv.windows(2) {
            parts.push(ctx.lt(w[0], w[1]));
        }
        let f = ctx.and(parts);
        assert!(!ctx.solve(&[f]).is_sat());
    }
}
