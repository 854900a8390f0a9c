//! Tseitin transformation: boolean term DAG → CNF, with an atom map for
//! the lazy theory layer.
//!
//! The worker type, [`Tseitin`], is a *persistent* term→literal cache: it
//! does not borrow the term context, so an incremental session can keep
//! it alive across solve calls and only pay for subterms it has never
//! encoded before. Definition clauses are full equivalences, hence valid
//! independent of which assertions are currently active — they never need
//! to be guarded or retracted.

use crate::sat::{Cnf, Lit, Var};
use crate::term::{Context, Sort, TermData, TermId};

/// Marks a term the Tseitin table has not encoded yet.
const UNSEEN: Lit = Lit(u32::MAX);

/// Persistent Tseitin state: term → literal table, collected theory
/// atoms, and the reserved "true" literal. Fresh variables and definition
/// clauses are emitted into the `Cnf` passed to [`Tseitin::lit`]; an
/// incremental caller seeds that `Cnf`'s `n_vars` with the solver's
/// current variable count so numbering stays aligned.
///
/// The table is dense, indexed by [`TermId`], and grows with the term
/// context; operand literals of the node being encoded live on a shared
/// stack, so encoding a node allocates nothing beyond its clauses.
#[derive(Debug, Default)]
pub(crate) struct Tseitin {
    map: Vec<Lit>,
    atoms: Vec<(TermId, Var)>,
    const_true: Option<Lit>,
    stack: Vec<Lit>,
}

impl Tseitin {
    pub fn new() -> Self {
        Tseitin::default()
    }

    /// Forgets every encoded term, keeping the buffers.
    pub fn reset(&mut self) {
        self.map.clear();
        self.atoms.clear();
        self.const_true = None;
        self.stack.clear();
    }

    /// The theory atoms encoded so far, in first-encounter order.
    pub fn atoms(&self) -> &[(TermId, Var)] {
        &self.atoms
    }

    /// Every encoded term with its literal, in term order.
    pub fn encoded(&self) -> impl Iterator<Item = (TermId, Lit)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l != UNSEEN)
            .map(|(t, &l)| (TermId(t as u32), l))
    }

    fn true_lit(&mut self, cnf: &mut Cnf) -> Lit {
        if let Some(l) = self.const_true {
            return l;
        }
        let v = cnf.fresh();
        cnf.add([v.positive()]);
        self.const_true = Some(v.positive());
        v.positive()
    }

    /// Encodes the operands of an n-ary node onto the stack; returns the
    /// stack base where they start.
    fn push_operands(&mut self, ctx: &Context, xs: &[TermId], cnf: &mut Cnf) -> usize {
        let base = self.stack.len();
        for &x in xs {
            let l = self.lit(ctx, x, cnf);
            self.stack.push(l);
        }
        base
    }

    /// The literal of boolean term `t`, encoding it (and any not-yet-seen
    /// subterms) into `cnf` on first encounter.
    pub fn lit(&mut self, ctx: &Context, t: TermId, cnf: &mut Cnf) -> Lit {
        let i = t.0 as usize;
        if i >= self.map.len() {
            self.map.resize(ctx.term_count(), UNSEEN);
        }
        if self.map[i] != UNSEEN {
            return self.map[i];
        }
        let l = match ctx.data(t) {
            TermData::BoolConst(true) => self.true_lit(cnf),
            TermData::BoolConst(false) => self.true_lit(cnf).negate(),
            TermData::Var(_) if ctx.sort(t) == Sort::Bool => cnf.fresh().positive(),
            TermData::Eq(_, _) | TermData::Le(_, _) | TermData::Lt(_, _) => {
                let v = cnf.fresh();
                self.atoms.push((t, v));
                v.positive()
            }
            TermData::Not(a) => self.lit(ctx, *a, cnf).negate(),
            TermData::And(xs) => {
                let base = self.push_operands(ctx, ctx.operands(*xs), cnf);
                let v = cnf.fresh().positive();
                for &x in &self.stack[base..] {
                    cnf.add([v.negate(), x]);
                }
                cnf.add(self.stack[base..].iter().map(|x| x.negate()).chain([v]));
                self.stack.truncate(base);
                v
            }
            TermData::Or(xs) => {
                let base = self.push_operands(ctx, ctx.operands(*xs), cnf);
                let v = cnf.fresh().positive();
                for &x in &self.stack[base..] {
                    cnf.add([v, x.negate()]);
                }
                cnf.add(self.stack[base..].iter().copied().chain([v.negate()]));
                self.stack.truncate(base);
                v
            }
            TermData::Implies(a, b) => {
                let la = self.lit(ctx, *a, cnf);
                let lb = self.lit(ctx, *b, cnf);
                let v = cnf.fresh().positive();
                // v ↔ (¬a ∨ b)
                cnf.add([v.negate(), la.negate(), lb]);
                cnf.add([v, la]);
                cnf.add([v, lb.negate()]);
                v
            }
            TermData::Iff(a, b) => {
                let la = self.lit(ctx, *a, cnf);
                let lb = self.lit(ctx, *b, cnf);
                let v = cnf.fresh().positive();
                cnf.add([v.negate(), la.negate(), lb]);
                cnf.add([v.negate(), la, lb.negate()]);
                cnf.add([v, la, lb]);
                cnf.add([v, la.negate(), lb.negate()]);
                v
            }
            TermData::Distinct(_) => {
                panic!("distinct must be expanded by preprocessing")
            }
            TermData::Var(_) | TermData::App(_, _) | TermData::IntConst(_) => {
                panic!("non-boolean term in boolean position: {}", ctx.display(t))
            }
        };
        self.map[i] = l;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatOutcome, SatSolver};

    fn solve_terms(ctx: &Context, assertions: &[TermId]) -> SatOutcome {
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        for &a in assertions {
            let l = ts.lit(ctx, a, &mut cnf);
            cnf.add([l]);
        }
        SatSolver::from_cnf(&cnf).solve()
    }

    #[test]
    fn propositional_reasoning() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let ab = ctx.and([a, b]);
        assert!(matches!(solve_terms(&ctx, &[ab]), SatOutcome::Sat(_)));
        let na = ctx.not(a);
        let contra = ctx.and([a, na]);
        assert!(matches!(solve_terms(&ctx, &[contra]), SatOutcome::Unsat));
        let imp = ctx.implies(a, b);
        let nb = ctx.not(b);
        assert!(matches!(solve_terms(&ctx, &[imp, a, nb]), SatOutcome::Unsat));
        let iff = ctx.iff(a, b);
        assert!(matches!(solve_terms(&ctx, &[iff, a, nb]), SatOutcome::Unsat));
        assert!(matches!(solve_terms(&ctx, &[iff, a, b]), SatOutcome::Sat(_)));
    }

    #[test]
    fn atoms_are_collected() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let e = ctx.eq(x, y);
        let a = ctx.var("a", Sort::Bool);
        let f = ctx.or([e, a]);
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        ts.lit(&ctx, f, &mut cnf);
        assert_eq!(ts.atoms().len(), 1);
        assert_eq!(ts.atoms()[0].0, e);
    }

    #[test]
    fn bool_constants() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let f = ctx.fls();
        assert!(matches!(solve_terms(&ctx, &[t]), SatOutcome::Sat(_)));
        assert!(matches!(solve_terms(&ctx, &[f]), SatOutcome::Unsat));
    }

    #[test]
    fn persistent_cache_encodes_each_subterm_once() {
        let mut ctx = Context::new();
        let a = ctx.var("a", Sort::Bool);
        let b = ctx.var("b", Sort::Bool);
        let ab = ctx.and([a, b]);
        let mut ts = Tseitin::new();
        let mut cnf = Cnf::new();
        let l1 = ts.lit(&ctx, ab, &mut cnf);
        let clauses_after_first = cnf.clauses().count();
        let vars_after_first = cnf.n_vars;
        // Re-encoding the same term (or a superterm sharing it) adds no
        // definition clauses for the cached part.
        let l2 = ts.lit(&ctx, ab, &mut cnf);
        assert_eq!(l1, l2);
        assert_eq!(cnf.clauses().count(), clauses_after_first);
        assert_eq!(cnf.n_vars, vars_after_first);
        let nab = ctx.not(ab);
        let or = ctx.or([nab, a]);
        ts.lit(&ctx, or, &mut cnf);
        // Only the Or node is new: one fresh var, three clauses (2 + big).
        assert_eq!(cnf.n_vars, vars_after_first + 1);
    }
}
