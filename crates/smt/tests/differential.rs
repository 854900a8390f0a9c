//! Differential testing of the SMT solver against brute-force evaluation
//! over small finite domains.
//!
//! Two directions, each sound on its own:
//!
//! * if brute force over the finite domains finds a model, the solver
//!   must answer SAT (a solver UNSAT would be a completeness bug) — the
//!   integer window is only a *subset* of ℤ, so a brute-force UNSAT does
//!   not bound the solver;
//! * every solver model must actually satisfy the formula
//!   (`models_satisfy`), which together with the first direction brackets
//!   the solver's behavior.

use c4_smt::{Context, SatResult, Sort, TermId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum F {
    UEq(usize, usize),
    ILe(usize, usize),
    ILtC(usize, i64),
    CLe(i64, usize),
    BVar(usize),
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
    Implies(Box<F>, Box<F>),
}

fn formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        (0..3usize, 0..3usize).prop_map(|(a, b)| F::UEq(a, b)),
        (0..3usize, 0..3usize).prop_map(|(a, b)| F::ILe(a, b)),
        (0..3usize, -2..3i64).prop_map(|(a, c)| F::ILtC(a, c)),
        (-2..3i64, 0..3usize).prop_map(|(c, a)| F::CLe(c, a)),
        (0..2usize).prop_map(F::BVar),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_term(
    f: &F,
    ctx: &mut Context,
    uvars: &[TermId],
    ivars: &[TermId],
    bvars: &[TermId],
) -> TermId {
    match f {
        F::UEq(a, b) => ctx.eq(uvars[*a], uvars[*b]),
        F::ILe(a, b) => ctx.le(ivars[*a], ivars[*b]),
        F::ILtC(a, c) => {
            let cc = ctx.int(*c);
            ctx.lt(ivars[*a], cc)
        }
        F::CLe(c, a) => {
            let cc = ctx.int(*c);
            ctx.le(cc, ivars[*a])
        }
        F::BVar(b) => bvars[*b],
        F::Not(g) => {
            let t = to_term(g, ctx, uvars, ivars, bvars);
            ctx.not(t)
        }
        F::And(a, b) => {
            let ta = to_term(a, ctx, uvars, ivars, bvars);
            let tb = to_term(b, ctx, uvars, ivars, bvars);
            ctx.and([ta, tb])
        }
        F::Or(a, b) => {
            let ta = to_term(a, ctx, uvars, ivars, bvars);
            let tb = to_term(b, ctx, uvars, ivars, bvars);
            ctx.or([ta, tb])
        }
        F::Implies(a, b) => {
            let ta = to_term(a, ctx, uvars, ivars, bvars);
            let tb = to_term(b, ctx, uvars, ivars, bvars);
            ctx.implies(ta, tb)
        }
    }
}

fn eval(f: &F, u: &[usize; 3], i: &[i64; 3], b: &[bool; 2]) -> bool {
    match f {
        F::UEq(a, c) => u[*a] == u[*c],
        F::ILe(a, c) => i[*a] <= i[*c],
        F::ILtC(a, c) => i[*a] < *c,
        F::CLe(c, a) => *c <= i[*a],
        F::BVar(v) => b[*v],
        F::Not(g) => !eval(g, u, i, b),
        F::And(a, c) => eval(a, u, i, b) && eval(c, u, i, b),
        F::Or(a, c) => eval(a, u, i, b) || eval(c, u, i, b),
        F::Implies(a, c) => !eval(a, u, i, b) || eval(c, u, i, b),
    }
}

fn brute_force_sat(f: &F) -> bool {
    for u0 in 0..3 {
        for u1 in 0..3 {
            for u2 in 0..3 {
                for i0 in -3..=3i64 {
                    for i1 in -3..=3i64 {
                        for i2 in -3..=3i64 {
                            for bb in 0..4u32 {
                                let b = [bb & 1 != 0, bb & 2 != 0];
                                if eval(f, &[u0, u1, u2], &[i0, i1, i2], &b) {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn solver_agrees_with_brute_force(f in formula()) {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("u");
        let uvars: Vec<TermId> = (0..3).map(|i| ctx.var(format!("u{i}"), s)).collect();
        let ivars: Vec<TermId> = (0..3).map(|i| ctx.var(format!("i{i}"), Sort::Int)).collect();
        let bvars: Vec<TermId> = (0..2).map(|i| ctx.var(format!("b{i}"), Sort::Bool)).collect();
        let t = to_term(&f, &mut ctx, &uvars, &ivars, &bvars);
        let solver_sat = ctx.solve(&[t]).is_sat();
        let brute = brute_force_sat(&f);
        // Completeness direction: a finite-domain model is a ℤ model.
        prop_assert!(
            !brute || solver_sat,
            "solver UNSAT but brute force found a model: {:?}", f
        );
        // Soundness is covered by `models_satisfy`: when the solver says
        // SAT its model is checked against the formula.
    }

    /// Models returned for satisfiable formulas actually satisfy them.
    #[test]
    fn models_satisfy(f in formula()) {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("u");
        let uvars: Vec<TermId> = (0..3).map(|i| ctx.var(format!("u{i}"), s)).collect();
        let ivars: Vec<TermId> = (0..3).map(|i| ctx.var(format!("i{i}"), Sort::Int)).collect();
        let bvars: Vec<TermId> = (0..2).map(|i| ctx.var(format!("b{i}"), Sort::Bool)).collect();
        let t = to_term(&f, &mut ctx, &uvars, &ivars, &bvars);
        if let SatResult::Sat(model) = ctx.solve(&[t]) {
            let u: Vec<usize> = {
                let mut reps = Vec::new();
                uvars
                    .iter()
                    .map(|&v| {
                        let r = model.class_of(v);
                        match reps.iter().position(|&x| x == r) {
                            Some(p) => p,
                            None => {
                                reps.push(r);
                                reps.len() - 1
                            }
                        }
                    })
                    .collect()
            };
            let i: Vec<i64> =
                ivars.iter().map(|&v| model.int_value(v).unwrap_or(0)).collect();
            let b: Vec<bool> =
                bvars.iter().map(|&v| model.bool_value(v).unwrap_or(false)).collect();
            prop_assert!(
                eval(&f, &[u[0], u[1], u[2]], &[i[0], i[1], i[2]], &[b[0], b[1]]),
                "model does not satisfy {:?} (u={:?} i={:?} b={:?})", f, u, i, b
            );
        }
    }
}

/// Like [`formula`], but integer atoms compare against the constant `0`
/// only. Then a satisfiable formula has an integer model inside
/// `-3..=3` (three variables: a strict chain below or above zero spans at
/// most three steps), so brute force over that window decides it
/// exactly and verdicts can be compared in both directions.
fn zero_formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        (0..3usize, 0..3usize).prop_map(|(a, b)| F::UEq(a, b)),
        (0..3usize, 0..3usize).prop_map(|(a, b)| F::ILe(a, b)),
        (0..3usize).prop_map(|a| F::ILtC(a, 0)),
        (0..3usize).prop_map(|a| F::CLe(0, a)),
        (0..2usize).prop_map(F::BVar),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| F::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

/// Exact satisfiability of a conjunction of [`zero_formula`]s: the five
/// equality patterns of three uninterpreted values, every integer
/// assignment in `-3..=3`, every boolean assignment.
fn brute_force_all(fs: &[&F]) -> bool {
    const PATTERNS: [[usize; 3]; 5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]];
    for u in &PATTERNS {
        for i0 in -3..=3i64 {
            for i1 in -3..=3i64 {
                for i2 in -3..=3i64 {
                    for bb in 0..4u32 {
                        let b = [bb & 1 != 0, bb & 2 != 0];
                        if fs.iter().all(|f| eval(f, u, &[i0, i1, i2], &b)) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// One step of an incremental session.
#[derive(Debug, Clone)]
enum Op {
    /// Permanent assertion.
    Assert(F),
    /// Permanent clause over literal formulas (`assert_clause`).
    AssertClause(Vec<F>),
    /// Assertion under guard slot `0..3` (a fresh guard if the slot is
    /// empty).
    AssertUnder(usize, F),
    /// Solve assuming the live guards whose slot bits are set; with a
    /// model (`solve_under`) or without (`check_sat_assuming`).
    Check(u8, bool),
    /// Retire a slot's guard; the slot is empty afterwards.
    Retire(usize),
}

/// A clause literal: any formula, often negated, so literals range over
/// atoms, negated atoms and composite subterms of either polarity.
fn clause_lit() -> impl Strategy<Value = F> {
    prop_oneof![zero_formula(), zero_formula().prop_map(|f| F::Not(Box::new(f)))]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        zero_formula().prop_map(Op::Assert),
        proptest::collection::vec(clause_lit(), 1..4).prop_map(Op::AssertClause),
        (0..3usize, zero_formula()).prop_map(|(g, f)| Op::AssertUnder(g, f)),
        (0u8..8, any::<bool>()).prop_map(|(m, model)| Op::Check(m, model)),
        (0..3usize).prop_map(Op::Retire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An incremental session agrees with brute force on every query of a
    /// random `assert` / `assert_clause` / `assert_under` / solve /
    /// `retire` sequence.
    /// Terms are built between solves, so the session's dense
    /// term-indexed caches keep growing after they were first sized, and
    /// learnt and theory-blocking clauses carry across queries.
    #[test]
    fn incremental_session_agrees_with_brute_force(ops in proptest::collection::vec(op(), 1..14)) {
        use c4_smt::{Incremental, Lit};
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("u");
        let uvars: Vec<TermId> = (0..3).map(|_| ctx.fresh_var(s)).collect();
        let ivars: Vec<TermId> = (0..3).map(|_| ctx.fresh_var(Sort::Int)).collect();
        let bvars: Vec<TermId> = (0..2).map(|_| ctx.fresh_var(Sort::Bool)).collect();
        let mut session = Incremental::new();
        let mut permanent: Vec<F> = Vec::new();
        let mut slots: [Option<(Lit, Vec<F>)>; 3] = [None, None, None];
        for op in ops {
            match op {
                Op::Assert(f) => {
                    let t = to_term(&f, &mut ctx, &uvars, &ivars, &bvars);
                    session.assert(&mut ctx, t);
                    permanent.push(f);
                }
                Op::AssertClause(lits) => {
                    let ts: Vec<TermId> = lits
                        .iter()
                        .map(|f| to_term(f, &mut ctx, &uvars, &ivars, &bvars))
                        .collect();
                    session.assert_clause(&mut ctx, &ts);
                    let clause = lits
                        .into_iter()
                        .reduce(|a, b| F::Or(Box::new(a), Box::new(b)))
                        .expect("non-empty clause");
                    permanent.push(clause);
                }
                Op::AssertUnder(g, f) => {
                    let t = to_term(&f, &mut ctx, &uvars, &ivars, &bvars);
                    let (guard, fs) = slots[g].get_or_insert_with(|| (session.activation(), Vec::new()));
                    session.assert_under(&mut ctx, *guard, t);
                    fs.push(f);
                }
                Op::Retire(g) => {
                    if let Some((guard, _)) = slots[g].take() {
                        session.retire(guard);
                    }
                }
                Op::Check(mask, with_model) => {
                    let live: Vec<&(Lit, Vec<F>)> = (0..3)
                        .filter(|g| mask & (1 << g) != 0)
                        .filter_map(|g| slots[g].as_ref())
                        .collect();
                    let assumptions: Vec<Lit> = live.iter().map(|(l, _)| *l).collect();
                    let active: Vec<&F> =
                        permanent.iter().chain(live.iter().flat_map(|(_, fs)| fs)).collect();
                    let want = brute_force_all(&active);
                    if with_model {
                        let result = session.solve_under(&ctx, &assumptions);
                        prop_assert_eq!(result.is_sat(), want, "verdict on {:?}", active);
                        if let SatResult::Sat(model) = result {
                            let mut reps = Vec::new();
                            let u: Vec<usize> = uvars
                                .iter()
                                .map(|&v| {
                                    let r = model.class_of(v);
                                    reps.iter().position(|&x| x == r).unwrap_or_else(|| {
                                        reps.push(r);
                                        reps.len() - 1
                                    })
                                })
                                .collect();
                            let i: Vec<i64> =
                                ivars.iter().map(|&v| model.int_value(v).unwrap_or(0)).collect();
                            let b: Vec<bool> =
                                bvars.iter().map(|&v| model.bool_value(v).unwrap_or(false)).collect();
                            for f in &active {
                                prop_assert!(
                                    eval(f, &[u[0], u[1], u[2]], &[i[0], i[1], i[2]], &[b[0], b[1]]),
                                    "model violates {:?}", f
                                );
                            }
                        }
                    } else {
                        let sat = session.check_sat_assuming(&ctx, &assumptions);
                        prop_assert_eq!(sat, want, "verdict on {:?}", active);
                    }
                }
            }
        }
    }
}
