//! Lazy theory layer: checks a full boolean assignment's asserted theory
//! atoms for consistency, producing either a combined theory model or a
//! minimized conflict.

use std::collections::HashMap;

use crate::arith::{self, ArithResult, Constraint};
use crate::euf::{self, EufResult};
use crate::term::{Context, Sort, TermData, TermId};

/// A theory model for a consistent assignment.
#[derive(Debug, Default)]
pub struct TheoryModel {
    /// Equivalence-class representative for every term of uninterpreted
    /// sort that appeared in an asserted equality.
    pub classes: HashMap<TermId, TermId>,
    /// Integer values for every integer term that appeared in an asserted
    /// comparison.
    pub ints: HashMap<TermId, i64>,
}

/// Result of a theory check over asserted atoms.
#[derive(Debug)]
pub enum TheoryResult {
    /// Consistent.
    Consistent(TheoryModel),
    /// Inconsistent; indices (into the asserted-atom slice) of a minimized
    /// conflicting subset.
    Conflict(Vec<usize>),
}

/// Checks the conjunction of `(atom, polarity)` pairs.
///
/// Atoms must be `Eq` over uninterpreted sorts or `Le`/`Lt` over integers
/// (the preprocessor eliminates everything else).
pub fn check(ctx: &Context, asserted: &[(TermId, bool)]) -> TheoryResult {
    match check_once(ctx, asserted) {
        Ok(model) => TheoryResult::Consistent(model),
        Err(core) => TheoryResult::Conflict(minimize(ctx, asserted, core)),
    }
}

fn check_once(ctx: &Context, asserted: &[(TermId, bool)]) -> Result<TheoryModel, Vec<usize>> {
    // Partition the literals.
    let mut eqs: Vec<((TermId, TermId), usize)> = Vec::new();
    let mut diseqs: Vec<((TermId, TermId), usize)> = Vec::new();
    let mut constraints: Vec<(Constraint, usize)> = Vec::new();
    for (i, &(atom, polarity)) in asserted.iter().enumerate() {
        match ctx.data(atom) {
            TermData::Eq(a, b) => {
                debug_assert_ne!(ctx.sort(*a), Sort::Int, "int equalities are preprocessed away");
                debug_assert_ne!(ctx.sort(*a), Sort::Bool, "bool equalities are preprocessed away");
                if polarity {
                    eqs.push(((*a, *b), i));
                } else {
                    diseqs.push(((*a, *b), i));
                }
            }
            TermData::Le(a, b) => {
                if polarity {
                    constraints.push((Constraint { lhs: *a, rhs: *b, offset: 0 }, i));
                } else {
                    // ¬(a ≤ b) ⟺ b < a ⟺ b ≤ a - 1.
                    constraints.push((Constraint { lhs: *b, rhs: *a, offset: -1 }, i));
                }
            }
            TermData::Lt(a, b) => {
                if polarity {
                    constraints.push((Constraint { lhs: *a, rhs: *b, offset: -1 }, i));
                } else {
                    // ¬(a < b) ⟺ b ≤ a.
                    constraints.push((Constraint { lhs: *b, rhs: *a, offset: 0 }, i));
                }
            }
            other => panic!("unsupported theory atom: {other:?}"),
        }
    }
    // EUF.
    let eq_pairs: Vec<(TermId, TermId)> = eqs.iter().map(|&(p, _)| p).collect();
    let diseq_pairs: Vec<(TermId, TermId)> = diseqs.iter().map(|&(p, _)| p).collect();
    let classes = match euf::check(ctx, &eq_pairs, &diseq_pairs) {
        EufResult::Consistent(classes) => classes,
        EufResult::Inconsistent(bad_diseq) => {
            // Core: all equalities plus the violated disequality (minimized
            // later).
            let mut core: Vec<usize> = eqs.iter().map(|&(_, i)| i).collect();
            core.push(diseqs[bad_diseq].1);
            return Err(core);
        }
    };
    // Arithmetic.
    let cons: Vec<Constraint> = constraints.iter().map(|&(c, _)| c).collect();
    let ints = match arith::check(ctx, &cons) {
        ArithResult::Consistent(ints) => ints,
        ArithResult::Inconsistent(cycle) => {
            return Err(cycle.into_iter().map(|ci| constraints[ci].1).collect());
        }
    };
    Ok(TheoryModel { classes, ints })
}

/// Greedy conflict minimization: drop literals from the core while the rest
/// stays inconsistent.
fn minimize(ctx: &Context, asserted: &[(TermId, bool)], mut core: Vec<usize>) -> Vec<usize> {
    core.sort_unstable();
    core.dedup();
    // Each trial subset is rebuilt in this one buffer.
    let mut subset: Vec<(TermId, bool)> = Vec::with_capacity(core.len());
    let mut i = 0;
    while i < core.len() {
        subset.clear();
        subset.extend(core.iter().enumerate().filter(|&(k, _)| k != i).map(|(_, &j)| asserted[j]));
        if check_once(ctx, &subset).is_err() {
            // Literal `i` is not needed: drop it and test the next one at
            // the same position.
            core.remove(i);
        } else {
            i += 1;
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_theories() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let i = ctx.var("i", Sort::Int);
        let j = ctx.var("j", Sort::Int);
        let exy = ctx.eq(x, y);
        let lij = ctx.lt(i, j);
        let lji = ctx.lt(j, i);
        // x=y ∧ i<j ∧ j<i: arith conflict.
        match check(&ctx, &[(exy, true), (lij, true), (lji, true)]) {
            TheoryResult::Conflict(core) => {
                assert_eq!(core, vec![1, 2], "minimized to the arith cycle");
            }
            other => panic!("expected conflict: {other:?}"),
        }
        // Consistent variant.
        match check(&ctx, &[(exy, true), (lij, true)]) {
            TheoryResult::Consistent(m) => {
                assert_eq!(m.classes[&x], m.classes[&y]);
                assert!(m.ints[&i] < m.ints[&j]);
            }
            other => panic!("expected consistent: {other:?}"),
        }
    }

    #[test]
    fn minimization_drops_irrelevant_equalities() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let vs: Vec<TermId> = (0..6).map(|i| ctx.var(format!("v{i}"), s)).collect();
        // Chain v0=v1=v2, plus unrelated v3=v4, plus v0≠v2.
        let e01 = ctx.eq(vs[0], vs[1]);
        let e12 = ctx.eq(vs[1], vs[2]);
        let e34 = ctx.eq(vs[3], vs[4]);
        let e02 = ctx.eq(vs[0], vs[2]);
        let asserted = [(e34, true), (e01, true), (e12, true), (e02, false)];
        match check(&ctx, &asserted) {
            TheoryResult::Conflict(core) => {
                assert!(!core.contains(&0), "unrelated equality must be dropped: {core:?}");
                assert_eq!(core.len(), 3);
            }
            other => panic!("expected conflict: {other:?}"),
        }
    }

    #[test]
    fn negated_comparisons() {
        let mut ctx = Context::new();
        let i = ctx.var("i", Sort::Int);
        let ten = ctx.int(10);
        let le = ctx.le(i, ten);
        let lt = ctx.lt(i, ten);
        // ¬(i ≤ 10) ∧ i < 10 is inconsistent.
        match check(&ctx, &[(le, false), (lt, true)]) {
            TheoryResult::Conflict(_) => {}
            other => panic!("expected conflict: {other:?}"),
        }
        // ¬(i < 10) ∧ i ≤ 10 pins i = 10.
        match check(&ctx, &[(lt, false), (le, true)]) {
            TheoryResult::Consistent(m) => assert_eq!(m.ints[&i], 10),
            other => panic!("expected consistent: {other:?}"),
        }
    }
}
