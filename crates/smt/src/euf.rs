//! Equality over uninterpreted sorts and functions: congruence closure.
//!
//! Rebuilt from scratch on each (small) theory check — the lazy
//! architecture needs no incrementality.

use std::collections::HashMap;

use crate::term::{Context, TermData, TermId};

/// Result of a congruence-closure check.
#[derive(Debug)]
pub enum EufResult {
    /// Consistent; maps every relevant term to its class representative.
    Consistent(HashMap<TermId, TermId>),
    /// Inconsistent: the index (into the input slice) of a violated
    /// disequality.
    Inconsistent(usize),
}

/// Checks a conjunction of equalities and disequalities over terms.
///
/// `eqs` and `diseqs` are pairs of terms of matching sorts; function
/// applications among (sub)terms participate in congruence.
pub fn check(ctx: &Context, eqs: &[(TermId, TermId)], diseqs: &[(TermId, TermId)]) -> EufResult {
    let mut cc = Congruence::new(ctx);
    // Register every term (including disequality operands) *before*
    // congruence propagation, so their applications participate.
    for &(a, b) in eqs.iter().chain(diseqs) {
        cc.register(a);
        cc.register(b);
    }
    for &(a, b) in eqs {
        cc.merge(a, b);
    }
    cc.close();
    for (i, &(a, b)) in diseqs.iter().enumerate() {
        if cc.find(a) == cc.find(b) {
            return EufResult::Inconsistent(i);
        }
    }
    EufResult::Consistent(cc.representatives())
}

struct Congruence<'a> {
    ctx: &'a Context,
    parent: HashMap<TermId, TermId>,
    /// All application terms relevant to congruence.
    apps: Vec<TermId>,
}

impl<'a> Congruence<'a> {
    fn new(ctx: &'a Context) -> Self {
        Congruence { ctx, parent: HashMap::new(), apps: Vec::new() }
    }

    fn register(&mut self, t: TermId) {
        if self.parent.contains_key(&t) {
            return;
        }
        self.parent.insert(t, t);
        let ctx = self.ctx;
        if let TermData::App(_, args) = *ctx.data(t) {
            self.apps.push(t);
            for &a in ctx.operands(args) {
                self.register(a);
            }
        }
    }

    fn find(&mut self, t: TermId) -> TermId {
        self.register(t);
        let mut root = t;
        while self.parent[&root] != root {
            root = self.parent[&root];
        }
        // Path compression.
        let mut cur = t;
        while self.parent[&cur] != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    fn merge(&mut self, a: TermId, b: TermId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    /// Congruence propagation to fixpoint: `f(a…) = f(b…)` whenever the
    /// arguments are pairwise equal.
    fn close(&mut self) {
        loop {
            let mut merged = false;
            let apps = self.apps.clone();
            for (i, &t1) in apps.iter().enumerate() {
                for &t2 in &apps[i + 1..] {
                    if self.find(t1) == self.find(t2) {
                        continue;
                    }
                    let ctx = self.ctx;
                    let (f1, args1) = match *ctx.data(t1) {
                        TermData::App(f, a) => (f, ctx.operands(a)),
                        _ => unreachable!(),
                    };
                    let (f2, args2) = match *ctx.data(t2) {
                        TermData::App(f, a) => (f, ctx.operands(a)),
                        _ => unreachable!(),
                    };
                    if f1 == f2
                        && args1.len() == args2.len()
                        && args1.iter().zip(args2).all(|(&x, &y)| self.find(x) == self.find(y))
                    {
                        self.merge(t1, t2);
                        merged = true;
                    }
                }
            }
            if !merged {
                return;
            }
        }
    }

    fn representatives(&mut self) -> HashMap<TermId, TermId> {
        let keys: Vec<TermId> = self.parent.keys().copied().collect();
        keys.into_iter().map(|t| (t, self.find(t))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn transitivity() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let z = ctx.var("z", s);
        match check(&ctx, &[(x, y), (y, z)], &[(x, z)]) {
            EufResult::Inconsistent(0) => {}
            other => panic!("expected inconsistency, got {other:?}"),
        }
        assert!(matches!(check(&ctx, &[(x, y)], &[(y, z)]), EufResult::Consistent(_)));
    }

    #[test]
    fn congruence_over_functions() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let f = ctx.func("f", vec![s], s);
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let fx = ctx.app(f, vec![x]);
        let fy = ctx.app(f, vec![y]);
        // x = y ⟹ f(x) = f(y).
        match check(&ctx, &[(x, y)], &[(fx, fy)]) {
            EufResult::Inconsistent(0) => {}
            other => panic!("congruence missed: {other:?}"),
        }
        // f(x) = f(y) does not imply x = y.
        assert!(matches!(check(&ctx, &[(fx, fy)], &[(x, y)]), EufResult::Consistent(_)));
    }

    #[test]
    fn nested_congruence() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let f = ctx.func("f", vec![s], s);
        let x = ctx.var("x", s);
        let fx = ctx.app(f, vec![x]);
        let ffx = ctx.app(f, vec![fx]);
        let fffx = ctx.app(f, vec![ffx]);
        // x = f(x) ⟹ x = f(f(f(x))).
        match check(&ctx, &[(x, fx)], &[(x, fffx)]) {
            EufResult::Inconsistent(0) => {}
            other => panic!("nested congruence missed: {other:?}"),
        }
    }

    #[test]
    fn model_classes() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let z = ctx.var("z", s);
        let EufResult::Consistent(reps) = check(&ctx, &[(x, y)], &[(x, z)]) else {
            panic!("expected consistent");
        };
        assert_eq!(reps[&x], reps[&y]);
        assert_ne!(reps[&x], reps[&z]);
        let _ = Sort::Bool;
    }
}
