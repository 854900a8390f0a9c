//! A tiny satisfiability checker for conjunctions of (dis)equalities.
//!
//! The far-commutativity/-absorption fixpoint (see [`crate::far`]) needs to
//! decide satisfiability of small conjunctions of equality literals over the
//! arguments of up to three event *slots* plus constants. This is the
//! classic union-find fragment: equalities merge classes, disequalities and
//! distinct constants refute.
//!
//! The fixpoint asks this of the same few formulas many times, so it
//! converts each formula to DNF once ([`dnf`]) and hands the DNFs over
//! ([`dnfs_consistent`]); a query borrows its constants from them.

use c4_store::Value;

use crate::spec::{ArgTerm, Side, SpecFormula};

/// Identifies one of the event slots of a consistency query.
pub(crate) type Slot = usize;

/// A formula in disjunctive normal form over its pair's two sides, as
/// [`SpecFormula::to_dnf`] gives it: conjunctions of literals
/// `(positive, lhs, rhs)`.
pub(crate) type Dnf = Vec<Vec<(bool, ArgTerm, ArgTerm)>>;

/// The DNF of `formula`, or of its negation.
pub(crate) fn dnf(formula: &SpecFormula, negated: bool) -> Dnf {
    if negated {
        formula.clone().negate().to_dnf()
    } else {
        formula.to_dnf()
    }
}

/// A term over slots: an argument or return position of a slot, or a
/// constant, borrowed from the formula it occurs in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Term<'a> {
    /// Argument `i` of the event in the given slot.
    Arg(Slot, usize),
    /// Return value of the event in the given slot.
    Ret(Slot),
    /// A constant value.
    Const(&'a Value),
}

impl<'a> Term<'a> {
    /// `t` with the pair's source side in slot `src` and its target side
    /// in slot `tgt`.
    fn of(t: &'a ArgTerm, src: Slot, tgt: Slot) -> Self {
        let slot = |side: &Side| if *side == Side::Src { src } else { tgt };
        match t {
            ArgTerm::Arg(side, i) => Term::Arg(slot(side), *i),
            ArgTerm::Ret(side) => Term::Ret(slot(side)),
            ArgTerm::Const(v) => Term::Const(v),
        }
    }
}

/// An equality (`true`) or disequality literal over two terms.
type Literal<'a> = (bool, Term<'a>, Term<'a>);

/// Buffers for deciding the conjunctions of one query.
#[derive(Default)]
struct Scratch<'a> {
    /// The literals of the current combination of disjuncts.
    lits: Vec<Literal<'a>>,
    /// The distinct terms of `lits`.
    terms: Vec<Term<'a>>,
    /// Each literal's two terms as indices into `terms`.
    ids: Vec<(usize, usize)>,
    /// Union-find parent of each term.
    parent: Vec<usize>,
}

impl Scratch<'_> {
    /// Decides whether the conjunction of `self.lits` is satisfiable.
    ///
    /// Variables (argument/return positions) are unconstrained; distinct
    /// constants are distinct values. This is sound and complete for the
    /// equality fragment the rewrite specifications use. A query has a
    /// handful of terms, so they are found by a linear scan.
    fn consistent(&mut self) -> bool {
        let Scratch { lits, terms, ids, parent } = self;
        terms.clear();
        ids.clear();
        for &(_, lhs, rhs) in lits.iter() {
            let mut id = |t| match terms.iter().position(|&u| u == t) {
                Some(i) => i,
                None => {
                    terms.push(t);
                    terms.len() - 1
                }
            };
            ids.push((id(lhs), id(rhs)));
        }
        parent.clear();
        parent.extend(0..terms.len());
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let constant = |r: usize| match terms[r] {
            Term::Const(v) => Some(v),
            _ => None,
        };
        // First pass: merge equalities. A class with a constant has a
        // constant as its root; a clash of distinct constants refutes.
        for (&(positive, _, _), &(a, b)) in lits.iter().zip(ids.iter()) {
            if !positive {
                continue;
            }
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra == rb {
                continue;
            }
            match (constant(ra), constant(rb)) {
                (Some(x), Some(y)) if x != y => return false,
                (Some(_), _) => parent[rb] = ra,
                (_, Some(_)) => parent[ra] = rb,
                _ => parent[rb] = ra,
            }
        }
        // Second pass: disequalities must not connect merged classes.
        lits.iter()
            .zip(ids.iter())
            .all(|(&(positive, _, _), &(a, b))| positive || find(parent, a) != find(parent, b))
    }
}

/// Satisfiability of a conjunction of formulas given in DNF, each
/// instantiated over two slots: `(dnf, src_slot, tgt_slot)`.
///
/// Checks each combination of disjuncts, stopping at the first
/// satisfiable one; a part without disjuncts (`False`) refutes at once.
pub(crate) fn dnfs_consistent(parts: &[(&Dnf, Slot, Slot)]) -> bool {
    // Cross product of the DNFs, checked incrementally.
    fn rec<'a>(parts: &[(&'a Dnf, Slot, Slot)], scratch: &mut Scratch<'a>) -> bool {
        let Some((&(dnf, s, t), rest)) = parts.split_first() else {
            return scratch.consistent();
        };
        for conj in dnf {
            let mark = scratch.lits.len();
            let term = |x| Term::of(x, s, t);
            scratch.lits.extend(conj.iter().map(|(p, l, r)| (*p, term(l), term(r))));
            if rec(rest, scratch) {
                return true;
            }
            scratch.lits.truncate(mark);
        }
        false
    }
    !parts.iter().any(|(dnf, _, _)| dnf.is_empty()) && rec(parts, &mut Scratch::default())
}

/// The direct checker: terms own their constants and are interned in a
/// `HashMap`, and every formula is instantiated and converted to DNF on
/// each query. Kept as the reference [`crate::far`]'s tests compare the
/// far relations against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use c4_store::Value;

    use super::Slot;
    use crate::spec::{ArgTerm, SpecFormula};

    /// A term over slots: an argument or return position of a slot, or a
    /// constant.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum SlotTerm {
        /// Argument `i` of the event in the given slot.
        Arg(Slot, usize),
        /// Return value of the event in the given slot.
        Ret(Slot),
        /// A constant value.
        Const(Value),
    }

    /// An equality or disequality literal over slot terms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Lit {
        /// `true` for equality, `false` for disequality.
        pub positive: bool,
        /// Left-hand term.
        pub lhs: SlotTerm,
        /// Right-hand term.
        pub rhs: SlotTerm,
    }

    /// Decides whether a conjunction of literals is satisfiable.
    pub fn consistent(lits: &[Lit]) -> bool {
        let mut ids: HashMap<SlotTerm, usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut constant: Vec<Option<Value>> = Vec::new();

        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        let mut id_of =
            |t: &SlotTerm, parent: &mut Vec<usize>, constant: &mut Vec<Option<Value>>| {
                if let Some(&i) = ids.get(t) {
                    return i;
                }
                let i = parent.len();
                parent.push(i);
                constant.push(match t {
                    SlotTerm::Const(v) => Some(v.clone()),
                    _ => None,
                });
                ids.insert(t.clone(), i);
                i
            };

        let mut disequalities = Vec::new();
        for lit in lits {
            let a = id_of(&lit.lhs, &mut parent, &mut constant);
            let b = id_of(&lit.rhs, &mut parent, &mut constant);
            if lit.positive {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra == rb {
                    continue;
                }
                match (&constant[ra], &constant[rb]) {
                    (Some(x), Some(y)) if x != y => return false,
                    (Some(_), _) => parent[rb] = ra,
                    (_, Some(_)) => parent[ra] = rb,
                    _ => parent[rb] = ra,
                }
            } else {
                disequalities.push((a, b));
            }
        }
        for (a, b) in disequalities {
            if find(&mut parent, a) == find(&mut parent, b) {
                return false;
            }
        }
        true
    }

    /// Instantiates a [`SpecFormula`] (optionally negated) over two slots
    /// and returns its DNF as conjunctions of slot literals.
    fn instantiate_dnf(
        formula: &SpecFormula,
        negated: bool,
        src: Slot,
        tgt: Slot,
    ) -> Vec<Vec<Lit>> {
        let f = if negated { formula.clone().negate() } else { formula.clone() };
        f.to_dnf()
            .into_iter()
            .map(|conj| {
                conj.into_iter()
                    .map(|(positive, lhs, rhs)| Lit {
                        positive,
                        lhs: slotify(&lhs, src, tgt),
                        rhs: slotify(&rhs, src, tgt),
                    })
                    .collect()
            })
            .collect()
    }

    fn slotify(t: &ArgTerm, src: Slot, tgt: Slot) -> SlotTerm {
        use crate::spec::Side;
        match t {
            ArgTerm::Arg(Side::Src, i) => SlotTerm::Arg(src, *i),
            ArgTerm::Arg(Side::Tgt, i) => SlotTerm::Arg(tgt, *i),
            ArgTerm::Ret(Side::Src) => SlotTerm::Ret(src),
            ArgTerm::Ret(Side::Tgt) => SlotTerm::Ret(tgt),
            ArgTerm::Const(v) => SlotTerm::Const(v.clone()),
        }
    }

    /// Satisfiability of a conjunction of instantiated formulas: each
    /// entry is `(formula, negated, src_slot, tgt_slot)`.
    pub fn formulas_consistent(parts: &[(&SpecFormula, bool, Slot, Slot)]) -> bool {
        fn rec(parts: &[(&SpecFormula, bool, Slot, Slot)], acc: &mut Vec<Lit>) -> bool {
            let Some(((f, neg, s, t), rest)) = parts.split_first() else {
                return consistent(acc);
            };
            for conj in instantiate_dnf(f, *neg, *s, *t) {
                let mark = acc.len();
                acc.extend(conj);
                if rec(rest, acc) {
                    return true;
                }
                acc.truncate(mark);
            }
            false
        }
        rec(parts, &mut Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq<'a>(a: Term<'a>, b: Term<'a>) -> Literal<'a> {
        (true, a, b)
    }
    fn ne<'a>(a: Term<'a>, b: Term<'a>) -> Literal<'a> {
        (false, a, b)
    }

    /// Both checkers' verdict on `lits`, which must agree.
    fn both(lits: &[Literal<'_>]) -> bool {
        use reference::{Lit, SlotTerm};
        let owned = |t: &Term<'_>| match *t {
            Term::Arg(s, i) => SlotTerm::Arg(s, i),
            Term::Ret(s) => SlotTerm::Ret(s),
            Term::Const(v) => SlotTerm::Const(v.clone()),
        };
        let refs: Vec<Lit> = lits
            .iter()
            .map(|(positive, l, r)| Lit { positive: *positive, lhs: owned(l), rhs: owned(r) })
            .collect();
        let verdict = Scratch { lits: lits.to_vec(), ..Scratch::default() }.consistent();
        assert_eq!(verdict, reference::consistent(&refs), "{lits:?}");
        verdict
    }

    #[test]
    fn trivially_satisfiable() {
        assert!(both(&[]));
        assert!(both(&[eq(Term::Arg(0, 0), Term::Arg(1, 0))]));
    }

    #[test]
    fn contradiction_via_chain() {
        let (a, b, c) = (Term::Arg(0, 0), Term::Arg(1, 0), Term::Arg(2, 0));
        assert!(!both(&[eq(a, b), eq(b, c), ne(a, c)]));
        assert!(both(&[eq(a, b), ne(a, c)]));
    }

    #[test]
    fn distinct_constants_refute() {
        let a = Term::Arg(0, 0);
        let (one, two) = (Value::int(1), Value::int(2));
        assert!(!both(&[eq(a, Term::Const(&one)), eq(a, Term::Const(&two))]));
        // Through a chain, and with the constant on either side.
        let b = Term::Ret(1);
        assert!(!both(&[eq(Term::Const(&one), a), eq(b, Term::Const(&two)), eq(a, b)]));
    }

    #[test]
    fn equal_constants_merge() {
        let a = Term::Arg(0, 0);
        let (one, also_one) = (Value::int(1), Value::int(1));
        assert!(both(&[eq(a, Term::Const(&one)), eq(a, Term::Const(&also_one))]));
        // Equal constants behind distinct borrows are one term.
        assert!(!both(&[ne(Term::Const(&one), Term::Const(&also_one))]));
        assert!(both(&[ne(Term::Const(&one), Term::Const(&Value::int(2)))]));
    }

    #[test]
    fn formula_combination() {
        // argsrc0 = argtgt0 (slots 0,1) together with its negation is unsat.
        let f = SpecFormula::args_eq(0, 0);
        let (pos, neg) = (dnf(&f, false), dnf(&f, true));
        assert!(!dnfs_consistent(&[(&pos, 0, 1), (&neg, 0, 1)]));
        // But over different slot pairs it is satisfiable.
        assert!(dnfs_consistent(&[(&pos, 0, 1), (&neg, 0, 2)]));
        for (slots, want) in [((0, 1), false), ((0, 2), true)] {
            let parts = [(&f, false, 0, 1), (&f, true, slots.0, slots.1)];
            assert_eq!(reference::formulas_consistent(&parts), want);
        }
    }

    #[test]
    fn disjunction_explored() {
        // (a=b ∨ a≠b) ∧ a=b — satisfiable via first disjunct.
        let f = SpecFormula::or([SpecFormula::args_eq(0, 0), SpecFormula::args_ne(0, 0)]);
        let g = SpecFormula::args_eq(0, 0);
        assert!(dnfs_consistent(&[(&dnf(&f, false), 0, 1), (&dnf(&g, false), 0, 1)]));
        assert!(reference::formulas_consistent(&[(&f, false, 0, 1), (&g, false, 0, 1)]));
        // False has no disjunct, so nothing conjoined with it holds.
        let never = dnf(&SpecFormula::False, false);
        assert!(!dnfs_consistent(&[(&dnf(&f, false), 0, 1), (&never, 0, 1)]));
    }
}
