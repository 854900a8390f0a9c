//! Symbolic specification formulas over pairs of events.
//!
//! A [`SpecFormula`] is a boolean combination of equalities between
//! argument/return terms of two events, called the *source* (first) and
//! *target* (second). The rewrite specification (Definition 2) assigns such
//! a formula to every pair of operation signatures; instantiating the
//! formula on the two events' concrete arguments decides the specified
//! property.

use c4_store::{Operation, Value};

/// Which of the two events of a pair a term refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first event of the pair (`argsrc`).
    Src,
    /// The second event of the pair (`argtgt`).
    Tgt,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Src => Side::Tgt,
            Side::Tgt => Side::Src,
        }
    }
}

/// A term of a specification formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgTerm {
    /// The `i`-th argument of one of the two events.
    Arg(Side, usize),
    /// The return value of one of the two events (queries only).
    Ret(Side),
    /// A constant value.
    Const(Value),
}

impl ArgTerm {
    /// Evaluates the term on a concrete event pair, borrowing the value
    /// from the pair (or from the term, for constants).
    ///
    /// # Panics
    ///
    /// Panics when referencing a missing argument or the return value of an
    /// update.
    pub fn eval<'a>(&'a self, src: &'a Operation, tgt: &'a Operation) -> &'a Value {
        match self {
            ArgTerm::Arg(Side::Src, i) => &src.args[*i],
            ArgTerm::Arg(Side::Tgt, i) => &tgt.args[*i],
            ArgTerm::Ret(Side::Src) => src.ret.as_ref().expect("src has a return value"),
            ArgTerm::Ret(Side::Tgt) => tgt.ret.as_ref().expect("tgt has a return value"),
            ArgTerm::Const(v) => v,
        }
    }

    /// Swaps source and target references (for symmetric lookups).
    pub fn flipped(&self) -> ArgTerm {
        match self {
            ArgTerm::Arg(s, i) => ArgTerm::Arg(s.flip(), *i),
            ArgTerm::Ret(s) => ArgTerm::Ret(s.flip()),
            ArgTerm::Const(v) => ArgTerm::Const(v.clone()),
        }
    }
}

/// A boolean combination of term equalities over an event pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecFormula {
    /// Always holds.
    True,
    /// Never holds.
    False,
    /// Equality of two terms.
    Eq(ArgTerm, ArgTerm),
    /// Negation.
    Not(Box<SpecFormula>),
    /// Conjunction.
    And(Vec<SpecFormula>),
    /// Disjunction.
    Or(Vec<SpecFormula>),
}

impl SpecFormula {
    /// `argsrc_i = argtgt_j`.
    pub fn args_eq(i: usize, j: usize) -> Self {
        SpecFormula::Eq(ArgTerm::Arg(Side::Src, i), ArgTerm::Arg(Side::Tgt, j))
    }

    /// `argsrc_i ≠ argtgt_j`.
    pub fn args_ne(i: usize, j: usize) -> Self {
        SpecFormula::Not(Box::new(Self::args_eq(i, j)))
    }

    /// Negation (smart constructor).
    pub fn negate(self) -> Self {
        match self {
            SpecFormula::True => SpecFormula::False,
            SpecFormula::False => SpecFormula::True,
            SpecFormula::Not(f) => *f,
            f => SpecFormula::Not(Box::new(f)),
        }
    }

    /// Conjunction (smart constructor, flattens and simplifies).
    pub fn and(fs: impl IntoIterator<Item = SpecFormula>) -> Self {
        let mut out = Vec::new();
        for f in fs {
            match f {
                SpecFormula::True => {}
                SpecFormula::False => return SpecFormula::False,
                SpecFormula::And(inner) => out.extend(inner),
                f => out.push(f),
            }
        }
        match out.len() {
            0 => SpecFormula::True,
            1 => out.pop().unwrap(),
            _ => SpecFormula::And(out),
        }
    }

    /// Disjunction (smart constructor, flattens and simplifies).
    pub fn or(fs: impl IntoIterator<Item = SpecFormula>) -> Self {
        let mut out = Vec::new();
        for f in fs {
            match f {
                SpecFormula::False => {}
                SpecFormula::True => return SpecFormula::True,
                SpecFormula::Or(inner) => out.extend(inner),
                f => out.push(f),
            }
        }
        match out.len() {
            0 => SpecFormula::False,
            1 => out.pop().unwrap(),
            _ => SpecFormula::Or(out),
        }
    }

    /// Evaluates the formula on a concrete event pair.
    pub fn eval(&self, src: &Operation, tgt: &Operation) -> bool {
        match self {
            SpecFormula::True => true,
            SpecFormula::False => false,
            SpecFormula::Eq(a, b) => a.eval(src, tgt) == b.eval(src, tgt),
            SpecFormula::Not(f) => !f.eval(src, tgt),
            SpecFormula::And(fs) => fs.iter().all(|f| f.eval(src, tgt)),
            SpecFormula::Or(fs) => fs.iter().any(|f| f.eval(src, tgt)),
        }
    }

    /// Swaps source and target references (for symmetric lookups).
    pub fn flipped(&self) -> SpecFormula {
        match self {
            SpecFormula::True => SpecFormula::True,
            SpecFormula::False => SpecFormula::False,
            SpecFormula::Eq(a, b) => SpecFormula::Eq(a.flipped(), b.flipped()),
            SpecFormula::Not(f) => SpecFormula::Not(Box::new(f.flipped())),
            SpecFormula::And(fs) => SpecFormula::And(fs.iter().map(|f| f.flipped()).collect()),
            SpecFormula::Or(fs) => SpecFormula::Or(fs.iter().map(|f| f.flipped()).collect()),
        }
    }

    /// Whether the formula is syntactically `True`.
    pub fn is_true(&self) -> bool {
        matches!(self, SpecFormula::True)
    }

    /// Whether the formula is syntactically `False`.
    pub fn is_false(&self) -> bool {
        matches!(self, SpecFormula::False)
    }

    /// Converts to disjunctive normal form: a list of conjunctions of
    /// literals `(positive, lhs, rhs)`.
    ///
    /// Used by the small built-in consistency checker; the formulas in the
    /// rewrite specification are tiny, so the exponential worst case is
    /// irrelevant.
    pub fn to_dnf(&self) -> Vec<Vec<(bool, ArgTerm, ArgTerm)>> {
        match self {
            SpecFormula::True => vec![vec![]],
            SpecFormula::False => vec![],
            SpecFormula::Eq(a, b) => vec![vec![(true, a.clone(), b.clone())]],
            SpecFormula::Not(f) => {
                // Negate by De Morgan on the fly.
                match &**f {
                    SpecFormula::True => vec![],
                    SpecFormula::False => vec![vec![]],
                    SpecFormula::Eq(a, b) => vec![vec![(false, a.clone(), b.clone())]],
                    SpecFormula::Not(g) => g.to_dnf(),
                    SpecFormula::And(fs) => {
                        SpecFormula::or(fs.iter().map(|g| g.clone().negate())).to_dnf()
                    }
                    SpecFormula::Or(fs) => {
                        SpecFormula::and(fs.iter().map(|g| g.clone().negate())).to_dnf()
                    }
                }
            }
            SpecFormula::And(fs) => {
                let mut acc: Vec<Vec<(bool, ArgTerm, ArgTerm)>> = vec![vec![]];
                for f in fs {
                    let d = f.to_dnf();
                    let mut next = Vec::new();
                    for conj in &acc {
                        for dd in &d {
                            let mut c = conj.clone();
                            c.extend(dd.iter().cloned());
                            next.push(c);
                        }
                    }
                    acc = next;
                }
                acc
            }
            SpecFormula::Or(fs) => fs.iter().flat_map(|f| f.to_dnf()).collect(),
        }
    }
}

impl std::fmt::Display for SpecFormula {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn term(t: &ArgTerm) -> String {
            match t {
                ArgTerm::Arg(Side::Src, i) => format!("argsrc{i}"),
                ArgTerm::Arg(Side::Tgt, i) => format!("argtgt{i}"),
                ArgTerm::Ret(Side::Src) => "retsrc".into(),
                ArgTerm::Ret(Side::Tgt) => "rettgt".into(),
                ArgTerm::Const(v) => v.to_string(),
            }
        }
        match self {
            SpecFormula::True => write!(f, "true"),
            SpecFormula::False => write!(f, "false"),
            SpecFormula::Eq(a, b) => write!(f, "{} = {}", term(a), term(b)),
            SpecFormula::Not(g) => match &**g {
                SpecFormula::Eq(a, b) => write!(f, "{} ≠ {}", term(a), term(b)),
                g => write!(f, "¬({g})"),
            },
            SpecFormula::And(fs) => {
                let parts: Vec<_> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∧ "))
            }
            SpecFormula::Or(fs) => {
                let parts: Vec<_> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∨ "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_on_concrete_pair() {
        let put = Operation::map_put("M", Value::str("A"), Value::int(1));
        let get = Operation::map_get("M", Value::str("A"), Value::int(1));
        let same_key = SpecFormula::args_eq(0, 0);
        assert!(same_key.eval(&put, &get));
        let diff_key = SpecFormula::args_ne(0, 0);
        assert!(!diff_key.eval(&put, &get));
    }

    #[test]
    fn ret_terms() {
        let q = Operation::map_contains("M", Value::str("A"), true);
        let u = Operation::map_put("M", Value::str("A"), Value::int(1));
        let f = SpecFormula::Eq(ArgTerm::Ret(Side::Src), ArgTerm::Const(Value::bool(true)));
        assert!(f.eval(&q, &u));
    }

    #[test]
    fn smart_constructors_simplify() {
        assert!(SpecFormula::and([SpecFormula::True, SpecFormula::True]).is_true());
        assert!(SpecFormula::and([SpecFormula::True, SpecFormula::False]).is_false());
        assert!(SpecFormula::or([SpecFormula::False]).is_false());
        assert!(SpecFormula::or([SpecFormula::False, SpecFormula::True]).is_true());
        assert_eq!(SpecFormula::True.negate(), SpecFormula::False);
        assert_eq!(SpecFormula::args_eq(0, 0).negate().negate(), SpecFormula::args_eq(0, 0));
    }

    #[test]
    fn dnf_of_or_and() {
        let f = SpecFormula::or([
            SpecFormula::args_ne(0, 0),
            SpecFormula::and([SpecFormula::args_eq(0, 0), SpecFormula::args_eq(1, 1)]),
        ]);
        let dnf = f.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0].len(), 1);
        assert!(!dnf[0][0].0); // negative literal
        assert_eq!(dnf[1].len(), 2);
    }

    #[test]
    fn dnf_of_negation_uses_de_morgan() {
        let f = SpecFormula::and([SpecFormula::args_eq(0, 0), SpecFormula::args_eq(1, 1)]).negate();
        let dnf = f.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|c| c.len() == 1 && !c[0].0));
    }

    #[test]
    fn flipped_swaps_sides() {
        let f = SpecFormula::args_eq(0, 1);
        let g = f.flipped();
        let a = Operation::map_put("M", Value::str("A"), Value::str("B"));
        let b = Operation::map_put("M", Value::str("X"), Value::str("A"));
        // f: a.args[0] == b.args[1]  ("A" == "A") — true.
        assert!(f.eval(&a, &b));
        // g: a.args[1] == b.args[0]? flipped of Eq(Arg(Src,0),Arg(Tgt,1)) is
        // Eq(Arg(Tgt,0),Arg(Src,1)): b.args[0] == a.args[1] ("X" == "B") — false.
        assert!(!g.eval(&a, &b));
    }

    #[test]
    fn display_is_paperlike() {
        assert_eq!(SpecFormula::args_eq(0, 0).to_string(), "argsrc0 = argtgt0");
        assert_eq!(SpecFormula::args_ne(1, 0).to_string(), "argsrc1 ≠ argtgt0");
    }
}
