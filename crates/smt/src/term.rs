//! Terms, sorts and the term context (hash-consed arena).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// The booleans.
    Bool,
    /// The integers.
    Int,
    /// An uninterpreted sort created with
    /// [`Context::uninterpreted_sort`].
    Uninterpreted(u32),
}

/// Identifier of a declared variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

/// Identifier of a declared uninterpreted function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// Identifier of a term in a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operand list of an n-ary term: a range of its context's operand
/// arena, read with [`Context::operands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operands {
    start: u32,
    len: u32,
}

/// The structure of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermData {
    /// A boolean constant.
    BoolConst(bool),
    /// An integer constant.
    IntConst(i64),
    /// A declared variable.
    Var(VarId),
    /// Application of an uninterpreted function.
    App(FuncId, Operands),
    /// Equality (operands of equal sort).
    Eq(TermId, TermId),
    /// Less-or-equal over integers.
    Le(TermId, TermId),
    /// Strictly-less over integers.
    Lt(TermId, TermId),
    /// Pairwise distinctness.
    Distinct(Operands),
    /// Negation.
    Not(TermId),
    /// N-ary conjunction.
    And(Operands),
    /// N-ary disjunction.
    Or(Operands),
    /// Implication.
    Implies(TermId, TermId),
    /// Bi-implication.
    Iff(TermId, TermId),
}

/// The term context: declares sorts, variables and functions, and builds
/// hash-consed terms.
#[derive(Debug, Default)]
pub struct Context {
    terms: Vec<TermData>,
    /// The operands of every n-ary term, back to back: one buffer instead
    /// of a `Vec` per node.
    operands: Vec<TermId>,
    sorts: Vec<Sort>,
    cons: ConsTable,
    var_names: Vec<(String, Sort)>,
    func_sigs: Vec<(String, Vec<Sort>, Sort)>,
    sort_names: Vec<String>,
    /// Reused operand buffer of [`Context::and`] / [`Context::or`].
    scratch: Vec<TermId>,
}

/// The n-ary term constructors, hash-consed by operand slice.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ListKind {
    App(FuncId),
    Distinct,
    And,
    Or,
}

impl ListKind {
    /// Whether `data` is this constructor applied to exactly `xs`, with
    /// its operands in `arena`.
    fn matches(self, data: &TermData, xs: &[TermId], arena: &[TermId]) -> bool {
        let ys = match (self, data) {
            (ListKind::App(f), TermData::App(g, ys)) if f == *g => ys,
            (ListKind::Distinct, TermData::Distinct(ys))
            | (ListKind::And, TermData::And(ys))
            | (ListKind::Or, TermData::Or(ys)) => ys,
            _ => return false,
        };
        arena[ys.start as usize..][..ys.len as usize] == *xs
    }

    fn build(self, xs: Operands) -> TermData {
        match self {
            ListKind::App(f) => TermData::App(f, xs),
            ListKind::Distinct => TermData::Distinct(xs),
            ListKind::And => TermData::And(xs),
            ListKind::Or => TermData::Or(xs),
        }
    }

    fn hash(self, xs: &[TermId]) -> u64 {
        let mut h = FxHasher::default();
        match self {
            ListKind::App(f) => (0u8, f.0).hash(&mut h),
            ListKind::Distinct => 1u8.hash(&mut h),
            ListKind::And => 2u8.hash(&mut h),
            ListKind::Or => 3u8.hash(&mut h),
        }
        xs.hash(&mut h);
        h.finish()
    }
}

/// rustc's Fx hash: one rotate-xor-multiply per word. Not DoS-resistant,
/// which is fine for keys the solver builds itself, and several times
/// cheaper than SipHash on the small keys of term structure.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The hash-cons index: open addressing with linear probing over term
/// ids, keyed by the structure already stored in `Context::terms`, so a
/// lookup never clones or allocates a [`TermData`]. Each slot keeps the
/// high half of its term's hash: probes compare it before touching the
/// term, and growing re-places slots from it without hashing any term.
#[derive(Debug, Default)]
struct ConsTable {
    /// `(hash >> 32, term id)`; a term id of `EMPTY` marks a free slot.
    slots: Vec<(u32, u32)>,
    /// The occupied slots, so clearing costs the entries, not the
    /// capacity.
    used: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl ConsTable {
    /// The first slot probed for a hash tag: its top bits (Fx mixes
    /// upward, so the high bits are the well-mixed ones).
    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(tag) << 32) >> (64 - bits)) as usize
    }

    /// The first free slot at or after `tag`'s home slot.
    fn free_slot(&self, tag: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The id of the term with hash `hash` that `is` accepts, or else the
    /// free slot where that term belongs.
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(usize::MAX);
        }
        let tag = (hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let (t, id) = self.slots[i];
            if id == EMPTY {
                return Err(i);
            }
            if t == tag && is(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records term `id` at the free slot [`ConsTable::find`] returned
    /// for `hash`, growing the table to keep it at most half full.
    fn insert(&mut self, slot: usize, hash: u64, id: u32) {
        let tag = (hash >> 32) as u32;
        let slot = if 2 * (self.used.len() + 1) > self.slots.len() {
            self.grow();
            self.free_slot(tag)
        } else {
            slot
        };
        self.slots[slot] = (tag, id);
        self.used.push(slot as u32);
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); cap]);
        for k in 0..self.used.len() {
            let (tag, id) = old[self.used[k] as usize];
            let i = self.free_slot(tag);
            self.slots[i] = (tag, id);
            self.used[k] = i as u32;
        }
    }

    /// Empties the index, keeping its capacity.
    fn clear(&mut self) {
        for &i in &self.used {
            self.slots[i as usize].1 = EMPTY;
        }
        self.used.clear();
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Empties the context for reuse, keeping its buffers. Afterwards it
    /// hands out the same sort, variable, function and term ids, for the
    /// same calls, as a new context.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.operands.clear();
        self.sorts.clear();
        self.cons.clear();
        self.var_names.clear();
        self.func_sigs.clear();
        self.sort_names.clear();
    }

    /// Declares a fresh uninterpreted sort.
    pub fn uninterpreted_sort(&mut self, name: impl Into<String>) -> Sort {
        let id = self.sort_names.len() as u32;
        self.sort_names.push(name.into());
        Sort::Uninterpreted(id)
    }

    /// Declares a fresh variable of the given sort and returns its term.
    pub fn var(&mut self, name: impl Into<String>, sort: Sort) -> TermId {
        self.declare_var(name.into(), sort)
    }

    /// Declares a fresh unnamed variable of the given sort: no name string
    /// is built. [`Context::display`] renders it as `_N`, its [`VarId`].
    pub fn fresh_var(&mut self, sort: Sort) -> TermId {
        self.declare_var(String::new(), sort)
    }

    fn declare_var(&mut self, name: String, sort: Sort) -> TermId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push((name, sort));
        // A fresh variable never matches an existing term, and nothing
        // looks a variable up by structure, so it skips the cons table.
        self.push_term(TermData::Var(id), sort)
    }

    /// Declares an uninterpreted function.
    ///
    /// # Panics
    ///
    /// Panics if the result sort is `Bool` (boolean functions are not
    /// supported; use boolean variables and `iff`).
    pub fn func(&mut self, name: impl Into<String>, args: Vec<Sort>, ret: Sort) -> FuncId {
        assert!(ret != Sort::Bool, "boolean-valued uninterpreted functions are not supported");
        let id = FuncId(self.func_sigs.len() as u32);
        self.func_sigs.push((name.into(), args, ret));
        id
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    /// The structure of a term.
    pub fn data(&self, t: TermId) -> &TermData {
        &self.terms[t.index()]
    }

    /// The operands of an n-ary term.
    pub fn operands(&self, ops: Operands) -> &[TermId] {
        &self.operands[ops.start as usize..][..ops.len as usize]
    }

    /// Name of a declared variable (empty for [`Context::fresh_var`]).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize].0
    }

    fn push_term(&mut self, data: TermData, sort: Sort) -> TermId {
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data);
        self.sorts.push(sort);
        id
    }

    /// Hash-conses a term without operand lists.
    fn intern(&mut self, data: TermData, sort: Sort) -> TermId {
        let mut h = FxHasher::default();
        data.hash(&mut h);
        let hash = h.finish();
        let terms = &self.terms;
        match self.cons.find(hash, |id| terms[id as usize] == data) {
            Ok(id) => TermId(id),
            Err(slot) => {
                let id = self.push_term(data, sort);
                self.cons.insert(slot, hash, id.0);
                id
            }
        }
    }

    /// Hash-conses an n-ary term by its operand slice; the operands are
    /// copied only when the term is new.
    fn intern_list(&mut self, kind: ListKind, xs: &[TermId], sort: Sort) -> TermId {
        let hash = kind.hash(xs);
        let (terms, arena) = (&self.terms, &self.operands);
        match self.cons.find(hash, |id| kind.matches(&terms[id as usize], xs, arena)) {
            Ok(id) => TermId(id),
            Err(slot) => {
                let ops = Operands { start: self.operands.len() as u32, len: xs.len() as u32 };
                self.operands.extend_from_slice(xs);
                let id = self.push_term(kind.build(ops), sort);
                self.cons.insert(slot, hash, id.0);
                id
            }
        }
    }

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermData::BoolConst(b), Sort::Bool)
    }

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.bool_const(true)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.bool_const(false)
    }

    /// Integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.intern(TermData::IntConst(v), Sort::Int)
    }

    /// Function application.
    ///
    /// # Panics
    ///
    /// Panics on arity or sort mismatch.
    pub fn app(&mut self, f: FuncId, args: Vec<TermId>) -> TermId {
        let (_, arg_sorts, ret) = &self.func_sigs[f.0 as usize];
        assert_eq!(args.len(), arg_sorts.len(), "arity mismatch");
        for (a, s) in args.iter().zip(arg_sorts) {
            assert_eq!(self.sorts[a.index()], *s, "argument sort mismatch");
        }
        let ret = *ret;
        self.intern_list(ListKind::App(f), &args, ret)
    }

    /// Equality.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different sorts.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "equality between different sorts");
        if a == b {
            return self.tru();
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermData::Eq(a, b), Sort::Bool)
    }

    /// `a ≤ b` over integers.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are integers.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), Sort::Int);
        assert_eq!(self.sort(b), Sort::Int);
        self.intern(TermData::Le(a, b), Sort::Bool)
    }

    /// `a < b` over integers.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are integers.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), Sort::Int);
        assert_eq!(self.sort(b), Sort::Int);
        self.intern(TermData::Lt(a, b), Sort::Bool)
    }

    /// Pairwise distinctness.
    ///
    /// # Panics
    ///
    /// Panics if operand sorts differ.
    pub fn distinct(&mut self, xs: Vec<TermId>) -> TermId {
        if xs.len() < 2 {
            return self.tru();
        }
        let s = self.sort(xs[0]);
        for &x in &xs {
            assert_eq!(self.sort(x), s, "distinct between different sorts");
        }
        let mut xs = xs;
        xs.sort();
        xs.dedup();
        self.intern_list(ListKind::Distinct, &xs, Sort::Bool)
    }

    /// Negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        match *self.data(a) {
            TermData::BoolConst(b) => self.bool_const(!b),
            TermData::Not(inner) => inner,
            _ => self.intern(TermData::Not(a), Sort::Bool),
        }
    }

    /// Conjunction.
    pub fn and(&mut self, xs: impl IntoIterator<Item = TermId>) -> TermId {
        self.junction(ListKind::And, xs)
    }

    /// Disjunction.
    pub fn or(&mut self, xs: impl IntoIterator<Item = TermId>) -> TermId {
        self.junction(ListKind::Or, xs)
    }

    /// `and` / `or`: drops units, short-circuits on the absorbing
    /// constant, flattens nested same-kind operands, sorts and dedups.
    fn junction(&mut self, kind: ListKind, xs: impl IntoIterator<Item = TermId>) -> TermId {
        let unit = kind == ListKind::And;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let mut absorbed = false;
        for x in xs {
            match self.terms[x.index()] {
                TermData::BoolConst(b) if b == unit => {}
                TermData::BoolConst(_) => {
                    absorbed = true;
                    break;
                }
                TermData::And(inner) if kind == ListKind::And => {
                    out.extend_from_slice(self.operands(inner))
                }
                TermData::Or(inner) if kind == ListKind::Or => {
                    out.extend_from_slice(self.operands(inner))
                }
                _ => out.push(x),
            }
        }
        out.sort_unstable();
        out.dedup();
        let t = if absorbed {
            self.bool_const(!unit)
        } else {
            match out.len() {
                0 => self.bool_const(unit),
                1 => out[0],
                _ => self.intern_list(kind, &out, Sort::Bool),
            }
        };
        self.scratch = out;
        t
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(TermData::Implies(a, b), Sort::Bool)
    }

    /// Bi-implication.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermData::Iff(a, b), Sort::Bool)
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Renders a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        match self.data(t) {
            TermData::BoolConst(b) => b.to_string(),
            TermData::IntConst(v) => v.to_string(),
            TermData::Var(v) if self.var_name(*v).is_empty() => format!("_{}", v.0),
            TermData::Var(v) => self.var_name(*v).to_owned(),
            TermData::App(f, args) => {
                let name = &self.func_sigs[f.0 as usize].0;
                let args: Vec<_> = self.operands(*args).iter().map(|&a| self.display(a)).collect();
                format!("{name}({})", args.join(","))
            }
            TermData::Eq(a, b) => format!("({} = {})", self.display(*a), self.display(*b)),
            TermData::Le(a, b) => format!("({} ≤ {})", self.display(*a), self.display(*b)),
            TermData::Lt(a, b) => format!("({} < {})", self.display(*a), self.display(*b)),
            TermData::Distinct(xs) => {
                let xs: Vec<_> = self.operands(*xs).iter().map(|&a| self.display(a)).collect();
                format!("distinct({})", xs.join(","))
            }
            TermData::Not(a) => format!("¬{}", self.display(*a)),
            TermData::And(xs) => {
                let xs: Vec<_> = self.operands(*xs).iter().map(|&a| self.display(a)).collect();
                format!("({})", xs.join(" ∧ "))
            }
            TermData::Or(xs) => {
                let xs: Vec<_> = self.operands(*xs).iter().map(|&a| self.display(a)).collect();
                format!("({})", xs.join(" ∨ "))
            }
            TermData::Implies(a, b) => {
                format!("({} → {})", self.display(*a), self.display(*b))
            }
            TermData::Iff(a, b) => format!("({} ↔ {})", self.display(*a), self.display(*b)),
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Uninterpreted(i) => write!(f, "U{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        assert_eq!(ctx.eq(x, y), ctx.eq(y, x), "equality is order-normalized");
        let n = ctx.term_count();
        let _ = ctx.eq(x, y);
        assert_eq!(ctx.term_count(), n);
    }

    #[test]
    fn hash_consing_survives_table_growth() {
        let mut ctx = Context::new();
        let xs: Vec<TermId> = (0..40).map(|_| ctx.fresh_var(Sort::Int)).collect();
        let build = |ctx: &mut Context| -> Vec<TermId> {
            let mut out = Vec::new();
            for &a in &xs {
                for &b in &xs {
                    let le = ctx.le(a, b);
                    let lt = ctx.lt(a, b);
                    out.push(ctx.or([le, lt]));
                }
            }
            out
        };
        let first = build(&mut ctx);
        let n = ctx.term_count();
        assert!(n > 4000, "enough terms to grow the cons table many times");
        assert_eq!(build(&mut ctx), first, "every term is found again");
        assert_eq!(ctx.term_count(), n);
    }

    #[test]
    fn a_cleared_context_hands_out_the_same_ids() {
        let build = |ctx: &mut Context| -> Vec<TermId> {
            let s = ctx.uninterpreted_sort("k");
            let xs: Vec<TermId> = (0..30).map(|_| ctx.fresh_var(s)).collect();
            let mut out = Vec::new();
            for w in xs.windows(3) {
                let e = ctx.eq(w[0], w[1]);
                let d = ctx.distinct(w.to_vec());
                out.push(ctx.or([e, d]));
            }
            out.push(ctx.and(out.clone()));
            out
        };
        let mut ctx = Context::new();
        let first = build(&mut ctx);
        let n = ctx.term_count();
        ctx.clear();
        assert_eq!(ctx.term_count(), 0);
        assert_eq!(build(&mut ctx), first, "the same calls give the same ids");
        assert_eq!(ctx.term_count(), n);
        let last = *first.last().expect("terms built");
        let junctions = first[..first.len() - 1].iter().copied();
        assert_eq!(ctx.and(junctions), last, "the cleared index finds terms again");
        assert_eq!(ctx.term_count(), n);
    }

    #[test]
    fn fresh_vars_are_distinct_and_unnamed() {
        let mut ctx = Context::new();
        let a = ctx.fresh_var(Sort::Bool);
        let b = ctx.fresh_var(Sort::Bool);
        assert_ne!(a, b);
        let TermData::Var(v) = *ctx.data(b) else { panic!("a variable") };
        assert_eq!(ctx.var_name(v), "");
        let ab = ctx.and([a, b]);
        assert_eq!(ctx.display(ab), "(_0 ∧ _1)");
    }

    #[test]
    fn smart_constructors() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let f = ctx.fls();
        assert_eq!(ctx.and([t, t]), t);
        assert_eq!(ctx.and([t, f]), f);
        assert_eq!(ctx.or([f, f]), f);
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let e = ctx.eq(x, x);
        assert_eq!(e, t, "reflexive equality is true");
        let ne = ctx.not(e);
        assert_eq!(ne, f);
        let a = ctx.var("a", Sort::Bool);
        let na = ctx.not(a);
        assert_eq!(ctx.not(na), a, "double negation cancels");
    }

    #[test]
    #[should_panic(expected = "different sorts")]
    fn eq_sort_checked() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let i = ctx.int(1);
        let _ = ctx.eq(x, i);
    }

    #[test]
    fn function_application_sorts() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let f = ctx.func("f", vec![s], s);
        let x = ctx.var("x", s);
        let fx = ctx.app(f, vec![x]);
        assert_eq!(ctx.sort(fx), s);
        assert_eq!(ctx.display(fx), "f(x)");
    }

    #[test]
    fn distinct_normalizes() {
        let mut ctx = Context::new();
        let s = ctx.uninterpreted_sort("k");
        let x = ctx.var("x", s);
        let y = ctx.var("y", s);
        let d1 = ctx.distinct(vec![x, y]);
        let d2 = ctx.distinct(vec![y, x]);
        assert_eq!(d1, d2);
        let single = ctx.distinct(vec![x]);
        let t = ctx.tru();
        assert_eq!(single, t);
    }
}
