//! SMT encoding of candidate DSG cycles (the ϕcyclic query of Section 7).
//!
//! For a candidate cycle through the instances of a k-unfolding, the
//! encoding asks: *is there a concretization — one concrete event per
//! abstract event (the small-model property (U2)) — together with a
//! pre-schedule satisfying causal consistency (S2) and atomic visibility
//! (S3), in which every edge of the cycle is a genuine dependency per
//! (D1)–(D3)?* A model is decoded into a concrete counter-example history.
//!
//! Value encoding: all store values live in the integer sort (distinct
//! non-integer constants map to distinct sentinel integers; boolean query
//! results use two reserved sentinels), so the solver only needs boolean
//! structure and difference logic. Fresh row identities get `distinct`
//! axioms plus the Section 8 "access implies observed creation" rule.
//!
//! Structural axioms that are clauses or Horn implications (path choice,
//! the order axioms, freshness, return justification) are recorded as
//! clauses over literal terms and reach the solver through
//! [`Incremental::assert_clause`]: no Tseitin variable for the clause
//! itself. `distinct` and the candidate steps stay formulas.

use std::borrow::Cow;
use std::collections::HashMap;

use c4_algebra::{ArgTerm, FarSpec, Side, SigId, SpecFormula};
use c4_obs::Stage;
use c4_smt::{Context, Incremental, SatResult, Sort, TermId};
use c4_store::Value;

use crate::abstract_history::{AbsArg, Cond, RelOp, TxPath};
use crate::check::AnalysisFeatures;
use crate::ssg::{tv_eval, CandidateCycle, PairCtx, SsgLabel, Tv};
use crate::unfold::Unfolding;

/// Sentinel base for non-integer constants.
const SENTINEL_BASE: i64 = -1_000_000;

/// Fills the unused cells of the dense per-pair variable tables.
const NO_TERM: TermId = TermId(u32::MAX);

/// One entry of the encoder's assertion sequence.
#[derive(Debug, Clone, Copy)]
enum Assertion {
    /// A formula, asserted as the unit clause of its literal.
    Term(TermId),
    /// The clause over the literal terms `clause_lits[start..end]`.
    Clause(u32, u32),
}

/// A decoded model of a cycle query.
#[derive(Debug)]
pub struct CycleModel {
    /// Chosen path (event indices) per instance.
    pub paths: Vec<Vec<u32>>,
    /// Decoded argument values: `(instance, event, position) → value`.
    pub args: HashMap<(usize, usize, usize), Value>,
    /// Decoded return values per `(instance, event)`.
    pub rets: HashMap<(usize, usize), Value>,
    /// Transaction-level visibility between instances.
    pub vis: Vec<Vec<bool>>,
    /// Transaction-level arbitration between instances.
    pub ar: Vec<Vec<bool>>,
}

/// The encoder for one unfolding.
pub struct CycleEncoder<'a> {
    u: &'a Unfolding,
    far: &'a FarSpec,
    features: &'a AnalysisFeatures,
    ctx: Context,
    consts: HashMap<Value, i64>,
    rev_consts: HashMap<i64, Value>,
    next_sentinel: i64,
    /// The alphabet id of every event's signature, per instance, resolved
    /// once so far-relation lookups are table reads.
    sig: Vec<Vec<SigId>>,
    globals: Vec<TermId>,
    locals: Vec<Vec<TermId>>, // per session
    params: Vec<Vec<TermId>>, // per instance
    rets: Vec<Vec<TermId>>,   // per instance, per event (Int; sentinels for bools)
    fresh: Vec<Vec<Option<TermId>>>,
    wild: HashMap<(usize, usize, usize), TermId>,
    act: Vec<Vec<TermId>>, // per instance, per event: activation formula
    paths: Vec<Cow<'a, [TxPath]>>,
    path_vars: Vec<Vec<TermId>>,
    ar_vars: Vec<TermId>,  // [i * n + j] for i < j: "i before j"
    vis_vars: Vec<TermId>, // [i * n + j] for i ≠ j
    assertions: Vec<Assertion>,
    /// The literal terms of every [`Assertion::Clause`], back to back.
    clause_lits: Vec<TermId>,
    eo_reach: Vec<&'a Vec<Vec<bool>>>,
    /// Memoized [`CycleEncoder::step_term`] results, indexed
    /// `(a * n + b) * 3 + label`. A step term is a pure function of the
    /// encoder's declarations, so a repeat build would only re-find the
    /// same hash-consed terms.
    steps: Vec<Option<TermId>>,
    /// The solver session holding the assertions flushed so far: the
    /// shared structural encoding, with candidate steps guarded behind
    /// activation literals (`check_shared*`), or everything as permanent
    /// facts (`solve`).
    session: Option<Incremental>,
    /// How many of `assertions` have been permanently asserted into the
    /// session so far.
    session_cursor: usize,
}

impl<'a> CycleEncoder<'a> {
    /// Builds the encoder: declares all symbols and asserts the structural
    /// axioms (paths, orders, invariants, freshness).
    ///
    /// # Panics
    ///
    /// Panics if an event's signature is outside `far`'s alphabet.
    pub fn new(u: &'a Unfolding, far: &'a FarSpec, features: &'a AnalysisFeatures) -> Self {
        let _stage = c4_obs::stage(Stage::EncoderBuild);
        let n = u.instances.len();
        let sig = (0..n)
            .map(|i| {
                u.tx(i)
                    .events
                    .iter()
                    .map(|ev| {
                        far.sig_id(&ev.object, &ev.kind)
                            .expect("event signature in the FarSpec alphabet")
                    })
                    .collect()
            })
            .collect();
        let mut enc = CycleEncoder {
            u,
            far,
            features,
            ctx: Context::new(),
            consts: HashMap::new(),
            rev_consts: HashMap::new(),
            next_sentinel: SENTINEL_BASE,
            sig,
            globals: Vec::new(),
            locals: Vec::new(),
            params: Vec::new(),
            rets: Vec::new(),
            fresh: Vec::new(),
            wild: HashMap::new(),
            act: Vec::new(),
            paths: Vec::new(),
            path_vars: Vec::new(),
            ar_vars: vec![NO_TERM; n * n],
            vis_vars: vec![NO_TERM; n * n],
            assertions: Vec::new(),
            clause_lits: Vec::new(),
            eo_reach: Vec::new(),
            steps: vec![None; n * n * 3],
            session: None,
            session_cursor: 0,
        };
        enc.declare();
        enc.assert_paths();
        enc.assert_orders();
        if enc.features.freshness {
            enc.assert_freshness();
        }
        if enc.features.ret_justification {
            enc.assert_ret_justification();
        }
        enc
    }

    fn push_term(&mut self, t: TermId) {
        self.assertions.push(Assertion::Term(t));
    }

    /// Records the clause `⋁ lits` over boolean literal terms.
    fn push_clause(&mut self, lits: impl IntoIterator<Item = TermId>) {
        let start = self.clause_lits.len() as u32;
        self.clause_lits.extend(lits);
        self.assertions.push(Assertion::Clause(start, self.clause_lits.len() as u32));
    }

    fn const_int(&mut self, v: &Value) -> i64 {
        if let Value::Int(i) = v {
            return *i;
        }
        if let Some(&i) = self.consts.get(v) {
            return i;
        }
        let i = self.next_sentinel;
        self.next_sentinel -= 1;
        self.consts.insert(v.clone(), i);
        self.rev_consts.insert(i, v.clone());
        i
    }

    fn declare(&mut self) {
        // Reserve the boolean sentinels up front so decoding is stable.
        self.const_int(&Value::Bool(true));
        self.const_int(&Value::Bool(false));
        self.const_int(&Value::Unit);
        let n = self.u.instances.len();
        let sessions = self.u.k;
        let g_count = self.max_symbol(|a| match a {
            AbsArg::Global(g) => Some(*g as usize),
            _ => None,
        });
        self.globals = (0..g_count).map(|_| self.ctx.fresh_var(Sort::Int)).collect();
        let l_count = self.max_symbol(|a| match a {
            AbsArg::Local(l) => Some(*l as usize),
            _ => None,
        });
        self.locals = (0..sessions)
            .map(|_| (0..l_count).map(|_| self.ctx.fresh_var(Sort::Int)).collect())
            .collect();
        let u = self.u;
        for i in 0..n {
            let tx = u.tx(i);
            self.params
                .push((0..tx.params.len()).map(|_| self.ctx.fresh_var(Sort::Int)).collect());
            self.rets
                .push((0..tx.events.len()).map(|_| self.ctx.fresh_var(Sort::Int)).collect());
            let fresh_row = tx
                .events
                .iter()
                .map(|ev| {
                    (ev.kind == c4_store::op::OpKind::TblAddRow)
                        .then(|| self.ctx.fresh_var(Sort::Int))
                })
                .collect();
            self.fresh.push(fresh_row);
            self.eo_reach.push(u.arena.reach(u.instances[i].orig_tx as crate::intern::BodyId));
        }
        // Boolean query results range over the two sentinels.
        let t = self.const_int(&Value::Bool(true));
        let f = self.const_int(&Value::Bool(false));
        for i in 0..n {
            let events = &u.tx(i).events;
            for (e, ev) in events.iter().enumerate() {
                if returns_bool(&ev.kind) {
                    let r = self.rets[i][e];
                    let tv = self.ctx.int(t);
                    let fv = self.ctx.int(f);
                    let eq_t = self.ctx.eq(r, tv);
                    let eq_f = self.ctx.eq(r, fv);
                    self.push_clause([eq_t, eq_f]);
                }
            }
        }
        // Order variables.
        for i in 0..n {
            for j in 0..n {
                if i < j {
                    self.ar_vars[i * n + j] = self.ctx.fresh_var(Sort::Bool);
                }
                if i != j {
                    self.vis_vars[i * n + j] = self.ctx.fresh_var(Sort::Bool);
                }
            }
        }
    }

    fn max_symbol(&self, f: impl Fn(&AbsArg) -> Option<usize>) -> usize {
        let mut max = 0usize;
        for i in 0..self.u.instances.len() {
            let tx = self.u.tx(i);
            for ev in &tx.events {
                for a in &ev.args {
                    if let Some(i) = f(a) {
                        max = max.max(i + 1);
                    }
                }
            }
            for edge in &tx.edges {
                for c in &edge.cond {
                    for a in [&c.lhs, &c.rhs] {
                        if let Some(i) = f(a) {
                            max = max.max(i + 1);
                        }
                    }
                }
            }
        }
        max
    }

    /// The SMT term of an argument occurrence.
    fn arg_term(&mut self, inst: usize, event: usize, pos: usize, arg: &AbsArg) -> TermId {
        if !self.features.constraints
            && !matches!(arg, AbsArg::Const(_) | AbsArg::RowOf(_) | AbsArg::Wild)
        {
            // Constraint ablation: symbolic occurrences are all free.
            return self.wild_var(inst, event, pos);
        }
        match arg {
            AbsArg::Wild => self.wild_var(inst, event, pos),
            AbsArg::Const(v) => {
                let i = self.const_int(v);
                self.ctx.int(i)
            }
            AbsArg::Param(p) => self.params[inst][*p as usize],
            AbsArg::Local(l) => {
                let s = self.u.instances[inst].session;
                self.locals[s][*l as usize]
            }
            AbsArg::Global(g) => self.globals[*g as usize],
            AbsArg::Ret(r) => self.rets[inst][*r as usize],
            AbsArg::RowOf(r) => {
                self.fresh[inst][*r as usize].expect("fresh row var declared for add_row")
            }
        }
    }

    fn wild_var(&mut self, inst: usize, event: usize, pos: usize) -> TermId {
        if let Some(&v) = self.wild.get(&(inst, event, pos)) {
            return v;
        }
        let v = self.ctx.fresh_var(Sort::Int);
        self.wild.insert((inst, event, pos), v);
        v
    }

    /// Control flow: path selection and guard conditions per instance.
    fn assert_paths(&mut self) {
        let u = self.u;
        for i in 0..u.instances.len() {
            let tx = &u.tx(i);
            let paths: Cow<'a, [TxPath]> = if self.features.control_flow {
                Cow::Borrowed(u.arena.paths(u.instances[i].orig_tx as crate::intern::BodyId))
            } else {
                Cow::Owned(vec![TxPath {
                    events: (0..tx.events.len() as u32).collect(),
                    conds: vec![],
                }])
            };
            let vars: Vec<TermId> =
                (0..paths.len()).map(|_| self.ctx.fresh_var(Sort::Bool)).collect();
            // Exactly one path.
            self.push_clause(vars.iter().copied());
            for a in 0..vars.len() {
                for b in (a + 1)..vars.len() {
                    let na = self.ctx.not(vars[a]);
                    let nb = self.ctx.not(vars[b]);
                    self.push_clause([na, nb]);
                }
            }
            // Path ⇒ guard conditions (only meaningful with constraints).
            if self.features.constraints {
                for (p, path) in paths.iter().enumerate() {
                    for cond in &path.conds {
                        let c = self.cond_term(i, cond);
                        let np = self.ctx.not(vars[p]);
                        self.push_clause([np, c]);
                    }
                }
            }
            // Activation per event.
            let mut acts = Vec::new();
            for e in 0..tx.events.len() {
                let on: Vec<TermId> = paths
                    .iter()
                    .enumerate()
                    .filter(|(_, path)| path.events.contains(&(e as u32)))
                    .map(|(p, _)| vars[p])
                    .collect();
                acts.push(self.ctx.or(on));
            }
            self.act.push(acts);
            self.paths.push(paths);
            self.path_vars.push(vars);
        }
    }

    fn cond_term(&mut self, inst: usize, cond: &Cond) -> TermId {
        let l = self.cond_operand(inst, &cond.lhs);
        let r = self.cond_operand(inst, &cond.rhs);
        match cond.op {
            RelOp::Eq => self.ctx.eq(l, r),
            RelOp::Ne => {
                let e = self.ctx.eq(l, r);
                self.ctx.not(e)
            }
            RelOp::Lt => self.ctx.lt(l, r),
            RelOp::Le => self.ctx.le(l, r),
            RelOp::Gt => self.ctx.lt(r, l),
            RelOp::Ge => self.ctx.le(r, l),
        }
    }

    fn cond_operand(&mut self, inst: usize, a: &AbsArg) -> TermId {
        // Condition operands never include event-positional wildcards.
        self.arg_term(inst, usize::MAX, usize::MAX, a)
    }

    /// (S2)/(S3) and arbitration axioms at the transaction level.
    fn assert_orders(&mut self) {
        let n = self.u.instances.len();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // vı ⊆ ar.
                let v = self.vis(i, j);
                let a = self.ar(i, j);
                let nv = self.ctx.not(v);
                self.push_clause([nv, a]);
                // so ⊆ vı.
                if self.u.so(i, j) {
                    self.push_clause([v]);
                }
            }
        }
        // Transitivity of ar and vı.
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i == j || j == k || i == k {
                        continue;
                    }
                    // ¬(i ar→ j) is j ar→ i.
                    let naij = self.ar(j, i);
                    let najk = self.ar(k, j);
                    let aik = self.ar(i, k);
                    self.push_clause([naij, najk, aik]);
                    let vij = self.vis(i, j);
                    let vjk = self.vis(j, k);
                    let vik = self.vis(i, k);
                    let nvij = self.ctx.not(vij);
                    let nvjk = self.ctx.not(vjk);
                    self.push_clause([nvij, nvjk, vik]);
                }
            }
        }
    }

    /// Transaction-level arbitration literal `i ar→ j`.
    fn ar(&mut self, i: usize, j: usize) -> TermId {
        let n = self.u.instances.len();
        if i < j {
            self.ar_vars[i * n + j]
        } else {
            let v = self.ar_vars[j * n + i];
            self.ctx.not(v)
        }
    }

    /// Transaction-level visibility variable `i vı→ j` (`i ≠ j`).
    fn vis(&self, i: usize, j: usize) -> TermId {
        self.vis_vars[i * self.u.instances.len() + j]
    }

    /// Section 8 freshness: fresh rows are pairwise distinct, distinct
    /// from all constants, and any *other* instance using the row value
    /// must have observed its creation.
    fn assert_freshness(&mut self) {
        let mut all_fresh = Vec::new();
        for (i, per_event) in self.fresh.iter().enumerate() {
            for (e, f) in per_event.iter().enumerate() {
                if let Some(v) = f {
                    all_fresh.push((i, e, *v));
                }
            }
        }
        if all_fresh.is_empty() {
            return;
        }
        let mut terms: Vec<TermId> = all_fresh.iter().map(|&(_, _, v)| v).collect();
        // Sentinels in the order they were handed out (descending), so the
        // integer terms are created in the same order on every run.
        let mut consts: Vec<i64> = self.consts.values().copied().collect();
        consts.sort_unstable_by(|a, b| b.cmp(a));
        for c in consts {
            terms.push(self.ctx.int(c));
        }
        let d = self.ctx.distinct(terms);
        self.push_term(d);
        // Access implies observed creation.
        let u = self.u;
        for &(ci, ce, row) in &all_fresh {
            let n = u.instances.len();
            for j in 0..n {
                if j == ci {
                    continue;
                }
                let tx = &u.tx(j);
                for (fe, ev) in tx.events.iter().enumerate() {
                    for (pos, arg) in ev.args.iter().enumerate() {
                        if matches!(arg, AbsArg::RowOf(_) | AbsArg::Const(_)) {
                            continue;
                        }
                        // act_f ∧ a = row ⇒ act_c ∧ vı(ci, j), as two
                        // clauses.
                        let a = self.arg_term(j, fe, pos, arg);
                        let eq = self.ctx.eq(a, row);
                        let neq = self.ctx.not(eq);
                        let act_f = self.act[j][fe];
                        let nact_f = self.ctx.not(act_f);
                        let act_c = self.act[ci][ce];
                        let vis = self.vis(ci, j);
                        self.push_clause([nact_f, neq, act_c]);
                        self.push_clause([nact_f, neq, vis]);
                    }
                }
            }
        }
    }


    /// Return-value justification for membership queries.
    ///
    /// In every *legal* schedule, `contains(k):true` requires some visible
    /// creation of `k` (records start absent), and — when the alphabet has
    /// no matching removal operation — `contains(k):false` excludes any
    /// visible creation. Pre-schedules do not enforce (S1), so without
    /// these axioms the solver can invent query results that no real store
    /// run produces (e.g. guard a record creation on the record's own
    /// pre-existence). The axioms are valid in all legal schedules, hence
    /// they never hide a real violation.
    fn assert_ret_justification(&mut self) {
        use c4_store::op::OpKind::*;
        let u = self.u;
        let n = u.instances.len();
        let t_sent = self.const_int(&Value::Bool(true));
        let f_sent = self.const_int(&Value::Bool(false));
        for qi in 0..n {
            let q_events = &u.tx(qi).events;
            for (qe, qev) in q_events.iter().enumerate() {
                if !returns_bool(&qev.kind) {
                    continue;
                }
                // Collect creation witnesses and check for removals.
                let mut creators: Vec<TermId> = Vec::new();
                let mut removal_exists = false;
                for ci in 0..n {
                    let c_events = &u.tx(ci).events;
                    for (ce, cev) in c_events.iter().enumerate() {
                        if cev.object != qev.object {
                            continue;
                        }
                        let removal = matches!(
                            (&qev.kind, &cev.kind),
                            (MapContains, MapRemove)
                                | (SetContains, SetRemove)
                                | (TblContains, TblDeleteRow)
                        ) || matches!((&qev.kind, &cev.kind),
                            (FldContains(f), FldRemove(g)) if f == g)
                            || matches!((&qev.kind, &cev.kind), (FldContains(_), TblDeleteRow));
                        if removal {
                            removal_exists = true;
                        }
                        let key_pairs: Option<Vec<(usize, usize)>> =
                            match (&qev.kind, &cev.kind) {
                                (MapContains, MapPut) => Some(vec![(0, 0)]),
                                (MapContains, MapCopy) => Some(vec![(0, 1)]),
                                (SetContains, SetAdd) => Some(vec![(0, 0)]),
                                (LogHas, LogAppend) => Some(vec![(0, 0)]),
                                (
                                    TblContains,
                                    TblAddRow | FldSet(_) | FldAdd(_) | FldRemove(_),
                                ) => Some(vec![(0, 0)]),
                                (FldContains(f), FldAdd(g)) if f == g => {
                                    Some(vec![(0, 0), (1, 1)])
                                }
                                _ => None,
                            };
                        let Some(pairs) = key_pairs else { continue };
                        if ci == qi && !self.eo_reach[qi][ce][qe] {
                            continue; // creator not before the query
                        }
                        let mut parts = vec![self.act[ci][ce]];
                        for (qp, cp) in pairs {
                            let qa = &qev.args[qp];
                            let ca = &c_events[ce].args[cp];
                            let qt = self.arg_term(qi, qe, qp, qa);
                            let ct = self.arg_term(ci, ce, cp, ca);
                            parts.push(self.ctx.eq(qt, ct));
                        }
                        if ci != qi {
                            parts.push(self.vis(ci, qi));
                        }
                        creators.push(self.ctx.and(parts));
                    }
                }
                let ret = self.rets[qi][qe];
                let tv = self.ctx.int(t_sent);
                let is_true = self.ctx.eq(ret, tv);
                let act_q = self.act[qi][qe];
                let nact_q = self.ctx.not(act_q);
                let some_creator = self.ctx.or(creators);
                // act_q ∧ ret = true ⇒ some creator.
                let nis_true = self.ctx.not(is_true);
                self.push_clause([nact_q, nis_true, some_creator]);
                if !removal_exists {
                    // act_q ∧ ret = false ⇒ no creator.
                    let fv = self.ctx.int(f_sent);
                    let is_false = self.ctx.eq(ret, fv);
                    let nis_false = self.ctx.not(is_false);
                    let no_creator = self.ctx.not(some_creator);
                    self.push_clause([nact_q, nis_false, no_creator]);
                }
            }
        }
    }

    /// Translates a rewrite-spec formula instantiated on two event
    /// occurrences.
    fn spec_term(&mut self, f: &SpecFormula, src: (usize, usize), tgt: (usize, usize)) -> TermId {
        match f {
            SpecFormula::True => self.ctx.tru(),
            SpecFormula::False => self.ctx.fls(),
            SpecFormula::Eq(a, b) => {
                let ta = self.spec_operand(a, src, tgt);
                let tb = self.spec_operand(b, src, tgt);
                self.ctx.eq(ta, tb)
            }
            SpecFormula::Not(g) => {
                let t = self.spec_term(g, src, tgt);
                self.ctx.not(t)
            }
            SpecFormula::And(fs) => {
                let ts: Vec<TermId> = fs.iter().map(|g| self.spec_term(g, src, tgt)).collect();
                self.ctx.and(ts)
            }
            SpecFormula::Or(fs) => {
                let ts: Vec<TermId> = fs.iter().map(|g| self.spec_term(g, src, tgt)).collect();
                self.ctx.or(ts)
            }
        }
    }

    fn spec_operand(&mut self, t: &ArgTerm, src: (usize, usize), tgt: (usize, usize)) -> TermId {
        match t {
            ArgTerm::Arg(side, pos) => {
                let (inst, ev) = if *side == Side::Src { src } else { tgt };
                let arg = &self.u.tx(inst).events[ev].args[*pos];
                self.arg_term(inst, ev, *pos, arg)
            }
            ArgTerm::Ret(side) => {
                let (inst, ev) = if *side == Side::Src { src } else { tgt };
                self.rets[inst][ev]
            }
            ArgTerm::Const(v) => {
                let i = self.const_int(v);
                self.ctx.int(i)
            }
        }
    }

    /// `¬com(src, tgt)` as an SMT term, honoring the commutativity feature
    /// toggle (with the toggle off, only Kleene satisfiability is used —
    /// the SSG-level precision).
    fn not_com_term(&mut self, src: (usize, usize), tgt: (usize, usize)) -> TermId {
        let (u, far) = (self.u, self.far);
        let se = &u.tx(src.0).events[src.1];
        let te = &u.tx(tgt.0).events[tgt.1];
        let f = far.far_commutes_id(self.sig[src.0][src.1], self.sig[tgt.0][tgt.1]);
        if !self.features.commutativity {
            let ctx = PairCtx {
                same_instance: src.0 == tgt.0,
                same_session: u.instances[src.0].session == u.instances[tgt.0].session,
                same_event: src == tgt,
            };
            return if tv_eval(f, se, te, ctx) != Tv::True {
                self.ctx.tru()
            } else {
                self.ctx.fls()
            };
        }
        let t = self.spec_term(f, src, tgt);
        self.ctx.not(t)
    }

    /// The condition that update `u` is *not* far-absorbed on its way to
    /// event `q` (the escape clause of (D1)/(D2)): no active update `v`
    /// with `abs(u, v)`, `u ar→ v`, `v vı→ q`.
    fn not_absorbed_term(&mut self, u: (usize, usize), q: (usize, usize)) -> TermId {
        if !self.features.absorption {
            return self.ctx.tru();
        }
        let mut conj = Vec::new();
        let (uf, far) = (self.u, self.far);
        let n = uf.instances.len();
        for k in 0..n {
            let tx = &uf.tx(k);
            for (vi, vev) in tx.events.iter().enumerate() {
                if !vev.kind.is_update() || (k, vi) == u || (k, vi) == q {
                    continue;
                }
                let absf = far.far_absorbs_id(self.sig[u.0][u.1], self.sig[k][vi]);
                if absf.is_false() {
                    continue;
                }
                let abs_t = self.spec_term(absf, u, (k, vi));
                // u ar→ v.
                let ar_uv = if k == u.0 {
                    if self.eo_reach[u.0][u.1][vi] {
                        self.ctx.tru()
                    } else {
                        self.ctx.fls()
                    }
                } else {
                    self.ar(u.0, k)
                };
                // v vı→ q.
                let vis_vq = if k == q.0 {
                    if self.eo_reach[k][vi][q.1] {
                        self.ctx.tru()
                    } else {
                        self.ctx.fls()
                    }
                } else {
                    self.vis(k, q.0)
                };
                let act_v = self.act[k][vi];
                let all = self.ctx.and([act_v, abs_t, ar_uv, vis_vq]);
                conj.push(self.ctx.not(all));
            }
        }
        self.ctx.and(conj)
    }

    /// The formula for one cycle step between instances `a → b` with the
    /// given label: a disjunction over all witnessing event pairs.
    fn step_term(&mut self, a: usize, b: usize, label: SsgLabel) -> TermId {
        let slot = match label {
            SsgLabel::So => {
                return if self.u.so(a, b) { self.ctx.tru() } else { self.ctx.fls() };
            }
            SsgLabel::Dep => 0,
            SsgLabel::Anti => 1,
            SsgLabel::Conflict => 2,
        };
        let slot = (a * self.u.instances.len() + b) * 3 + slot;
        if let Some(t) = self.steps[slot] {
            return t;
        }
        let t = self.build_step_term(a, b, label);
        self.steps[slot] = Some(t);
        t
    }

    fn build_step_term(&mut self, a: usize, b: usize, label: SsgLabel) -> TermId {
        let (u, far) = (self.u, self.far);
        let ea = &u.tx(a).events;
        let eb = &u.tx(b).events;
        let ctx_pair = PairCtx {
            same_instance: false,
            same_session: u.instances[a].session == u.instances[b].session,
            same_event: false,
        };
        let mut disjuncts = Vec::new();
        for (ei, e) in ea.iter().enumerate() {
            for (fi, f) in eb.iter().enumerate() {
                let ok = match label {
                    SsgLabel::Dep => e.kind.is_update() && f.kind.is_query(),
                    SsgLabel::Anti => e.kind.is_query() && f.kind.is_update(),
                    SsgLabel::Conflict => e.kind.is_update() && f.kind.is_update(),
                    SsgLabel::So => unreachable!(),
                };
                if !ok {
                    continue;
                }
                // Static pre-filter mirrors the SSG.
                let (sa, sb) = (self.sig[a][ei], self.sig[b][fi]);
                let feasible = match label {
                    SsgLabel::Dep | SsgLabel::Conflict => {
                        tv_eval(far.far_commutes_id(sa, sb), e, f, ctx_pair) != Tv::True
                    }
                    SsgLabel::Anti => {
                        tv_eval(far.far_commutes_id(sb, sa), f, e, ctx_pair) != Tv::True
                    }
                    SsgLabel::So => unreachable!(),
                };
                if !feasible {
                    continue;
                }
                let act_e = self.act[a][ei];
                let act_f = self.act[b][fi];
                let term = match label {
                    SsgLabel::Dep => {
                        let vis = self.vis(a, b);
                        let nc = self.not_com_term((a, ei), (b, fi));
                        let na = self.not_absorbed_term((a, ei), (b, fi));
                        self.ctx.and([act_e, act_f, vis, nc, na])
                    }
                    SsgLabel::Anti => {
                        // q = (a, ei), u = (b, fi); u must be invisible to q.
                        let vis_ba = self.vis(b, a);
                        let invis = self.ctx.not(vis_ba);
                        let nc = self.not_com_term((b, fi), (a, ei));
                        let na = self.not_absorbed_term((b, fi), (a, ei));
                        let mut parts = vec![act_e, act_f, invis, nc, na];
                        if self.features.asymmetric {
                            let ex = far.anti_dep_exempt_id(sb, sa);
                            if !ex.is_false() {
                                let ext = self.spec_term(ex, (b, fi), (a, ei));
                                parts.push(self.ctx.not(ext));
                            }
                        }
                        self.ctx.and(parts)
                    }
                    SsgLabel::Conflict => {
                        let ar_ab = self.ar(a, b);
                        // (D3) uses *plain* commutativity.
                        let plain = far.commute_id(sa, sb);
                        let nc = if self.features.commutativity {
                            let t = self.spec_term(plain, (a, ei), (b, fi));
                            self.ctx.not(t)
                        } else if tv_eval(plain, e, f, ctx_pair) != Tv::True {
                            self.ctx.tru()
                        } else {
                            self.ctx.fls()
                        };
                        self.ctx.and([act_e, act_f, ar_ab, nc])
                    }
                    SsgLabel::So => unreachable!(),
                };
                disjuncts.push(term);
            }
        }
        self.ctx.or(disjuncts)
    }

    /// Asserts one DSG-edge requirement between two instances.
    pub fn assert_step(&mut self, a: usize, b: usize, label: SsgLabel) {
        let t = self.step_term(a, b, label);
        self.push_term(t);
    }

    /// Asserts the *negation* of a DSG-edge requirement (used by the
    /// Section 7.2 short-cut check).
    pub fn assert_not_step(&mut self, a: usize, b: usize, label: SsgLabel) {
        let t = self.step_term(a, b, label);
        let nt = self.ctx.not(t);
        self.push_term(nt);
    }

    /// Asserts that two instances of the same abstract transaction share
    /// their parameter values (the ghost-copy instantiation of the
    /// short-cut check).
    pub fn assert_params_equal(&mut self, i: usize, j: usize) {
        for p in 0..self.params[i].len().min(self.params[j].len()) {
            let (a, b) = (self.params[i][p], self.params[j][p]);
            let e = self.ctx.eq(a, b);
            self.push_term(e);
        }
    }

    /// Makes instance `i` a full mirror of instance `j` (same transaction
    /// body): equal parameters, equal query results, equal wildcard
    /// arguments, equal fresh-row identities, and the same chosen path.
    ///
    /// Used by the Section 7.2 short-cut check: the transformed history
    /// re-instantiates the anti-dependency's source transaction with the
    /// *same* inputs and outcomes on a different session (outcomes are
    /// free in pre-schedules). Only meaningful with the freshness axioms
    /// disabled (mirrored rows would violate distinctness).
    ///
    /// # Panics
    ///
    /// Panics if the two instances have different bodies.
    pub fn assert_mirror(&mut self, i: usize, j: usize) {
        assert_eq!(
            self.u.tx(i).events.len(),
            self.u.tx(j).events.len(),
            "mirrored instances must share a body"
        );
        self.assert_params_equal(i, j);
        let n_events = self.u.tx(i).events.len();
        for e in 0..n_events {
            let (ri, rj) = (self.rets[i][e], self.rets[j][e]);
            let eq = self.ctx.eq(ri, rj);
            self.push_term(eq);
            if let (Some(fi), Some(fj)) = (self.fresh[i][e], self.fresh[j][e]) {
                let eq = self.ctx.eq(fi, fj);
                self.push_term(eq);
            }
            let args = &self.u.tx(i).events[e].args;
            for (pos, arg) in args.iter().enumerate() {
                if matches!(arg, AbsArg::Wild) {
                    let (wi, wj) =
                        (self.wild_var(i, e, pos), self.wild_var(j, e, pos));
                    let eq = self.ctx.eq(wi, wj);
                    self.push_term(eq);
                }
            }
        }
        // Same chosen path.
        for p in 0..self.path_vars[i].len().min(self.path_vars[j].len()) {
            let (pi, pj) = (self.path_vars[i][p], self.path_vars[j][p]);
            let iff = self.ctx.iff(pi, pj);
            self.push_term(iff);
        }
    }

    /// Asserts that *some* dependency edge (⊕, ⊖ or ⊗) holds between two
    /// instances — the ⊙ edge of a Figure 9 segment.
    pub fn assert_some_dependency(&mut self, a: usize, b: usize) {
        let d = self.step_term(a, b, SsgLabel::Dep);
        let an = self.step_term(a, b, SsgLabel::Anti);
        let c = self.step_term(a, b, SsgLabel::Conflict);
        let any = self.ctx.or([d, an, c]);
        self.push_term(any);
    }

    /// Asserts the *negation* of the argument-level anti-dependency
    /// condition between instances `a` (query side) and `b` (update side).
    ///
    /// Used by the Section 7.2 short-cut check: the history transformation
    /// re-chooses visibility and arbitration, so only the argument
    /// constraints (non-commutativity, asymmetric exemption) are kept.
    pub fn assert_no_anti_args(&mut self, a: usize, b: usize) {
        let (u, far) = (self.u, self.far);
        let ea = &u.tx(a).events;
        let eb = &u.tx(b).events;
        let ctx_pair = PairCtx {
            same_instance: false,
            same_session: u.instances[a].session == u.instances[b].session,
            same_event: false,
        };
        let mut disjuncts = Vec::new();
        for (ei, e) in ea.iter().enumerate() {
            for (fi, f) in eb.iter().enumerate() {
                if !(e.kind.is_query() && f.kind.is_update()) {
                    continue;
                }
                let (sa, sb) = (self.sig[a][ei], self.sig[b][fi]);
                if tv_eval(far.far_commutes_id(sb, sa), f, e, ctx_pair) == Tv::True {
                    continue;
                }
                let nc = self.not_com_term((b, fi), (a, ei));
                let mut parts = vec![nc];
                if self.features.asymmetric {
                    let ex = far.anti_dep_exempt_id(sb, sa);
                    if !ex.is_false() {
                        let ext = self.spec_term(ex, (b, fi), (a, ei));
                        parts.push(self.ctx.not(ext));
                    }
                }
                disjuncts.push(self.ctx.and(parts));
            }
        }
        let any = self.ctx.or(disjuncts);
        let not_any = self.ctx.not(any);
        self.push_term(not_any);
    }

    /// Asserts every assertion recorded since the last flush into the
    /// session (created on first use), in recording order: terms as unit
    /// clauses, clauses as clauses. It is an encoder-build stage of its
    /// own, nested in the query that flushes, so its time is not solving.
    fn flush(&mut self) {
        let _stage = c4_obs::stage(Stage::EncoderBuild);
        let session = self.session.get_or_insert_with(Incremental::new);
        for &a in &self.assertions[self.session_cursor..] {
            match a {
                Assertion::Term(t) => session.assert(&mut self.ctx, t),
                Assertion::Clause(start, end) => session.assert_clause(
                    &mut self.ctx,
                    &self.clause_lits[start as usize..end as usize],
                ),
            }
        }
        self.session_cursor = self.assertions.len();
    }

    /// Solves the accumulated assertions as permanent facts.
    pub fn solve(&mut self) -> Option<CycleModel> {
        self.flush();
        let session = self.session.as_mut().expect("flushed session");
        match session.solve_under(&self.ctx, &[]) {
            SatResult::Unsat => None,
            SatResult::Sat(model) => Some(self.decode(&model)),
        }
    }

    /// Asserts the full candidate cycle and solves. Returns a decoded
    /// model if one exists.
    pub fn check(&mut self, cand: &CandidateCycle) -> Option<CycleModel> {
        let m = cand.nodes.len();
        for (s, step) in cand.steps.iter().enumerate() {
            let a = cand.nodes[s];
            let b = cand.nodes[(s + 1) % m];
            self.assert_step(a, b, step.label);
        }
        self.solve()
    }

    /// Checks a candidate cycle through the persistent incremental
    /// session, returning only the SAT/UNSAT verdict.
    ///
    /// The shared structural encoding is asserted into the session once
    /// (lazily, on first call); each candidate's step assertions are
    /// guarded behind a fresh activation literal, solved under that single
    /// assumption, and retired afterwards, so learnt clauses, the Tseitin
    /// term table and theory blocking clauses all carry over to the next
    /// candidate of the same unfolding. Callers that need a decoded
    /// counter-example re-check with a fresh encoder via
    /// [`CycleEncoder::check`] — the fresh path stays the canonical source
    /// of models, which keeps analysis results byte-identical with the
    /// fresh-encoder-per-candidate reference search.
    pub fn check_shared(&mut self, cand: &CandidateCycle) -> bool {
        let m = cand.nodes.len();
        let mut step_terms = Vec::with_capacity(m);
        for (s, step) in cand.steps.iter().enumerate() {
            let a = cand.nodes[s];
            let b = cand.nodes[(s + 1) % m];
            step_terms.push(self.step_term(a, b, step.label));
        }
        self.solve_guarded(&step_terms)
    }

    /// Batched refutation probe: checks whether *any* of the candidate
    /// cycles admits a model, through the persistent incremental session.
    ///
    /// The disjunction of the candidates' step conjunctions is asserted
    /// under one activation literal and solved under that assumption.
    /// UNSAT proves every individual candidate infeasible (each disjunct
    /// is unsatisfiable together with the shared structural encoding), so
    /// the caller can commit `Refuted` for all of them with a single
    /// solver call — the common case, since almost all suspicious
    /// unfoldings have no feasible candidate at all. SAT only says *some*
    /// candidate is feasible; the caller falls back to the exact
    /// per-candidate path to find out which.
    pub fn check_shared_any(&mut self, cands: &[CandidateCycle]) -> bool {
        let mut disjuncts = Vec::with_capacity(cands.len());
        for cand in cands {
            let m = cand.nodes.len();
            let mut step_terms = Vec::with_capacity(m);
            for (s, step) in cand.steps.iter().enumerate() {
                let a = cand.nodes[s];
                let b = cand.nodes[(s + 1) % m];
                step_terms.push(self.step_term(a, b, step.label));
            }
            disjuncts.push(self.ctx.and(step_terms));
        }
        let any = self.ctx.or(disjuncts);
        self.solve_guarded(&[any])
    }

    /// Makes the structural assertions recorded so far permanent, then
    /// decides them together with `terms`, asserted under a fresh
    /// activation literal that is retired afterwards.
    fn solve_guarded(&mut self, terms: &[TermId]) -> bool {
        self.flush();
        let session = self.session.as_mut().expect("flushed session");
        let g = session.activation();
        for &t in terms {
            session.assert_under(&mut self.ctx, g, t);
        }
        let sat = session.check_sat_assuming(&self.ctx, &[g]);
        session.retire(g);
        sat
    }

    /// Incremental-session counters: `(assumption solves, theory blocking
    /// clauses, retained learnt clauses)`. All zero before the first
    /// [`CycleEncoder::check_shared`] call.
    pub fn session_stats(&self) -> (u64, u64, usize) {
        match &self.session {
            Some(s) => (s.solves(), s.blocking_clauses(), s.learnt_count()),
            None => (0, 0, 0),
        }
    }

    fn decode(&mut self, model: &c4_smt::Model) -> CycleModel {
        let n = self.u.instances.len();
        let mut paths = Vec::with_capacity(n);
        for i in 0..n {
            let chosen = self.path_vars[i]
                .iter()
                .position(|&v| model.bool_value(v) == Some(true))
                .unwrap_or(0);
            paths.push(self.paths[i][chosen].events.clone());
        }
        let mut args = HashMap::new();
        let mut rets = HashMap::new();
        // Row decoding: any value equal to a fresh var's value decodes as a
        // row identity.
        let mut row_values: HashMap<i64, u64> = HashMap::new();
        let mut next_row = 0u64;
        for per_event in &self.fresh {
            for f in per_event.iter().flatten() {
                if let Some(v) = model.int_value(*f) {
                    row_values.entry(v).or_insert_with(|| {
                        let r = next_row;
                        next_row += 1;
                        r
                    });
                }
            }
        }
        let rev_consts = self.rev_consts.clone();
        let decode_int = |v: i64| -> Value {
            if let Some(orig) = rev_consts.get(&v) {
                return orig.clone();
            }
            if let Some(&r) = row_values.get(&v) {
                return Value::Row(c4_store::value::RowId(r));
            }
            Value::Int(v)
        };
        let u = self.u;
        for i in 0..n {
            let tx_events = &u.tx(i).events;
            let path = paths[i].clone();
            for &e in &path {
                let e = e as usize;
                for (pos, arg) in tx_events[e].args.iter().enumerate() {
                    let term = self.arg_term(i, e, pos, arg);
                    let v = model.int_value(term).map(&decode_int).unwrap_or_else(|| match arg {
                        AbsArg::Const(c) => c.clone(),
                        _ => Value::Int(0),
                    });
                    args.insert((i, e, pos), v);
                }
                if tx_events[e].kind.is_query() {
                    let term = self.rets[i][e];
                    let v = model.int_value(term).map(&decode_int).unwrap_or(Value::Unit);
                    // Boolean queries must decode to booleans.
                    let v = if returns_bool(&tx_events[e].kind) {
                        match v {
                            Value::Bool(b) => Value::Bool(b),
                            _ => Value::Bool(false),
                        }
                    } else {
                        v
                    };
                    rets.insert((i, e), v);
                }
            }
        }
        let mut vis = vec![vec![false; n]; n];
        let mut ar = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                vis[i][j] = model.bool_value(self.vis(i, j)) == Some(true);
                let a = if i < j {
                    model.bool_value(self.ar_vars[i * n + j]) == Some(true)
                } else {
                    model.bool_value(self.ar_vars[j * n + i]) != Some(true)
                };
                ar[i][j] = a;
            }
        }
        CycleModel { paths, args, rets, vis, ar }
    }
}

/// Whether the operation returns a boolean.
pub fn returns_bool(kind: &c4_store::op::OpKind) -> bool {
    use c4_store::op::OpKind::*;
    matches!(kind, SetContains | MapContains | TblContains | FldContains(_) | LogHas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_history::{ev, straight_line_tx, AbstractHistory};
    use crate::ssg::{candidate_cycles, PairTables, Ssg};
    use crate::unfold::{arena_for, unfoldings};
    use c4_algebra::{Alphabet, RewriteSpec};
    use c4_store::op::OpKind;

    fn far_for(h: &AbstractHistory) -> FarSpec {
        let alphabet: Alphabet = h.alphabet();
        FarSpec::compute(RewriteSpec::new(), &alphabet)
    }

    /// Figure 1a with free keys: the SMT stage must find a cycle (program
    /// is not serializable).
    #[test]
    fn figure1a_free_keys_has_feasible_cycle() {
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "P",
            vec!["x".into(), "y".into()],
            vec![ev("M", OpKind::MapPut, vec![AbsArg::Param(0), AbsArg::Param(1)])],
        ));
        h.add_tx(straight_line_tx(
            "G",
            vec!["z".into()],
            vec![ev("M", OpKind::MapGet, vec![AbsArg::Param(0)])],
        ));
        h.free_session_order();
        let far = far_for(&h);
        let arena = arena_for(&h);
        let tables = PairTables::compute(arena.bodies(), &far);
        let features = AnalysisFeatures::default();
        let mut found = false;
        'outer: for u in unfoldings(&h, &arena, 2) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            for cand in candidate_cycles(&u, ssg, &tables).cycles() {
                let mut enc = CycleEncoder::new(&u, &far, &features);
                if let Some(model) = enc.check(&cand) {
                    // Model sanity: vis respects so.
                    for i in 0..u.instances.len() {
                        for j in 0..u.instances.len() {
                            if i != j && u.so(i, j) {
                                assert!(model.vis[i][j]);
                                assert!(model.ar[i][j]);
                            }
                        }
                    }
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "Figure 1a with free keys is not serializable");
    }

    /// Section 2 "Logical Serializability Checking": keys equal *within a
    /// session* (session-local) — the program is serializable, and only
    /// the SMT stage can prove it.
    #[test]
    fn figure1a_session_local_keys_is_serializable() {
        let mut h = AbstractHistory::new();
        let u_local = h.local("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![u_local.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![u_local])]));
        h.free_session_order();
        let far = far_for(&h);
        let arena = arena_for(&h);
        let tables = PairTables::compute(arena.bodies(), &far);
        let features = AnalysisFeatures::default();
        for u in unfoldings(&h, &arena, 2) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            for cand in candidate_cycles(&u, ssg, &tables).cycles() {
                let mut enc = CycleEncoder::new(&u, &far, &features);
                assert!(
                    enc.check(&cand).is_none(),
                    "session-local keys admit no 2-session cycle"
                );
            }
        }
    }

    /// With the constraints feature disabled, the same program produces a
    /// (false) alarm — matching the Section 9.3 ablation.
    #[test]
    fn constraints_ablation_reintroduces_alarm() {
        let mut h = AbstractHistory::new();
        let u_local = h.local("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![u_local.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![u_local])]));
        h.free_session_order();
        let far = far_for(&h);
        let arena = arena_for(&h);
        let tables = PairTables::compute(arena.bodies(), &far);
        let features = AnalysisFeatures { constraints: false, ..AnalysisFeatures::default() };
        let mut found = false;
        for u in unfoldings(&h, &arena, 2) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            for cand in candidate_cycles(&u, ssg, &tables).cycles() {
                let mut enc = CycleEncoder::new(&u, &far, &features);
                if enc.check(&cand).is_some() {
                    found = true;
                }
            }
        }
        assert!(found, "without constraints the alarm must reappear");
    }
}
