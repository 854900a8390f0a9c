//! Static serialization graphs (Definition 3) and the cycle
//! characterization of Theorem 3 (conditions SC1/SC2).
//!
//! The SSG summarizes all possible DSGs: nodes are abstract transactions
//! (or, for an unfolding, transaction *instances*), and an edge `(s, t)`
//! exists whenever some event pair could form a dependency in *some*
//! concretization — decided by three-valued (Kleene) evaluation of the
//! rewrite-specification formulas over the events' symbolic arguments.

use c4_algebra::{FarSpec, SpecFormula};

use crate::abstract_history::{AbsArg, AbsEventSpec, AbsTx, AbstractHistory};
use crate::unfold::Unfolding;

/// Label of an SSG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SsgLabel {
    /// Abstract session order.
    So,
    /// Potential dependency ⊕.
    Dep,
    /// Potential anti-dependency ⊖.
    Anti,
    /// Potential conflict dependency ⊗.
    Conflict,
}

impl std::fmt::Display for SsgLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SsgLabel::So => write!(f, "so"),
            SsgLabel::Dep => write!(f, "⊕"),
            SsgLabel::Anti => write!(f, "⊖"),
            SsgLabel::Conflict => write!(f, "⊗"),
        }
    }
}

/// An edge of an SSG, with the witnessing abstract event pair
/// (local indices in the source/target transactions; `usize::MAX` for so).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsgEdge {
    /// Source node.
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Label.
    pub label: SsgLabel,
    /// Witnessing event in the source transaction.
    pub src_event: usize,
    /// Witnessing event in the target transaction.
    pub tgt_event: usize,
}

/// A static serialization graph.
#[derive(Debug, Clone)]
pub struct Ssg {
    /// Number of nodes.
    pub n: usize,
    /// The edges, grouped by `(from, to)` ascending, with at most one
    /// edge per label in a group (the first witness).
    edges: Vec<SsgEdge>,
    /// `edges[starts[v]..starts[v + 1]]` are the outgoing edges of `v`.
    starts: Vec<usize>,
}

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tv {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown.
    Maybe,
}

impl Tv {
    fn not(self) -> Tv {
        match self {
            Tv::True => Tv::False,
            Tv::False => Tv::True,
            Tv::Maybe => Tv::Maybe,
        }
    }
    fn and(self, o: Tv) -> Tv {
        match (self, o) {
            (Tv::False, _) | (_, Tv::False) => Tv::False,
            (Tv::True, Tv::True) => Tv::True,
            _ => Tv::Maybe,
        }
    }
    fn or(self, o: Tv) -> Tv {
        match (self, o) {
            (Tv::True, _) | (_, Tv::True) => Tv::True,
            (Tv::False, Tv::False) => Tv::False,
            _ => Tv::Maybe,
        }
    }
}

/// Relationship between the two instances hosting the two events of a
/// formula evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCtx {
    /// Same transaction instance (⇒ shared parameters and results).
    pub same_instance: bool,
    /// Same session (⇒ shared session-local constants).
    pub same_session: bool,
    /// Whether the two events are the same occurrence (same instance and
    /// same local event index) — relevant for fresh-row identity.
    pub same_event: bool,
}

impl PairCtx {
    /// Context for two events of distinct instances on distinct sessions.
    pub fn distinct() -> Self {
        PairCtx { same_instance: false, same_session: false, same_event: false }
    }
}

/// Three-valued equality of two symbolic arguments under a pair context.
pub fn tv_arg_eq(a: &AbsArg, b: &AbsArg, ctx: PairCtx) -> Tv {
    use AbsArg::*;
    match (a, b) {
        (Const(x), Const(y)) => {
            if x == y {
                Tv::True
            } else {
                Tv::False
            }
        }
        (Global(g), Global(h)) if g == h => Tv::True,
        (Local(l), Local(m)) if l == m && ctx.same_session => Tv::True,
        (Param(p), Param(q)) if p == q && ctx.same_instance => Tv::True,
        (Ret(r), Ret(s)) if r == s && ctx.same_instance => Tv::True,
        // Fresh rows: same creation event in the same instance ⇒ equal;
        // two distinct add_row occurrences ⇒ definitely distinct.
        (RowOf(r), RowOf(s)) => {
            if r == s && ctx.same_instance {
                Tv::True
            } else {
                Tv::False
            }
        }
        _ => Tv::Maybe,
    }
}

/// Kleene evaluation of a rewrite-spec formula over two abstract events.
pub fn tv_eval(
    f: &SpecFormula,
    src: &AbsEventSpec,
    tgt: &AbsEventSpec,
    ctx: PairCtx,
) -> Tv {
    use c4_algebra::{ArgTerm, Side};
    fn term<'a>(
        t: &'a ArgTerm,
        src: &'a AbsEventSpec,
        tgt: &'a AbsEventSpec,
    ) -> Option<&'a AbsArg> {
        match t {
            ArgTerm::Arg(Side::Src, i) => src.args.get(*i),
            ArgTerm::Arg(Side::Tgt, i) => tgt.args.get(*i),
            _ => None,
        }
    }
    match f {
        SpecFormula::True => Tv::True,
        SpecFormula::False => Tv::False,
        SpecFormula::Eq(a, b) => match (term(a, src, tgt), term(b, src, tgt)) {
            (Some(x), Some(y)) => {
                // Orient the context: if the terms come from the same side,
                // they are within one event (same instance & occurrence).
                let same_side = matches!(
                    (a, b),
                    (ArgTerm::Arg(Side::Src, _), ArgTerm::Arg(Side::Src, _))
                        | (ArgTerm::Arg(Side::Tgt, _), ArgTerm::Arg(Side::Tgt, _))
                );
                let c = if same_side {
                    PairCtx { same_instance: true, same_session: true, same_event: true }
                } else {
                    ctx
                };
                tv_arg_eq(x, y, c)
            }
            // Return values and constants in spec atoms: statically unknown.
            _ => match (a, b) {
                (ArgTerm::Const(x), ArgTerm::Const(y)) => {
                    if x == y {
                        Tv::True
                    } else {
                        Tv::False
                    }
                }
                _ => Tv::Maybe,
            },
        },
        SpecFormula::Not(g) => tv_eval(g, src, tgt, ctx).not(),
        SpecFormula::And(fs) => fs
            .iter()
            .fold(Tv::True, |acc, g| acc.and(tv_eval(g, src, tgt, ctx))),
        SpecFormula::Or(fs) => fs
            .iter()
            .fold(Tv::False, |acc, g| acc.or(tv_eval(g, src, tgt, ctx))),
    }
}

/// Whether `¬com(src, tgt)` is satisfiable (Kleene over-approximation).
pub fn may_not_commute(
    far: &FarSpec,
    src: &AbsEventSpec,
    tgt: &AbsEventSpec,
    ctx: PairCtx,
) -> bool {
    let f = far.far_commutes(&src.sig(), &tgt.sig());
    tv_eval(&f, src, tgt, ctx) != Tv::True
}

/// Whether `¬abs(src, tgt)` is satisfiable (SC2a ingredient).
pub fn may_not_absorb(
    far: &FarSpec,
    src: &AbsEventSpec,
    tgt: &AbsEventSpec,
    ctx: PairCtx,
) -> bool {
    let f = far.far_absorbs(&src.sig(), &tgt.sig());
    tv_eval(&f, src, tgt, ctx) != Tv::True
}

/// Precomputed Kleene satisfiability of `¬com` / `¬abs` between every
/// pair of (unfolded) abstract events, per pair context. Makes SSG
/// construction over millions of unfoldings a table lookup.
#[derive(Debug, Clone)]
pub struct PairTables {
    offsets: Vec<usize>,
    total: usize,
    /// `[diff_session, same_session]` × (event × event) → may-not-commute.
    notcom: [Vec<bool>; 2],
    /// Same, for may-not-absorb (update pairs; false elsewhere).
    notabs: [Vec<bool>; 2],
    /// Same-instance variants (same transaction, shared parameters).
    notcom_same_inst: Vec<bool>,
    notabs_same_inst: Vec<bool>,
    /// Per ordered tx pair and session-equality: whether any event pair
    /// yields an Anti (resp. Conflict) edge — used for fast rejection.
    pub anti_possible: [Vec<bool>; 2],
    /// See [`PairTables::anti_possible`].
    pub conflict_possible: [Vec<bool>; 2],
    /// `[diff_session, same_session]` × ordered tx pair → the dependency
    /// edges `(label, src_event, tgt_event)` between two distinct
    /// instances of the pair: the first event pair in enumeration order
    /// for each label, so at most one edge per label. Instance-level SSG
    /// edges depend only on the body pair and session equality, so
    /// [`Ssg::of_unfolding`] appends a precomputed template per instance
    /// pair instead of re-scanning event pairs.
    templates: [Vec<Vec<(SsgLabel, usize, usize)>>; 2],
    n_tx: usize,
}

impl PairTables {
    /// Computes the tables for the unfolded transaction bodies.
    pub fn compute(txs: &[AbsTx], far: &FarSpec) -> Self {
        let _stage = c4_obs::stage(c4_obs::Stage::PairTables);
        let n_tx = txs.len();
        let mut offsets = Vec::with_capacity(n_tx + 1);
        let mut total = 0usize;
        for tx in txs {
            offsets.push(total);
            total += tx.events.len();
        }
        offsets.push(total);
        let idx = |a: usize, ea: usize, b: usize, eb: usize, offsets: &[usize]| {
            (offsets[a] + ea) * total + offsets[b] + eb
        };
        let mut notcom = [vec![false; total * total], vec![false; total * total]];
        let mut notabs = [vec![false; total * total], vec![false; total * total]];
        let mut notcom_si = vec![false; total * total];
        let mut notabs_si = vec![false; total * total];
        let mut anti_possible = [vec![false; n_tx * n_tx], vec![false; n_tx * n_tx]];
        let mut conflict_possible = [vec![false; n_tx * n_tx], vec![false; n_tx * n_tx]];
        let mut templates = [vec![Vec::new(); n_tx * n_tx], vec![Vec::new(); n_tx * n_tx]];
        for (a, ta) in txs.iter().enumerate() {
            for (b, tb) in txs.iter().enumerate() {
                for (ea, e) in ta.events.iter().enumerate() {
                    for (eb, f) in tb.events.iter().enumerate() {
                        let i = idx(a, ea, b, eb, &offsets);
                        for (same_sess, slot) in [(false, 0usize), (true, 1usize)] {
                            let ctx = PairCtx {
                                same_instance: false,
                                same_session: same_sess,
                                same_event: false,
                            };
                            let nc = may_not_commute(far, e, f, ctx);
                            notcom[slot][i] = nc;
                            notabs[slot][i] = may_not_absorb(far, e, f, ctx);
                            if nc {
                                if e.kind.is_query() && f.kind.is_update() {
                                    anti_possible[slot][a * n_tx + b] = true;
                                }
                                if e.kind.is_update() && f.kind.is_update() {
                                    conflict_possible[slot][a * n_tx + b] = true;
                                }
                                if let Some(label) = dependency_label(e, f) {
                                    let template = &mut templates[slot][a * n_tx + b];
                                    if template.iter().all(|&(l, _, _)| l != label) {
                                        template.push((label, ea, eb));
                                    }
                                }
                            }
                        }
                        if a == b {
                            let ctx = PairCtx {
                                same_instance: true,
                                same_session: true,
                                same_event: ea == eb,
                            };
                            notcom_si[i] = may_not_commute(far, e, f, ctx);
                            notabs_si[i] = may_not_absorb(far, e, f, ctx);
                        }
                    }
                }
            }
        }
        PairTables {
            offsets,
            total,
            notcom,
            notabs,
            notcom_same_inst: notcom_si,
            notabs_same_inst: notabs_si,
            anti_possible,
            conflict_possible,
            templates,
            n_tx,
        }
    }

    /// The precomputed dependency edges between distinct instances of
    /// bodies `a` (source) and `b` (target) under the given session
    /// equality. See [`PairTables::templates`].
    pub fn template(&self, a: usize, b: usize, same_session: bool) -> &[(SsgLabel, usize, usize)] {
        &self.templates[same_session as usize][a * self.n_tx + b]
    }

    fn index(&self, a: usize, ea: usize, b: usize, eb: usize) -> usize {
        (self.offsets[a] + ea) * self.total + self.offsets[b] + eb
    }

    /// Whether `¬com` may hold between event `ea` of transaction `a` and
    /// event `eb` of transaction `b` under the given context.
    pub fn notcom(&self, a: usize, ea: usize, b: usize, eb: usize, ctx: PairCtx) -> bool {
        if ctx.same_instance {
            self.notcom_same_inst[self.index(a, ea, b, eb)]
        } else {
            self.notcom[ctx.same_session as usize][self.index(a, ea, b, eb)]
        }
    }

    /// Whether `¬abs` may hold (see [`PairTables::notcom`]).
    pub fn notabs(&self, a: usize, ea: usize, b: usize, eb: usize, ctx: PairCtx) -> bool {
        if ctx.same_instance {
            self.notabs_same_inst[self.index(a, ea, b, eb)]
        } else {
            self.notabs[ctx.same_session as usize][self.index(a, ea, b, eb)]
        }
    }

    /// Whether any ⊖ edge can exist from `a` to `b` instances.
    pub fn anti_between(&self, a: usize, b: usize, same_session: bool) -> bool {
        self.anti_possible[same_session as usize][a * self.n_tx + b]
    }

    /// Whether any ⊗ edge can exist from `a` to `b` instances.
    pub fn conflict_between(&self, a: usize, b: usize, same_session: bool) -> bool {
        self.conflict_possible[same_session as usize][a * self.n_tx + b]
    }
}

impl Ssg {
    /// Builds an SSG over `n` nodes from the edges `pair(i, j, edges)`
    /// pushes for each ordered node pair, visited in ascending order, so
    /// the edges come out grouped by `(from, to)`.
    fn build(n: usize, mut pair: impl FnMut(usize, usize, &mut Vec<SsgEdge>)) -> Ssg {
        let mut edges = Vec::new();
        let mut starts = Vec::with_capacity(n + 1);
        for i in 0..n {
            starts.push(edges.len());
            for j in 0..n {
                pair(i, j, &mut edges);
            }
        }
        starts.push(edges.len());
        Ssg { n, edges, starts }
    }

    /// Builds the SSG of an unfolding: nodes are the transaction
    /// instances, and each instance pair gets its so edge and the
    /// precomputed dependency template of its body pair.
    pub fn of_unfolding(u: &Unfolding, tables: &PairTables) -> Ssg {
        Ssg::build(u.instances.len(), |i, j, edges| {
            if i == j {
                return;
            }
            if u.so(i, j) {
                edges.push(SsgEdge::so(i, j));
            }
            let (a, b) = (&u.instances[i], &u.instances[j]);
            for &(label, ei, fi) in tables.template(a.orig_tx, b.orig_tx, a.session == b.session) {
                edges.push(SsgEdge { from: i, to: j, label, src_event: ei, tgt_event: fi });
            }
        })
    }

    /// Builds the program-level SSG (Definition 3): nodes are the abstract
    /// transactions, with conservative pair contexts (distinct instances).
    pub fn of_program(h: &AbstractHistory, far: &FarSpec) -> Ssg {
        Ssg::build(h.txs.len(), |i, j, edges| {
            if h.so.contains(&(i, j)) {
                edges.push(SsgEdge::so(i, j));
            }
            // For i == j the pair abstracts two *distinct* concrete
            // instances of the same transaction, so ei == fi is a
            // legitimate pair (e.g. the put ⊗ put self-loop of Figure 1b).
            let group = edges.len();
            for (ei, e) in h.txs[i].events.iter().enumerate() {
                for (fi, f) in h.txs[j].events.iter().enumerate() {
                    let Some(label) = dependency_label(e, f) else { continue };
                    if edges[group..].iter().all(|e| e.label != label)
                        && may_not_commute(far, e, f, PairCtx::distinct())
                    {
                        edges.push(SsgEdge { from: i, to: j, label, src_event: ei, tgt_event: fi });
                    }
                }
            }
        })
    }

    /// All edges, grouped by `(from, to)` ascending, at most one per
    /// label within a group.
    pub fn edges(&self) -> &[SsgEdge] {
        &self.edges
    }

    /// Outgoing edges of a node, grouped by target ascending.
    pub fn outgoing(&self, v: usize) -> &[SsgEdge] {
        &self.edges[self.starts[v]..self.starts[v + 1]]
    }

    /// The strongly connected components (as node sets), including
    /// single nodes with self-loops.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let adj: Vec<Vec<usize>> =
            (0..self.n).map(|v| self.outgoing(v).iter().map(|e| e.to).collect()).collect();
        crate::unfold::tarjan(self.n, &adj)
            .into_iter()
            .filter(|scc| scc.len() > 1 || adj[scc[0]].contains(&scc[0]))
            .collect()
    }

    /// Whether the graph contains any cycle at all.
    pub fn has_cycle(&self) -> bool {
        !self.sccs().is_empty()
    }
}

impl SsgEdge {
    fn so(from: usize, to: usize) -> SsgEdge {
        SsgEdge { from, to, label: SsgLabel::So, src_event: usize::MAX, tgt_event: usize::MAX }
    }
}

/// The label of a dependency edge from an `e` event to an `f` event;
/// `None` for two queries, which far-commute.
fn dependency_label(e: &AbsEventSpec, f: &AbsEventSpec) -> Option<SsgLabel> {
    match (e.kind.is_update(), f.kind.is_update()) {
        (true, false) => Some(SsgLabel::Dep),
        (false, true) => Some(SsgLabel::Anti),
        (true, true) => Some(SsgLabel::Conflict),
        (false, false) => None,
    }
}

/// A candidate cycle in an unfolding's SSG: instance indices and the label
/// (with witnesses) chosen for each step `nodes[i] → nodes[(i+1)%m]`. The
/// encoder's input, materialized from [`Candidates`] for a candidate that
/// is solved.
#[derive(Debug, Clone)]
pub struct CandidateCycle {
    /// The instance indices, in cycle order.
    pub nodes: Vec<usize>,
    /// The SSG edge used for each step.
    pub steps: Vec<SsgEdge>,
}

impl CandidateCycle {
    /// SC1: at least two ⊖ steps, or a ⊖ and a ⊗ step.
    pub fn satisfies_sc1(&self) -> bool {
        sc1(self.steps.iter().map(|e| e.label))
    }
}

/// SC1 over a cycle's step labels.
fn sc1(labels: impl Iterator<Item = SsgLabel>) -> bool {
    let (mut anti, mut conflict) = (0usize, 0usize);
    for label in labels {
        anti += (label == SsgLabel::Anti) as usize;
        conflict += (label == SsgLabel::Conflict) as usize;
    }
    anti >= 2 || (anti >= 1 && conflict >= 1)
}

/// The candidate cycles of one unfolding, in enumeration order, stored
/// compactly with the SSG they run through: a candidate is the run of
/// its steps' edge indices into that SSG, and a step's source node is
/// its edge's `from`. No candidate owns a heap block; the checker
/// materializes one as a [`CandidateCycle`] for the encoder, and
/// [`Candidates::cycles`] materializes them all.
#[derive(Debug, Clone)]
pub struct Candidates {
    ssg: Ssg,
    /// Every candidate's steps, concatenated.
    steps: Vec<u32>,
    /// `steps[ends[i - 1]..ends[i]]` are candidate `i`'s steps (from 0
    /// for `i = 0`).
    ends: Vec<u32>,
}

impl Default for Candidates {
    /// No candidates, over the empty graph (which has no node whose
    /// `starts` entry could be read, so it allocates none).
    fn default() -> Self {
        let ssg = Ssg { n: 0, edges: Vec::new(), starts: Vec::new() };
        Candidates { ssg, steps: Vec::new(), ends: Vec::new() }
    }
}

impl Candidates {
    /// The number of candidates.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The SSG the candidates run through (the empty graph when there
    /// are none).
    pub(crate) fn ssg(&self) -> &Ssg {
        &self.ssg
    }

    /// Candidate `i`'s steps, as edge indices into [`Candidates::ssg`].
    pub(crate) fn steps(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.steps[start..self.ends[i] as usize]
    }

    /// Candidate `i`'s step edges, in cycle order.
    pub(crate) fn edges(&self, i: usize) -> impl Iterator<Item = &SsgEdge> + '_ {
        self.steps(i).iter().map(|&e| &self.ssg.edges[e as usize])
    }

    /// Candidate `i`, materialized.
    pub(crate) fn cycle(&self, i: usize) -> CandidateCycle {
        CandidateCycle {
            nodes: self.edges(i).map(|e| e.from).collect(),
            steps: self.edges(i).cloned().collect(),
        }
    }

    /// Every candidate, materialized, in order.
    pub fn cycles(&self) -> impl Iterator<Item = CandidateCycle> + '_ {
        (0..self.len()).map(|i| self.cycle(i))
    }

    /// Keeps the first `n` candidates.
    pub(crate) fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.ends.truncate(n);
            self.steps.truncate(self.ends.last().map_or(0, |&e| e as usize));
        }
    }
}

/// Theorem 3 applied to an unfolding: the SC2 conditions over the
/// transactions of a node set.
pub fn satisfies_sc2(u: &Unfolding, nodes: &[usize], tables: &PairTables) -> bool {
    // Collect (instance, event) pairs.
    let events: Vec<(usize, usize)> = nodes
        .iter()
        .flat_map(|&ni| (0..u.tx(ni).events.len()).map(move |ei| (ni, ei)))
        .collect();
    let ev = |ni: usize, ei: usize| &u.tx(ni).events[ei];
    let ctx = |a: usize, b: usize, ea: usize, eb: usize| PairCtx {
        same_instance: a == b,
        same_session: u.instances[a].session == u.instances[b].session,
        same_event: a == b && ea == eb,
    };
    let body = |ni: usize| u.instances[ni].orig_tx;
    let notcom = |(ni, ei): (usize, usize), (nj, ej): (usize, usize)| {
        tables.notcom(body(ni), ei, body(nj), ej, ctx(ni, nj, ei, ej))
    };
    // SC2a: two updates that may fail to absorb.
    for &(ni, ei) in &events {
        if !ev(ni, ei).kind.is_update() {
            continue;
        }
        for &(nj, ej) in &events {
            if !ev(nj, ej).kind.is_update() {
                continue;
            }
            if tables.notabs(body(ni), ei, body(nj), ej, ctx(ni, nj, ei, ej)) {
                return true;
            }
        }
    }
    // SC2b: q eo+→ u within one instance, with ¬com(u, e) and ¬com(q, v)
    // satisfiable for some events e, v of the component.
    for &ni in nodes {
        let tx = &u.tx(ni);
        let order = u.arena.reach(body(ni) as crate::intern::BodyId);
        for qi in 0..tx.events.len() {
            if !tx.events[qi].kind.is_query() {
                continue;
            }
            for ui in 0..tx.events.len() {
                if !tx.events[ui].kind.is_update() || !order[qi][ui] {
                    continue;
                }
                let u_has_conflict = events.iter().any(|&e| notcom((ni, ui), e));
                let q_has_conflict = events
                    .iter()
                    .any(|&(nj, ej)| ev(nj, ej).kind.is_update() && notcom((ni, qi), (nj, ej)));
                if u_has_conflict && q_has_conflict {
                    return true;
                }
            }
        }
    }
    false
}

/// eo⁺ reachability between events of an (acyclic) transaction.
pub fn eo_reachability(tx: &AbsTx) -> Vec<Vec<bool>> {
    use crate::abstract_history::Node;
    let n = tx.events.len();
    let mut reach = vec![vec![false; n]; n];
    for e in &tx.edges {
        if let (Node::Event(a), Node::Event(b)) = (e.src, e.tgt) {
            reach[a as usize][b as usize] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                for j in 0..n {
                    if reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
    }
    reach
}

/// Enumerates the candidate cycles of an unfolding's SSG that pass SC1 and
/// SC2 — the inputs to the SMT stage.
///
/// One depth-first walk per start node visits every simple cycle whose
/// smallest node is the start exactly once, following distinct
/// successors in ascending order. The start is the smallest successor
/// the walk may take, so a closed cycle is emitted before any extension
/// of the same path: node cycles come out in lexicographic order, each
/// once. A step's label options are the `(from, to)` group of the
/// edges; a cycle that passes SC2 yields every SC1-passing choice of
/// one edge per step, the first step's choice varying fastest.
pub fn candidate_cycles(u: &Unfolding, ssg: Ssg, tables: &PairTables) -> Candidates {
    let mut walk = CycleWalk {
        u,
        ssg: &ssg,
        tables,
        path: Vec::new(),
        on_path: vec![false; ssg.n],
        options: Vec::new(),
        choice: Vec::new(),
        steps: Vec::new(),
        ends: Vec::new(),
    };
    for start in 0..ssg.n {
        walk.path.push(start);
        walk.visit(start);
        walk.path.pop();
    }
    let CycleWalk { steps, ends, .. } = walk;
    if ends.is_empty() {
        // Class records outlive the unfolding; keep no graph for them
        // that no candidate runs through.
        return Candidates::default();
    }
    Candidates { ssg, steps, ends }
}

/// The state of [`candidate_cycles`]'s walk.
struct CycleWalk<'a> {
    u: &'a Unfolding,
    ssg: &'a Ssg,
    tables: &'a PairTables,
    /// The current path; `path[0]` is the start.
    path: Vec<usize>,
    /// Membership of the nodes after the start in `path`.
    on_path: Vec<bool>,
    /// The edge group of each step taken along `path`, as `(first edge
    /// index, group size)`.
    options: Vec<(u32, u32)>,
    /// Scratch: the label-choice counter of [`CycleWalk::emit`].
    choice: Vec<u32>,
    /// The output, laid out as in [`Candidates`].
    steps: Vec<u32>,
    ends: Vec<u32>,
}

impl<'a> CycleWalk<'a> {
    fn visit(&mut self, v: usize) {
        let start = self.path[0];
        let ssg = self.ssg;
        let mut first = u32::try_from(ssg.starts[v]).expect("SSG edge indices fit in u32");
        for group in ssg.outgoing(v).chunk_by(|a, b| a.to == b.to) {
            let w = group[0].to;
            let option = (first, group.len() as u32);
            first += option.1;
            if w == start {
                if self.path.len() >= 2 {
                    self.options.push(option);
                    self.emit();
                    self.options.pop();
                }
            } else if w > start && !self.on_path[w] {
                self.options.push(option);
                self.path.push(w);
                self.on_path[w] = true;
                self.visit(w);
                self.on_path[w] = false;
                self.path.pop();
                self.options.pop();
            }
        }
    }

    /// Emits the closed cycle `path`: its SC2 check, then the
    /// SC1-filtered product of its steps' label options.
    fn emit(&mut self) {
        if !satisfies_sc2(self.u, &self.path, self.tables) {
            return;
        }
        let m = self.path.len();
        self.choice.clear();
        self.choice.resize(m, 0);
        loop {
            let chosen = |i: usize| self.options[i].0 + self.choice[i];
            if sc1((0..m).map(|i| self.ssg.edges[chosen(i) as usize].label)) {
                self.steps.extend((0..m).map(chosen));
                self.ends.push(u32::try_from(self.steps.len()).expect("candidate steps fit in u32"));
            }
            // Advance the mixed-radix counter.
            let mut i = 0;
            loop {
                if i == m {
                    return;
                }
                self.choice[i] += 1;
                if self.choice[i] < self.options[i].1 {
                    break;
                }
                self.choice[i] = 0;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_history::{ev, straight_line_tx};
    use crate::unfold::{arena_for, unfoldings};
    use c4_algebra::{Alphabet, RewriteSpec};
    use c4_store::op::OpKind;

    fn figure1a(key_arg: AbsArg, key_arg_get: AbsArg) -> AbstractHistory {
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "P",
            vec!["x".into(), "y".into()],
            vec![ev("M", OpKind::MapPut, vec![key_arg, AbsArg::Param(1)])],
        ));
        h.add_tx(straight_line_tx(
            "G",
            vec!["z".into()],
            vec![ev("M", OpKind::MapGet, vec![key_arg_get])],
        ));
        h.free_session_order();
        h
    }

    fn far_for(h: &AbstractHistory) -> FarSpec {
        let alphabet: Alphabet = h.alphabet();
        FarSpec::compute(RewriteSpec::new(), &alphabet)
    }

    fn tables_for(h: &AbstractHistory) -> (std::sync::Arc<crate::intern::TxArena>, PairTables) {
        let arena = arena_for(h);
        let tables = PairTables::compute(arena.bodies(), &far_for(h));
        (arena, tables)
    }

    /// The one-pass walk against the collect-sort-dedup reference on
    /// every k-unfolding: same node sequences, same steps, same order.
    fn assert_matches_reference(h: &AbstractHistory, k: usize) -> usize {
        let (arena, tables) = tables_for(h);
        let mut total = 0;
        for u in unfoldings(h, &arena, k) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            let want = reference::candidate_cycles(&u, &ssg, &tables);
            let got = candidate_cycles(&u, ssg, &tables);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.cycles().zip(&want) {
                assert_eq!(g.nodes, w.nodes);
                assert_eq!(g.steps, w.steps);
            }
            total += got.len();
        }
        total
    }

    #[test]
    fn figure1b_program_ssg() {
        // Free keys: the SSG has ⊕/⊖/⊗ edges and cycles (Figure 1b).
        let h = figure1a(AbsArg::Param(0), AbsArg::Param(0));
        let far = far_for(&h);
        let ssg = Ssg::of_program(&h, &far);
        assert!(ssg.has_cycle());
        let labels: std::collections::HashSet<_> =
            ssg.edges().iter().map(|e| e.label).collect();
        assert!(labels.contains(&SsgLabel::Dep));
        assert!(labels.contains(&SsgLabel::Anti));
        assert!(labels.contains(&SsgLabel::Conflict)); // put ⊗ put self-loop
        assert!(labels.contains(&SsgLabel::So));
    }

    #[test]
    fn global_key_kills_sc2() {
        // Section 6: with the key a global constant, put events always
        // absorb each other and no transaction has a query before an
        // update — SC2 fails, the program is proved serializable by the
        // SSG stage alone.
        let mut h = AbstractHistory::new();
        let g = h.global("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![g.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![g])]));
        h.free_session_order();
        let (arena, tables) = tables_for(&h);
        for u in unfoldings(&h, &arena, 2) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            let cands = candidate_cycles(&u, ssg, &tables);
            assert!(cands.is_empty(), "global-key program must have no candidates");
        }
    }

    #[test]
    fn local_key_keeps_candidates() {
        // With session-local keys the SSG stage cannot rule out cycles
        // (Section 6: the two puts may use different keys).
        let mut h = AbstractHistory::new();
        let l = h.local("u");
        h.add_tx(straight_line_tx(
            "P",
            vec!["y".into()],
            vec![ev("M", OpKind::MapPut, vec![l.clone(), AbsArg::Param(0)])],
        ));
        h.add_tx(straight_line_tx("G", vec![], vec![ev("M", OpKind::MapGet, vec![l])]));
        h.free_session_order();
        let (arena, tables) = tables_for(&h);
        let mut any = false;
        for u in unfoldings(&h, &arena, 2) {
            let ssg = Ssg::of_unfolding(&u, &tables);
            any |= !candidate_cycles(&u, ssg, &tables).is_empty();
        }
        assert!(any, "local-key program must keep candidate cycles");
    }

    #[test]
    fn sc1_requires_anti_dependencies() {
        let c = CandidateCycle {
            nodes: vec![0, 1],
            steps: vec![
                SsgEdge { from: 0, to: 1, label: SsgLabel::Dep, src_event: 0, tgt_event: 0 },
                SsgEdge { from: 1, to: 0, label: SsgLabel::So, src_event: 0, tgt_event: 0 },
            ],
        };
        assert!(!c.satisfies_sc1());
        let c2 = CandidateCycle {
            nodes: vec![0, 1],
            steps: vec![
                SsgEdge { from: 0, to: 1, label: SsgLabel::Anti, src_event: 0, tgt_event: 0 },
                SsgEdge { from: 1, to: 0, label: SsgLabel::Anti, src_event: 0, tgt_event: 0 },
            ],
        };
        assert!(c2.satisfies_sc1());
        let c3 = CandidateCycle {
            nodes: vec![0, 1],
            steps: vec![
                SsgEdge { from: 0, to: 1, label: SsgLabel::Anti, src_event: 0, tgt_event: 0 },
                SsgEdge { from: 1, to: 0, label: SsgLabel::Conflict, src_event: 0, tgt_event: 0 },
            ],
        };
        assert!(c3.satisfies_sc1());
    }

    #[test]
    fn fresh_rows_evaluate_distinct() {
        let a = ev("T", OpKind::TblAddRow, vec![AbsArg::RowOf(0)]);
        assert_eq!(
            tv_arg_eq(&AbsArg::RowOf(0), &AbsArg::RowOf(0), PairCtx::distinct()),
            Tv::False
        );
        let same_inst = PairCtx { same_instance: true, same_session: true, same_event: false };
        assert_eq!(tv_arg_eq(&AbsArg::RowOf(0), &AbsArg::RowOf(0), same_inst), Tv::True);
        assert_eq!(tv_arg_eq(&AbsArg::RowOf(0), &AbsArg::RowOf(1), same_inst), Tv::False);
        let _ = a;
    }

    #[test]
    fn counter_program_has_conflict_free_ssg() {
        // Two increment-only transactions: inc commutes with inc, so only
        // so edges appear and the unfoldings have no candidate cycles.
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "I",
            vec!["n".into()],
            vec![ev("C", OpKind::CtrInc, vec![AbsArg::Param(0)])],
        ));
        h.free_session_order();
        let far = far_for(&h);
        let ssg = Ssg::of_program(&h, &far);
        assert!(ssg.edges().iter().all(|e| e.label == SsgLabel::So));
    }

    #[test]
    fn several_labels_on_one_pair_enumerate_like_the_reference() {
        // A read-then-write of one keyed entry: between two instances
        // the pair carries ⊕, ⊖ and ⊗ at once (plus so within a
        // session), so every node cycle has several label choices.
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "T",
            vec!["k".into(), "v".into()],
            vec![
                ev("M", OpKind::MapGet, vec![AbsArg::Param(0)]),
                ev("M", OpKind::MapPut, vec![AbsArg::Param(0), AbsArg::Param(1)]),
            ],
        ));
        h.free_session_order();
        let (arena, tables) = tables_for(&h);
        let u = unfoldings(&h, &arena, 2)
            .find(|u| u.instances.len() == 2 && !u.so(0, 1))
            .expect("an unfolding of two sessions");
        let ssg = Ssg::of_unfolding(&u, &tables);
        let labels: Vec<SsgLabel> = ssg.outgoing(0).iter().map(|e| e.label).collect();
        assert_eq!(labels, [SsgLabel::Anti, SsgLabel::Dep, SsgLabel::Conflict]);
        let cands: Vec<CandidateCycle> = candidate_cycles(&u, ssg, &tables).cycles().collect();
        // 3 × 3 label choices, of which SC1 keeps those with two ⊖ or a
        // ⊖ and a ⊗: (⊖,⊖), (⊖,⊗), (⊗,⊖).
        let choices: Vec<(SsgLabel, SsgLabel)> =
            cands.iter().map(|c| (c.steps[0].label, c.steps[1].label)).collect();
        assert_eq!(
            choices,
            [
                (SsgLabel::Anti, SsgLabel::Anti),
                (SsgLabel::Conflict, SsgLabel::Anti),
                (SsgLabel::Anti, SsgLabel::Conflict),
            ]
        );
        assert!(cands.iter().all(|c| c.nodes == [0, 1]));
        assert!(assert_matches_reference(&h, 2) > 0);
        assert!(assert_matches_reference(&h, 3) > 0);
    }

    #[test]
    fn figure1a_enumerates_like_the_reference() {
        let h = figure1a(AbsArg::Param(0), AbsArg::Param(0));
        assert!(assert_matches_reference(&h, 2) > 0);
        assert!(assert_matches_reference(&h, 3) > 0);
    }
}
