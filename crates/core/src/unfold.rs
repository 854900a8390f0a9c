//! k-unfoldings of abstract histories (Section 7.1) and the Definition 4
//! transaction unfolding.
//!
//! A k-unfolding arranges copies of abstract transactions into `k` abstract
//! sessions: each session holds either a single transaction or a pair
//! linked by the abstract session order. Property (U1): every minimal DSG
//! cycle spanning at most `k` sessions maps one-to-one into some
//! k-unfolding (a minimal cycle touches at most two transactions per
//! session). Property (U2): the cycle is realized by a concretization
//! mapping one concrete event per abstract event — which requires cyclic
//! intra-transaction event orders (loops) to be *unfolded* into two copies
//! first (Definition 4).
//!
//! Bodies live in a shared hash-consed [`TxArena`]; an instance stores its
//! original transaction index (which doubles as the arena [`BodyId`])
//! instead of a deep-cloned tree, and the enumeration stays an iterator so
//! the driver can stream it chunk-by-chunk (DESIGN §5.12).

use std::sync::Arc;

use crate::abstract_history::{AbsArg, AbsTx, AbstractHistory, Cond, EoEdge, Node};
use crate::intern::{BodyId, TxArena};

/// One transaction instance within an unfolding.
#[derive(Debug, Clone)]
pub struct UnfoldingInstance {
    /// Index of the original abstract transaction. Doubles as the
    /// [`BodyId`] of the instance's unfolded body in the arena.
    pub orig_tx: usize,
    /// The session (0-based) this instance belongs to.
    pub session: usize,
    /// Position within the session chain (0 or 1).
    pub pos: usize,
}

/// A k-unfolding: an acyclic abstract history organized into `k` sessions.
#[derive(Debug, Clone)]
pub struct Unfolding {
    /// The shared body arena (one per analysis run).
    pub arena: Arc<TxArena>,
    /// The transaction instances.
    pub instances: Vec<UnfoldingInstance>,
    /// Number of sessions.
    pub k: usize,
}

impl Unfolding {
    /// The (acyclic) unfolded body of instance `i`.
    pub fn tx(&self, i: usize) -> &AbsTx {
        self.arena.body(self.instances[i].orig_tx as BodyId)
    }

    /// Session order between two instances.
    pub fn so(&self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.instances[i], &self.instances[j]);
        a.session == b.session && a.pos < b.pos
    }

    /// The multiset of original transaction indices.
    pub fn orig_txs(&self) -> Vec<usize> {
        self.instances.iter().map(|i| i.orig_tx).collect()
    }

    /// Per-session structural fingerprints: each session's chain of body
    /// shapes packed as `(shape₀+1) << 32 | (shape₁+1 or 0)`. Two
    /// unfoldings with the same fingerprint at session `s` carry
    /// structurally identical bodies there (names aside), so every
    /// analysis stage behaves identically on that session.
    pub fn fp_seq(&self) -> Vec<u64> {
        let mut fp = Vec::new();
        self.fp_seq_into(&mut fp);
        fp
    }

    /// [`Unfolding::fp_seq`] into a reused buffer.
    pub(crate) fn fp_seq_into(&self, fp: &mut Vec<u64>) {
        fp.clear();
        fp.resize(self.k, 0);
        for inst in &self.instances {
            let shape = self.arena.shape(inst.orig_tx as BodyId) as u64 + 1;
            if inst.pos == 0 {
                fp[inst.session] |= shape << 32;
            } else {
                fp[inst.session] |= shape;
            }
        }
    }

    /// Canonical form under session permutation: the sorted fingerprint
    /// sequence. Two unfoldings are symmetric (identical up to renaming
    /// sessions) exactly when their canonical keys match, since sessions
    /// carry no identity beyond their body chains.
    pub fn canonical_key(&self) -> Vec<u64> {
        let mut key = self.fp_seq();
        key.sort_unstable();
        key
    }
}

/// A per-session choice: one transaction, or an so-linked pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionChoice {
    /// A single transaction instance.
    Single(usize),
    /// Two instances, `first so→ second`.
    Pair(usize, usize),
}

/// Enumerates the session choices of an abstract history.
pub fn session_choices(h: &AbstractHistory) -> Vec<SessionChoice> {
    let mut out: Vec<SessionChoice> = (0..h.txs.len()).map(SessionChoice::Single).collect();
    let mut pairs: Vec<(usize, usize)> = h.so.clone();
    pairs.sort_unstable();
    pairs.dedup();
    out.extend(pairs.into_iter().map(|(s, t)| SessionChoice::Pair(s, t)));
    out
}

/// Builds the shared body arena of an abstract history: every transaction
/// unfolded per Definition 4, hash-consed so `BodyId == tx index`.
pub fn arena_for(h: &AbstractHistory) -> Arc<TxArena> {
    let _stage = c4_obs::stage(c4_obs::Stage::InternArena);
    Arc::new(TxArena::build(unfold_all(h)))
}

/// Iterator over the k-unfoldings of an abstract history.
///
/// Sessions are symmetric, so choices are enumerated as multisets
/// (non-decreasing index sequences). The iterator is lazy: the driver
/// streams it chunk-by-chunk, so the full set is never resident at once.
pub fn unfoldings<'a>(
    h: &'a AbstractHistory,
    arena: &'a Arc<TxArena>,
    k: usize,
) -> impl Iterator<Item = Unfolding> + 'a {
    let choices = session_choices(h);
    MultisetIter::new(choices.len(), k).map(move |combo| {
        let mut instances = Vec::new();
        for (session, &ci) in combo.iter().enumerate() {
            match choices[ci] {
                SessionChoice::Single(t) => {
                    instances.push(UnfoldingInstance { orig_tx: t, session, pos: 0 });
                }
                SessionChoice::Pair(s, t) => {
                    instances.push(UnfoldingInstance { orig_tx: s, session, pos: 0 });
                    instances.push(UnfoldingInstance { orig_tx: t, session, pos: 1 });
                }
            }
        }
        Unfolding { arena: Arc::clone(arena), instances, k }
    })
}

/// Precomputes the Definition 4 unfolding of every transaction.
pub fn unfold_all(h: &AbstractHistory) -> Vec<AbsTx> {
    h.txs.iter().map(unfold_tx).collect()
}

/// Unfolds a transaction's cyclic event order into an acyclic one
/// (Definition 4): every non-trivial strongly connected component of `eo`
/// is duplicated into two copies, with back edges redirected from the
/// first copy to the second.
pub fn unfold_tx(tx: &AbsTx) -> AbsTx {
    let mut cur = tx.clone();
    loop {
        let Some(scc) = find_nontrivial_scc(&cur) else {
            return cur;
        };
        cur = unfold_scc(&cur, &scc);
    }
}

fn find_nontrivial_scc(tx: &AbsTx) -> Option<Vec<u32>> {
    let n = tx.events.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &tx.edges {
        if let (Node::Event(s), Node::Event(t)) = (e.src, e.tgt) {
            adj[s as usize].push(t as usize);
        }
    }
    let sccs = tarjan(n, &adj);
    for scc in sccs {
        if scc.len() > 1
            || (scc.len() == 1 && adj[scc[0]].contains(&scc[0]))
        {
            return Some(scc.into_iter().map(|v| v as u32).collect());
        }
    }
    None
}

pub(crate) fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    // Small recursive Tarjan over a precomputed adjacency list
    // (transactions are tiny, SSGs are per-unfolding small).
    struct State<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Vec<usize>>,
    }
    fn visit(st: &mut State<'_>, v: usize) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for i in 0..st.adj[v].len() {
            let w = st.adj[v][i];
            if st.index[w].is_none() {
                visit(st, w);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap());
            }
        }
        if Some(st.low[v]) == st.index[v] {
            let mut scc = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            st.out.push(scc);
        }
    }
    let mut st = State {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            visit(&mut st, v);
        }
    }
    st.out
}

/// Performs one SCC unfolding step per Definition 4.
fn unfold_scc(tx: &AbsTx, scc: &[u32]) -> AbsTx {
    let in_scc = |n: Node| matches!(n, Node::Event(i) if scc.contains(&i));
    // Classify edges (borrowed — the originals are only read).
    let mut incoming: Vec<&EoEdge> = Vec::new(); // I: Ev\V → V
    let mut outgoing: Vec<&EoEdge> = Vec::new(); // O: V → Ev\V
    let mut internal: Vec<&EoEdge> = Vec::new(); // edges within V
    let mut external: Vec<&EoEdge> = Vec::new(); // edges not touching V
    for e in &tx.edges {
        match (in_scc(e.src), in_scc(e.tgt)) {
            (false, true) => incoming.push(e),
            (true, false) => outgoing.push(e),
            (true, true) => internal.push(e),
            (false, false) => external.push(e),
        }
    }
    // Back edges: DFS over the SCC subgraph restricted to internal edges.
    let mut color = std::collections::HashMap::new(); // 0 white 1 gray 2 black
    for &v in scc {
        color.insert(v, 0u8);
    }
    let mut back = Vec::new(); // indices into internal
    fn dfs(
        v: u32,
        internal: &[&EoEdge],
        color: &mut std::collections::HashMap<u32, u8>,
        back: &mut Vec<usize>,
    ) {
        color.insert(v, 1);
        for (i, e) in internal.iter().enumerate() {
            if e.src == Node::Event(v) {
                let Node::Event(w) = e.tgt else { unreachable!() };
                match color[&w] {
                    0 => dfs(w, internal, color, back),
                    1 => back.push(i),
                    _ => {}
                }
            }
        }
        color.insert(v, 2);
    }
    let scc_sorted = scc.to_vec();
    for &v in &scc_sorted {
        if color[&v] == 0 {
            dfs(v, &internal, &mut color, &mut back);
        }
    }
    let is_back = |i: usize| back.contains(&i);
    let back_sources: Vec<Node> = back.iter().map(|&i| internal[i].src).collect();
    let back_targets: Vec<Node> = back.iter().map(|&i| internal[i].tgt).collect();

    // Build the new event list: all old events, plus a second copy of V.
    let mut new_events = tx.events.clone();
    let mut copy2: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for &v in scc {
        let id = new_events.len() as u32;
        new_events.push(tx.events[v as usize].clone());
        copy2.insert(v, id);
    }
    // Remapping helpers: copy 1 keeps original indices, copy 2 uses copy2.
    let map_node = |n: Node, copy: u8| -> Node {
        match n {
            Node::Event(i) if copy == 2 && copy2.contains_key(&i) => Node::Event(copy2[&i]),
            other => other,
        }
    };
    // Ret references: inside copy 2, refs to V events point to the copy;
    // refs crossing the copy boundary from outside become Wild (sound
    // over-approximation; the duplicated result is ambiguous).
    let remap_arg_copy2 = |a: &AbsArg| -> AbsArg {
        match a {
            AbsArg::Ret(r) if copy2.contains_key(r) => AbsArg::Ret(copy2[r]),
            AbsArg::RowOf(r) if copy2.contains_key(r) => AbsArg::RowOf(copy2[r]),
            other => other.clone(),
        }
    };
    for &v in scc {
        let id = copy2[&v] as usize;
        let args: Vec<AbsArg> = new_events[id].args.iter().map(&remap_arg_copy2).collect();
        new_events[id].args = args;
    }
    let cond_mentions_scc = |c: &Cond| -> bool {
        let m = |a: &AbsArg| matches!(a, AbsArg::Ret(r) | AbsArg::RowOf(r) if scc.contains(r));
        m(&c.lhs) || m(&c.rhs)
    };
    let strip = |conds: &[Cond]| -> Vec<Cond> {
        conds.iter().filter(|c| !cond_mentions_scc(c)).cloned().collect()
    };
    let remap_conds_copy2 = |conds: &[Cond]| -> Vec<Cond> {
        conds
            .iter()
            .map(|c| Cond {
                lhs: remap_arg_copy2(&c.lhs),
                op: c.op,
                rhs: remap_arg_copy2(&c.rhs),
            })
            .collect()
    };

    let mut new_edges = Vec::new();
    // External edges: kept, but conditions referencing duplicated results
    // are dropped (⊤).
    for e in &external {
        new_edges.push(EoEdge { src: e.src, tgt: e.tgt, cond: strip(&e.cond) });
    }
    // I' = (1×i1)[I ∪ Is×Bt] — incoming edges into copy 1, plus edges from
    // incoming sources to back-edge targets in copy 1. Invariants ⊤.
    for e in &incoming {
        new_edges.push(EoEdge { src: e.src, tgt: e.tgt, cond: vec![] });
        for &bt in &back_targets {
            new_edges.push(EoEdge { src: e.src, tgt: bt, cond: vec![] });
        }
    }
    // B' = (i1×i2)[Bs×Bt] — from copy-1 back-sources to copy-2 back-targets.
    for &bs in &back_sources {
        for &bt in &back_targets {
            new_edges.push(EoEdge { src: bs, tgt: map_node(bt, 2), cond: vec![] });
        }
    }
    // O' = (i1×1)[O] ∪ (i2×1)[O ∪ Bs×Ot].
    for e in &outgoing {
        new_edges.push(EoEdge { src: e.src, tgt: e.tgt, cond: vec![] });
        new_edges.push(EoEdge { src: map_node(e.src, 2), tgt: e.tgt, cond: vec![] });
    }
    for &bs in &back_sources {
        for e in &outgoing {
            new_edges.push(EoEdge { src: map_node(bs, 2), tgt: e.tgt, cond: vec![] });
        }
    }
    // R' — internal non-back edges, duplicated in both copies with their
    // invariants.
    for (i, e) in internal.iter().enumerate() {
        if is_back(i) {
            continue;
        }
        new_edges.push(EoEdge { src: e.src, tgt: e.tgt, cond: e.cond.clone() });
        new_edges.push(EoEdge {
            src: map_node(e.src, 2),
            tgt: map_node(e.tgt, 2),
            cond: remap_conds_copy2(&e.cond),
        });
    }
    // Deduplicate edges.
    let mut seen = std::collections::HashSet::new();
    new_edges.retain(|e| seen.insert((e.src, e.tgt, e.cond.clone())));
    AbsTx { name: tx.name.clone(), params: tx.params.clone(), events: new_events, edges: new_edges }
}

/// Simple multiset-combination iterator: non-decreasing sequences of
/// length `k` over `0..n`.
struct MultisetIter {
    n: usize,
    current: Option<Vec<usize>>,
}

impl MultisetIter {
    fn new(n: usize, k: usize) -> Self {
        let current = if n == 0 && k > 0 { None } else { Some(vec![0; k]) };
        MultisetIter { n, current }
    }
}

impl Iterator for MultisetIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.current.clone()?;
        // Advance: rightmost position that can be incremented.
        let mut next = cur.clone();
        let k = next.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.current = None;
                break;
            }
            i -= 1;
            if next[i] + 1 < self.n {
                let v = next[i] + 1;
                for x in next.iter_mut().skip(i) {
                    *x = v;
                }
                self.current = Some(next);
                break;
            }
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_history::{ev, straight_line_tx, AbsArg};
    use c4_store::op::OpKind;
    use c4_store::Value;

    fn figure1a() -> AbstractHistory {
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
        h
    }

    #[test]
    fn multiset_iterator_counts() {
        assert_eq!(MultisetIter::new(3, 2).count(), 6); // C(4,2)
        assert_eq!(MultisetIter::new(4, 1).count(), 4);
        assert_eq!(MultisetIter::new(2, 3).count(), 4); // C(4,3)
        let all: Vec<_> = MultisetIter::new(3, 2).collect();
        assert!(all.contains(&vec![0, 2]));
        assert!(all.iter().all(|v| v[0] <= v[1]));
    }

    #[test]
    fn two_session_unfoldings_of_figure1a() {
        let h = figure1a();
        let arena = arena_for(&h);
        // Choices: 2 singles + 4 pairs = 6; unfoldings = C(7,2) = 21.
        assert_eq!(session_choices(&h).len(), 6);
        let us: Vec<_> = unfoldings(&h, &arena, 2).collect();
        assert_eq!(us.len(), 21);
        // Figure 7b: sessions [P;G] and [P;G].
        let target = us.iter().find(|u| {
            u.instances.len() == 4
                && u.instances.iter().filter(|i| i.orig_tx == 0).count() == 2
                && u.instances.iter().filter(|i| i.session == 0).count() == 2
                && u.instances.iter().all(|i| {
                    (i.pos == 0) == (i.orig_tx == 0) // P first, G second
                })
        });
        assert!(target.is_some(), "the Figure 7b unfolding must be enumerated");
        let u = target.unwrap();
        // so only within sessions.
        let idx_p0 = u.instances.iter().position(|i| i.session == 0 && i.pos == 0).unwrap();
        let idx_g0 = u.instances.iter().position(|i| i.session == 0 && i.pos == 1).unwrap();
        let idx_p1 = u.instances.iter().position(|i| i.session == 1 && i.pos == 0).unwrap();
        assert!(u.so(idx_p0, idx_g0));
        assert!(!u.so(idx_p0, idx_p1));
        assert!(!u.so(idx_g0, idx_p0));
    }

    #[test]
    fn acyclic_transactions_unfold_to_themselves() {
        let tx = straight_line_tx(
            "t",
            vec![],
            vec![
                ev("C", OpKind::CtrInc, vec![AbsArg::Const(Value::int(1))]),
                ev("C", OpKind::CtrGet, vec![]),
            ],
        );
        let u = unfold_tx(&tx);
        assert_eq!(u, tx);
    }

    #[test]
    fn loop_unfolds_into_two_copies() {
        // entry → e0 → e1 → e0 (back edge), e1 → exit.
        let mut tx = straight_line_tx(
            "loop",
            vec![],
            vec![
                ev("S", OpKind::SetAdd, vec![AbsArg::Wild]),
                ev("S", OpKind::SetContains, vec![AbsArg::Wild]),
            ],
        );
        tx.edges.push(EoEdge { src: Node::Event(1), tgt: Node::Event(0), cond: vec![] });
        assert!(!tx.eo_is_acyclic());
        let u = unfold_tx(&tx);
        assert!(u.eo_is_acyclic(), "unfolded transaction must be acyclic");
        assert_eq!(u.events.len(), 4, "the SCC is duplicated");
        // The unfolded body still has entry→…→exit paths.
        let ps = u.paths();
        assert!(!ps.is_empty());
        // Each pair of events that might appear on a minimal cycle is
        // still abstracted: the second copy retains the same operations
        // (in some order).
        let mut orig: Vec<_> = u.events[..2].iter().map(|e| e.kind.clone()).collect();
        let mut copy: Vec<_> = u.events[2..].iter().map(|e| e.kind.clone()).collect();
        orig.sort();
        copy.sort();
        assert_eq!(orig, copy);
    }

    #[test]
    fn self_loop_unfolds() {
        let mut tx = straight_line_tx(
            "selfloop",
            vec![],
            vec![ev("C", OpKind::CtrInc, vec![AbsArg::Wild])],
        );
        tx.edges.push(EoEdge { src: Node::Event(0), tgt: Node::Event(0), cond: vec![] });
        let u = unfold_tx(&tx);
        assert!(u.eo_is_acyclic());
        assert_eq!(u.events.len(), 2);
        assert!(!u.paths().is_empty());
    }

    #[test]
    fn unfolding_instances_are_acyclic_bodies() {
        let mut h = figure1a();
        // Add a looping transaction.
        let mut looping = straight_line_tx(
            "L",
            vec![],
            vec![ev("C", OpKind::CtrInc, vec![AbsArg::Wild])],
        );
        looping.edges.push(EoEdge { src: Node::Event(0), tgt: Node::Event(0), cond: vec![] });
        h.add_tx(looping);
        h.free_session_order();
        let arena = arena_for(&h);
        for u in unfoldings(&h, &arena, 2).take(50) {
            for i in 0..u.instances.len() {
                assert!(u.tx(i).eo_is_acyclic());
            }
        }
    }

    #[test]
    fn canonical_key_is_invariant_under_session_swap() {
        let h = figure1a();
        let arena = arena_for(&h);
        let us: Vec<_> = unfoldings(&h, &arena, 2).collect();
        // [P | G] and [G | P] are symmetric: same canonical key, different
        // fingerprint sequences.
        let pg = us
            .iter()
            .find(|u| u.orig_txs() == vec![0, 1] && u.instances[0].session == 0)
            .unwrap();
        let mut swapped = pg.clone();
        for inst in &mut swapped.instances {
            inst.session = 1 - inst.session;
        }
        assert_ne!(pg.fp_seq(), swapped.fp_seq());
        assert_eq!(pg.canonical_key(), swapped.canonical_key());
        // [P | P] and [P | G] are not symmetric.
        let pp = us.iter().find(|u| u.orig_txs() == vec![0, 0]).unwrap();
        assert_ne!(pp.canonical_key(), pg.canonical_key());
    }
}
