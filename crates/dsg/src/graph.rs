//! The transaction-lifted dependency serialization graph (DSG).

use std::fmt;

use c4_algebra::FarSpec;
use c4_store::{EventId, History, Schedule, TxId};

use crate::deps::{DepOptions, DependencyTriple};

/// Label of a DSG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeLabel {
    /// Session order (`so`).
    SessionOrder,
    /// Dependency (⊕).
    Dep,
    /// Anti-dependency (⊖).
    Anti,
    /// Conflict dependency (⊗).
    Conflict,
}

impl fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeLabel::SessionOrder => write!(f, "so"),
            EdgeLabel::Dep => write!(f, "⊕"),
            EdgeLabel::Anti => write!(f, "⊖"),
            EdgeLabel::Conflict => write!(f, "⊗"),
        }
    }
}

/// An edge of the DSG, between two distinct transactions, with the event
/// pair that witnesses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxEdge {
    /// Source transaction.
    pub from: TxId,
    /// Target transaction.
    pub to: TxId,
    /// The label.
    pub label: EdgeLabel,
    /// The event pair the edge was lifted from.
    pub witness: (EventId, EventId),
}

/// The dependency serialization graph of a schedule: a multi-digraph over
/// the history's transactions.
#[derive(Debug, Clone)]
pub struct Dsg {
    tx_count: usize,
    edges: Vec<TxEdge>,
    /// Outgoing edge indices of transaction `t`, in edge order:
    /// `out[out_start[t]..out_start[t + 1]]`.
    out_start: Vec<u32>,
    out: Vec<u32>,
}

impl Dsg {
    /// Builds the DSG of a schedule: computes the dependency triple and
    /// lifts `so`, ⊕, ⊖, ⊗ to transactions.
    pub fn build(
        history: &History,
        schedule: &Schedule,
        far: &FarSpec,
        opts: &DepOptions,
    ) -> Self {
        let triple = DependencyTriple::compute(history, schedule, far, opts);
        Dsg::from_triple(history, &triple)
    }

    /// Builds the DSG from a precomputed dependency triple.
    ///
    /// Edges are listed `so` first, then ⊕, ⊖, ⊗ by source event; each
    /// `(from, to, label)` appears once, with the first event pair in that
    /// order as its witness. `so` is lifted per transaction: within a
    /// session, the first event pair of transactions tᵢ before tⱼ is
    /// `(first(tᵢ), first(tⱼ))`, because a transaction's events are
    /// contiguous in its session and precede those of every later one.
    pub fn from_triple(history: &History, triple: &DependencyTriple) -> Self {
        let tx_count = history.transactions().count();
        let mut edges = Vec::new();
        let mut firsts: Vec<(TxId, EventId)> = Vec::new();
        for sess in history.sessions() {
            firsts.clear();
            for &e in sess {
                let t = history.tx_of(e);
                if firsts.last().map(|&(u, _)| u) != Some(t) {
                    firsts.push((t, e));
                }
            }
            for (i, &(from, a)) in firsts.iter().enumerate() {
                for &(to, b) in &firsts[i + 1..] {
                    let label = EdgeLabel::SessionOrder;
                    edges.push(TxEdge { from, to, label, witness: (a, b) });
                }
            }
        }
        // One bit per (from, to, label) of the dependency labels.
        let mut seen = vec![0u64; (tx_count * tx_count * 3).div_ceil(64)];
        let relations = [
            (&triple.dep, EdgeLabel::Dep),
            (&triple.anti, EdgeLabel::Anti),
            (&triple.conflict, EdgeLabel::Conflict),
        ];
        for a in (0..history.len()).map(|i| EventId(i as u32)) {
            let from = history.tx_of(a);
            for (l, &(relation, label)) in relations.iter().enumerate() {
                for b in relation.successors(a) {
                    let to = history.tx_of(b);
                    if from == to {
                        continue;
                    }
                    let bit = (from.index() * tx_count + to.index()) * 3 + l;
                    if seen[bit / 64] & (1 << (bit % 64)) == 0 {
                        seen[bit / 64] |= 1 << (bit % 64);
                        edges.push(TxEdge { from, to, label, witness: (a, b) });
                    }
                }
            }
        }
        // Counting sort of the edge indices by source, stable in edge order.
        let mut out_start = vec![0u32; tx_count + 1];
        for e in &edges {
            out_start[e.from.index() + 1] += 1;
        }
        for t in 0..tx_count {
            out_start[t + 1] += out_start[t];
        }
        let mut fill = out_start.clone();
        let mut out = vec![0u32; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut fill[e.from.index()];
            out[*slot as usize] = i as u32;
            *slot += 1;
        }
        Dsg { tx_count, edges, out_start, out }
    }

    /// Outgoing edge indices of a transaction, in edge order.
    fn out_indices(&self, t: TxId) -> &[u32] {
        &self.out[self.out_start[t.index()] as usize..self.out_start[t.index() + 1] as usize]
    }

    /// The edges of the graph.
    pub fn edges(&self) -> &[TxEdge] {
        &self.edges
    }

    /// Number of transactions (nodes).
    pub fn tx_count(&self) -> usize {
        self.tx_count
    }

    /// Outgoing edges of a transaction.
    pub fn outgoing(&self, t: TxId) -> impl Iterator<Item = &TxEdge> {
        self.out_indices(t).iter().map(|&i| &self.edges[i as usize])
    }

    /// Whether the graph is acyclic (Theorem 1's premise).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Finds some cycle as a sequence of edges, if one exists.
    pub fn find_cycle(&self) -> Option<Vec<&TxEdge>> {
        // Iterative DFS with colors; returns the first back-edge cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.tx_count];
        // parent edge index used to reconstruct the cycle
        let mut parent: Vec<Option<usize>> = vec![None; self.tx_count];
        for start in 0..self.tx_count {
            if color[start] != Color::White {
                continue;
            }
            // stack of (node, next-edge-cursor)
            let mut stack = vec![(TxId(start as u32), 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                let out = self.out_indices(node);
                if *cursor >= out.len() {
                    color[node.index()] = Color::Black;
                    stack.pop();
                    continue;
                }
                let ei = out[*cursor] as usize;
                *cursor += 1;
                let edge = &self.edges[ei];
                match color[edge.to.index()] {
                    Color::White => {
                        color[edge.to.index()] = Color::Gray;
                        parent[edge.to.index()] = Some(ei);
                        stack.push((edge.to, 0));
                    }
                    Color::Gray => {
                        // Found a cycle: walk parents from `node` back to
                        // `edge.to`.
                        let mut cycle = vec![ei];
                        let mut cur = node;
                        while cur != edge.to {
                            let pe = parent[cur.index()].expect("parent chain");
                            cycle.push(pe);
                            cur = self.edges[pe].from;
                        }
                        cycle.reverse();
                        return Some(cycle.into_iter().map(|i| &self.edges[i]).collect());
                    }
                    Color::Black => {}
                }
            }
        }
        None
    }

    /// Strongly connected components with more than one node (or a
    /// self-loop), via Tarjan's algorithm.
    pub fn nontrivial_sccs(&self) -> Vec<Vec<TxId>> {
        tarjan(self.tx_count, |v| {
            self.outgoing(TxId(v as u32)).map(|e| e.to.index()).collect::<Vec<_>>()
        })
        .into_iter()
        .filter(|scc| scc.len() > 1)
        .map(|scc| scc.into_iter().map(|v| TxId(v as u32)).collect())
        .collect()
    }
}

impl fmt::Display for Dsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.edges {
            writeln!(f, "{} -{}-> {}", e.from, e.label, e.to)?;
        }
        Ok(())
    }
}

/// Tarjan's SCC algorithm over `0..n` with a successor function, iterative.
pub(crate) fn tarjan(n: usize, succ: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeData {
        index: u32,
        lowlink: u32,
        on_stack: bool,
    }
    const UNDEF: u32 = u32::MAX;
    let mut data = vec![NodeData { index: UNDEF, lowlink: 0, on_stack: false }; n];
    let mut next_index = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs = Vec::new();
    for root in 0..n {
        if data[root].index != UNDEF {
            continue;
        }
        // Explicit DFS frame: (node, successor list, cursor).
        let mut frames: Vec<(usize, Vec<usize>, usize)> = vec![(root, succ(root), 0)];
        data[root].index = next_index;
        data[root].lowlink = next_index;
        data[root].on_stack = true;
        stack.push(root);
        next_index += 1;
        while let Some(frame) = frames.last_mut() {
            let (v, succs, cursor) = (frame.0, frame.1.clone(), frame.2);
            if cursor < succs.len() {
                frame.2 += 1;
                let w = succs[cursor];
                if data[w].index == UNDEF {
                    data[w].index = next_index;
                    data[w].lowlink = next_index;
                    data[w].on_stack = true;
                    stack.push(w);
                    next_index += 1;
                    frames.push((w, succ(w), 0));
                } else if data[w].on_stack {
                    data[v].lowlink = data[v].lowlink.min(data[w].index);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    data[p].lowlink = data[p].lowlink.min(data[v].lowlink);
                }
                if data[v].lowlink == data[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        data[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_algebra::{Alphabet, OpSig, RewriteSpec};
    use c4_store::{HistoryBuilder, Operation, Value};

    fn far_for(history: &History) -> FarSpec {
        let alphabet: Alphabet = history.events().map(|e| OpSig::of(&e.op)).collect();
        FarSpec::compute(RewriteSpec::new(), &alphabet)
    }

    fn figure1c1() -> (History, Schedule) {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        let e0 = b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s0);
        let e1 = b.push(t1, Operation::map_get("M", Value::str("B"), Value::Unit));
        let t2 = b.begin(s1);
        let e2 = b.push(t2, Operation::map_put("M", Value::str("B"), Value::int(2)));
        let t3 = b.begin(s1);
        let e3 = b.push(t3, Operation::map_get("M", Value::str("A"), Value::Unit));
        let h = b.finish();
        let mut vis = c4_store::schedule::Relation::new(4);
        vis.insert(e0, e1);
        vis.insert(e2, e3);
        let sched = Schedule::new(&h, vec![e0, e2, e1, e3], vis).unwrap();
        (h, sched)
    }

    fn figure1c4() -> (History, Schedule) {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        let e0 = b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s0);
        let e1 = b.push(t1, Operation::map_get("M", Value::str("A"), Value::int(1)));
        let t2 = b.begin(s1);
        let e2 = b.push(t2, Operation::map_put("M", Value::str("B"), Value::int(2)));
        let t3 = b.begin(s1);
        let e3 = b.push(t3, Operation::map_get("M", Value::str("B"), Value::int(2)));
        let h = b.finish();
        let mut vis = c4_store::schedule::Relation::new(4);
        vis.insert(e0, e1);
        vis.insert(e2, e3);
        let sched = Schedule::new(&h, vec![e0, e2, e1, e3], vis).unwrap();
        (h, sched)
    }

    #[test]
    fn figure1c1_dsg_has_cycle() {
        let (h, s) = figure1c1();
        s.check(&h).unwrap();
        let dsg = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
        assert!(!dsg.is_acyclic());
        let cycle = dsg.find_cycle().unwrap();
        // The cycle alternates so and ⊖ edges over the four transactions.
        assert!(cycle.len() >= 2);
        assert!(cycle.iter().any(|e| e.label == EdgeLabel::Anti));
        assert!(cycle.iter().any(|e| e.label == EdgeLabel::SessionOrder));
    }

    #[test]
    fn figure1c4_dsg_is_acyclic() {
        let (h, s) = figure1c4();
        s.check(&h).unwrap();
        let dsg = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
        assert!(dsg.is_acyclic(), "{dsg}");
    }

    #[test]
    fn acyclic_dsg_implies_serializable_on_samples() {
        // Theorem 1 cross-check against brute-force serializability.
        let (h, s) = figure1c4();
        let dsg = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
        if dsg.is_acyclic() {
            assert!(c4_store::schedule::serializable_by_enumeration(&h));
        }
    }

    #[test]
    fn sccs_of_cyclic_graph() {
        let (h, s) = figure1c1();
        let dsg = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
        let sccs = dsg.nontrivial_sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 4);
    }

    #[test]
    fn tarjan_on_simple_digraph() {
        // 0 → 1 → 2 → 0, 3 isolated.
        let sccs = tarjan(4, |v| match v {
            0 => vec![1],
            1 => vec![2],
            2 => vec![0],
            _ => vec![],
        });
        let mut sizes: Vec<_> = sccs.iter().map(|s| s.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn display_lists_edges() {
        let (h, s) = figure1c1();
        let dsg = Dsg::build(&h, &s, &far_for(&h), &DepOptions::default());
        let text = dsg.to_string();
        assert!(text.contains("so"));
        assert!(text.contains("⊖"));
    }
}
