//! The collect-sort-dedup candidate enumerator that
//! [`candidate_cycles`](super::candidate_cycles) replaced, kept as its
//! differential oracle. It records every simple cycle once per edge of
//! its closing step and once per label of every step it walks through,
//! sorts and deduplicates the node sequences, and finds each step's
//! label options by scanning all edges, so it does not rely on the
//! SSG's grouped-edge invariant. The unit tests in `ssg.rs` use it, and
//! `tests/tests/ssg_oracle.rs` includes this file by path for the suite
//! sweep; both provide the names imported below.

use super::{satisfies_sc2, CandidateCycle, PairTables, Ssg, SsgEdge, Unfolding};

/// The candidate cycles of `ssg`, in the order
/// [`candidate_cycles`](super::candidate_cycles) must produce them.
pub fn candidate_cycles(u: &Unfolding, ssg: &Ssg, tables: &PairTables) -> Vec<CandidateCycle> {
    fn dfs(
        start: usize,
        v: usize,
        ssg: &Ssg,
        path: &mut Vec<usize>,
        on_path: &mut Vec<bool>,
        cycles: &mut Vec<Vec<usize>>,
    ) {
        for e in ssg.edges().iter().filter(|e| e.from == v) {
            if e.to == start && path.len() >= 2 {
                cycles.push(path.clone());
            } else if e.to > start && !on_path[e.to] {
                path.push(e.to);
                on_path[e.to] = true;
                dfs(start, e.to, ssg, path, on_path, cycles);
                on_path[e.to] = false;
                path.pop();
            }
        }
    }
    let mut node_cycles: Vec<Vec<usize>> = Vec::new();
    for start in 0..ssg.n {
        let mut on_path = vec![false; ssg.n];
        on_path[start] = true;
        dfs(start, start, ssg, &mut vec![start], &mut on_path, &mut node_cycles);
    }
    node_cycles.sort();
    node_cycles.dedup();
    let mut out = Vec::new();
    for nodes in node_cycles {
        let m = nodes.len();
        let step_options: Vec<Vec<&SsgEdge>> = (0..m)
            .map(|i| {
                let (a, b) = (nodes[i], nodes[(i + 1) % m]);
                ssg.edges().iter().filter(|e| e.from == a && e.to == b).collect()
            })
            .collect();
        if !satisfies_sc2(u, &nodes, tables) {
            continue;
        }
        let mut choice = vec![0usize; m];
        loop {
            let steps = (0..m).map(|i| step_options[i][choice[i]].clone()).collect();
            let cand = CandidateCycle { nodes: nodes.clone(), steps };
            if cand.satisfies_sc1() {
                out.push(cand);
            }
            let mut i = 0;
            while i < m {
                choice[i] += 1;
                if choice[i] < step_options[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
            if i == m {
                break;
            }
        }
    }
    out
}
