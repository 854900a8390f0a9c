//! Snapshot-isolation robustness (the Fekete et al. baseline, paper §10).
//!
//! The paper's Related Work contrasts C4 with the static serializability
//! checks for *snapshot isolation* [Fekete et al., TODS 2005]: under SI,
//! two concurrent transactions writing the same item cannot both commit,
//! so a non-serializable execution requires a *dangerous structure* — a
//! cycle in the static dependency graph with two **consecutive**
//! anti-dependency edges whose endpoints are concurrent. Causal
//! consistency provides no such write-write conflict detection, which is
//! exactly why C4 must reason about commutativity and absorption instead
//! (Section 10).
//!
//! This module implements the SI criterion over the same SSG abstraction,
//! enabling side-by-side verdicts: programs can be SI-robust yet not
//! causally serializable (e.g. lost-update patterns, which SI's conflict
//! detection aborts) while write-skew is non-robust under both.

use c4_algebra::FarSpec;

use crate::abstract_history::AbstractHistory;
use crate::ssg::{tv_eval, PairCtx, Ssg, SsgLabel, Tv};

/// The verdict of the SI robustness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiVerdict {
    /// No vulnerable dangerous structure: every SI execution of the
    /// program is serializable.
    Robust,
    /// A dangerous structure exists: the three transactions of the
    /// consecutive vulnerable anti-dependency pair (pivot in the middle).
    Dangerous {
        /// Transaction with the incoming anti-dependency.
        incoming: usize,
        /// The pivot transaction.
        pivot: usize,
        /// Transaction receiving the outgoing anti-dependency.
        outgoing: usize,
    },
}

/// Checks SI robustness of a program: its static serialization graph must
/// not contain a cycle with two consecutive *vulnerable* anti-dependency
/// edges.
///
/// An anti-dependency edge is vulnerable when its two transactions can
/// commit concurrently, i.e. when they do **not** necessarily write-write
/// conflict: under SI's first-committer-wins rule, two concurrent
/// transactions updating the same item cannot both commit, so an edge
/// whose endpoints always overwrite a common item never appears between
/// concurrent transactions. We decide "necessarily conflict" with the
/// Kleene evaluation of the absorption specification: a pair of updates
/// whose mutual-overwrite formula is definitely true (e.g. two `put`s to
/// the same register, or to a provably equal key) always collides.
pub fn si_robust(h: &AbstractHistory, far: &FarSpec) -> SiVerdict {
    let ssg = Ssg::of_program(h, far);
    let necessarily_ww = |a: usize, b: usize| -> bool {
        h.txs[a].events.iter().any(|u| {
            h.txs[b].events.iter().any(|v| {
                u.kind.is_update()
                    && v.kind.is_update()
                    && tv_eval(
                        &far.rewrite().absorbs(&u.sig(), &v.sig()),
                        u,
                        v,
                        PairCtx::distinct(),
                    ) == Tv::True
            })
        })
    };
    let sccs = ssg.sccs();
    for scc in &sccs {
        let in_scc = |v: usize| scc.contains(&v);
        for &pivot in scc {
            let vulnerable = |from: usize, to: usize| !necessarily_ww(from, to);
            let incoming: Vec<usize> = ssg
                .edges()
                .iter()
                .filter(|e| {
                    e.label == SsgLabel::Anti
                        && e.to == pivot
                        && in_scc(e.from)
                        && vulnerable(e.from, pivot)
                })
                .map(|e| e.from)
                .collect();
            let outgoing: Vec<usize> = ssg
                .edges()
                .iter()
                .filter(|e| {
                    e.label == SsgLabel::Anti
                        && e.from == pivot
                        && in_scc(e.to)
                        && vulnerable(pivot, e.to)
                })
                .map(|e| e.to)
                .collect();
            if let (Some(&i), Some(&o)) = (incoming.first(), outgoing.first()) {
                return SiVerdict::Dangerous { incoming: i, pivot, outgoing: o };
            }
        }
    }
    SiVerdict::Robust
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_history::{ev, straight_line_tx, AbsArg, Cond, EoEdge, Node, RelOp};
    use crate::{AnalysisFeatures, Checker};
    use c4_algebra::RewriteSpec;
    use c4_store::op::OpKind;
    use c4_store::Value;

    fn far_for(h: &AbstractHistory) -> FarSpec {
        FarSpec::compute(RewriteSpec::new(), &h.alphabet())
    }

    /// Classic write-skew: each transaction reads both flags and writes
    /// one of them. Non-serializable under SI *and* causal consistency.
    fn write_skew() -> AbstractHistory {
        let mut h = AbstractHistory::new();
        for (name, read_other, write_own) in [("t1", "Y", "X"), ("t2", "X", "Y")] {
            h.add_tx(straight_line_tx(
                name,
                vec!["v".into()],
                vec![
                    ev(read_other, OpKind::RegGet, vec![]),
                    ev(write_own, OpKind::RegPut, vec![AbsArg::Param(0)]),
                ],
            ));
        }
        h.free_session_order();
        h
    }

    /// Lost update: read-check-write on a single register. SI's conflict
    /// detection aborts one of the two writers, so the program is
    /// SI-robust — but causal consistency detects no conflicts and C4
    /// reports the violation.
    fn lost_update() -> AbstractHistory {
        let mut h = AbstractHistory::new();
        let mut tx = straight_line_tx(
            "submit",
            vec!["s".into()],
            vec![
                ev("Best", OpKind::RegGet, vec![]),
                ev("Best", OpKind::RegPut, vec![AbsArg::Param(0)]),
            ],
        );
        // Guard the write on the read (control flow irrelevant to SI).
        tx.edges = vec![
            EoEdge { src: Node::Entry, tgt: Node::Event(0), cond: vec![] },
            EoEdge {
                src: Node::Event(0),
                tgt: Node::Event(1),
                cond: vec![Cond {
                    lhs: AbsArg::Ret(0),
                    op: RelOp::Lt,
                    rhs: AbsArg::Param(0),
                }],
            },
            EoEdge {
                src: Node::Event(0),
                tgt: Node::Exit,
                cond: vec![Cond {
                    lhs: AbsArg::Ret(0),
                    op: RelOp::Ge,
                    rhs: AbsArg::Param(0),
                }],
            },
            EoEdge { src: Node::Event(1), tgt: Node::Exit, cond: vec![] },
        ];
        h.add_tx(tx);
        h.free_session_order();
        h
    }

    #[test]
    fn write_skew_is_dangerous_under_si_and_cc() {
        let h = write_skew();
        let far = far_for(&h);
        assert!(matches!(si_robust(&h, &far), SiVerdict::Dangerous { .. }));
        let res = Checker::new(h, AnalysisFeatures::default()).run();
        assert!(!res.violations.is_empty(), "CC must also flag write-skew");
    }

    #[test]
    fn lost_update_separates_si_from_causal_consistency() {
        let h = lost_update();
        let far = far_for(&h);
        // Under SI the two submits always write-write conflict on the
        // single register, so first-committer-wins aborts one of them:
        // the anti-dependency edges are not vulnerable and the program is
        // SI-robust (the textbook "SI prevents lost updates").
        assert_eq!(si_robust(&h, &far), SiVerdict::Robust);
        // Causal consistency has no conflict detection: C4 reports it.
        let res = Checker::new(h, AnalysisFeatures::default()).run();
        assert_eq!(res.violations.len(), 1);
    }

    #[test]
    fn read_only_programs_are_robust() {
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "r",
            vec![],
            vec![ev("X", OpKind::RegGet, vec![]), ev("Y", OpKind::RegGet, vec![])],
        ));
        h.free_session_order();
        let far = far_for(&h);
        assert_eq!(si_robust(&h, &far), SiVerdict::Robust);
    }

    #[test]
    fn commuting_updates_are_robust() {
        let mut h = AbstractHistory::new();
        h.add_tx(straight_line_tx(
            "inc",
            vec![],
            vec![ev("C", OpKind::CtrInc, vec![AbsArg::Const(Value::int(1))])],
        ));
        h.free_session_order();
        let far = far_for(&h);
        assert_eq!(si_robust(&h, &far), SiVerdict::Robust);
    }
}
