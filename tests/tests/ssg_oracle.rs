//! Oracles for the SSG stage over the suite programs.
//!
//! * The pair tables against direct Kleene evaluation: every event pair
//!   of every arena body pair, under every pair context, must give the
//!   `¬com`/`¬abs` answers of `may_not_commute`/`may_not_absorb`, and
//!   each dependency template must hold the first witness per label.
//! * The one-pass candidate enumeration against the collect-sort-dedup
//!   reference enumerator (`crates/core/src/ssg/reference.rs`, included
//!   here by path) on every k = 2 unfolding of the unfiltered history
//!   and of each atomic-set view: the same candidates, in the same
//!   order, with the same steps once the compact records are
//!   materialized.
//!
//! Unoptimized builds sweep the cheap programs for the enumeration;
//! release builds (`scripts/ci.sh`) sweep the whole suite.

use c4::abstract_history::{AbsEventSpec, AbstractHistory};
use c4::filter;
use c4::ssg::{
    candidate_cycles, may_not_absorb, may_not_commute, satisfies_sc2, CandidateCycle, PairCtx,
    PairTables, Ssg, SsgEdge, SsgLabel,
};
use c4::unfold::{arena_for, unfoldings, Unfolding};
use c4_algebra::{FarSpec, RewriteSpec};

#[path = "../../crates/core/src/ssg/reference.rs"]
mod reference;

fn history(b: &c4_suite::Benchmark) -> AbstractHistory {
    let p = c4_lang::parse(b.source).expect("parse");
    c4_lang::abstract_history(&p).expect("interp")
}

fn far_for(h: &AbstractHistory) -> FarSpec {
    FarSpec::compute(RewriteSpec::new(), &h.alphabet())
}

fn dependency_label(e: &AbsEventSpec, f: &AbsEventSpec) -> Option<SsgLabel> {
    match (e.kind.is_update(), f.kind.is_update()) {
        (true, false) => Some(SsgLabel::Dep),
        (false, true) => Some(SsgLabel::Anti),
        (true, true) => Some(SsgLabel::Conflict),
        (false, false) => None,
    }
}

#[test]
fn pair_tables_agree_with_direct_evaluation() {
    let mut same_event_pairs = [0usize; 2];
    for bench in c4_suite::benchmarks() {
        let h = history(&bench);
        let far = far_for(&h);
        let arena = arena_for(&h);
        let bodies = arena.bodies();
        let tables = PairTables::compute(bodies, &far);
        let name = bench.name;
        for (a, ta) in bodies.iter().enumerate() {
            for (b, tb) in bodies.iter().enumerate() {
                for same_session in [false, true] {
                    let ctx = PairCtx { same_instance: false, same_session, same_event: false };
                    let mut template = Vec::new();
                    for (ea, e) in ta.events.iter().enumerate() {
                        for (eb, f) in tb.events.iter().enumerate() {
                            let nc = may_not_commute(&far, e, f, ctx);
                            assert_eq!(tables.notcom(a, ea, b, eb, ctx), nc, "{name}: notcom {ctx:?}");
                            assert_eq!(
                                tables.notabs(a, ea, b, eb, ctx),
                                may_not_absorb(&far, e, f, ctx),
                                "{name}: notabs {ctx:?}"
                            );
                            match dependency_label(e, f) {
                                Some(l) if nc && template.iter().all(|&(t, _, _)| t != l) => {
                                    template.push((l, ea, eb))
                                }
                                _ => {}
                            }
                        }
                    }
                    assert_eq!(
                        tables.template(a, b, same_session),
                        &template[..],
                        "{name}: template {a}→{b}, same session {same_session}"
                    );
                }
                if a != b {
                    continue;
                }
                for (ea, e) in ta.events.iter().enumerate() {
                    for (eb, f) in ta.events.iter().enumerate() {
                        let ctx =
                            PairCtx { same_instance: true, same_session: true, same_event: ea == eb };
                        same_event_pairs[ctx.same_event as usize] += 1;
                        assert_eq!(
                            tables.notcom(a, ea, a, eb, ctx),
                            may_not_commute(&far, e, f, ctx),
                            "{name}: notcom {ctx:?}"
                        );
                        assert_eq!(
                            tables.notabs(a, ea, a, eb, ctx),
                            may_not_absorb(&far, e, f, ctx),
                            "{name}: notabs {ctx:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(same_event_pairs.iter().all(|&n| n > 0), "both same-instance contexts checked");
}

fn assert_same_candidates(name: &str, u: &Unfolding, got: &[CandidateCycle], want: &[CandidateCycle]) {
    assert_eq!(got.len(), want.len(), "{name}: candidate counts differ on {:?}", u.orig_txs());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.nodes, w.nodes, "{name}: node sequences differ");
        assert_eq!(g.steps, w.steps, "{name}: steps differ on nodes {:?}", g.nodes);
    }
}

#[test]
fn candidate_enumeration_matches_the_reference() {
    let mut selection = c4_suite::benchmarks();
    if cfg!(debug_assertions) {
        selection.retain(|b| b.paper.t * b.paper.e <= 60);
    }
    let mut candidates = 0usize;
    for bench in selection {
        let h = history(&bench);
        let views = filter::atomic_set_views(&filter::drop_display(&h));
        for h in std::iter::once(h).chain(views) {
            let arena = arena_for(&h);
            let tables = PairTables::compute(arena.bodies(), &far_for(&h));
            for u in unfoldings(&h, &arena, 2) {
                let ssg = Ssg::of_unfolding(&u, &tables);
                let want = reference::candidate_cycles(&u, &ssg, &tables);
                // The compact records, materialized.
                let got: Vec<CandidateCycle> = candidate_cycles(&u, ssg, &tables).cycles().collect();
                assert_same_candidates(bench.name, &u, &got, &want);
                candidates += got.len();
            }
        }
    }
    assert!(candidates > 0, "the sweep saw no candidate cycles");
}
