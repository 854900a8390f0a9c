//! The dependency triple `(⊕, ⊖, ⊗)` of a schedule, per (D1)–(D3).

use c4_algebra::{FarSpec, SigId};
use c4_store::schedule::Relation;
use c4_store::{EventId, History, Schedule};

/// Options controlling dependency computation.
#[derive(Debug, Clone, Copy)]
pub struct DepOptions {
    /// Use the asymmetric-commutativity exemptions of Section 8 when
    /// computing anti-dependencies (enabled by default, matching the
    /// paper's experiments).
    pub asymmetric_commutativity: bool,
}

impl Default for DepOptions {
    fn default() -> Self {
        DepOptions { asymmetric_commutativity: true }
    }
}

/// The dependency triple of a history's schedule.
///
/// * `dep` (⊕ ⊆ U×Q): the query depends on the visible update;
/// * `anti` (⊖ ⊆ Q×U): the query anti-depends on the invisible update;
/// * `conflict` (⊗ ⊆ U×U): the earlier-arbitrated update conflicts with
///   the later one.
#[derive(Debug, Clone)]
pub struct DependencyTriple {
    /// Dependencies ⊕, from update to query.
    pub dep: Relation,
    /// Anti-dependencies ⊖, from query to update.
    pub anti: Relation,
    /// Conflict dependencies ⊗, from earlier to later update.
    pub conflict: Relation,
}

impl DependencyTriple {
    /// Computes the triple per (D1)–(D3).
    ///
    /// The complement-style rules of the paper ("if … and `(u,q) ∉ ⊕` then
    /// …") define the *largest* relations satisfying the conditions; we
    /// compute exactly those: a pair is in the relation unless one of the
    /// stated escape clauses holds.
    ///
    /// Each event's signature is resolved to its [`SigId`] once, and the
    /// relations are read from the FarSpec's dense tables by reference.
    /// A pair with a signature outside the FarSpec's alphabet falls back to
    /// the by-signature `*_concrete` methods.
    pub fn compute(
        history: &History,
        schedule: &Schedule,
        far: &FarSpec,
        opts: &DepOptions,
    ) -> Self {
        let ids: Vec<Option<SigId>> =
            history.events().map(|e| far.sig_id(&e.op.object, &e.op.kind)).collect();
        DependencyTriple::compute_resolved(history, schedule, far, &ids, opts)
    }

    /// [`DependencyTriple::compute`] with every event's signature id
    /// already resolved against `far` (`ids[e]`, `None` outside its
    /// alphabet).
    pub(crate) fn compute_resolved(
        history: &History,
        schedule: &Schedule,
        far: &FarSpec,
        ids: &[Option<SigId>],
        opts: &DepOptions,
    ) -> Self {
        let n = history.len();
        let mut dep = Relation::new(n);
        let mut anti = Relation::new(n);
        let mut conflict = Relation::new(n);
        let op = |e: EventId| &history.event(e).op;
        let (updates, queries): (Vec<EventId>, Vec<EventId>) = (0..n)
            .map(|i| EventId(i as u32))
            .partition(|&e| history.event(e).is_update());
        let ids_of = |a: EventId, b: EventId| (ids[a.index()], ids[b.index()]);

        let far_absorbs = |u: EventId, v: EventId| match ids_of(u, v) {
            (Some(a), Some(b)) => far.far_absorbs_id(a, b).eval(op(u), op(v)),
            _ => far.far_absorbs_concrete(op(u), op(v)),
        };
        let far_commutes = |u: EventId, q: EventId| match ids_of(u, q) {
            (Some(a), Some(b)) => far.far_commutes_id(a, b).eval(op(u), op(q)),
            _ => far.far_commutes_concrete(op(u), op(q)),
        };
        let commutes = |u: EventId, v: EventId| match ids_of(u, v) {
            (Some(a), Some(b)) => far.commute_id(a, b).eval(op(u), op(v)),
            _ => far.rewrite().commute_concrete(op(u), op(v)),
        };
        let exempt = |u: EventId, q: EventId| match ids_of(u, q) {
            (Some(a), Some(b)) => far.anti_dep_exempt_id(a, b).eval(op(u), op(q)),
            _ => far.rewrite().anti_dep_exempt_concrete(op(u), op(q)),
        };

        for &u in &updates {
            // The shared escape clause of (D1)/(D2), "u's effect is
            // far-absorbed on the way to q": ∃v. u ▷ v ∧ u ar→ v vı→ q.
            // Only the last conjunct depends on q, so the candidate
            // absorbers v are collected once per u.
            let absorbers: Vec<EventId> = updates
                .iter()
                .copied()
                .filter(|&v| v != u && schedule.ar(u, v) && far_absorbs(u, v))
                .collect();
            let absorbed_towards = |q: EventId| absorbers.iter().any(|&v| schedule.vis(v, q));

            for &q in &queries {
                if schedule.vis(u, q) {
                    // (D1) dependency unless far-commuting or absorbed.
                    if !far_commutes(u, q) && !absorbed_towards(q) {
                        dep.insert(u, q);
                    }
                } else {
                    // (D2) anti-dependency unless far-commuting, absorbed,
                    // or exempted by asymmetric commutativity (Section 8).
                    let exempt = opts.asymmetric_commutativity && exempt(u, q);
                    if !far_commutes(u, q) && !exempt && !absorbed_towards(q) {
                        anti.insert(q, u);
                    }
                }
            }
            // (D3) conflicts between non-commuting updates in ar order.
            for &v in &updates {
                if schedule.ar(u, v) && !commutes(u, v) {
                    conflict.insert(u, v);
                }
            }
        }
        DependencyTriple { dep, anti, conflict }
    }
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

    /// Figure 3: one session, two transactions:
    ///   t0: inc(a,1); get(a):1      t1: put(a,2); get(a):2
    /// with the serial schedule. (We model `a` as a counter for inc/get and
    /// verify the absorption edge via a map-based variant below.)
    #[test]
    fn figure3_dependencies() {
        // Map-based rendition: put(a,1); get(a):1 | put(a,2); get(a):2
        let mut b = HistoryBuilder::new();
        let s = b.session();
        let t0 = b.begin(s);
        let e0 = b.push(t0, Operation::map_put("M", Value::str("a"), Value::int(1)));
        let e1 = b.push(t0, Operation::map_get("M", Value::str("a"), Value::int(1)));
        let t1 = b.begin(s);
        let e2 = b.push(t1, Operation::map_put("M", Value::str("a"), Value::int(2)));
        let e3 = b.push(t1, Operation::map_get("M", Value::str("a"), Value::int(2)));
        let h = b.finish();
        let order: Vec<_> = h.transactions().map(|t| t.id).collect();
        let sched = Schedule::serial(&h, &order);
        sched.check(&h).unwrap();
        let far = far_for(&h);
        let triple = DependencyTriple::compute(&h, &sched, &far, &DepOptions::default());
        // get(a):1 depends on put(a,1); get(a):2 depends on put(a,2).
        assert!(triple.dep.contains(e0, e1));
        assert!(triple.dep.contains(e2, e3));
        // put(a,1) is absorbed by put(a,2) on the way to get(a):2 — no dep.
        assert!(!triple.dep.contains(e0, e3));
        // put(a,2) conflicts after put(a,1).
        assert!(triple.conflict.contains(e0, e2));
        assert!(!triple.conflict.contains(e2, e0));
        // Figure 3b: get(a):1 anti-depends on the later-arbitrated,
        // invisible put(a,2).
        assert!(triple.anti.contains(e1, e2));
        // ...and that is the only anti-dependency.
        let anti_count: usize = (0..4u32)
            .flat_map(|i| (0..4u32).map(move |j| (i, j)))
            .filter(|&(i, j)| triple.anti.contains(EventId(i), EventId(j)))
            .count();
        assert_eq!(anti_count, 1);
    }

    /// The cross-session diagram of Figure 1c1 (via the simulator-free
    /// construction): each get misses the other session's put.
    #[test]
    fn figure1c1_anti_dependencies() {
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
        sched.check(&h).unwrap();
        let far = far_for(&h);
        let triple = DependencyTriple::compute(&h, &sched, &far, &DepOptions::default());
        // get("B"):0 anti-depends on put("B",2); get("A"):0 on put("A",1).
        assert!(triple.anti.contains(e1, e2));
        assert!(triple.anti.contains(e3, e0));
        // No cross dependencies (different keys).
        assert!(!triple.dep.contains(e0, e1));
        assert!(!triple.dep.contains(e2, e3));
        // Puts on different keys commute: no conflict edge.
        assert!(!triple.conflict.contains(e0, e2));
    }

    /// Absorption also cancels anti-dependencies: an invisible update whose
    /// absorber is visible cannot matter. Three sessions keep the absorbed
    /// update causally unrelated to its absorber.
    #[test]
    fn absorbed_invisible_update_is_no_anti_dependency() {
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let s2 = b.session();
        let t0 = b.begin(s0);
        let e0 = b.push(t0, Operation::map_put("M", Value::str("A"), Value::int(1)));
        let t1 = b.begin(s1);
        let e1 = b.push(t1, Operation::map_put("M", Value::str("A"), Value::int(2)));
        let t2 = b.begin(s2);
        let e2 = b.push(t2, Operation::map_get("M", Value::str("A"), Value::int(2)));
        let h2 = b.finish();
        let _ = (s0, s1, s2);
        let mut vis2 = c4_store::schedule::Relation::new(3);
        vis2.insert(e1, e2);
        let sched = Schedule::new(&h2, vec![e0, e1, e2], vis2).unwrap();
        sched.check(&h2).unwrap();
        let far = far_for(&h2);
        let triple = DependencyTriple::compute(&h2, &sched, &far, &DepOptions::default());
        // e0 is invisible to e2 but absorbed by e1 (visible, later in ar):
        // no anti-dependency.
        assert!(!triple.anti.contains(e2, e0));
        assert!(triple.dep.contains(e1, e2));
    }

    #[test]
    fn asymmetric_commutativity_toggle() {
        // contains("A"):true with an invisible implicit-creation update —
        // exempt only when the Section 8 extension is on. The two creations
        // add *different* followers so neither far-absorbs the other.
        let mut b = HistoryBuilder::new();
        let s0 = b.session();
        let s1 = b.session();
        let t0 = b.begin(s0);
        let e0 = b.push(t0, Operation::fld_add("Users", "flwrs", Value::str("A"), Value::str("B")));
        let t1 = b.begin(s1);
        let e1 = b.push(t1, Operation::fld_add("Users", "flwrs", Value::str("A"), Value::str("C")));
        let e2 = b.push(t1, Operation::tbl_contains("Users", Value::str("A"), true));
        let h = b.finish();
        let mut vis = c4_store::schedule::Relation::new(3);
        vis.insert(e1, e2);
        let sched = Schedule::new(&h, vec![e0, e1, e2], vis).unwrap();
        sched.check(&h).unwrap();
        let far = far_for(&h);
        let with = DependencyTriple::compute(&h, &sched, &far, &DepOptions::default());
        assert!(!with.anti.contains(e2, e0));
        let without = DependencyTriple::compute(
            &h,
            &sched,
            &far,
            &DepOptions { asymmetric_commutativity: false },
        );
        assert!(without.anti.contains(e2, e0));
    }
}
