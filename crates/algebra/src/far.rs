//! Far commutativity `↷º` and far absorption `▷` (Section 4.1).
//!
//! The far relations are computed relative to an operation [`Alphabet`] —
//! the set of operation signatures a program (or the whole store) may
//! issue. They are obtained from the plain relations by a downward fixpoint
//! refinement implementing the rules (R1) and (R2):
//!
//! * `u ▷ v` (far) holds if `u` is plainly absorbed by `v` and, for every
//!   possible interposer `m` in the alphabet, every instance of `m` either
//!   plainly commutes with `u` or far-absorbs `u`. (If so, `u` can be pushed
//!   rightward through any `β` until it meets `v`, giving `u β v ≡ β v`.)
//! * `u ↷º q` holds if `u` and `q` plainly commute and for every interposer
//!   `m`: `u` and `m` plainly commute, or `m ↷º q`, or `u ▷ m` — rule (R2)
//!   verbatim, as a greatest fixpoint.
//!
//! Checking "for every instance of `m`" is an entailment over argument
//! (dis)equalities, decided by the union-find checker in
//! [`crate::consistency`]. When a counter-instance exists, the refinement
//! conservatively drops the pair to `False` (rather than strengthening the
//! formula), which loses no precision on alphabets without `copy`: there,
//! far and plain versions coincide (verified by unit and property tests),
//! exactly as Section 4.1 states for the mainstream data stores.

use std::cell::OnceCell;

use c4_store::op::{ObjectName, OpKind};

use crate::consistency::{dnf, dnfs_consistent, Dnf};
use crate::spec::SpecFormula;
use crate::tables::RewriteSpec;
use crate::OpSig;

/// The operation alphabet: the signatures a program may issue.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Alphabet {
    sigs: Vec<OpSig>,
}

impl Alphabet {
    /// Creates an alphabet from signatures (duplicates are removed).
    pub fn new(sigs: impl IntoIterator<Item = OpSig>) -> Self {
        let mut v: Vec<OpSig> = sigs.into_iter().collect();
        v.sort();
        v.dedup();
        Alphabet { sigs: v }
    }

    /// The signatures of the alphabet.
    pub fn sigs(&self) -> &[OpSig] {
        &self.sigs
    }

    /// The update signatures of the alphabet.
    pub fn updates(&self) -> impl Iterator<Item = &OpSig> {
        self.sigs.iter().filter(|s| s.is_update())
    }

    /// The query signatures of the alphabet.
    pub fn queries(&self) -> impl Iterator<Item = &OpSig> {
        self.sigs.iter().filter(|s| s.is_query())
    }
}

impl FromIterator<OpSig> for Alphabet {
    fn from_iter<T: IntoIterator<Item = OpSig>>(iter: T) -> Self {
        Alphabet::new(iter)
    }
}

/// The index of a signature in a [`FarSpec`]'s alphabet (its position in
/// [`Alphabet::sigs`]). Resolve it once with [`FarSpec::sig_id`]; the
/// `*_id` lookups are then two multiplications and a borrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

/// The far relations over a fixed alphabet.
///
/// Every relation is kept as a dense `n × n` table over the alphabet's
/// `n` signatures, indexed `src * n + tgt`: far absorption, far
/// commutation in both orientations, plain commutation and the
/// anti-dependency exemption.
#[derive(Debug, Clone)]
pub struct FarSpec {
    spec: RewriteSpec,
    sigs: Vec<OpSig>,
    far_abs: Vec<SpecFormula>,
    far_com: Vec<SpecFormula>,
    commute: Vec<SpecFormula>,
    anti_exempt: Vec<SpecFormula>,
}

/// A relation table's entries in DNF, as they stand and negated, each
/// converted when first read.
struct DnfTable {
    /// `[as they stand, negated]`, indexed like the table.
    cells: [Vec<OnceCell<Dnf>>; 2],
}

impl DnfTable {
    fn new(len: usize) -> Self {
        DnfTable { cells: [(); 2].map(|_| (0..len).map(|_| OnceCell::new()).collect()) }
    }

    /// Entry `i` of `table` in DNF, negated or not.
    fn get(&self, table: &[SpecFormula], i: usize, negated: bool) -> &Dnf {
        self.cells[usize::from(negated)][i].get_or_init(|| dnf(&table[i], negated))
    }

    /// Forgets entry `i`'s DNFs once the entry has changed.
    fn reset(&mut self, i: usize) {
        for cells in &mut self.cells {
            cells[i] = OnceCell::new();
        }
    }
}

impl FarSpec {
    /// Computes the far relations for the given alphabet (R1)/(R2).
    pub fn compute(spec: RewriteSpec, alphabet: &Alphabet) -> Self {
        let sigs = alphabet.sigs().to_vec();
        let n = sigs.len();
        let pairs = |f: &dyn Fn(&OpSig, &OpSig) -> SpecFormula| -> Vec<SpecFormula> {
            sigs.iter().flat_map(|a| sigs.iter().map(move |b| f(a, b))).collect()
        };
        let commute = pairs(&|a, b| spec.commute(a, b));
        let anti_exempt = pairs(&|a, b| spec.anti_dep_exempt(a, b));
        let updates: Vec<usize> = (0..n).filter(|&i| sigs[i].is_update()).collect();
        let queries: Vec<usize> = (0..n).filter(|&i| sigs[i].is_query()).collect();

        // Every check below conjoins one entry's DNF with the negated DNFs
        // of three others; each is converted when a check first reads it.
        let commute_dnf = DnfTable::new(n * n);

        // --- far absorption: gfp refinement of plain absorption ---
        let mut far_abs = vec![SpecFormula::False; n * n];
        for &u in &updates {
            for &v in &updates {
                far_abs[u * n + v] = spec.absorbs(&sigs[u], &sigs[v]);
            }
        }
        let mut abs_dnf = DnfTable::new(n * n);
        loop {
            let mut changed = false;
            for &u in &updates {
                for &v in &updates {
                    if far_abs[u * n + v].is_false() {
                        continue;
                    }
                    // Slots: 0 = u, 1 = v, 2 = interposer m. An interposer
                    // is harmless when u commutes past it, or it far-absorbs
                    // u, or v far-absorbs *it* (then m itself can be removed
                    // in front of v first).
                    let broken = updates.iter().any(|&m| {
                        dnfs_consistent(&[
                            (abs_dnf.get(&far_abs, u * n + v, false), 0, 1),
                            (commute_dnf.get(&commute, u * n + m, true), 0, 2),
                            (abs_dnf.get(&far_abs, u * n + m, true), 0, 2),
                            (abs_dnf.get(&far_abs, m * n + v, true), 2, 1),
                        ])
                    });
                    if broken {
                        far_abs[u * n + v] = SpecFormula::False;
                        abs_dnf.reset(u * n + v);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // --- far commutativity u ↷º q: gfp refinement of plain (R2) ---
        // Update/update pairs use plain commutativity, query/query pairs
        // always far-commute; query/update pairs are filled in flipped
        // once the update/query half is final.
        let mut far_com: Vec<SpecFormula> = (0..n * n)
            .map(|i| match (sigs[i / n].is_update(), sigs[i % n].is_update()) {
                (false, false) => SpecFormula::True,
                (false, true) => SpecFormula::False,
                _ => commute[i].clone(),
            })
            .collect();
        let mut com_dnf = DnfTable::new(n * n);
        loop {
            let mut changed = false;
            for &u in &updates {
                for &q in &queries {
                    if far_com[u * n + q].is_false() {
                        continue;
                    }
                    // Slots: 0 = u, 1 = q, 2 = interposer m.
                    let broken = updates.iter().any(|&m| {
                        dnfs_consistent(&[
                            (com_dnf.get(&far_com, u * n + q, false), 0, 1),
                            (commute_dnf.get(&commute, u * n + m, true), 0, 2),
                            (com_dnf.get(&far_com, m * n + q, true), 2, 1),
                            (abs_dnf.get(&far_abs, u * n + m, true), 0, 2),
                        ])
                    });
                    if broken {
                        far_com[u * n + q] = SpecFormula::False;
                        com_dnf.reset(u * n + q);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for &q in &queries {
            for &u in &updates {
                far_com[q * n + u] = far_com[u * n + q].flipped();
            }
        }

        FarSpec { spec, sigs, far_abs, far_com, commute, anti_exempt }
    }

    /// The underlying rewrite specification.
    pub fn rewrite(&self) -> &RewriteSpec {
        &self.spec
    }

    /// The alphabet the relations are computed over, sorted.
    pub fn sigs(&self) -> &[OpSig] {
        &self.sigs
    }

    /// The id of the signature `object.kind`, if it is in the alphabet.
    /// Takes the parts by reference, so no signature is built to look
    /// one up.
    pub fn sig_id(&self, object: &ObjectName, kind: &OpKind) -> Option<SigId> {
        self.sigs
            .binary_search_by(|s| s.object.cmp(object).then_with(|| s.kind.cmp(kind)))
            .ok()
            .map(|i| SigId(i as u32))
    }

    fn id_of(&self, sig: &OpSig) -> Option<SigId> {
        self.sig_id(&sig.object, &sig.kind)
    }

    fn at<'a>(&self, table: &'a [SpecFormula], src: SigId, tgt: SigId) -> &'a SpecFormula {
        &table[src.0 as usize * self.sigs.len() + tgt.0 as usize]
    }

    /// Far absorption `src ▷ tgt` between two alphabet signatures.
    pub fn far_absorbs_id(&self, src: SigId, tgt: SigId) -> &SpecFormula {
        self.at(&self.far_abs, src, tgt)
    }

    /// Far commutativity between two alphabet signatures (see
    /// [`FarSpec::far_commutes`]).
    pub fn far_commutes_id(&self, src: SigId, tgt: SigId) -> &SpecFormula {
        self.at(&self.far_com, src, tgt)
    }

    /// Plain commutativity ([`RewriteSpec::commute`]) between two alphabet
    /// signatures.
    pub fn commute_id(&self, src: SigId, tgt: SigId) -> &SpecFormula {
        self.at(&self.commute, src, tgt)
    }

    /// The anti-dependency exemption ([`RewriteSpec::anti_dep_exempt`])
    /// between two alphabet signatures.
    pub fn anti_dep_exempt_id(&self, src: SigId, tgt: SigId) -> &SpecFormula {
        self.at(&self.anti_exempt, src, tgt)
    }

    /// Far absorption `src ▷ tgt` as a formula over the pair's arguments.
    ///
    /// Pairs outside the alphabet fall back to `False` (conservative).
    pub fn far_absorbs(&self, src: &OpSig, tgt: &OpSig) -> SpecFormula {
        match (self.id_of(src), self.id_of(tgt)) {
            (Some(a), Some(b)) => self.far_absorbs_id(a, b).clone(),
            _ => SpecFormula::False,
        }
    }

    /// Far commutativity between two events, extended to all event kinds as
    /// in Section 4.1: update/query pairs use (R2) in either orientation,
    /// query/query pairs always far-commute, update/update pairs use plain
    /// commutativity.
    ///
    /// Update/query pairs outside the alphabet fall back to `False`
    /// (conservative).
    pub fn far_commutes(&self, src: &OpSig, tgt: &OpSig) -> SpecFormula {
        if let (Some(a), Some(b)) = (self.id_of(src), self.id_of(tgt)) {
            return self.far_commutes_id(a, b).clone();
        }
        match (src.is_update(), tgt.is_update()) {
            (true, true) => self.spec.commute(src, tgt),
            (false, false) => SpecFormula::True,
            _ => SpecFormula::False,
        }
    }

    /// Evaluates far commutativity on concrete operations.
    pub fn far_commutes_concrete(
        &self,
        src: &c4_store::Operation,
        tgt: &c4_store::Operation,
    ) -> bool {
        self.far_commutes(&OpSig::of(src), &OpSig::of(tgt)).eval(src, tgt)
    }

    /// Evaluates far absorption on concrete operations.
    pub fn far_absorbs_concrete(
        &self,
        src: &c4_store::Operation,
        tgt: &c4_store::Operation,
    ) -> bool {
        self.far_absorbs(&OpSig::of(src), &OpSig::of(tgt)).eval(src, tgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4_store::op::OpKind;

    fn map_alphabet(with_copy: bool) -> Alphabet {
        let mut sigs = vec![
            OpSig::new("M", OpKind::MapPut),
            OpSig::new("M", OpKind::MapRemove),
            OpSig::new("M", OpKind::MapGet),
            OpSig::new("M", OpKind::MapContains),
            OpSig::new("M", OpKind::MapSize),
        ];
        if with_copy {
            sigs.push(OpSig::new("M", OpKind::MapCopy));
        }
        Alphabet::new(sigs)
    }

    #[test]
    fn without_copy_far_equals_plain() {
        let spec = RewriteSpec::new();
        let far = FarSpec::compute(spec, &map_alphabet(false));
        for a in map_alphabet(false).sigs() {
            for b in map_alphabet(false).sigs() {
                assert_eq!(
                    far.far_commutes(a, b),
                    match (a.is_update(), b.is_update()) {
                        (false, false) => SpecFormula::True,
                        _ => spec.commute(a, b),
                    },
                    "far ≠ plain commutativity for {a} / {b}"
                );
                if a.is_update() && b.is_update() {
                    assert_eq!(far.far_absorbs(a, b), spec.absorbs(a, b), "far abs {a} / {b}");
                }
            }
        }
    }

    #[test]
    fn with_copy_put_no_longer_far_absorbed() {
        // Section 4.1: put(a,2) no longer far-absorbs inc(a,1) when copy is
        // present; the map analogue is put ▷ put collapsing.
        let spec = RewriteSpec::new();
        let far = FarSpec::compute(spec, &map_alphabet(true));
        let put = OpSig::new("M", OpKind::MapPut);
        assert!(far.far_absorbs(&put, &put).is_false());
        assert!(!spec.absorbs(&put, &put).is_false());
    }

    #[test]
    fn with_copy_put_no_longer_far_commutes_with_get() {
        // Section 4.1: put(a,2) no longer far-commutes with get(b):2 since
        // cp(a,b) commutes with or absorbs neither of them.
        let spec = RewriteSpec::new();
        let far = FarSpec::compute(spec, &map_alphabet(true));
        let put = OpSig::new("M", OpKind::MapPut);
        let get = OpSig::new("M", OpKind::MapGet);
        assert!(far.far_commutes(&put, &get).is_false());
        assert!(!spec.commute(&put, &get).is_false());
    }

    #[test]
    fn copy_does_not_affect_other_objects() {
        let spec = RewriteSpec::new();
        let mut sigs = map_alphabet(true).sigs().to_vec();
        sigs.push(OpSig::new("N", OpKind::MapPut));
        sigs.push(OpSig::new("N", OpKind::MapGet));
        let far = FarSpec::compute(spec, &Alphabet::new(sigs));
        let put_n = OpSig::new("N", OpKind::MapPut);
        let get_n = OpSig::new("N", OpKind::MapGet);
        assert_eq!(far.far_commutes(&put_n, &get_n), spec.commute(&put_n, &get_n));
        assert_eq!(far.far_absorbs(&put_n, &put_n), spec.absorbs(&put_n, &put_n));
    }

    #[test]
    fn table_alphabet_far_equals_plain() {
        let spec = RewriteSpec::new();
        let sigs = vec![
            OpSig::new("Quiz", OpKind::TblAddRow),
            OpSig::new("Quiz", OpKind::TblDeleteRow),
            OpSig::new("Quiz", OpKind::TblContains),
            OpSig::new("Quiz", OpKind::FldSet("question".into())),
            OpSig::new("Quiz", OpKind::FldGet("question".into())),
            OpSig::new("Quiz", OpKind::FldSet("answer".into())),
            OpSig::new("Quiz", OpKind::FldGet("answer".into())),
        ];
        let alphabet = Alphabet::new(sigs.clone());
        let far = FarSpec::compute(spec, &alphabet);
        for a in &sigs {
            for b in &sigs {
                if a.is_update() && b.is_query() {
                    assert_eq!(far.far_commutes(a, b), spec.commute(a, b), "{a} / {b}");
                }
                if a.is_update() && b.is_update() {
                    assert_eq!(far.far_absorbs(a, b), spec.absorbs(a, b), "{a} / {b}");
                }
            }
        }
    }

    #[test]
    fn queries_always_far_commute() {
        let spec = RewriteSpec::new();
        let far = FarSpec::compute(spec, &map_alphabet(true));
        let get = OpSig::new("M", OpKind::MapGet);
        let size = OpSig::new("M", OpKind::MapSize);
        assert!(far.far_commutes(&get, &size).is_true());
    }

    #[test]
    fn far_commute_concrete_orientation() {
        let spec = RewriteSpec::new();
        let far = FarSpec::compute(spec, &map_alphabet(false));
        let put = c4_store::Operation::map_put("M", c4_store::Value::str("a"), c4_store::Value::int(1));
        let get_b =
            c4_store::Operation::map_get("M", c4_store::Value::str("b"), c4_store::Value::int(0));
        assert!(far.far_commutes_concrete(&put, &get_b));
        assert!(far.far_commutes_concrete(&get_b, &put));
        let get_a =
            c4_store::Operation::map_get("M", c4_store::Value::str("a"), c4_store::Value::int(1));
        assert!(!far.far_commutes_concrete(&put, &get_a));
        assert!(!far.far_commutes_concrete(&get_a, &put));
    }

    #[test]
    fn id_tables_match_the_relations() {
        let spec = RewriteSpec::new();
        let mut sigs = map_alphabet(true).sigs().to_vec();
        sigs.push(OpSig::new("N", OpKind::MapPut));
        sigs.push(OpSig::new("N", OpKind::MapGet));
        let far = FarSpec::compute(spec, &Alphabet::new(sigs));
        let id = |s: &OpSig| far.sig_id(&s.object, &s.kind).expect("in the alphabet");
        for a in far.sigs() {
            for b in far.sigs() {
                let (ia, ib) = (id(a), id(b));
                assert_eq!(far.far_absorbs_id(ia, ib), &far.far_absorbs(a, b), "{a} / {b}");
                assert_eq!(far.far_commutes_id(ia, ib), &far.far_commutes(a, b), "{a} / {b}");
                assert_eq!(far.commute_id(ia, ib), &spec.commute(a, b), "{a} / {b}");
                assert_eq!(
                    far.anti_dep_exempt_id(ia, ib),
                    &spec.anti_dep_exempt(a, b),
                    "{a} / {b}"
                );
                if a.is_query() && b.is_update() {
                    assert_eq!(
                        far.far_commutes_id(ia, ib),
                        &far.far_commutes_id(ib, ia).flipped(),
                        "{a} / {b}"
                    );
                }
            }
        }
        let outside = OpSig::new("O", OpKind::MapPut);
        assert_eq!(far.sig_id(&outside.object, &outside.kind), None);
        let put = OpSig::new("M", OpKind::MapPut);
        assert!(far.far_absorbs(&outside, &put).is_false());
        assert_eq!(far.far_commutes(&outside, &outside), spec.commute(&outside, &outside));
    }

    /// The far relations by the same refinement over the reference
    /// checker, which converts the four formulas of every check to DNF.
    /// Returns the far absorption and far commutation tables.
    fn reference_tables(spec: RewriteSpec, alphabet: &Alphabet) -> [Vec<SpecFormula>; 2] {
        use crate::consistency::reference::formulas_consistent;
        let sigs = alphabet.sigs();
        let n = sigs.len();
        let commute: Vec<SpecFormula> =
            sigs.iter().flat_map(|a| sigs.iter().map(move |b| spec.commute(a, b))).collect();
        let updates: Vec<usize> = (0..n).filter(|&i| sigs[i].is_update()).collect();
        let queries: Vec<usize> = (0..n).filter(|&i| sigs[i].is_query()).collect();
        let mut far_abs = vec![SpecFormula::False; n * n];
        for &u in &updates {
            for &v in &updates {
                far_abs[u * n + v] = spec.absorbs(&sigs[u], &sigs[v]);
            }
        }
        loop {
            let mut changed = false;
            for &u in &updates {
                for &v in &updates {
                    let cur = &far_abs[u * n + v];
                    if cur.is_false() {
                        continue;
                    }
                    let broken = updates.iter().any(|&m| {
                        formulas_consistent(&[
                            (cur, false, 0, 1),
                            (&commute[u * n + m], true, 0, 2),
                            (&far_abs[u * n + m], true, 0, 2),
                            (&far_abs[m * n + v], true, 2, 1),
                        ])
                    });
                    if broken {
                        far_abs[u * n + v] = SpecFormula::False;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut far_com: Vec<SpecFormula> = (0..n * n)
            .map(|i| match (sigs[i / n].is_update(), sigs[i % n].is_update()) {
                (false, false) => SpecFormula::True,
                (false, true) => SpecFormula::False,
                _ => commute[i].clone(),
            })
            .collect();
        loop {
            let mut changed = false;
            for &u in &updates {
                for &q in &queries {
                    let cur = &far_com[u * n + q];
                    if cur.is_false() {
                        continue;
                    }
                    let broken = updates.iter().any(|&m| {
                        formulas_consistent(&[
                            (cur, false, 0, 1),
                            (&commute[u * n + m], true, 0, 2),
                            (&far_com[m * n + q], true, 2, 1),
                            (&far_abs[u * n + m], true, 0, 2),
                        ])
                    });
                    if broken {
                        far_com[u * n + q] = SpecFormula::False;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for &q in &queries {
            for &u in &updates {
                far_com[q * n + u] = far_com[u * n + q].flipped();
            }
        }
        [far_abs, far_com]
    }

    /// Every signature the random alphabets draw from but `copy`: two
    /// maps, a counter, a register, a set, a log and a table with two
    /// fields.
    fn signature_pool() -> Vec<OpSig> {
        use OpKind::*;
        let mut pool = Vec::new();
        for (object, kinds) in [
            ("M", vec![MapPut, MapRemove, MapGet, MapContains, MapSize]),
            ("N", vec![MapPut, MapRemove, MapGet, MapContains, MapSize]),
            ("C", vec![CtrInc, CtrGet]),
            ("R", vec![RegPut, RegGet]),
            ("S", vec![SetAdd, SetRemove, SetContains, SetSize]),
            ("L", vec![LogAppend, LogLast, LogCount, LogHas]),
        ] {
            pool.extend(kinds.into_iter().map(|k| OpSig::new(object, k)));
        }
        pool.extend([TblAddRow, TblDeleteRow, TblContains].map(|k| OpSig::new("T", k)));
        for field in ["f", "g"] {
            let f = || c4_store::op::FieldName::from(field);
            for k in [FldSet(f()), FldGet(f()), FldAdd(f()), FldRemove(f()), FldContains(f())] {
                pool.push(OpSig::new("T", k));
            }
            pool.push(OpSig::new("T", FldSize(f())));
        }
        pool
    }

    /// `FarSpec::compute` (each entry's DNF converted once) against the
    /// per-check conversion, on random alphabets of several objects with
    /// and without `copy`: every table entry is identical.
    #[test]
    fn tables_match_the_reference_on_random_alphabets() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let spec = RewriteSpec::new();
        let mut rng = StdRng::seed_from_u64(0xFA5);
        let mut refined = [0usize; 2];
        for round in 0..120 {
            let with_copy = round % 2 == 1;
            let pool = signature_pool();
            let density = [0.15, 0.3, 0.6][round % 3];
            let mut sigs: Vec<OpSig> =
                pool.iter().filter(|_| rng.gen_bool(density)).cloned().collect();
            if with_copy {
                sigs.push(OpSig::new("M", OpKind::MapCopy));
            }
            let alphabet = Alphabet::new(sigs);
            let far = FarSpec::compute(spec, &alphabet);
            let [far_abs, far_com] = reference_tables(spec, &alphabet);
            let n = alphabet.sigs().len();
            for (i, a) in alphabet.sigs().iter().enumerate() {
                for (j, b) in alphabet.sigs().iter().enumerate() {
                    let (ia, ib) = (SigId(i as u32), SigId(j as u32));
                    assert_eq!(far.far_absorbs_id(ia, ib), &far_abs[i * n + j], "{a} ▷ {b}");
                    assert_eq!(far.far_commutes_id(ia, ib), &far_com[i * n + j], "{a} ↷ {b}");
                    assert_eq!(far.commute_id(ia, ib), &spec.commute(a, b), "{a} / {b}");
                    assert_eq!(
                        far.anti_dep_exempt_id(ia, ib),
                        &spec.anti_dep_exempt(a, b),
                        "{a} / {b}"
                    );
                    if a.is_update() && b.is_update() {
                        refined[0] += usize::from(
                            far_abs[i * n + j].is_false() && !spec.absorbs(a, b).is_false(),
                        );
                    }
                    if a.is_update() && b.is_query() {
                        refined[1] += usize::from(
                            far_com[i * n + j].is_false() && !spec.commute(a, b).is_false(),
                        );
                    }
                }
            }
        }
        // Both refinements dropped some plain pair, so both fixpoints
        // were compared where they do work.
        assert!(refined.iter().all(|&r| r > 0), "refined {refined:?}");
    }

    #[test]
    fn alphabet_dedups() {
        let a = Alphabet::new(vec![
            OpSig::new("M", OpKind::MapPut),
            OpSig::new("M", OpKind::MapPut),
        ]);
        assert_eq!(a.sigs().len(), 1);
    }
}
