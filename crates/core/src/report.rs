//! Violation reports and analysis statistics.

use std::collections::BTreeSet;

pub use c4_obs::{Stage, StageTimings};

use crate::ssg::SsgLabel;

/// A detected (potential) serializability violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The set of original abstract transactions on the cycle.
    pub txs: BTreeSet<usize>,
    /// The labels along the cycle, in order.
    pub labels: Vec<SsgLabel>,
    /// Number of sessions of the witnessing unfolding.
    pub sessions: usize,
    /// Human-readable counter-example (a concrete history with a
    /// pre-schedule exhibiting the DSG cycle), if the SMT stage produced
    /// and validated one.
    pub counterexample: Option<String>,
}

impl Violation {
    /// Whether this violation subsumes another: its transactions are a
    /// subset of the other's (Section 7: a smaller cycle subsumes a larger
    /// one over the same syntactic transactions).
    pub fn subsumes(&self, other_txs: &BTreeSet<usize>) -> bool {
        self.txs.is_subset(other_txs)
    }
}

/// Statistics of one analysis run.
///
/// **Determinism contract.** The counters through
/// `generalization_queries` are *replay counters*: in parallel runs they
/// are computed by the deterministic in-order merge with exactly the
/// sequential semantics, so for any fixed history and feature set they
/// are identical across `parallelism` settings (as long as no deadline
/// fires). The fields from `speculative_smt_queries` on are
/// *scheduling-dependent*: they describe how much work the workers
/// actually performed, which varies with thread interleaving (a worker
/// may speculatively solve a candidate that the merge later discards as
/// subsumed, or skip one via a snapshot that arrived just in time).
#[derive(Debug, Clone, Default)]
pub struct AnalysisStats {
    /// Unfoldings enumerated.
    pub unfoldings: usize,
    /// Unfoldings whose SSG passed the Theorem 3 pre-filter.
    pub suspicious_unfoldings: usize,
    /// Candidate cycles skipped by subsumption.
    pub subsumed_candidates: usize,
    /// SMT queries issued.
    pub smt_queries: usize,
    /// SMT queries that returned a model.
    pub smt_sat: usize,
    /// Candidate cycles refuted by the SMT stage (the paper's
    /// "violations ruled out as infeasible").
    pub smt_refuted: usize,
    /// Counter-examples that failed concrete validation (should be zero;
    /// reported for diagnostics).
    pub validation_failures: usize,
    /// SMT probes issued by the Section 7.2 generalization (these count
    /// toward `smt_queries` but are neither `smt_sat` nor `smt_refuted`:
    /// a probe's verdict is about short-cuttability, not feasibility).
    pub generalization_queries: usize,
    /// SMT queries the workers actually solved, including speculative
    /// ones whose result the merge discarded as subsumed
    /// (scheduling-dependent; sums `per_worker_queries`).
    pub speculative_smt_queries: usize,
    /// Candidates a worker skipped early because the best-effort merged
    /// subsumption snapshot already covered them (scheduling-dependent).
    pub preprune_skips: usize,
    /// Candidates the merge had to re-solve because a worker pre-pruned
    /// them but the deterministic replay still needed their verdict.
    /// Structurally impossible when the snapshot holds only merged
    /// violations (subsumption is monotone); reported as a self-check.
    pub preprune_fallbacks: usize,
    /// SMT queries the merge thread solved itself: fresh, authoritative
    /// solves of candidates whose verdict the replay needed but no worker
    /// supplied (scheduling-dependent; not part of
    /// `speculative_smt_queries`, which counts the pool's work only).
    pub merge_smt_queries: usize,
    /// Bounded-search queries answered through a shared incremental
    /// encoder session under an assumption literal (scheduling-dependent:
    /// like `speculative_smt_queries`, this counts work actually
    /// performed; zero in `Checker::run_reference`).
    pub assumption_solves: usize,
    /// Incremental-SAT verdicts re-solved with a fresh encoder for the
    /// canonical counter-example model (scheduling-dependent; a subset of
    /// `assumption_solves`).
    pub sat_resolves: usize,
    /// Learnt clauses retained in incremental sessions, summed over the
    /// per-unfolding encoders at their retirement (scheduling-dependent;
    /// after learnt-database reduction, so a bounded measure of solver
    /// state carried between queries).
    pub learnt_clauses: usize,
    /// Symmetry equivalence classes analyzed in full (one representative
    /// per class; equals `unfoldings` when every class is a singleton).
    /// Deterministic for a fixed history — classification happens in
    /// enumeration order — but excluded from the replay counters because
    /// the reference search (`Checker::run_reference`) forms no classes.
    pub classes: usize,
    /// Unfoldings whose SSG + SMT work was replayed from their class
    /// representative's record instead of being recomputed (zero in the
    /// reference search).
    pub class_members_skipped: usize,
    /// High-water mark of unfoldings simultaneously resident: dispensed
    /// by the streaming enumeration but not yet merged. 1 at one worker;
    /// bounded by the dispenser chunking and channel backpressure
    /// (≈ `workers · (CHUNK + 2)`) on the pool,
    /// demonstrating the enumeration never materializes the O(n^k)
    /// unfolding space.
    pub peak_unfoldings_resident: usize,
    /// Whether the wall-clock budget expired and the run returned a
    /// partial (still well-formed) result.
    pub deadline_hit: bool,
    /// Worker threads used by the bounded search (1 when discovery and
    /// merge run inline on the calling thread).
    pub workers: usize,
    /// SMT queries solved per worker, indexed by worker id
    /// (scheduling-dependent; sums to `speculative_smt_queries`).
    pub per_worker_queries: Vec<usize>,
    /// Self time per pipeline stage, the fold of the run's stage spans
    /// (see [`c4_obs::ledger`]). Timings are non-deterministic and
    /// excluded from [`AnalysisResult::same_verdict`].
    pub timings: StageTimings,
}

impl AnalysisStats {
    /// Merges another stats record into this one.
    pub fn absorb(&mut self, other: &AnalysisStats) {
        self.unfoldings += other.unfoldings;
        self.suspicious_unfoldings += other.suspicious_unfoldings;
        self.subsumed_candidates += other.subsumed_candidates;
        self.smt_queries += other.smt_queries;
        self.smt_sat += other.smt_sat;
        self.smt_refuted += other.smt_refuted;
        self.validation_failures += other.validation_failures;
        self.generalization_queries += other.generalization_queries;
        self.speculative_smt_queries += other.speculative_smt_queries;
        self.preprune_skips += other.preprune_skips;
        self.preprune_fallbacks += other.preprune_fallbacks;
        self.merge_smt_queries += other.merge_smt_queries;
        self.assumption_solves += other.assumption_solves;
        self.sat_resolves += other.sat_resolves;
        self.learnt_clauses += other.learnt_clauses;
        self.classes += other.classes;
        self.class_members_skipped += other.class_members_skipped;
        self.peak_unfoldings_resident =
            self.peak_unfoldings_resident.max(other.peak_unfoldings_resident);
        self.deadline_hit |= other.deadline_hit;
        self.workers = self.workers.max(other.workers);
        for (i, q) in other.per_worker_queries.iter().enumerate() {
            if i < self.per_worker_queries.len() {
                self.per_worker_queries[i] += q;
            } else {
                self.per_worker_queries.push(*q);
            }
        }
        self.timings += other.timings;
    }

    /// The replay counters, i.e. the scheduling-independent prefix of the
    /// stats (everything workers may legitimately vary on is excluded).
    /// Two runs of the same analysis at different `parallelism` settings
    /// agree on this tuple whenever neither hit its deadline.
    pub fn replay_counters(&self) -> (usize, usize, usize, usize, usize, usize, usize, usize) {
        (
            self.unfoldings,
            self.suspicious_unfoldings,
            self.subsumed_candidates,
            self.smt_queries,
            self.smt_sat,
            self.smt_refuted,
            self.validation_failures,
            self.generalization_queries,
        )
    }

    /// Mirror every scalar counter into the trace recorder, so an
    /// exported trace is self-describing without the report beside it.
    /// Called by the checker at the end of a run when tracing is on.
    pub fn emit_counters(&self) {
        use c4_obs::counter;
        counter("unfoldings", self.unfoldings as u64);
        counter("suspicious_unfoldings", self.suspicious_unfoldings as u64);
        counter("subsumed_candidates", self.subsumed_candidates as u64);
        counter("smt_queries", self.smt_queries as u64);
        counter("smt_sat", self.smt_sat as u64);
        counter("smt_refuted", self.smt_refuted as u64);
        counter("validation_failures", self.validation_failures as u64);
        counter("generalization_queries", self.generalization_queries as u64);
        counter("speculative_smt_queries", self.speculative_smt_queries as u64);
        counter("preprune_skips", self.preprune_skips as u64);
        counter("preprune_fallbacks", self.preprune_fallbacks as u64);
        counter("merge_smt_queries", self.merge_smt_queries as u64);
        counter("assumption_solves", self.assumption_solves as u64);
        counter("sat_resolves", self.sat_resolves as u64);
        counter("learnt_clauses", self.learnt_clauses as u64);
        counter("classes", self.classes as u64);
        counter("class_members_skipped", self.class_members_skipped as u64);
        counter("peak_unfoldings_resident", self.peak_unfoldings_resident as u64);
        counter("deadline_hit", self.deadline_hit as u64);
        counter("workers", self.workers as u64);
    }
}

/// The result of running the checker on an abstract history.
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    /// The violations found (subsumption-minimal).
    pub violations: Vec<Violation>,
    /// Whether the Section 7.2 generalization succeeded: the result covers
    /// an unbounded number of sessions.
    pub generalized: bool,
    /// The largest `k` analyzed.
    pub max_k: usize,
    /// Statistics.
    pub stats: AnalysisStats,
}

impl AnalysisResult {
    /// Whether the program was proved serializable (no violations and the
    /// generalization succeeded).
    pub fn serializable(&self) -> bool {
        self.violations.is_empty() && self.generalized
    }

    /// Whether two results report the same analysis verdict: identical
    /// violations (transaction sets, labels, session counts, and rendered
    /// counter-examples, in the same order), `generalized` flag and
    /// `max_k`. Stats are excluded: timings are non-deterministic and the
    /// scheduling-dependent counters legitimately differ across
    /// `parallelism` settings (see [`AnalysisStats`]).
    pub fn same_verdict(&self, other: &AnalysisResult) -> bool {
        self.violations == other.violations
            && self.generalized == other.generalized
            && self.max_k == other.max_k
    }
}

/// Version of the report wire format produced by
/// [`AnalysisResult::encode_report`]. Bumped on any change to the byte
/// layout; decoders reject other versions with
/// [`DecodeError::VersionMismatch`], which cache layers treat as a miss
/// (a stale on-disk entry must never turn into a wrong verdict).
pub const REPORT_WIRE_VERSION: u16 = 1;

/// Magic prefix of an encoded report.
pub const REPORT_MAGIC: [u8; 4] = *b"C4RP";

/// Why a report failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes carry a different (older or newer) format version.
    VersionMismatch {
        /// The version found in the header.
        found: u16,
    },
    /// Structurally invalid bytes (bad magic, truncation, bad tag, …).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::VersionMismatch { found } => write!(
                f,
                "report wire version {found} (this build speaks {REPORT_WIRE_VERSION})"
            ),
            DecodeError::Malformed(what) => write!(f, "malformed report bytes: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte-oriented primitives of the report wire format. All integers are
/// big-endian; strings are UTF-8 with a `u32` byte-length prefix.
mod wire {
    use super::DecodeError;

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_usize(out: &mut Vec<u8>, v: usize) {
        put_u64(out, v as u64);
    }

    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// A checked cursor over encoded bytes.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|&e| e <= self.buf.len())
                .ok_or(DecodeError::Malformed("truncated"))?;
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        pub fn u8(&mut self) -> Result<u8, DecodeError> {
            Ok(self.take(1)?[0])
        }

        pub fn u16(&mut self) -> Result<u16, DecodeError> {
            Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
        }

        pub fn u32(&mut self) -> Result<u32, DecodeError> {
            Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub fn u64(&mut self) -> Result<u64, DecodeError> {
            Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub fn usize(&mut self) -> Result<usize, DecodeError> {
            Ok(self.u64()? as usize)
        }

        /// A `u32` used as a collection length: bounded by the remaining
        /// bytes so corrupt lengths fail fast instead of OOM-ing.
        pub fn len(&mut self) -> Result<usize, DecodeError> {
            let n = self.u32()? as usize;
            if n > self.buf.len() - self.pos {
                return Err(DecodeError::Malformed("length exceeds input"));
            }
            Ok(n)
        }

        pub fn str(&mut self) -> Result<String, DecodeError> {
            let n = self.len()?;
            let bytes = self.take(n)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|_| DecodeError::Malformed("non-UTF-8 string"))
        }

        pub fn finish(&self) -> Result<(), DecodeError> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(DecodeError::Malformed("trailing bytes"))
            }
        }
    }
}

fn label_code(l: SsgLabel) -> u8 {
    match l {
        SsgLabel::So => 0,
        SsgLabel::Dep => 1,
        SsgLabel::Anti => 2,
        SsgLabel::Conflict => 3,
    }
}

fn label_of(code: u8) -> Result<SsgLabel, DecodeError> {
    Ok(match code {
        0 => SsgLabel::So,
        1 => SsgLabel::Dep,
        2 => SsgLabel::Anti,
        3 => SsgLabel::Conflict,
        _ => return Err(DecodeError::Malformed("unknown SSG label code")),
    })
}

impl AnalysisResult {
    /// Encodes the *deterministic* portion of the result — the verdict —
    /// into the stable, versioned report wire format: violations
    /// (transaction sets, cycle labels, session counts, rendered
    /// counter-examples), the `generalized` flag, `max_k`, the replay
    /// counters of [`AnalysisStats::replay_counters`], and
    /// `deadline_hit`.
    ///
    /// Timings and scheduling-dependent counters are deliberately
    /// excluded: for a fixed history and feature set the encoding is
    /// byte-identical across runs, `parallelism` settings and the
    /// reference search (as long as no deadline fires), which is
    /// what lets the content-addressed verdict cache serve stored bytes
    /// verbatim and lets differential tests compare daemon-served and
    /// directly-computed reports with `==` on bytes.
    pub fn encode_report(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&REPORT_MAGIC);
        out.extend_from_slice(&REPORT_WIRE_VERSION.to_be_bytes());
        let flags: u8 =
            (self.generalized as u8) | ((self.stats.deadline_hit as u8) << 1);
        out.push(flags);
        wire::put_u32(&mut out, self.max_k as u32);
        wire::put_u32(&mut out, self.violations.len() as u32);
        for v in &self.violations {
            wire::put_u32(&mut out, v.txs.len() as u32);
            for &t in &v.txs {
                wire::put_usize(&mut out, t);
            }
            wire::put_u32(&mut out, v.labels.len() as u32);
            for &l in &v.labels {
                out.push(label_code(l));
            }
            wire::put_u32(&mut out, v.sessions as u32);
            match &v.counterexample {
                None => out.push(0),
                Some(ce) => {
                    out.push(1);
                    wire::put_str(&mut out, ce);
                }
            }
        }
        let (a, b, c, d, e, f, g, h) = self.stats.replay_counters();
        for n in [a, b, c, d, e, f, g, h] {
            wire::put_u64(&mut out, n as u64);
        }
        out
    }

    /// Decodes a report produced by [`Self::encode_report`]. The replay
    /// counters land in the corresponding [`AnalysisStats`] fields; all
    /// other stats (timings, scheduling-dependent counters, worker
    /// counts) are zero — they are not part of the verdict.
    ///
    /// # Errors
    ///
    /// [`DecodeError::VersionMismatch`] when the header carries another
    /// format version, [`DecodeError::Malformed`] on structural errors.
    pub fn decode_report(bytes: &[u8]) -> Result<AnalysisResult, DecodeError> {
        let mut r = wire::Reader::new(bytes);
        if r.take(4)? != REPORT_MAGIC {
            return Err(DecodeError::Malformed("bad magic"));
        }
        let version = r.u16()?;
        if version != REPORT_WIRE_VERSION {
            return Err(DecodeError::VersionMismatch { found: version });
        }
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(DecodeError::Malformed("unknown flag bits"));
        }
        let mut out = AnalysisResult {
            generalized: flags & 1 != 0,
            max_k: r.u32()? as usize,
            ..AnalysisResult::default()
        };
        out.stats.deadline_hit = flags & 0b10 != 0;
        let nviol = r.len()?;
        for _ in 0..nviol {
            let ntxs = r.len()?;
            let mut txs = BTreeSet::new();
            for _ in 0..ntxs {
                txs.insert(r.usize()?);
            }
            let nlabels = r.len()?;
            let mut labels = Vec::with_capacity(nlabels);
            for _ in 0..nlabels {
                labels.push(label_of(r.u8()?)?);
            }
            let sessions = r.u32()? as usize;
            let counterexample = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                _ => return Err(DecodeError::Malformed("bad counter-example tag")),
            };
            out.violations.push(Violation { txs, labels, sessions, counterexample });
        }
        out.stats.unfoldings = r.usize()?;
        out.stats.suspicious_unfoldings = r.usize()?;
        out.stats.subsumed_candidates = r.usize()?;
        out.stats.smt_queries = r.usize()?;
        out.stats.smt_sat = r.usize()?;
        out.stats.smt_refuted = r.usize()?;
        out.stats.validation_failures = r.usize()?;
        out.stats.generalization_queries = r.usize()?;
        r.finish()?;
        Ok(out)
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let labels: Vec<String> = self.labels.iter().map(|l| l.to_string()).collect();
        write!(
            f,
            "violation over {{{}}} via [{}] ({} sessions)",
            self.txs.iter().map(|t| format!("t{t}")).collect::<Vec<_>>().join(", "),
            labels.join(", "),
            self.sessions
        )
    }
}

impl std::fmt::Display for AnalysisResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.violations.is_empty() {
            write!(
                f,
                "no violations up to k = {}{}",
                self.max_k,
                if self.generalized { " (generalizes to any session count)" } else { "" }
            )
        } else {
            writeln!(
                f,
                "{} violation(s), k = {}, generalized = {}:",
                self.violations.len(),
                self.max_k,
                self.generalized
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn v(txs: &[usize]) -> Violation {
        Violation {
            txs: txs.iter().copied().collect(),
            labels: vec![crate::ssg::SsgLabel::Anti, crate::ssg::SsgLabel::Anti],
            sessions: 2,
            counterexample: None,
        }
    }

    #[test]
    fn subsumption_is_subset_inclusion() {
        let small = v(&[1, 2]);
        let big: BTreeSet<usize> = [1, 2, 3].into_iter().collect();
        let same: BTreeSet<usize> = [1, 2].into_iter().collect();
        let other: BTreeSet<usize> = [2, 3].into_iter().collect();
        assert!(small.subsumes(&big));
        assert!(small.subsumes(&same));
        assert!(!small.subsumes(&other));
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = AnalysisStats { smt_queries: 3, smt_sat: 1, ..Default::default() };
        let b = AnalysisStats { smt_queries: 2, smt_refuted: 2, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.smt_queries, 5);
        assert_eq!(a.smt_sat, 1);
        assert_eq!(a.smt_refuted, 2);
    }

    #[test]
    fn report_wire_roundtrip() {
        let mut r = AnalysisResult::default();
        r.generalized = true;
        r.max_k = 3;
        r.violations.push(Violation {
            txs: [0, 2, 5].into_iter().collect(),
            labels: vec![
                crate::ssg::SsgLabel::So,
                crate::ssg::SsgLabel::Dep,
                crate::ssg::SsgLabel::Anti,
                crate::ssg::SsgLabel::Conflict,
            ],
            sessions: 2,
            counterexample: Some("σ = [w(1), r(1)] — cycle t0 ⊖ t2".into()),
        });
        r.violations.push(Violation {
            txs: [1].into_iter().collect(),
            labels: vec![crate::ssg::SsgLabel::Anti],
            sessions: 3,
            counterexample: None,
        });
        r.stats.unfoldings = 7;
        r.stats.suspicious_unfoldings = 4;
        r.stats.subsumed_candidates = 2;
        r.stats.smt_queries = 11;
        r.stats.smt_sat = 2;
        r.stats.smt_refuted = 8;
        r.stats.generalization_queries = 1;
        r.stats.deadline_hit = true;
        // Scheduling-dependent stats must not affect the bytes.
        let bytes = r.encode_report();
        let mut noisy = r.clone();
        noisy.stats.speculative_smt_queries = 99;
        noisy.stats.workers = 8;
        {
            let _stage = c4_obs::stage(Stage::SmtQuery);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        noisy.stats.timings = c4_obs::thread_ledger();
        assert_eq!(bytes, noisy.encode_report(), "verdict bytes exclude noise");

        let back = AnalysisResult::decode_report(&bytes).unwrap();
        assert!(back.same_verdict(&r));
        assert_eq!(back.violations, r.violations);
        assert_eq!(back.stats.replay_counters(), r.stats.replay_counters());
        assert!(back.stats.deadline_hit);
        // Decoding is the left inverse of encoding on the wire image.
        assert_eq!(back.encode_report(), bytes);
    }

    #[test]
    fn report_wire_rejects_stale_versions_and_garbage() {
        let bytes = AnalysisResult::default().encode_report();
        // Flip the version field (bytes 4..6).
        let mut stale = bytes.clone();
        stale[5] = stale[5].wrapping_add(1);
        match AnalysisResult::decode_report(&stale) {
            Err(DecodeError::VersionMismatch { found }) => {
                assert_ne!(found, REPORT_WIRE_VERSION)
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        assert_eq!(
            AnalysisResult::decode_report(b"not a report").err(),
            Some(DecodeError::Malformed("bad magic"))
        );
        // Truncation anywhere must fail, never panic.
        let mut r = AnalysisResult::default();
        r.violations.push(Violation {
            txs: [0].into_iter().collect(),
            labels: vec![crate::ssg::SsgLabel::Anti],
            sessions: 2,
            counterexample: Some("ce".into()),
        });
        let full = r.encode_report();
        for cut in 0..full.len() {
            assert!(
                AnalysisResult::decode_report(&full[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = full.clone();
        long.push(0);
        assert!(AnalysisResult::decode_report(&long).is_err());
    }

    #[test]
    fn display_forms() {
        let viol = v(&[0, 2]);
        assert!(viol.to_string().contains("{t0, t2}"));
        let mut r = AnalysisResult::default();
        r.max_k = 2;
        r.generalized = true;
        assert!(r.to_string().contains("generalizes"));
        r.violations.push(viol);
        assert!(r.to_string().contains("1 violation"));
        assert!(!r.serializable());
    }
}
