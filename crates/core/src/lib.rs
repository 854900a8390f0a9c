//! **C4** — static serializability analysis for causal consistency.
//!
//! This crate is the reusable analysis back end of the paper
//! *Static Serializability Analysis for Causal Consistency* (PLDI 2018):
//! given an *abstract history* (Definition 1) inferred by a front end such
//! as `c4-lang`, it either proves the client program serializable or
//! produces concrete counter-examples.
//!
//! The pipeline (paper Figure 2):
//!
//! 1. [`unfold`] enumerates the *k-unfoldings* of the abstract history —
//!    small acyclic abstract histories into which every minimal
//!    dependency-serialization-graph cycle on at most `k` sessions embeds
//!    (Section 7.1, including the Definition 4 transaction unfolding);
//! 2. [`ssg`] runs the fast static-serialization-graph analysis on each
//!    unfolding, checking the cycle characterization of Theorem 3
//!    (conditions SC1/SC2);
//! 3. [`encode`] turns each surviving candidate cycle into an SMT query
//!    over argument equalities, control flow, visibility/arbitration
//!    orders, and fresh-value axioms (Sections 7 and 8);
//! 4. [`check`] drives Algorithm 1: iterate `k = 2, 3, …` with cycle
//!    subsumption, and attempt the Section 7.2 generalization to an
//!    unbounded number of sessions;
//! 5. [`counterexample`] decodes SMT models into concrete histories with
//!    pre-schedules and validates the reported cycle against the concrete
//!    DSG machinery of `c4-dsg`;
//! 6. [`filter`] implements the atomic-set and display-code heuristics of
//!    Section 9.1.

pub mod abstract_history;
pub mod cache;
pub mod check;
pub mod counterexample;
pub mod encode;
pub mod filter;
pub mod intern;
pub mod report;
pub mod si;
pub mod ssg;
pub mod unfold;

pub use abstract_history::{AbsArg, AbsEventSpec, AbsTx, AbstractHistory, Cond, Node, RelOp};
pub use cache::{sha256, CacheCounters, CacheKey, CacheTier, VerdictCache};
pub use check::{AnalysisFeatures, CancelToken, Checker};
pub use report::{AnalysisResult, AnalysisStats, DecodeError, Stage, StageTimings, Violation};
pub use intern::{BodyId, ShapeId, TxArena};
pub use ssg::{Ssg, SsgLabel};
pub use unfold::{Unfolding, UnfoldingInstance};
