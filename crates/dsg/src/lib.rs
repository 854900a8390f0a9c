//! Dependency serialization graphs and the local serializability criterion
//! (Section 4 of the paper).
//!
//! Given a history and a schedule, this crate computes the dependency
//! triple `(⊕, ⊖, ⊗)` per rules (D1)–(D3), lifts it to transactions, and
//! builds the *dependency serialization graph* (DSG). Theorem 1: if some
//! schedule of a history induces an acyclic DSG, the history is
//! serializable. Theorem 2 (locality): restricting the schedule to any
//! event subset never loses dependencies among the kept events — the
//! property that justifies the unfolding-based static analysis.
//! [`ConcreteCheck`] bundles far relations, DSG and cycle search into the
//! one check that ends every explored execution.
//!
//! # Example
//!
//! ```
//! use c4_store::sim::CausalSim;
//! use c4_store::op::OpKind;
//! use c4_store::Value;
//! use c4_algebra::{Alphabet, FarSpec, OpSig, RewriteSpec};
//! use c4_dsg::{Dsg, DepOptions};
//!
//! let mut sim = CausalSim::new(2);
//! let a = sim.session(0);
//! sim.begin(a);
//! sim.update(a, "M", OpKind::MapPut, vec![Value::str("A"), Value::int(1)]);
//! sim.commit(a);
//! sim.deliver_all();
//! let (history, schedule) = sim.into_history();
//!
//! let alphabet: Alphabet = history.events().map(|e| OpSig::of(&e.op)).collect();
//! let far = FarSpec::compute(RewriteSpec::new(), &alphabet);
//! let dsg = Dsg::build(&history, &schedule, &far, &DepOptions::default());
//! assert!(dsg.is_acyclic());
//! ```

pub mod concrete;
pub mod deps;
pub mod graph;
pub mod locality;
mod run;

pub use concrete::{ConcreteCheck, LocalCheck};
pub use deps::{DepOptions, DependencyTriple};
pub use graph::{Dsg, EdgeLabel, TxEdge};
pub use locality::{locality_violations, restrict_schedule};
