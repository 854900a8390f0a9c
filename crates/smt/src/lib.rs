//! A small, from-scratch lazy SMT solver.
//!
//! The C4 analysis encodes its serializability criterion into decidable
//! first-order formulas (Section 7 of the paper). This crate provides the
//! solver for the required fragment:
//!
//! * full propositional structure (Tseitin-transformed into CNF and solved
//!   by a CDCL SAT core with two-watched-literal propagation, first-UIP
//!   clause learning, VSIDS-style branching and restarts);
//! * equality over uninterpreted sorts with uninterpreted functions
//!   (congruence closure);
//! * order/difference constraints over the integers (`x ≤ y`, `x < y`,
//!   comparisons with constants) via negative-cycle detection;
//! * `distinct` constraints (used to model fresh unique row identities).
//!
//! Theory reasoning is *lazy*: the SAT core enumerates boolean models, the
//! theories refute inconsistent ones with minimized blocking clauses. The
//! queries produced by the analysis enjoy a small-model property, so this
//! simple architecture is fast in practice.
//!
//! # Example
//!
//! ```
//! use c4_smt::{Context, SatResult};
//!
//! let mut ctx = Context::new();
//! let key = ctx.uninterpreted_sort("key");
//! let x = ctx.var("x", key);
//! let y = ctx.var("y", key);
//! let z = ctx.var("z", key);
//! let xy = ctx.eq(x, y);
//! let yz = ctx.eq(y, z);
//! let xz = ctx.eq(x, z);
//! let nxz = ctx.not(xz);
//! let f = ctx.and([xy, yz, nxz]);
//! assert!(matches!(ctx.solve(&[f]), SatResult::Unsat));
//!
//! let nyz = ctx.not(yz);
//! let g = ctx.and([xy, nyz]);
//! let SatResult::Sat(model) = ctx.solve(&[g]) else { panic!() };
//! assert_eq!(model.eval_eq(x, y), Some(true));
//! assert_eq!(model.eval_eq(y, z), Some(false));
//! ```

mod arith;
mod cnf;
mod euf;
mod sat;
mod solver;
mod term;
mod theory;

pub use sat::{AssumeOutcome, Cnf, Lit, SatOutcome, SatSolver, Var};
pub use solver::{Incremental, Model, SatResult};
pub use term::{Context, FuncId, Operands, Sort, TermData, TermId, VarId};
