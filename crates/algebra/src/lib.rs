//! Algebraic reasoning about store operations (Sections 3, 4.1 and 8 of the
//! paper).
//!
//! The serializability criterion is built on three relations between
//! events:
//!
//! * **plain commutativity** — `e f ≡ f e`;
//! * **far absorption `e ▷ f`** — `e β f ≡ β f` for every update sequence
//!   `β` over the store's operation alphabet (R1);
//! * **far commutativity `u ↷º q`** — the coinductive strengthening of
//!   commutativity that tolerates intermediate events (R2).
//!
//! All three are exposed *symbolically* as [`SpecFormula`]s over the two
//! events' arguments (Definition 2 — the rewrite specification, cf.
//! Figure 6), and can be evaluated on concrete events. The far variants are
//! computed relative to an operation [`Alphabet`] by a fixpoint refinement:
//! they coincide with the plain versions for the standard data types and
//! properly degrade in the presence of the `copy` operation (Section 4.1).
//!
//! Section 8's *asymmetric commutativity* is available through
//! [`RewriteSpec::anti_dep_exempt`], used when computing anti-dependencies.
//!
//! # Example
//!
//! ```
//! use c4_algebra::{Alphabet, RewriteSpec, OpSig};
//! use c4_store::{op::OpKind, Operation, Value};
//!
//! let spec = RewriteSpec::new();
//! let a = Operation::map_put("M", Value::str("A"), Value::int(1));
//! let b = Operation::map_get("M", Value::str("B"), Value::int(0));
//! assert!(spec.commute_concrete(&a, &b)); // different keys
//! let c = Operation::map_get("M", Value::str("A"), Value::int(1));
//! assert!(!spec.commute_concrete(&a, &c)); // same key
//! ```

mod consistency;
mod far;
mod spec;
mod tables;

pub use consistency::{Lit, Slot, SlotTerm};
pub use far::{Alphabet, FarSpec, SigId};
pub use spec::{ArgTerm, Side, SpecFormula};
pub use tables::RewriteSpec;

use c4_store::op::{ObjectName, OpKind};

/// The *signature* of an operation: the object it acts on and its symbol.
///
/// Rewrite specifications are indexed by pairs of signatures; operations on
/// different objects always commute and never absorb each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpSig {
    /// The object the operation acts on.
    pub object: ObjectName,
    /// The operation symbol.
    pub kind: OpKind,
}

impl OpSig {
    /// Creates a signature.
    pub fn new(object: impl Into<ObjectName>, kind: OpKind) -> Self {
        OpSig { object: object.into(), kind }
    }

    /// The signature of a concrete operation.
    pub fn of(op: &c4_store::Operation) -> Self {
        OpSig { object: op.object.clone(), kind: op.kind.clone() }
    }

    /// Whether the signature denotes an update.
    pub fn is_update(&self) -> bool {
        self.kind.is_update()
    }

    /// Whether the signature denotes a query.
    pub fn is_query(&self) -> bool {
        self.kind.is_query()
    }
}

impl std::fmt::Display for OpSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.object, self.kind)
    }
}
