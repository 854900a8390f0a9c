//! Formal model of a causally-consistent data store, following Section 3 of
//! *Static Serializability Analysis for Causal Consistency* (PLDI 2018).
//!
//! The crate provides:
//!
//! * [`Value`] and [`value::RowId`] — the value domain shared by all data
//!   types;
//! * [`op`] — the fixed alphabet of update and query operations over
//!   high-level replicated data types (registers, counters, sets, maps and
//!   tables with implicit record creation and fresh row generation);
//! * [`Event`] — executed operations tagged with unique identifiers;
//! * [`History`] — a finite set of events together with a session order and
//!   a partition into transactions;
//! * [`Schedule`] — a pair of visibility and arbitration orders, with
//!   checkers for the well-formedness conditions (S1)–(S3) of the paper;
//! * [`semantics`] — the sequential semantics of the operations, used to
//!   define legality of event sequences;
//! * [`sim`] — an executable multi-replica causal store simulator that
//!   produces histories with legal schedules (causal delivery, atomic
//!   visibility), used by the dynamic-analysis baseline.
//!
//! # Example
//!
//! ```
//! use c4_store::{HistoryBuilder, Value, op::Operation};
//!
//! let mut h = HistoryBuilder::new();
//! let s = h.session();
//! let t = h.begin(s);
//! h.push(t, Operation::map_put("M", Value::str("A"), Value::int(1)));
//! let history = h.finish();
//! assert_eq!(history.events().count(), 1);
//! ```

pub mod event;
pub mod history;
pub mod op;
pub mod schedule;
pub mod semantics;
pub mod sim;
pub mod txset;
pub mod value;

pub use event::{Event, EventId};
pub use history::{History, HistoryBuilder, SessionId, Transaction, TxId};
pub use op::{ObjectName, OpKind, Operation};
pub use schedule::{Schedule, ScheduleError};
pub use semantics::{ObjectState, StoreState};
pub use value::Value;
