//! `exec` — memory-adaptive query-operator models (Section 2.2).
//!
//! Large real-time queries face memory being taken away and given back
//! mid-execution, so the paper builds on two adaptive primitives:
//!
//! * [`hashjoin::HashJoin`] — Partially Preemptible Hash Join with late
//!   contraction, expansion, and priority spooling \[Pang93a\].
//! * [`sort::ExternalSort`] — replacement-selection external sort whose
//!   merge steps split and combine as memory fluctuates \[Pang93b\].
//!
//! Both are modelled as *pure state machines* emitting CPU bursts and
//! page-range I/Os (see [`op`]), so they can be unit-tested against
//! I/O-volume invariants without the full simulator, and
//! [`standalone::standalone_time`] can price a query for deadline
//! assignment by replaying the same machine against idle disks of the
//! configured geometry.

pub mod hashjoin;
pub mod op;
pub mod sort;
pub mod standalone;

pub use hashjoin::HashJoin;
pub use op::{Action, ExecConfig, FileRef, IoRequest, Operator};
pub use sort::ExternalSort;
pub use standalone::standalone_time;
