//! `workload` — scenario generation for the RTDBS simulator.
//!
//! The paper's Source hardcodes Poisson single-tenant arrivals; this crate
//! makes workload generation its own subsystem, the way real engines
//! separate transaction/workload drivers from the execution core:
//!
//! * [`arrival`] — [`ArrivalProcess`], one of [`Poisson`] (the paper's
//!   model, bit-for-bit compatible with the pre-refactor engine), bursty
//!   2-state [`Mmpp`], and recorded-[`Trace`] processes, all driven by
//!   caller-owned `simkit` RNG streams.
//! * [`class`] — [`QueryType`] / [`WorkloadClass`] (Table 2) and the
//!   cyclic [`AlternationSchedule`] (Section 5.3), with an allocation-free
//!   hot-path lookup.
//! * [`scenario`] — [`Scenario`]: a named composition of class mixes
//!   (join-heavy, sort-heavy, mixed join+sort), a schedule, and tenants.
//! * [`tenant`] — [`TenantSpec`] memory partitions; enforcement lives in
//!   `pmm`'s partitioned allocator.
//!
//! Everything is deterministic under `simkit::SeedSequence`: processes only
//! draw randomness from the `Rng` handed to them, so one independent stream
//! per class keeps runs reproducible and components isolated.

pub mod arrival;
pub mod class;
pub mod scenario;
pub mod tenant;

pub use arrival::{ArrivalProcess, ArrivalSpec, Mmpp, Poisson, Trace};
pub use class::{AlternationSchedule, QueryType, WorkloadClass};
pub use scenario::Scenario;
pub use tenant::{quota_split, TenantSpec};
