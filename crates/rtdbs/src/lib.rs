//! `rtdbs` — the firm real-time database system simulator of Section 4.
//!
//! This crate assembles the substrates into the paper's five-component
//! simulation model (Figure 2):
//!
//! * **Source** — arrivals per workload class from the `workload` crate's
//!   pluggable processes (Poisson, bursty MMPP, deterministic, trace
//!   replay), operand selection from the relation groups, slack-ratio
//!   deadline assignment, and multi-tenant class→partition mapping.
//! * **Query Manager** — drives the memory-adaptive operators from `exec`.
//! * **Buffer Manager** — reservation-based workspace memory ruled by a
//!   [`pmm::MemoryPolicy`], with firm-deadline admission waiting.
//! * **CPU Manager** — preemptive-resume Earliest Deadline CPU.
//! * **Disk Manager** — the `storage` disk farm (ED + elevator queues,
//!   prefetch caches).
//!
//! Entry point: [`engine::run_simulation`] with a [`config::SimConfig`]
//! (presets for every experiment in Section 5) and a policy. The result is
//! a [`metrics::RunReport`] carrying every quantity the paper plots.

pub mod config;
mod cpu;
pub mod engine;
pub mod faults;
pub mod metrics;

pub use config::{
    AlternationSchedule, ArrivalSpec, ConfigError, ObsConfig, QueryType, ResourceConfig,
    Scenario, SimConfig, TenantSpec, WorkloadClass,
};
pub use engine::{run_simulation, Simulator};
pub use faults::{DegradationMode, FaultPlan, FaultSpec};
pub use metrics::{
    arrival_gaps, ClassOutcome, RunReport, TenantOutcome, Timings, WindowPoint,
};
