//! `pmm-core` — the public face of the reproduction.
//!
//! One import point for downstream users: the PMM algorithm and baseline
//! policies (`pmm`), the firm-RTDBS simulator (`rtdbs`), and the substrates
//! (`simkit`, `stats`, `storage`, `exec`).
//!
//! # Quickstart
//!
//! ```
//! use pmm_core::prelude::*;
//!
//! // Simulate 20 minutes of the paper's baseline workload under PMM.
//! let mut cfg = SimConfig::baseline(0.05);
//! cfg.duration_secs = 1200.0;
//! let report = run_simulation(cfg, Box::new(Pmm::with_defaults()));
//! assert!(report.served > 0);
//! println!("miss ratio = {:.1}%", report.miss_pct());
//! ```

pub use exec;
pub use obs;
pub use pmm;
pub use rtdbs;
pub use simkit;
pub use stats;
pub use storage;
pub use workload;

/// Everything a typical experiment needs.
pub mod prelude {
    pub use exec::{ExecConfig, ExternalSort, HashJoin, Operator};
    pub use obs::{ObsConfig, TraceEvent, TraceKind};
    pub use pmm::{
        MaxPolicy, MemoryPolicy, MinMaxPolicy, PartitionSpec, PartitionedPolicy, Pmm,
        PmmParams, ProportionalPolicy, SnapshotOnly, StrategyMode, TenantPmm,
    };
    pub use rtdbs::{
        run_simulation, ConfigError, DegradationMode, FaultPlan, FaultSpec, QueryType,
        ResourceConfig, RunReport, SimConfig, WorkloadClass,
    };
    pub use simkit::{Duration, SimTime};
    pub use storage::{DiskGeometry, RelationGroupSpec};
    pub use workload::{
        AlternationSchedule, ArrivalProcess, ArrivalSpec, Scenario, TenantSpec,
    };
}
