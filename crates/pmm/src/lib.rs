//! `pmm` — Priority Memory Management for firm real-time query workloads.
//!
//! This crate is the paper's primary contribution: the PMM algorithm
//! ([`adaptive::Pmm`]) plus the static algorithms it is evaluated against
//! (Table 5: [`policy::MaxPolicy`], [`policy::MinMaxPolicy`],
//! [`policy::ProportionalPolicy`]).
//!
//! The pieces:
//!
//! * [`allocator`] — the ED-ordered memory-division functions (Max,
//!   two-pass MinMax, water-filled Proportional) and the one partitioned
//!   division, [`allocator::partitioned_allocate_with_into`]: quotas
//!   first, each partition by its own [`allocator::PartitionStrategy`],
//!   then soft-quota borrow-back of idle pages.
//! * [`policy`] — the [`policy::MemoryPolicy`] trait the simulator drives,
//!   and the static policies.
//! * [`adaptive`] — PMM itself: miss-ratio projection, the resource
//!   utilization heuristic, strategy switching, and workload-change
//!   detection.
//! * [`incremental`] — the partitioned allocator both multi-tenant
//!   policies are built on: [`incremental::IncrementalPartitioned`] owns
//!   the partition and strategy tables and serves the snapshot path (the
//!   reference two-pass division) and the dirty-set path, which re-divides
//!   only partitions whose demand or strategy changed, arbitrating
//!   soft-quota borrow-back over a hierarchical partition tree —
//!   bit-for-bit equal to the reference.
//! * [`partition`] — multi-tenant quotas: [`partition::PartitionedPolicy`]
//!   (`"Partitioned"`, `"Partitioned-soft"`) runs MinMax-∞ in every tenant
//!   partition with hard/soft quotas and borrow-back.
//! * [`tenant_pmm`] — PMM v2's adaptive multi-tenant mode:
//!   [`tenant_pmm::TenantPmm`] (`"PMM-tenant"`) runs an independent PMM
//!   controller per partition, fed by per-tenant batches, each publishing
//!   its partition's strategy.
//! * [`types`] — snapshot / feedback types shared with the simulator.

pub mod adaptive;
pub mod allocator;
pub mod incremental;
pub mod partition;
pub mod policy;
pub mod tenant_pmm;
pub mod types;

pub use adaptive::{Pmm, PmmParams};
pub use allocator::{
    max_allocate_into, minmax_allocate_into, partitioned_allocate_with_into,
    proportional_allocate_into, AllocScratch, Grants, PartitionScratch, PartitionSpec,
    PartitionStrategy, SpareVecs,
};
pub use incremental::{DirtySet, IncrementalPartitioned, GROUP_SIZE};
pub use partition::PartitionedPolicy;
pub use policy::{
    MaxPolicy, MemoryPolicy, MinMaxPolicy, ProportionalPolicy, SnapshotOnly,
};
pub use tenant_pmm::TenantPmm;
pub use types::{
    BatchStats, QueryDemand, QueryId, StrategyMode, SystemSnapshot, TracePoint,
};
