//! Multi-tenant memory partitioning as a [`MemoryPolicy`].
//!
//! [`PartitionedPolicy`] wraps [`crate::allocator::partitioned_allocate_into`]:
//! each tenant partition gets its quota allocated by the two-pass MinMax
//! machinery, and soft partitions may borrow pages other tenants leave idle
//! (handed back automatically at the next allocation event — see the
//! allocator docs). This is the enforcement half of the `workload` crate's
//! `TenantSpec`; the simulator stamps each query's partition into
//! [`crate::QueryDemand::tenant`].

use crate::allocator::{
    partitioned_allocate_into, AllocScratch, Grants, PartitionScratch, PartitionSpec,
    PartitionStrategy,
};
use crate::incremental::{DirtySet, IncrementalPartitioned};
use crate::policy::MemoryPolicy;
use crate::types::{QueryDemand, StrategyMode, SystemSnapshot};

/// MinMax-per-partition multi-tenant policy.
pub struct PartitionedPolicy {
    partitions: Vec<PartitionSpec>,
    limit: Option<u32>,
    /// Per-partition group/grant buffers reused across allocation events
    /// (the caller-owned `AllocScratch` only covers the shared ED sort).
    scratch: PartitionScratch,
    /// Dirty-set allocation state, built on first use (after the builders
    /// have finished shaping `partitions`). Strategies are static here —
    /// MinMax-`limit` everywhere — so only demand churn dirties a partition.
    incremental: Option<IncrementalPartitioned>,
    strategies: Vec<PartitionStrategy>,
}

impl PartitionedPolicy {
    /// Partitioned MinMax-∞ over `partitions`.
    pub fn new(partitions: Vec<PartitionSpec>) -> Self {
        PartitionedPolicy {
            partitions,
            limit: None,
            scratch: PartitionScratch::default(),
            incremental: None,
            strategies: Vec::new(),
        }
    }

    /// Impose a per-partition MPL limit (MinMax-N within each partition).
    pub fn with_limit(mut self, n: u32) -> Self {
        self.limit = Some(n);
        self
    }

    /// Make every partition soft (quota + borrowing) — the "shared when
    /// idle" configuration the tenants experiment sweeps against hard
    /// isolation.
    pub fn soften(mut self) -> Self {
        for p in &mut self.partitions {
            p.soft = true;
        }
        self
    }

    /// The partition table in force.
    pub fn partitions(&self) -> &[PartitionSpec] {
        &self.partitions
    }
}

impl MemoryPolicy for PartitionedPolicy {
    fn name(&self) -> String {
        let flavor = if self.partitions.iter().all(|p| p.soft) {
            "Partitioned-soft"
        } else {
            "Partitioned"
        };
        match self.limit {
            Some(n) => format!("{flavor}-{n}"),
            None => flavor.into(),
        }
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        _scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        partitioned_allocate_into(
            &snapshot.queries,
            &self.partitions,
            snapshot.total_memory,
            self.limit,
            &mut self.scratch,
            out,
        );
    }

    fn supports_dirty_allocation(&self) -> bool {
        // The empty table degenerates to un-partitioned MinMax, which has
        // no dirty-set structure; it stays on the snapshot path.
        !self.partitions.is_empty()
    }

    fn allocate_dirty_into(
        &mut self,
        total_memory: u32,
        groups: &[Vec<QueryDemand>],
        dirty: &mut DirtySet,
        out: &mut Grants,
    ) {
        if self.incremental.is_none() {
            self.incremental = Some(IncrementalPartitioned::new(self.partitions.clone()));
            self.strategies =
                vec![PartitionStrategy::MinMax(self.limit); self.partitions.len()];
        }
        self.incremental.as_mut().unwrap().allocate_dirty_into(
            groups,
            &self.strategies,
            total_memory,
            dirty,
            out,
        );
    }

    fn target_mpl(&self) -> Option<u32> {
        // The limit is per partition; the system-wide ceiling is limit × P.
        self.limit
            .map(|n| n.saturating_mul(self.partitions.len().max(1) as u32))
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::MinMax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QueryDemand, QueryId};
    use simkit::SimTime;

    fn snapshot(per_tenant: u64, tenants: u32) -> SystemSnapshot {
        SystemSnapshot {
            now: SimTime::ZERO,
            total_memory: 2560,
            queries: (0..per_tenant * tenants as u64)
                .map(|i| QueryDemand {
                    id: QueryId(i),
                    deadline: SimTime(100 + i),
                    min_mem: 37,
                    max_mem: 1321,
                    tenant: (i % tenants as u64) as u32,
                })
                .collect(),
        }
    }

    fn halves(soft: bool) -> Vec<PartitionSpec> {
        vec![
            PartitionSpec { quota: 1280, soft },
            PartitionSpec { quota: 1280, soft },
        ]
    }

    #[test]
    fn names_reflect_flavor_and_limit() {
        assert_eq!(PartitionedPolicy::new(halves(false)).name(), "Partitioned");
        assert_eq!(
            PartitionedPolicy::new(halves(false)).soften().name(),
            "Partitioned-soft"
        );
        assert_eq!(
            PartitionedPolicy::new(halves(true)).with_limit(4).name(),
            "Partitioned-soft-4"
        );
    }

    #[test]
    fn allocation_respects_pool_and_serves_both_tenants() {
        let mut p = PartitionedPolicy::new(halves(false));
        let snap = snapshot(6, 2);
        let grants = p.allocate(&snap);
        let total: u64 = grants.iter().map(|&(_, g)| g as u64).sum();
        assert!(total <= 2560);
        let tenants_served: std::collections::BTreeSet<u64> =
            grants.iter().map(|(id, _)| id.0 % 2).collect();
        assert_eq!(tenants_served.len(), 2, "both partitions admit work");
    }

    #[test]
    fn target_mpl_scales_with_partitions() {
        let p = PartitionedPolicy::new(halves(false)).with_limit(3);
        assert_eq!(p.target_mpl(), Some(6));
        assert_eq!(PartitionedPolicy::new(halves(false)).target_mpl(), None);
        assert_eq!(p.mode(), StrategyMode::MinMax);
    }

    #[test]
    fn soften_flips_every_partition() {
        let p = PartitionedPolicy::new(halves(false)).soften();
        assert!(p.partitions().iter().all(|s| s.soft));
    }
}
