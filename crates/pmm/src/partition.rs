//! Multi-tenant memory partitioning as a [`MemoryPolicy`].
//!
//! [`PartitionedPolicy`] is the partitioned allocator
//! ([`IncrementalPartitioned`]) with every partition on MinMax-∞: each
//! tenant partition gets its quota divided by the two-pass MinMax
//! machinery, and soft partitions may borrow pages other tenants leave idle
//! (handed back automatically at the next allocation event — see
//! [`crate::partitioned_allocate_with_into`]). This is the enforcement half
//! of the `workload` crate's `TenantSpec`; the simulator stamps each
//! query's partition into [`crate::QueryDemand::tenant`].

use crate::allocator::{AllocScratch, Grants, PartitionSpec, PartitionStrategy};
use crate::incremental::{DirtySet, IncrementalPartitioned};
use crate::policy::MemoryPolicy;
use crate::types::{QueryDemand, StrategyMode, SystemSnapshot};

/// MinMax-per-partition multi-tenant policy.
pub struct PartitionedPolicy {
    alloc: IncrementalPartitioned,
}

impl PartitionedPolicy {
    /// Partitioned MinMax-∞ over `partitions`; soft specs borrow idle pages.
    ///
    /// # Panics
    /// Panics on an empty partition table.
    pub fn new(partitions: Vec<PartitionSpec>) -> Self {
        PartitionedPolicy {
            alloc: IncrementalPartitioned::new(
                partitions,
                PartitionStrategy::MinMax(None),
            ),
        }
    }
}

impl MemoryPolicy for PartitionedPolicy {
    fn name(&self) -> String {
        if self.alloc.partitions().iter().all(|p| p.soft) {
            "Partitioned-soft".into()
        } else {
            "Partitioned".into()
        }
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        _scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        self.alloc
            .allocate_into(&snapshot.queries, snapshot.total_memory, out);
    }

    fn supports_dirty_allocation(&self) -> bool {
        true
    }

    fn allocate_dirty_into(
        &mut self,
        total_memory: u32,
        groups: &[Vec<QueryDemand>],
        dirty: &mut DirtySet,
        out: &mut Grants,
    ) {
        self.alloc
            .allocate_dirty_into(groups, total_memory, dirty, out);
    }

    fn target_mpl(&self) -> Option<u32> {
        None
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
            PartitionedPolicy::new(halves(true)).name(),
            "Partitioned-soft"
        );
        // A mixed table is not "soft": one hard quota caps its tenant. No
        // name carries a `-N` limit suffix: every partition runs MinMax-∞.
        let mut mixed = halves(true);
        mixed[1].soft = false;
        assert_eq!(PartitionedPolicy::new(mixed).name(), "Partitioned");
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
    fn target_mpl_is_unbounded() {
        let p = PartitionedPolicy::new(halves(false));
        assert_eq!(p.target_mpl(), None, "MinMax-∞ in every partition");
        assert_eq!(p.mode(), StrategyMode::MinMax);
    }
}
