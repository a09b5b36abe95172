//! PMM v2: an independent PMM feedback controller per tenant partition.
//!
//! [`crate::PartitionedPolicy`] isolates tenants with *static* MinMax
//! inside each quota — the right control experiment, but blind to each
//! tenant's own workload: a tenant whose queries would benefit from Max
//! mode (memory-rich, low contention) is squeezed the same way as one that
//! needs MinMax's admission throttling. [`TenantPmm`] instead runs one
//! full [`Pmm`] instance per partition, built at the tenant's first
//! feedback batch (before it, the partition divides by Max, as a fresh
//! controller would have it). Each controller receives *its own*
//! feedback batches (the simulator closes a `SampleSize` window per tenant
//! — see `MemoryPolicy::on_tenant_batch`), runs its own strategy-switch
//! tests, miss-ratio projection, and workload-change detection, and
//! publishes a per-partition [`PartitionStrategy`]. The allocator then
//! arbitrates: quotas first (each divided by its tenant's current
//! strategy), then soft-quota borrow-back of idle pages in declaration
//! order — so adaptivity happens *within* the isolation contract, never
//! across it.

use crate::adaptive::Pmm;
use crate::allocator::{AllocScratch, Grants, PartitionSpec, PartitionStrategy};
use crate::incremental::{DirtySet, IncrementalPartitioned};
use crate::policy::MemoryPolicy;
use crate::types::{BatchStats, QueryDemand, StrategyMode, SystemSnapshot, TracePoint};

/// Adaptive multi-tenant policy: one [`Pmm`] controller per partition.
///
/// A controller exists only once its tenant has closed a feedback batch:
/// until then it would read as a fresh [`Pmm::with_defaults`] (Max mode,
/// no target MPL, empty trace), so an absent controller reads exactly that
/// way. A population of tenants that never fill a `SampleSize` window thus
/// costs no controller memory at all.
pub struct TenantPmm {
    /// The partition and strategy tables; partition `i` divides by the
    /// strategy controller `i` publishes.
    alloc: IncrementalPartitioned,
    /// The controllers built so far, keyed by partition index and sorted
    /// by it.
    controllers: Vec<(usize, Pmm)>,
    /// Merged decision trace: every controller's trace points, appended in
    /// the order the decisions were taken (tenant batches close in virtual
    /// time order, so the merge is chronological).
    trace: Vec<TracePoint>,
}

impl TenantPmm {
    /// One default-parameter PMM controller per partition, each built at
    /// its tenant's first feedback batch.
    ///
    /// # Panics
    /// Panics on an empty partition table — a tenant-aware policy without
    /// tenants is a configuration bug.
    pub fn new(partitions: Vec<PartitionSpec>) -> Self {
        // A fresh controller runs Max.
        TenantPmm {
            alloc: IncrementalPartitioned::new(partitions, PartitionStrategy::Max),
            controllers: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Partition `i`'s controller, or `None` while its tenant has closed no
    /// feedback batch (it then behaves as a fresh [`Pmm::with_defaults`]).
    pub fn controller(&self, i: usize) -> Option<&Pmm> {
        let k = self.controllers.binary_search_by_key(&i, |c| c.0).ok()?;
        Some(&self.controllers[k].1)
    }

    /// True once every partition has a controller.
    fn all_built(&self) -> bool {
        self.controllers.len() == self.alloc.partitions().len()
    }

    /// The partition strategy controller `c` currently publishes.
    fn strategy_of(c: &Pmm) -> PartitionStrategy {
        match c.mode() {
            StrategyMode::Max => PartitionStrategy::Max,
            // A PMM controller's MinMax target is its partition's MPL
            // ceiling here — per-tenant, not system-wide.
            _ => PartitionStrategy::MinMax(c.target_mpl()),
        }
    }
}

impl MemoryPolicy for TenantPmm {
    fn name(&self) -> String {
        "PMM-tenant".into()
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

    fn wants_tenant_feedback(&self) -> bool {
        true
    }

    fn on_tenant_batch(&mut self, tenant: u32, stats: &BatchStats) {
        // Out-of-range tenants bill to the last partition, as in the
        // allocator.
        let i = (tenant as usize).min(self.alloc.partitions().len() - 1);
        let k = match self.controllers.binary_search_by_key(&i, |c| c.0) {
            Ok(k) => k,
            Err(k) => {
                self.controllers.insert(k, (i, Pmm::with_defaults()));
                k
            }
        };
        let c = &mut self.controllers[k].1;
        let seen = c.trace().len();
        c.on_batch(stats);
        // The batch is the only thing that moves a controller's mode or
        // target, so the strategy table stays in sync from here alone.
        self.alloc.set_strategy(i, Self::strategy_of(c));
        self.trace.extend_from_slice(&c.trace()[seen..]);
    }

    fn target_mpl(&self) -> Option<u32> {
        // A system-wide ceiling exists only while *every* controller caps
        // its partition; one Max-mode (or not yet built) tenant makes the
        // total unbounded.
        if !self.all_built() {
            return None;
        }
        self.controllers
            .iter()
            .map(|(_, c)| c.target_mpl())
            .try_fold(0u32, |acc, t| t.map(|t| acc.saturating_add(t)))
    }

    fn mode(&self) -> StrategyMode {
        // Summary for reports: MinMax once every tenant has switched.
        if self.all_built()
            && self
                .controllers
                .iter()
                .all(|(_, c)| c.mode() == StrategyMode::MinMax)
        {
            StrategyMode::MinMax
        } else {
            StrategyMode::Max
        }
    }

    fn trace(&self) -> &[TracePoint] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QueryDemand, QueryId};
    use simkit::SimTime;
    use stats::SampleSummary;

    fn summary(mean: f64, var: f64, n: u64) -> SampleSummary {
        SampleSummary::new(mean, var, n)
    }

    /// A batch that satisfies all four switch-to-MinMax conditions.
    fn struggle(now_s: u64) -> BatchStats {
        BatchStats {
            now: SimTime::from_secs(now_s),
            served: 30,
            missed: 8,
            realized_mpl: 1.8,
            cpu_util: 0.15,
            disk_util: 0.25,
            wait_time: summary(40.0, 100.0, 30),
            slack_surplus: summary(120.0, 400.0, 30),
            char_max_mem: summary(1321.0, 10_000.0, 30),
            char_operand_ios: summary(1200.0, 10_000.0, 30),
            char_norm_constraint: summary(0.2, 0.001, 30),
        }
    }

    fn halves(soft: bool) -> Vec<PartitionSpec> {
        vec![
            PartitionSpec { quota: 1280, soft },
            PartitionSpec { quota: 1280, soft },
        ]
    }

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

    #[test]
    fn names_and_feedback_opt_in() {
        let p = TenantPmm::new(halves(false));
        assert_eq!(p.name(), "PMM-tenant");
        assert!(p.wants_tenant_feedback());
        assert!(!crate::MaxPolicy.wants_tenant_feedback());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn rejects_empty_partition_table() {
        TenantPmm::new(Vec::new());
    }

    #[test]
    fn controllers_adapt_independently() {
        let mut p = TenantPmm::new(halves(false));
        assert_eq!(p.mode(), StrategyMode::Max);
        // Only tenant 1 struggles: its controller switches, tenant 0 stays
        // in Max mode.
        p.on_tenant_batch(1, &struggle(100));
        assert!(p.controller(0).is_none(), "tenant 0 never closed a batch");
        assert_eq!(p.controller(1).unwrap().mode(), StrategyMode::MinMax);
        assert_eq!(p.mode(), StrategyMode::Max, "summary mode: not all MinMax");
        assert_eq!(p.target_mpl(), None, "a Max-mode tenant is unbounded");
        // The merged trace carries tenant 1's switch decision.
        assert_eq!(p.trace().len(), 1);
        assert_eq!(p.trace()[0].mode, StrategyMode::MinMax);
        // Now tenant 0 struggles too.
        p.on_tenant_batch(0, &struggle(200));
        assert_eq!(p.mode(), StrategyMode::MinMax);
        let sum = p.target_mpl().expect("both capped");
        let t0 = p.controller(0).unwrap().target_mpl().unwrap();
        let t1 = p.controller(1).unwrap().target_mpl().unwrap();
        assert_eq!(sum, t0 + t1);
        assert_eq!(p.trace().len(), 2);
    }

    #[test]
    fn allocation_follows_each_tenant_mode() {
        let mut p = TenantPmm::new(halves(false));
        let snap = snapshot(6, 2);
        // Both in Max mode: a 1280-page quota cannot hold a 1321-page
        // maximum, so each partition admits exactly its most urgent query
        // at the budget-clamped grant (starvation-free Max).
        let grants = p.allocate(&snap);
        assert_eq!(grants.len(), 2, "one clamped admission per partition");
        assert!(grants.iter().all(|&(_, pages)| pages == 1280));
        // The dirty path's caches, built before the switch.
        let groups: Vec<Vec<QueryDemand>> = (0..2)
            .map(|t| {
                snap.queries
                    .iter()
                    .filter(|q| q.tenant == t)
                    .cloned()
                    .collect()
            })
            .collect();
        let mut held = Grants::new();
        p.allocate_dirty_into(2560, &groups, &mut DirtySet::new(2), &mut held);
        // Tenant 1 switches to MinMax: its partition admits many minimums
        // while tenant 0 still admits a single clamped maximum.
        p.on_tenant_batch(1, &struggle(100));
        let grants = p.allocate(&snap);
        let t1: Vec<_> = grants.iter().filter(|(id, _)| id.0 % 2 == 1).collect();
        let target = p.controller(1).unwrap().target_mpl().unwrap() as usize;
        assert_eq!(t1.len(), target.min(6));
        let t0: Vec<_> = grants.iter().filter(|(id, _)| id.0 % 2 == 0).collect();
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].1, 1280);
        // The demands did not change, so the dirty set marks nothing: the
        // switch alone must make the dirty path re-divide tenant 1.
        let mut changed = Grants::new();
        p.allocate_dirty_into(2560, &groups, &mut DirtySet::new(2), &mut changed);
        // Both dirty calls emit explicit zeros for unadmitted members.
        for (id, pages) in changed {
            held.retain(|&(held_id, _)| held_id != id);
            held.push((id, pages));
        }
        held.retain(|&(_, pages)| pages > 0);
        held.sort();
        let mut want = grants;
        want.sort();
        assert_eq!(held, want, "dirty path follows the strategy switch");
    }

    #[test]
    fn out_of_range_tenant_feedback_clamps_to_last() {
        let mut p = TenantPmm::new(halves(false));
        p.on_tenant_batch(9, &struggle(100));
        assert_eq!(p.controller(1).unwrap().mode(), StrategyMode::MinMax);
        assert!(p.controller(0).is_none());
    }

    #[test]
    fn soften_enables_borrow_back_across_adaptive_partitions() {
        let mut p = TenantPmm::new(halves(true));
        // Tenant 0 adapts to MinMax; tenant 1 is idle.
        p.on_tenant_batch(0, &struggle(100));
        let snap = SystemSnapshot {
            now: SimTime::ZERO,
            total_memory: 2560,
            queries: (0..8)
                .map(|i| QueryDemand {
                    id: QueryId(i),
                    deadline: SimTime(100 + i),
                    min_mem: 300,
                    max_mem: 1321,
                    tenant: 0,
                })
                .collect(),
        };
        let grants = p.allocate(&snap);
        let total: u64 = grants.iter().map(|&(_, g)| g as u64).sum();
        assert!(
            total > 1280,
            "soft quota borrows the idle partition: {total}"
        );
        assert!(total <= 2560);
    }

    #[test]
    fn global_batches_are_ignored() {
        let mut p = TenantPmm::new(halves(false));
        p.on_batch(&struggle(100));
        assert!(
            (0..2).all(|i| p.controller(i).is_none()),
            "global feedback must not reach the per-tenant controllers"
        );
    }

    /// The eager reference: every partition's controller built up front.
    struct Eager {
        alloc: IncrementalPartitioned,
        controllers: Vec<Pmm>,
        trace: Vec<TracePoint>,
    }

    impl Eager {
        fn new(partitions: Vec<PartitionSpec>) -> Self {
            let n = partitions.len();
            Eager {
                alloc: IncrementalPartitioned::new(partitions, PartitionStrategy::Max),
                controllers: (0..n).map(|_| Pmm::with_defaults()).collect(),
                trace: Vec::new(),
            }
        }

        fn batch(&mut self, tenant: usize, stats: &BatchStats) {
            let c = &mut self.controllers[tenant];
            let seen = c.trace().len();
            c.on_batch(stats);
            self.alloc.set_strategy(tenant, TenantPmm::strategy_of(c));
            self.trace.extend_from_slice(&c.trace()[seen..]);
        }

        fn mode(&self) -> StrategyMode {
            if self
                .controllers
                .iter()
                .all(|c| c.mode() == StrategyMode::MinMax)
            {
                StrategyMode::MinMax
            } else {
                StrategyMode::Max
            }
        }

        fn target_mpl(&self) -> Option<u32> {
            self.controllers
                .iter()
                .map(MemoryPolicy::target_mpl)
                .try_fold(0u32, |acc, t| t.map(|t| acc + t))
        }
    }

    /// A batch with no misses at low utilization: a MinMax controller
    /// projects a new target from it.
    fn calm(now_s: u64) -> BatchStats {
        BatchStats {
            served: 30,
            missed: 0,
            realized_mpl: 4.0,
            ..struggle(now_s)
        }
    }

    /// Everything a caller can observe of the lazy policy equals the eager
    /// reference, before any batch and after each of one tenant's batches;
    /// only the tenant that closed batches owns a controller, and it
    /// decides exactly as a lone `Pmm::with_defaults()` fed the same
    /// batches.
    #[test]
    fn controllers_are_built_at_their_first_batch() {
        let parts: Vec<PartitionSpec> = (0..4)
            .map(|i| PartitionSpec {
                quota: 640,
                soft: i % 2 == 0,
            })
            .collect();
        let mut lazy = TenantPmm::new(parts.clone());
        let mut eager = Eager::new(parts);
        let mut lone = Pmm::with_defaults();
        let snap = snapshot(5, 4);
        let groups: Vec<Vec<QueryDemand>> = (0..4)
            .map(|t| {
                snap.queries
                    .iter()
                    .filter(|q| q.tenant == t)
                    .cloned()
                    .collect()
            })
            .collect();
        let check = |lazy: &mut TenantPmm, eager: &mut Eager| {
            assert_eq!(lazy.mode(), eager.mode());
            assert_eq!(lazy.target_mpl(), eager.target_mpl());
            assert_eq!(lazy.trace(), &eager.trace[..]);
            let mut want = Grants::new();
            eager
                .alloc
                .allocate_into(&snap.queries, snap.total_memory, &mut want);
            assert_eq!(lazy.allocate(&snap), want, "snapshot grants");
            let (mut got, mut want) = (Grants::new(), Grants::new());
            let mut all = DirtySet::new(4);
            all.mark_all();
            lazy.allocate_dirty_into(2560, &groups, &mut all, &mut got);
            eager
                .alloc
                .allocate_dirty_into(&groups, 2560, &all, &mut want);
            assert_eq!(got, want, "dirty-path grants");
        };
        assert!((0..4).all(|i| lazy.controller(i).is_none()));
        check(&mut lazy, &mut eager);
        for stats in [struggle(100), struggle(200), calm(300), calm(400)] {
            lazy.on_tenant_batch(2, &stats);
            eager.batch(2, &stats);
            lone.on_batch(&stats);
            assert!([0, 1, 3].iter().all(|&i| lazy.controller(i).is_none()));
            let c = lazy.controller(2).expect("tenant 2 closed a batch");
            assert_eq!(c.mode(), lone.mode());
            assert_eq!(c.target_mpl(), lone.target_mpl());
            assert_eq!(c.trace(), lone.trace());
            check(&mut lazy, &mut eager);
        }
        assert!(!lone.trace().is_empty(), "the batches moved the controller");
    }
}
