//! The policy interface and the static baseline algorithms of Table 5.

use crate::allocator::{
    max_allocate_into, minmax_allocate_into, proportional_allocate_into, AllocScratch,
    Grants,
};
use crate::incremental::DirtySet;
use crate::types::{BatchStats, QueryDemand, StrategyMode, SystemSnapshot, TracePoint};

/// A memory-management policy: the simulator consults it whenever the set
/// of live queries changes and feeds it batch statistics every `SampleSize`
/// completions.
pub trait MemoryPolicy {
    /// Short name for reports, e.g. `"MinMax-10"`.
    fn name(&self) -> String;

    /// Desired allocation for every live query, written into `out`
    /// (omitted queries receive no memory), reusing the caller-owned
    /// `scratch` for the ED sort. The simulator calls this on every
    /// reallocation event — it is the policy's primary entry point and
    /// allocation-free in steady state.
    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    );

    /// Allocating convenience wrapper around
    /// [`MemoryPolicy::allocate_into`], for tests and one-shot callers that
    /// don't care about buffer reuse.
    fn allocate(&mut self, snapshot: &SystemSnapshot) -> Grants {
        let mut out = Grants::new();
        self.allocate_into(snapshot, &mut AllocScratch::default(), &mut out);
        out
    }

    /// True when the policy implements the incremental dirty-set allocation
    /// path ([`MemoryPolicy::allocate_dirty_into`]). The simulator then
    /// maintains per-partition demand groups and a churn [`DirtySet`]
    /// instead of rebuilding a full snapshot per reallocation event.
    fn supports_dirty_allocation(&self) -> bool {
        false
    }

    /// Incremental counterpart of [`MemoryPolicy::allocate_into`] for
    /// policies that opt in via
    /// [`MemoryPolicy::supports_dirty_allocation`]: `groups[p]` holds
    /// partition `p`'s live demands (any order), `dirty` the partitions
    /// whose demand set changed since the previous call (strategy switches
    /// are the policy's own to track: `IncrementalPartitioned::set_strategy`).
    /// `out` receives one `(id, pages)` pair for **every** member of every
    /// recomputed partition — explicit zeros included — and nothing for
    /// partitions whose grants carry over bit-for-bit. The applied result
    /// must be identical to [`MemoryPolicy::allocate_into`] over the
    /// concatenated groups.
    fn allocate_dirty_into(
        &mut self,
        total_memory: u32,
        groups: &[Vec<QueryDemand>],
        dirty: &mut DirtySet,
        out: &mut Grants,
    ) {
        let _ = (total_memory, groups, dirty, out);
        unreachable!("policy does not support dirty-set allocation");
    }

    /// Batch boundary callback (adaptive policies learn here).
    fn on_batch(&mut self, _stats: &BatchStats) {}

    /// True when the policy wants per-tenant feedback batches
    /// ([`MemoryPolicy::on_tenant_batch`]) in addition to — or instead of —
    /// the global [`MemoryPolicy::on_batch`]. The simulator only assembles
    /// per-tenant batches for multi-tenant configs, and only routes them to
    /// policies that ask.
    fn wants_tenant_feedback(&self) -> bool {
        false
    }

    /// Per-tenant batch boundary callback: `stats` covers only the queries
    /// billed to partition `tenant`, closed independently of other tenants'
    /// batches (each tenant fills its own `SampleSize` window). Shared
    /// resources (CPU, disks) have no per-tenant utilization, so those
    /// fields carry the system-wide readings over the tenant's window.
    fn on_tenant_batch(&mut self, _tenant: u32, _stats: &BatchStats) {}

    /// Current MPL limit, if the policy imposes one.
    fn target_mpl(&self) -> Option<u32> {
        None
    }

    /// The allocation strategy currently in force.
    fn mode(&self) -> StrategyMode;

    /// Decision trace for Figures 6 and 15 (adaptive policies only).
    fn trace(&self) -> &[TracePoint] {
        &[]
    }
}

/// The static **Max** algorithm.
#[derive(Default)]
pub struct MaxPolicy;

impl MemoryPolicy for MaxPolicy {
    fn name(&self) -> String {
        "Max".into()
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        max_allocate_into(&snapshot.queries, snapshot.total_memory, scratch, out);
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::Max
    }
}

/// The static **MinMax-N** algorithm (`None` = MinMax-∞, written plain
/// "MinMax" in the paper).
pub struct MinMaxPolicy {
    limit: Option<u32>,
}

impl MinMaxPolicy {
    /// MinMax with an MPL limit.
    pub fn with_limit(n: u32) -> Self {
        MinMaxPolicy { limit: Some(n) }
    }

    /// MinMax-∞.
    pub fn unlimited() -> Self {
        MinMaxPolicy { limit: None }
    }
}

impl MemoryPolicy for MinMaxPolicy {
    fn name(&self) -> String {
        match self.limit {
            Some(n) => format!("MinMax-{n}"),
            None => "MinMax".into(),
        }
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        minmax_allocate_into(
            &snapshot.queries,
            snapshot.total_memory,
            self.limit,
            scratch,
            out,
        );
    }

    fn target_mpl(&self) -> Option<u32> {
        self.limit
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::MinMax
    }
}

/// The static **Proportional-N** algorithm (`None` = Proportional-∞).
pub struct ProportionalPolicy {
    limit: Option<u32>,
}

impl ProportionalPolicy {
    /// Proportional with an MPL limit.
    pub fn with_limit(n: u32) -> Self {
        ProportionalPolicy { limit: Some(n) }
    }

    /// Proportional-∞.
    pub fn unlimited() -> Self {
        ProportionalPolicy { limit: None }
    }
}

impl MemoryPolicy for ProportionalPolicy {
    fn name(&self) -> String {
        match self.limit {
            Some(n) => format!("Proportional-{n}"),
            None => "Proportional".into(),
        }
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        proportional_allocate_into(
            &snapshot.queries,
            snapshot.total_memory,
            self.limit,
            scratch,
            out,
        );
    }

    fn target_mpl(&self) -> Option<u32> {
        self.limit
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::Proportional
    }
}

/// Forces the wrapped policy down the full-snapshot reference path by
/// reporting [`MemoryPolicy::supports_dirty_allocation`] `false` — the
/// control arm of the `scale` figure's incremental-vs-snapshot comparison
/// (cells named `snapshot/<policy>`). Everything else delegates.
pub struct SnapshotOnly {
    inner: Box<dyn MemoryPolicy>,
}

impl SnapshotOnly {
    /// Wrap `inner`, pinning it to the snapshot allocation path.
    pub fn new(inner: Box<dyn MemoryPolicy>) -> Self {
        SnapshotOnly { inner }
    }
}

impl MemoryPolicy for SnapshotOnly {
    fn name(&self) -> String {
        format!("snapshot/{}", self.inner.name())
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        self.inner.allocate_into(snapshot, scratch, out);
    }

    // supports_dirty_allocation deliberately NOT delegated: default false.

    fn on_batch(&mut self, stats: &BatchStats) {
        self.inner.on_batch(stats);
    }

    fn wants_tenant_feedback(&self) -> bool {
        self.inner.wants_tenant_feedback()
    }

    fn on_tenant_batch(&mut self, tenant: u32, stats: &BatchStats) {
        self.inner.on_tenant_batch(tenant, stats);
    }

    fn target_mpl(&self) -> Option<u32> {
        self.inner.target_mpl()
    }

    fn mode(&self) -> StrategyMode {
        self.inner.mode()
    }

    fn trace(&self) -> &[TracePoint] {
        self.inner.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QueryDemand, QueryId};
    use simkit::SimTime;

    fn snapshot(n: u64) -> SystemSnapshot {
        SystemSnapshot {
            now: SimTime::ZERO,
            total_memory: 2560,
            queries: (0..n)
                .map(|i| QueryDemand {
                    id: QueryId(i),
                    deadline: SimTime(100 + i),
                    min_mem: 37,
                    max_mem: 1321,
                    tenant: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn names() {
        assert_eq!(MaxPolicy.name(), "Max");
        assert_eq!(MinMaxPolicy::unlimited().name(), "MinMax");
        assert_eq!(MinMaxPolicy::with_limit(10).name(), "MinMax-10");
        assert_eq!(ProportionalPolicy::unlimited().name(), "Proportional");
        assert_eq!(ProportionalPolicy::with_limit(4).name(), "Proportional-4");
    }

    #[test]
    fn max_policy_admits_one_baseline_query() {
        let mut p = MaxPolicy;
        let grants = p.allocate(&snapshot(5));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1, 1321);
    }

    #[test]
    fn minmax_policy_admits_many() {
        let mut p = MinMaxPolicy::unlimited();
        let grants = p.allocate(&snapshot(80));
        assert_eq!(grants.len(), 69);
    }

    #[test]
    fn limits_are_reported() {
        assert_eq!(MinMaxPolicy::with_limit(10).target_mpl(), Some(10));
        assert_eq!(MinMaxPolicy::unlimited().target_mpl(), None);
        assert_eq!(MaxPolicy.target_mpl(), None);
    }

    #[test]
    fn snapshot_only_delegates_but_pins_the_snapshot_path() {
        let mut p = SnapshotOnly::new(Box::new(MinMaxPolicy::with_limit(10)));
        assert_eq!(p.name(), "snapshot/MinMax-10");
        assert!(!p.supports_dirty_allocation());
        assert_eq!(p.target_mpl(), Some(10));
        assert_eq!(p.mode(), StrategyMode::MinMax);
        assert_eq!(
            p.allocate(&snapshot(80)),
            MinMaxPolicy::with_limit(10).allocate(&snapshot(80))
        );
    }

    #[test]
    fn proportional_spreads_memory() {
        let mut p = ProportionalPolicy::unlimited();
        let grants = p.allocate(&snapshot(4));
        assert_eq!(grants.len(), 4);
        // 2560 / (4 × 1321) ≈ 0.48 of max each, > min.
        for (_, pages) in &grants {
            assert!((400..=700).contains(pages), "grant {pages}");
        }
    }
}
