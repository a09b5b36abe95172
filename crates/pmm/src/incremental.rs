//! Incremental, hierarchical partitioned allocation: cost scales with
//! *churn*, not tenant population.
//!
//! The reference two-pass division ([`crate::partitioned_allocate_with_into`])
//! recomputes every partition on every allocation event — O(P) divides even
//! when a single tenant's demand set changed. [`IncrementalPartitioned`]
//! produces **bit-for-bit identical grants** while re-running only the
//! partitions that need it:
//!
//! * **Pass 1 (quota pass)** budgets are a pure function of `(total, quotas)`
//!   and are cached per epoch; a partition's quota division is redone only
//!   when its demand set or strategy is in the caller's [`DirtySet`].
//!   The pool of idle pages (`total − Σ pass-1 grants`) is maintained
//!   incrementally on the grant diffs of the redone partitions.
//! * **Pass 2 (borrow-back)** walks a two-level *partition tree*
//!   (root → tenant groups → tenants, [`GROUP_SIZE`] tenants per group).
//!   Each internal node caches the pages its subtree borrows beyond its
//!   quotas plus a *budget-limited* bit; a clean subtree whose cached
//!   borrow fits the pool in hand is settled from the cache in O(1) —
//!   the grants of all its tenants carry over untouched. Only dirty
//!   groups walk their members, and only members whose cached division
//!   is not provably pool-independent re-divide.
//!
//! The reuse certificate is the `limited` flag threaded out of the divide
//! functions: an *unlimited* division yields the same grants for every
//! budget ≥ its granted total (grants are monotone in the budget and were
//! not truncated by it), so a cached borrow-back outcome is valid at any
//! entry pool covering its borrowed pages. Limited divisions only reuse at
//! an identical pool. Both directions are integer-exact, which is what
//! makes bit-for-bit equality with the reference path provable (and
//! property-tested in `tests/properties.rs`).
//!
//! The allocator owns the partition table and the per-partition strategy
//! table; [`IncrementalPartitioned::set_strategy`] marks a partition for
//! re-division when its entry changes. The caller owns demand grouping: it
//! hands in one `Vec<QueryDemand>` per partition (any order — divides
//! ED-sort internally) and marks a partition dirty whenever that group's
//! membership or any member's demand changed since the previous call. Output is
//! *full-member emission*: one `(id, pages)` pair for **every** member of
//! every recomputed partition (0 for unadmitted members), and nothing for
//! carried-over partitions — exactly what an engine applying grant diffs
//! against held allocations needs.

use crate::allocator::{
    granted_total, partitioned_allocate_with_into, AllocScratch, Grants,
    PartitionScratch, PartitionSpec, PartitionStrategy, SpareVecs,
};
use crate::types::{QueryDemand, QueryId};

/// Tenants per internal node of the partition tree: the borrow-back walk is
/// O(P/32) group checks plus O(32) member checks per dirty group. 32 keeps
/// both terms ≈√P-balanced across the 10¹–10³ tenant range the `scale`
/// figure sweeps.
pub const GROUP_SIZE: usize = 32;

/// Which partitions' demand sets changed since the previous
/// incremental allocation: dense flags for O(1) dedup plus a change list,
/// so a feedback event costs O(changed), never O(tenants).
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    all: bool,
    flags: Vec<bool>,
    list: Vec<u32>,
}

impl DirtySet {
    /// An empty set able to hold partitions `0..n` without regrowing.
    pub fn new(n: usize) -> Self {
        DirtySet {
            all: false,
            flags: vec![false; n],
            list: Vec::new(),
        }
    }

    /// Mark partition `p` changed (idempotent; grows on demand).
    pub fn mark(&mut self, p: usize) {
        if p >= self.flags.len() {
            self.flags.resize(p + 1, false);
        }
        if !self.flags[p] {
            self.flags[p] = true;
            self.list.push(p as u32);
        }
    }

    /// Mark everything changed (total-memory shock, policy swap, …): the
    /// next allocation rebuilds from scratch.
    pub fn mark_all(&mut self) {
        self.all = true;
    }

    /// Forget all marks.
    pub fn clear(&mut self) {
        for &p in &self.list {
            self.flags[p as usize] = false;
        }
        self.list.clear();
        self.all = false;
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        !self.all && self.list.is_empty()
    }

    /// True after [`DirtySet::mark_all`].
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Is partition `p` marked (individually — not via `mark_all`)?
    pub fn contains(&self, p: usize) -> bool {
        self.flags.get(p).copied().unwrap_or(false)
    }

    /// The individually marked partitions, in marking order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.list.iter().map(|&p| p as usize)
    }

    /// Count of individually marked partitions.
    pub fn len(&self) -> usize {
        self.list.len()
    }
}

/// Cached borrow-back outcome of one soft partition.
#[derive(Clone, Debug)]
struct Pass2Cache {
    /// Free pool at entry when this outcome was computed (`u64::MAX` =
    /// never computed — reuse is impossible, the pool is ≤ `u32::MAX`).
    pool_in: u64,
    /// The borrow-back division was adopted (its total ≥ the quota pass's);
    /// the adopted grants live in `grants`. When `false` the partition's
    /// final grants are its pass-1 grants.
    taken: bool,
    /// Adopted borrow-back grants: non-empty only when `taken` admitted
    /// someone, and unallocated otherwise.
    grants: Grants,
    /// Granted total of the borrow-back division (adopted or not).
    used: u64,
    /// Pages borrowed beyond the quota pass: `used − pass-1 total` when
    /// taken, else 0. Settling this partition from cache costs the pool
    /// exactly `extra`.
    extra: u64,
    /// The division may depend on the pool (budget-limited divide, budget
    /// clamped at `u32::MAX`, or skipped at pool 0): reuse only at an
    /// identical pool. Conservative-true is safe — it merely re-divides.
    limited: bool,
    /// Pool was 0 at compute time: the reference path skips the partition
    /// outright, final grants are pass-1's.
    skipped: bool,
}

impl Default for Pass2Cache {
    fn default() -> Self {
        Pass2Cache {
            pool_in: u64::MAX,
            taken: false,
            grants: Grants::new(),
            used: 0,
            extra: 0,
            limited: true,
            skipped: false,
        }
    }
}

/// One internal node of the partition tree: cached aggregates over a run of
/// [`GROUP_SIZE`] consecutive partitions.
#[derive(Clone, Copy, Debug, Default)]
struct GroupAgg {
    /// Σ `extra` over the group's soft members: what settling the whole
    /// subtree from cache costs the pool.
    extra: u64,
    /// Any member's cached outcome is pool-dependent (limited or skipped):
    /// the group cannot be settled wholesale, its members must be checked.
    limited: bool,
}

/// The partitioned allocator of both multi-tenant policies: one partition
/// table, one per-partition strategy table, and two division paths over
/// them. [`IncrementalPartitioned::allocate_into`] is the reference two-pass
/// division ([`crate::partitioned_allocate_with_into`]) over a full demand
/// snapshot; [`IncrementalPartitioned::allocate_dirty_into`] yields
/// bit-for-bit the same grants but re-divides only dirty partitions plus
/// the (usually few) partitions whose borrow-back outcome the shifted pool
/// invalidates.
///
/// Contract of the dirty path: the caller marks a partition in the
/// [`DirtySet`] whenever its demand group changed since the previous call;
/// clean partitions' `groups[p]` must be unchanged. Strategy changes mark
/// themselves ([`IncrementalPartitioned::set_strategy`]). A changed `total`
/// or [`DirtySet::mark_all`] triggers a full rebuild (which is the
/// reference algorithm verbatim, caches filled as it goes).
#[derive(Debug)]
pub struct IncrementalPartitioned {
    partitions: Vec<PartitionSpec>,
    /// The strategy each partition divides by, on both paths.
    strategies: Vec<PartitionStrategy>,
    group_size: usize,
    valid: bool,
    total: u32,
    /// Pass-1 budget per partition — quotas capped first-declared-first
    /// against oversubscription; pure function of `(total, quotas)`.
    budgets: Vec<u32>,
    /// Cached quota-pass grants per partition; a partition that admits
    /// nobody holds no heap here.
    pass1: Vec<Grants>,
    pass1_used: Vec<u64>,
    /// Σ `pass1_used` — maintained on pass-1 grant diffs; the borrow pool
    /// is `total − used_total`.
    used_total: u64,
    pass2: Vec<Pass2Cache>,
    /// The partition tree's internal nodes, one per [`GROUP_SIZE`] run.
    tree: Vec<GroupAgg>,
    /// Per-call marks (cleared by list walk, so an idle call stays O(P/B)).
    member_touched: Vec<bool>,
    group_touched: Vec<bool>,
    touched_members: Vec<u32>,
    touched_groups: Vec<u32>,
    alloc: AllocScratch,
    emit: AllocScratch,
    regrant: Grants,
    /// Heap of the emptied `pass1`/`pass2` grant buffers, for the next
    /// partition that admits someone.
    spares: SpareVecs<(QueryId, u32)>,
    /// Buffers of the snapshot path's reference division.
    snapshot: PartitionScratch,
}

impl IncrementalPartitioned {
    /// Allocator over `partitions` (fixed for its lifetime), every
    /// partition dividing by `strategy` until [`Self::set_strategy`]
    /// changes it.
    ///
    /// # Panics
    /// Panics on an empty partition table — the degenerate un-partitioned
    /// case has no dirty-set structure to exploit; use the plain policies.
    pub fn new(partitions: Vec<PartitionSpec>, strategy: PartitionStrategy) -> Self {
        Self::with_group_size(partitions, strategy, GROUP_SIZE)
    }

    /// [`IncrementalPartitioned::new`] with an explicit tree fan-out;
    /// `group_size` 1 degenerates to a flat per-partition borrow-back scan
    /// (the before/after of the `partition/tree_vs_flat_borrow` microbench).
    ///
    /// # Panics
    /// Panics on an empty partition table or a zero `group_size`.
    pub fn with_group_size(
        partitions: Vec<PartitionSpec>,
        strategy: PartitionStrategy,
        group_size: usize,
    ) -> Self {
        assert!(
            !partitions.is_empty(),
            "IncrementalPartitioned needs at least one partition"
        );
        assert!(group_size >= 1, "group_size must be at least 1");
        IncrementalPartitioned {
            strategies: vec![strategy; partitions.len()],
            partitions,
            group_size,
            valid: false,
            total: 0,
            budgets: Vec::new(),
            pass1: Vec::new(),
            pass1_used: Vec::new(),
            used_total: 0,
            pass2: Vec::new(),
            tree: Vec::new(),
            member_touched: Vec::new(),
            group_touched: Vec::new(),
            touched_members: Vec::new(),
            touched_groups: Vec::new(),
            alloc: AllocScratch::default(),
            emit: AllocScratch::default(),
            regrant: Grants::new(),
            spares: SpareVecs::default(),
            snapshot: PartitionScratch::default(),
        }
    }

    /// The partition table in force.
    pub fn partitions(&self) -> &[PartitionSpec] {
        &self.partitions
    }

    /// Make partition `i` divide by `strategy` from the next allocation on.
    /// A changed entry marks the partition for re-division on the dirty
    /// path, so callers never report strategy changes in the [`DirtySet`].
    pub fn set_strategy(&mut self, i: usize, strategy: PartitionStrategy) {
        if self.strategies[i] != strategy {
            self.strategies[i] = strategy;
            // Before the first rebuild there is no cache to invalidate.
            if self.valid {
                self.touch(i);
            }
        }
    }

    /// The reference two-pass division of `total` among the snapshot's
    /// `queries` ([`crate::partitioned_allocate_with_into`] over this
    /// table): every admitted query's grant, nothing for the rest.
    pub fn allocate_into(
        &mut self,
        queries: &[QueryDemand],
        total: u32,
        out: &mut Grants,
    ) {
        partitioned_allocate_with_into(
            queries,
            &self.partitions,
            &self.strategies,
            total,
            &mut self.snapshot,
            out,
        );
    }

    /// Divide `total` among `groups` exactly like
    /// [`IncrementalPartitioned::allocate_into`] over the concatenated
    /// groups, re-dividing only what `dirty`, strategy changes and pool
    /// shifts require.
    ///
    /// `out` receives one `(id, pages)` pair for every member of every
    /// *recomputed* partition — explicit zeros for unadmitted members —
    /// and nothing for partitions whose grants carried over.
    pub fn allocate_dirty_into(
        &mut self,
        groups: &[Vec<QueryDemand>],
        total: u32,
        dirty: &DirtySet,
        out: &mut Grants,
    ) {
        let n = self.partitions.len();
        assert_eq!(groups.len(), n, "one demand group per partition");
        out.clear();
        if !self.valid || total != self.total || dirty.is_all() {
            self.rebuild(groups, total, out);
            return;
        }
        for p in dirty.iter() {
            self.touch(p.min(n - 1));
        }
        // Pass 1: re-divide dirty partitions' quotas; the pool follows the
        // grant diffs.
        for k in 0..self.touched_members.len() {
            let j = self.touched_members[k] as usize;
            self.redo_pass1(j, &groups[j]);
            let new_used = granted_total(&self.pass1[j]);
            self.used_total = self.used_total - self.pass1_used[j] + new_used;
            self.pass1_used[j] = new_used;
        }
        let mut pool = (total as u64).saturating_sub(self.used_total);
        // Pass 2: walk the tree; settle clean, unlimited, covered subtrees
        // from their cached borrow totals.
        let ngroups = n.div_ceil(self.group_size);
        for gi in 0..ngroups {
            let agg = self.tree[gi];
            if !self.group_touched[gi] && !agg.limited && pool >= agg.extra {
                pool -= agg.extra;
                continue;
            }
            pool = self.walk_group(gi, groups, pool, out);
        }
        for k in 0..self.touched_members.len() {
            let j = self.touched_members[k] as usize;
            self.member_touched[j] = false;
        }
        self.touched_members.clear();
        for k in 0..self.touched_groups.len() {
            let g = self.touched_groups[k] as usize;
            self.group_touched[g] = false;
        }
        self.touched_groups.clear();
    }

    /// Full reference rebuild: the two-pass division verbatim, filling every
    /// cache and emitting every partition.
    fn rebuild(&mut self, groups: &[Vec<QueryDemand>], total: u32, out: &mut Grants) {
        let n = self.partitions.len();
        self.total = total;
        self.budgets.clear();
        let mut unreserved = total;
        for spec in &self.partitions {
            let budget = spec.quota.min(unreserved);
            unreserved -= budget;
            self.budgets.push(budget);
        }
        self.pass1.resize_with(n, Grants::new);
        self.pass1_used.clear();
        self.pass1_used.resize(n, 0);
        for c in &mut self.pass2 {
            self.spares.give(&mut c.grants);
        }
        self.pass2.clear();
        // Only soft partitions borrow back: an all-hard table keeps no cache.
        let soft = self.partitions.iter().any(|p| p.soft);
        self.pass2
            .resize(if soft { n } else { 0 }, Pass2Cache::default());
        for (j, group) in groups.iter().enumerate() {
            self.redo_pass1(j, group);
            self.pass1_used[j] = granted_total(&self.pass1[j]);
        }
        self.used_total = self.pass1_used.iter().sum();
        let mut pool = (total as u64).saturating_sub(self.used_total);
        let ngroups = n.div_ceil(self.group_size);
        self.tree.clear();
        self.tree.resize(ngroups, GroupAgg::default());
        for gi in 0..ngroups {
            let g0 = gi * self.group_size;
            let end = (g0 + self.group_size).min(n);
            let mut agg = GroupAgg::default();
            for j in g0..end {
                if !self.partitions[j].soft {
                    emit_partition(&mut self.emit, &groups[j], &self.pass1[j], out);
                    continue;
                }
                pool = self.redo_pass2(j, groups, pool, out);
                let c = &self.pass2[j];
                agg.extra += c.extra;
                agg.limited |= c.limited;
            }
            self.tree[gi] = agg;
        }
        self.member_touched.clear();
        self.member_touched.resize(n, false);
        self.group_touched.clear();
        self.group_touched.resize(ngroups, false);
        self.touched_members.clear();
        self.touched_groups.clear();
        self.valid = true;
    }

    /// Re-divide partition `j`'s quota among `group` into its pass-1 cache,
    /// which holds heap only while it admits someone.
    fn redo_pass1(&mut self, j: usize, group: &[QueryDemand]) {
        let grants = &mut self.pass1[j];
        if !group.is_empty() {
            self.spares.take(grants);
        }
        let _ = self.strategies[j].divide_flagged(
            group,
            self.budgets[j],
            &mut self.alloc,
            grants,
        );
        if grants.is_empty() {
            self.spares.give(grants);
        }
    }

    /// Mark partition `j` (and its tree group) for recomputation this call.
    fn touch(&mut self, j: usize) {
        if !self.member_touched[j] {
            self.member_touched[j] = true;
            self.touched_members.push(j as u32);
            let gi = j / self.group_size;
            if !self.group_touched[gi] {
                self.group_touched[gi] = true;
                self.touched_groups.push(gi as u32);
            }
        }
    }

    /// Member-by-member borrow-back over group `gi`, reusing cached
    /// outcomes where the pool in hand provably cannot change them.
    fn walk_group(
        &mut self,
        gi: usize,
        groups: &[Vec<QueryDemand>],
        mut pool: u64,
        out: &mut Grants,
    ) -> u64 {
        let n = self.partitions.len();
        let g0 = gi * self.group_size;
        let end = (g0 + self.group_size).min(n);
        let mut agg = GroupAgg::default();
        for j in g0..end {
            if !self.partitions[j].soft {
                if self.member_touched[j] {
                    emit_partition(&mut self.emit, &groups[j], &self.pass1[j], out);
                }
                continue;
            }
            let c = &self.pass2[j];
            let reusable = !self.member_touched[j]
                && if c.skipped {
                    pool == 0
                } else {
                    // An unlimited division is identical at every budget ≥
                    // its granted total: `own + pool ≥ used` covers both the
                    // adopted (`pool ≥ extra`) and rejected (`used < own`)
                    // cases. A limited one only at the very same pool.
                    pool == c.pool_in
                        || (!c.limited && c.used <= self.pass1_used[j] + pool)
                };
            if reusable {
                pool -= c.extra;
                agg.extra += c.extra;
                agg.limited |= c.limited;
                continue;
            }
            pool = self.redo_pass2(j, groups, pool, out);
            let c = &self.pass2[j];
            agg.extra += c.extra;
            agg.limited |= c.limited;
        }
        self.tree[gi] = agg;
        pool
    }

    /// Recompute (and cache, and emit) the borrow-back outcome of soft
    /// partition `j` at entry pool `pool` — the reference pass-2 body.
    fn redo_pass2(
        &mut self,
        j: usize,
        groups: &[Vec<QueryDemand>],
        pool: u64,
        out: &mut Grants,
    ) -> u64 {
        if pool == 0 {
            let c = &mut self.pass2[j];
            self.spares.give(&mut c.grants);
            c.pool_in = 0;
            c.taken = false;
            c.used = 0;
            c.extra = 0;
            c.limited = true;
            c.skipped = true;
            emit_partition(&mut self.emit, &groups[j], &self.pass1[j], out);
            return pool;
        }
        let own = self.pass1_used[j];
        let budget_u64 = own + pool;
        let clamp = u32::MAX as u64;
        let budget = budget_u64.min(clamp) as u32;
        if !groups[j].is_empty() {
            self.spares.take(&mut self.regrant);
        }
        let limited = self.strategies[j].divide_flagged(
            &groups[j],
            budget,
            &mut self.alloc,
            &mut self.regrant,
        ) || budget_u64 > clamp;
        let used = granted_total(&self.regrant);
        // Mirror the reference guard: never shrink below the quota pass.
        let taken = used >= own;
        let extra = if taken { used - own } else { 0 };
        let c = &mut self.pass2[j];
        if taken && !self.regrant.is_empty() {
            std::mem::swap(&mut c.grants, &mut self.regrant);
        } else {
            self.spares.give(&mut c.grants);
        }
        c.pool_in = pool;
        c.taken = taken;
        c.used = used;
        c.extra = extra;
        c.limited = limited;
        c.skipped = false;
        let final_grants = if taken {
            &self.pass2[j].grants
        } else {
            &self.pass1[j]
        };
        emit_partition(&mut self.emit, &groups[j], final_grants, out);
        pool - extra
    }
}

/// Full-member emission for one recomputed partition: every member in ED
/// order with its grant, explicit 0 for unadmitted members. Grants are
/// always an ED-ordered prefix-subset of the group, so one lockstep walk
/// suffices.
fn emit_partition(
    emit: &mut AllocScratch,
    group: &[QueryDemand],
    grants: &Grants,
    out: &mut Grants,
) {
    emit.ed_order(group);
    let mut k = 0;
    for q in emit.sorted() {
        if k < grants.len() && grants[k].0 == q.id {
            out.push(grants[k]);
            k += 1;
        } else {
            out.push((q.id, 0));
        }
    }
    debug_assert_eq!(k, grants.len(), "grants must be a subset of the group");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::QueryId;
    use simkit::SimTime;
    use std::collections::BTreeMap;

    fn qt(id: u64, deadline: u64, min: u32, max: u32, tenant: u32) -> QueryDemand {
        QueryDemand {
            id: QueryId(id),
            deadline: SimTime(deadline),
            min_mem: min,
            max_mem: max,
            tenant,
        }
    }

    /// Reference applied-grant map: run the full path over the concatenated
    /// groups and record every granted query (absent = 0 pages).
    fn full_map(
        groups: &[Vec<QueryDemand>],
        partitions: &[PartitionSpec],
        strategies: &[PartitionStrategy],
        total: u32,
    ) -> BTreeMap<u64, u32> {
        let queries: Vec<QueryDemand> =
            groups.iter().flat_map(|g| g.iter().copied()).collect();
        let mut scratch = PartitionScratch::default();
        let mut out = Grants::new();
        partitioned_allocate_with_into(
            &queries,
            partitions,
            strategies,
            total,
            &mut scratch,
            &mut out,
        );
        let mut map: BTreeMap<u64, u32> = queries.iter().map(|q| (q.id.0, 0)).collect();
        for (id, pages) in out {
            map.insert(id.0, pages);
        }
        map
    }

    /// Apply an incremental emission onto the carried-over state.
    fn apply(map: &mut BTreeMap<u64, u32>, out: &Grants) {
        for &(id, pages) in out {
            map.insert(id.0, pages);
        }
    }

    fn specs(n: usize, quota: u32, soft_mod: usize) -> Vec<PartitionSpec> {
        (0..n)
            .map(|i| PartitionSpec {
                quota,
                soft: soft_mod != 0 && i % soft_mod == 0,
            })
            .collect()
    }

    /// Randomized churn: incremental emissions applied over carried state
    /// must equal the full path's applied map every step, for flat and tree
    /// fan-outs, hard/soft mixes, strategy changes, and total shocks.
    #[test]
    fn incremental_matches_full_path_under_churn() {
        for &(nparts, group_size, soft_mod) in &[
            (1usize, 1usize, 1usize),
            (3, 32, 1),
            (7, 2, 2),
            (40, 32, 1),
            (40, 1, 3),
            (65, 32, 2),
        ] {
            let parts = specs(nparts, 120, soft_mod);
            let mut strategies: Vec<PartitionStrategy> = (0..nparts)
                .map(|i| {
                    if i % 3 == 0 {
                        PartitionStrategy::Max
                    } else {
                        PartitionStrategy::MinMax(Some(2 + (i % 4) as u32))
                    }
                })
                .collect();
            let mut inc = IncrementalPartitioned::with_group_size(
                parts.clone(),
                PartitionStrategy::MinMax(None),
                group_size,
            );
            for (i, &s) in strategies.iter().enumerate() {
                inc.set_strategy(i, s);
            }
            let mut groups: Vec<Vec<QueryDemand>> = vec![Vec::new(); nparts];
            let mut dirty = DirtySet::new(nparts);
            let mut out = Grants::new();
            let mut total = (nparts as u32) * 100;
            let mut inc_map: BTreeMap<u64, u32> = BTreeMap::new();
            let mut next_id = 0u64;
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (nparts as u64) << 8;
            for round in 0..80u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round | 1);
                // Churn a few partitions.
                let churn = 1 + (x % 3) as usize;
                for c in 0..churn {
                    let h = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(c as u64);
                    let t = (h % nparts as u64) as usize;
                    if h & 4 != 0 || groups[t].is_empty() {
                        groups[t].push(qt(
                            next_id,
                            100 + h % 700,
                            5 + (h % 40) as u32,
                            30 + (h % 200) as u32,
                            t as u32,
                        ));
                        next_id += 1;
                    } else {
                        let k = (h as usize / 8) % groups[t].len();
                        let gone = groups[t].swap_remove(k);
                        inc_map.remove(&gone.id.0);
                    }
                    dirty.mark(t);
                }
                // Occasionally flip a strategy (marks itself dirty).
                if x.is_multiple_of(7) {
                    let t = ((x >> 16) % nparts as u64) as usize;
                    strategies[t] = match strategies[t] {
                        PartitionStrategy::Max => PartitionStrategy::MinMax(None),
                        PartitionStrategy::MinMax(_) => PartitionStrategy::Max,
                    };
                    inc.set_strategy(t, strategies[t]);
                }
                // Occasionally shock the total (forces a rebuild).
                if x.is_multiple_of(11) {
                    total = (nparts as u32) * (40 + (x % 160) as u32);
                }
                inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
                dirty.clear();
                apply(&mut inc_map, &out);
                // Drop entries for departed queries the full map won't have.
                let expect = full_map(&groups, &parts, &strategies, total);
                assert_eq!(
                    inc_map, expect,
                    "divergence at round {round} (P={nparts}, B={group_size}, soft%{soft_mod})"
                );
            }
        }
    }

    #[test]
    fn clean_call_emits_nothing() {
        let parts = specs(8, 200, 1);
        let mut inc = IncrementalPartitioned::new(parts, PartitionStrategy::MinMax(None));
        let groups: Vec<Vec<QueryDemand>> = (0..8)
            .map(|t| vec![qt(t, 100 + t, 20, 300, t as u32)])
            .collect();
        let mut dirty = DirtySet::new(8);
        dirty.mark_all();
        let mut out = Grants::new();
        inc.allocate_dirty_into(&groups, 1600, &dirty, &mut out);
        assert!(!out.is_empty(), "rebuild emits every partition");
        dirty.clear();
        inc.allocate_dirty_into(&groups, 1600, &dirty, &mut out);
        assert!(out.is_empty(), "no churn → all grants carry over");
    }

    #[test]
    fn emission_covers_every_member_of_a_dirty_partition() {
        let parts = specs(2, 100, 0); // hard quotas
        let mut inc = IncrementalPartitioned::new(parts, PartitionStrategy::MinMax(None));
        // Partition 0: two queries whose minimums both fit, then a churn
        // that leaves one unadmittable — it must be emitted with 0 pages.
        let mut groups = vec![
            vec![qt(0, 100, 40, 80, 0), qt(1, 200, 40, 80, 0)],
            vec![qt(10, 100, 40, 80, 1)],
        ];
        let mut dirty = DirtySet::new(2);
        dirty.mark_all();
        let mut out = Grants::new();
        inc.allocate_dirty_into(&groups, 200, &dirty, &mut out);
        dirty.clear();
        // A new urgent hog squeezes query 1 out entirely.
        groups[0].push(qt(2, 50, 100, 100, 0));
        dirty.mark(0);
        inc.allocate_dirty_into(&groups, 200, &dirty, &mut out);
        let g: BTreeMap<u64, u32> = out.iter().map(|&(id, p)| (id.0, p)).collect();
        assert_eq!(
            g.len(),
            3,
            "all three members of partition 0 emitted: {out:?}"
        );
        assert_eq!(g[&2], 100);
        assert_eq!(g[&1], 0, "squeezed-out member emitted with explicit 0");
        assert!(!g.contains_key(&10), "clean partition 1 not emitted");
    }

    #[test]
    fn borrow_flows_back_when_the_lender_wakes() {
        // Tenant 1 idle: soft tenant 0 borrows. Tenant 1 wakes (only IT is
        // dirty) — tenant 0's cached borrow no longer fits the pool and is
        // recomputed, returning the pages.
        let parts = vec![
            PartitionSpec {
                quota: 100,
                soft: true,
            },
            PartitionSpec {
                quota: 100,
                soft: false,
            },
        ];
        let strategies = vec![PartitionStrategy::MinMax(None); 2];
        let mut inc = IncrementalPartitioned::new(parts.clone(), strategies[0]);
        let mut groups = vec![vec![qt(0, 100, 50, 200, 0)], Vec::new()];
        let mut dirty = DirtySet::new(2);
        dirty.mark_all();
        let mut out = Grants::new();
        inc.allocate_dirty_into(&groups, 200, &dirty, &mut out);
        dirty.clear();
        let mut map = BTreeMap::new();
        apply(&mut map, &out);
        assert_eq!(map[&0], 200, "borrowed up to its maximum");
        groups[1].push(qt(9, 10, 100, 100, 1));
        dirty.mark(1);
        inc.allocate_dirty_into(&groups, 200, &dirty, &mut out);
        dirty.clear();
        apply(&mut map, &out);
        assert_eq!(map[&9], 100, "woken lender served from its quota");
        assert_eq!(map[&0], 100, "borrower recomputed back to its quota");
        assert_eq!(map, full_map(&groups, &parts, &strategies, 200));
    }

    #[test]
    fn dirty_set_marks_dedup_and_clear() {
        let mut d = DirtySet::new(4);
        assert!(d.is_empty());
        d.mark(2);
        d.mark(2);
        d.mark(7); // grows on demand
        assert_eq!(d.len(), 2);
        assert!(d.contains(2) && d.contains(7) && !d.contains(3));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2, 7]);
        d.clear();
        assert!(d.is_empty() && !d.contains(2));
        d.mark_all();
        assert!(d.is_all() && !d.is_empty());
        d.clear();
        assert!(!d.is_all());
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn rejects_empty_partitions() {
        IncrementalPartitioned::new(Vec::new(), PartitionStrategy::Max);
    }
}
