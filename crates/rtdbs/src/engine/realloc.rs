//! The Buffer Manager's allocation pass (Figure 2): it asks the memory
//! policy for grants and hands the engine the sorted grant changes.
//!
//! It owns the choice of path. The snapshot path hands the policy every
//! live demand in ED order. The dirty-set path (multi-tenant runs of a
//! policy that `supports_dirty_allocation`) keeps the live demands
//! bucketed per partition and hands over only the partitions whose demand
//! changed, so a pass costs churn, not population. Every buffer is reused,
//! so a pass is allocation-free in steady state.

use super::QueryTable;
use pmm::{
    AllocScratch, DirtySet, Grants, MemoryPolicy, QueryDemand, QueryId, SpareVecs,
    SystemSnapshot,
};
use simkit::SimTime;

pub(super) struct Realloc {
    snapshot: SystemSnapshot,
    alloc_scratch: AllocScratch,
    policy_grants: Grants,
    /// Dense grant map keyed by slab slot (absent = 0 pages).
    grant_by_slot: Vec<u32>,
    /// `(query, old, new)` grant changes of the current pass.
    diffs: Vec<(QueryId, u32, u32)>,
    use_dirty: bool,
    /// Live demands per partition, and each slot's index inside its bucket
    /// (for O(1) swap-removal). An emptied bucket parks its heap in
    /// `spare_groups` for the next partition that needs one.
    demand_groups: Vec<Vec<QueryDemand>>,
    spare_groups: SpareVecs<QueryDemand>,
    group_pos: Vec<u32>,
    dirty: DirtySet,
    /// Re-entrancy guard: a pass whose grant changes depart a query asks
    /// for another pass instead of nesting one.
    reallocating: bool,
    realloc_pending: bool,
}

impl Realloc {
    pub(super) fn new(partitions: usize, policy: &dyn MemoryPolicy) -> Self {
        let use_dirty = partitions > 0 && policy.supports_dirty_allocation();
        Realloc {
            // `now` and `total_memory` are set at every pass.
            snapshot: SystemSnapshot {
                now: SimTime::ZERO,
                total_memory: 0,
                queries: Vec::new(),
            },
            alloc_scratch: AllocScratch::default(),
            policy_grants: Grants::new(),
            grant_by_slot: Vec::new(),
            diffs: Vec::new(),
            use_dirty,
            demand_groups: vec![Vec::new(); if use_dirty { partitions } else { 0 }],
            spare_groups: SpareVecs::default(),
            group_pos: Vec::new(),
            dirty: DirtySet::new(partitions),
            reallocating: false,
            realloc_pending: false,
        }
    }

    /// Start a reallocation; `false` (and a pass owed) when one is already
    /// running further up the stack.
    pub(super) fn enter(&mut self) -> bool {
        if self.reallocating {
            self.realloc_pending = true;
            return false;
        }
        self.reallocating = true;
        true
    }

    /// Whether a departure during the last pass asked for another one;
    /// otherwise the reallocation is over.
    pub(super) fn rerun(&mut self) -> bool {
        self.reallocating = self.realloc_pending;
        self.realloc_pending
    }

    /// One allocation pass over the live queries against `memory` pages:
    /// returns the number of grant changes, readable through
    /// [`Realloc::diff`] in the order they must be applied.
    pub(super) fn pass(
        &mut self,
        now: SimTime,
        memory: u32,
        policy: &mut dyn MemoryPolicy,
        live: &QueryTable,
    ) -> usize {
        self.realloc_pending = false;
        self.diffs.clear();
        if self.use_dirty {
            // The policy re-emits grants only for the dirty partitions;
            // everything else carries over bit-for-bit, so the diff list is
            // proportional to churn, not population.
            policy.allocate_dirty_into(
                memory,
                &self.demand_groups,
                &mut self.dirty,
                &mut self.policy_grants,
            );
            // Clear *before* applying: departures triggered by a grant
            // change (a completion cascading into `kill_query`) must
            // re-mark their partitions for the pending re-run.
            self.dirty.clear();
            for &(id, new) in &self.policy_grants {
                let slot = live.slot_of(id).expect("granted query is live");
                let old = live.slot_ref(slot).granted;
                if new != old {
                    self.diffs.push((id, old, new));
                }
            }
        } else {
            self.snapshot.now = now;
            // The policy budgets against the *effective* memory: an active
            // memory shock shrinks the ceiling without touching the config.
            self.snapshot.total_memory = memory;
            self.snapshot.queries.clear();
            // Pre-sorted by the allocators' exact `(deadline, id)` key, so
            // their ED sort only verifies.
            for &(_, _, slot) in live.ed_order() {
                self.snapshot.queries.push(live.slot_ref(slot).demand());
            }
            policy.allocate_into(
                &self.snapshot,
                &mut self.alloc_scratch,
                &mut self.policy_grants,
            );
            self.grant_by_slot.clear();
            self.grant_by_slot.resize(live.slot_capacity(), 0);
            for &(id, pages) in &self.policy_grants {
                let slot = live.slot_of(id).expect("granted query is live");
                self.grant_by_slot[slot as usize] = pages;
            }
            for (slot, q) in live.iter_with_slots() {
                let new = self.grant_by_slot[slot as usize];
                if new != q.granted {
                    self.diffs.push((q.id, q.granted, new));
                }
            }
        }
        // Apply shrinking grants before growing ones so the growth is
        // backed by freed pages. The id tie-break reproduces the seed
        // behavior exactly: a stable sort over id-ordered input.
        self.diffs
            .sort_unstable_by_key(|&(id, old, new)| (new > old, new, id));
        self.diffs.len()
    }

    /// The `i`th grant change of the last pass: the query and its new
    /// grant.
    pub(super) fn diff(&self, i: usize) -> (QueryId, u32) {
        let (id, _, new) = self.diffs[i];
        (id, new)
    }

    /// A query arrived in `slot`: bucket its demand into its partition's
    /// group and mark the partition dirty (dirty-set path only).
    pub(super) fn arrived(&mut self, slot: u32, live: &QueryTable) {
        if !self.use_dirty {
            return;
        }
        let d = live.slot_ref(slot).demand();
        let g = d.tenant as usize;
        if self.group_pos.len() <= slot as usize {
            self.group_pos.resize(slot as usize + 1, 0);
        }
        let group = &mut self.demand_groups[g];
        self.spare_groups.take(group);
        self.group_pos[slot as usize] = group.len() as u32;
        group.push(d);
        self.dirty.mark(g);
    }

    /// The query in `slot`, billed to `tenant`, left the live table: swap
    /// its demand out of the partition bucket and mark the partition dirty
    /// (dirty-set path only).
    pub(super) fn departed(&mut self, slot: u32, tenant: u32, live: &QueryTable) {
        if !self.use_dirty {
            return;
        }
        let g = tenant as usize;
        let pos = self.group_pos[slot as usize] as usize;
        let group = &mut self.demand_groups[g];
        group.swap_remove(pos);
        if let Some(moved) = group.get(pos) {
            let ms = live.slot_of(moved.id).expect("moved demand is live");
            self.group_pos[ms as usize] = pos as u32;
        } else if group.is_empty() {
            self.spare_groups.give(group);
        }
        self.dirty.mark(g);
    }
}
