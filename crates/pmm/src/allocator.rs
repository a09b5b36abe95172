//! The memory-division algorithms (Section 3.2 and Table 5), as pure
//! functions from `(queries, total memory)` to per-query page grants.
//!
//! All three honor Earliest Deadline strictly: queries are considered in
//! deadline order and a query that cannot be served does not let a
//! lower-priority query overtake it (priority inversion through memory is
//! exactly what the paper's policies are designed to avoid).
//!
//! The entry points are the `*_allocate_into` forms, which write grants
//! into caller-owned buffers and are allocation-free once the
//! [`AllocScratch`] is warm — the shape the simulator's reallocation hot
//! path needs. One-shot callers go through
//! [`MemoryPolicy::allocate`](crate::MemoryPolicy).

use crate::types::{QueryDemand, QueryId};

/// Grants for the supplied queries; queries absent from the map receive no
/// memory (they wait, or are suspended).
pub type Grants = Vec<(QueryId, u32)>;

/// Reusable scratch for the `*_allocate_into` entry points: the ED-sorted
/// demand copy and the water-filling pin flags. One instance amortizes every
/// per-call allocation of the seed implementation (`queries.to_vec()` plus a
/// fresh `Vec<bool>`), which ran on *every* calendar event that moved a
/// query.
#[derive(Debug, Default)]
pub struct AllocScratch {
    sorted: Vec<QueryDemand>,
    pinned: Vec<bool>,
}

impl AllocScratch {
    /// Fill `self.sorted` with the demands in ED order (deadline, then id —
    /// a unique key, so the unstable sort is deterministic).
    ///
    /// The simulator maintains its live-query snapshot in exactly this
    /// order incrementally (arrival/departure only — deadlines are fixed),
    /// so on the per-event hot path the `is_sorted` check turns the re-sort
    /// into a linear verification. Arbitrary callers still get sorted.
    pub(crate) fn ed_order(&mut self, queries: &[QueryDemand]) {
        self.sorted.clear();
        self.sorted.extend_from_slice(queries);
        if !self.sorted.is_sorted_by_key(|q| (q.deadline, q.id)) {
            self.sorted.sort_unstable_by_key(|q| (q.deadline, q.id));
        }
    }

    /// The ED-sorted copy left behind by the last [`AllocScratch::ed_order`]
    /// call (the incremental allocator's full-member emission walks it in
    /// lockstep with the grants, which are always an ED prefix).
    pub(crate) fn sorted(&self) -> &[QueryDemand] {
        &self.sorted
    }
}

/// **Max** strategy: in ED order, each query gets its maximum demand or the
/// admission stops. No explicit MPL limit — memory itself is the limiter.
/// Writes into caller-owned buffers; allocation-free once warm.
pub fn max_allocate_into(
    queries: &[QueryDemand],
    total: u32,
    scratch: &mut AllocScratch,
    out: &mut Grants,
) {
    scratch.ed_order(queries);
    out.clear();
    let mut free = total;
    for q in &scratch.sorted {
        if q.max_mem <= free {
            free -= q.max_mem;
            out.push((q.id, q.max_mem));
        } else {
            break; // strict ED: nobody overtakes a blocked urgent query
        }
    }
}

/// **MinMax-N** strategy: admit the `limit` most urgent queries (all of
/// them when `limit` is `None`, i.e. MinMax-∞). Pass one hands every
/// admitted query its minimum; pass two tops allocations up to the maximum
/// in ED order until memory runs out. The query on the boundary may end up
/// anywhere between its minimum and maximum (Section 3.2). Writes into
/// caller-owned buffers; allocation-free once warm.
pub fn minmax_allocate_into(
    queries: &[QueryDemand],
    total: u32,
    limit: Option<u32>,
    scratch: &mut AllocScratch,
    out: &mut Grants,
) {
    let _ = minmax_allocate_flagged_into(queries, total, limit, scratch, out);
}

/// [`minmax_allocate_into`], additionally reporting whether the division was
/// *budget-limited*: `true` means a different budget could change the grants
/// (admission stopped on memory, or the top-up pass exhausted the budget).
/// `false` guarantees the same grants for every budget ≥ the granted total —
/// the reuse certificate the incremental allocator caches. Conservative:
/// `true` may be returned even when the outcome happens to be stable.
pub(crate) fn minmax_allocate_flagged_into(
    queries: &[QueryDemand],
    total: u32,
    limit: Option<u32>,
    scratch: &mut AllocScratch,
    out: &mut Grants,
) -> bool {
    scratch.ed_order(queries);
    let n = limit.map(|l| l as usize).unwrap_or(usize::MAX);
    // Pass 1: minimums, in priority order, stopping when memory or the MPL
    // limit is exhausted.
    out.clear();
    let mut free = total;
    for q in scratch.sorted.iter().take(n) {
        if q.min_mem <= free {
            free -= q.min_mem;
            out.push((q.id, q.min_mem));
        } else {
            break;
        }
    }
    // Admission ended early only if memory broke the loop before the MPL
    // limit / group size did.
    let admission_limited = out.len() < scratch.sorted.len().min(n);
    // Pass 2: top up to the maximum, again in priority order.
    for (i, grant) in out.iter_mut().enumerate() {
        let want = scratch.sorted[i].max_mem - grant.1;
        let extra = want.min(free);
        grant.1 += extra;
        free -= extra;
        if free == 0 {
            break;
        }
    }
    admission_limited || free == 0
}

/// **Proportional-N** strategy: admit like MinMax-N, but divide memory so
/// every admitted query receives the same fraction of its maximum, subject
/// to at least its minimum. The fraction is found by water-filling: queries
/// whose proportional share would fall below their minimum are pinned at
/// the minimum and the fraction is recomputed over the rest. Writes into
/// caller-owned buffers; allocation-free once warm.
pub fn proportional_allocate_into(
    queries: &[QueryDemand],
    total: u32,
    limit: Option<u32>,
    scratch: &mut AllocScratch,
    out: &mut Grants,
) {
    scratch.ed_order(queries);
    let n = limit.map(|l| l as usize).unwrap_or(usize::MAX);
    out.clear();
    // Admission: maximal ED prefix whose minimums fit — a contiguous prefix
    // of the sorted scratch, so a count suffices.
    let mut admitted = 0usize;
    let mut min_sum = 0u64;
    for q in scratch.sorted.iter().take(n) {
        if min_sum + q.min_mem as u64 <= total as u64 {
            min_sum += q.min_mem as u64;
            admitted += 1;
        } else {
            break;
        }
    }
    if admitted == 0 {
        return;
    }
    let admitted_q = &scratch.sorted[..admitted];
    // Water-fill the common fraction.
    scratch.pinned.clear();
    scratch.pinned.resize(admitted, false);
    let pinned = &mut scratch.pinned;
    let mut frac = 1.0f64;
    for _ in 0..admitted + 1 {
        let pinned_mem: u64 = admitted_q
            .iter()
            .zip(pinned.iter())
            .filter(|&(_, &p)| p)
            .map(|(q, _)| q.min_mem as u64)
            .sum();
        let unpinned_max: u64 = admitted_q
            .iter()
            .zip(pinned.iter())
            .filter(|&(_, &p)| !p)
            .map(|(q, _)| q.max_mem as u64)
            .sum();
        if unpinned_max == 0 {
            frac = 0.0;
            break;
        }
        frac = ((total as u64 - pinned_mem) as f64 / unpinned_max as f64).min(1.0);
        let mut newly_pinned = false;
        for (i, q) in admitted_q.iter().enumerate() {
            if !pinned[i] && (frac * q.max_mem as f64) < q.min_mem as f64 {
                pinned[i] = true;
                newly_pinned = true;
            }
        }
        if !newly_pinned {
            break;
        }
    }
    out.extend(admitted_q.iter().zip(pinned.iter()).map(|(q, &p)| {
        let pages = if p {
            q.min_mem
        } else {
            ((frac * q.max_mem as f64).floor() as u32).clamp(q.min_mem, q.max_mem)
        };
        (q.id, pages)
    }));
}

/// Sum of granted pages (helper for invariant checks).
pub fn granted_total(grants: &Grants) -> u64 {
    grants.iter().map(|&(_, p)| p as u64).sum()
}

/// One memory partition of the multi-tenant mode: a page quota plus whether
/// the tenant may borrow pages other partitions leave idle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Pages of the pool reserved for this partition.
    pub quota: u32,
    /// Soft quota: may exceed `quota` by borrowing idle pages. Hard
    /// (`false`) is a strict ceiling.
    pub soft: bool,
}

/// Heap buffers parked for reuse among many owners. An owner whose buffer
/// empties [`SpareVecs::give`]s its heap back here, and the next owner that
/// is about to fill an unallocated buffer [`SpareVecs::take`]s one. The heap
/// held is then bounded by the peak count of buffers in use at once (live
/// demand), not by the number of owners (tenants), and churn reuses
/// buffers instead of returning them to the allocator.
#[derive(Debug)]
pub struct SpareVecs<T> {
    spare: Vec<Vec<T>>,
}

impl<T> Default for SpareVecs<T> {
    fn default() -> Self {
        SpareVecs { spare: Vec::new() }
    }
}

impl<T> SpareVecs<T> {
    /// Park `buf`'s heap, leaving `buf` empty and unallocated. Any contents
    /// are discarded.
    pub fn give(&mut self, buf: &mut Vec<T>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.spare.push(std::mem::take(buf));
        }
    }

    /// Hand `buf` a parked buffer if it has no heap of its own.
    pub fn take(&mut self, buf: &mut Vec<T>) {
        if buf.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *buf = spare;
            }
        }
    }
}

/// Reusable scratch for [`partitioned_allocate_with_into`]: per-partition
/// demand groups and grant buffers, plus the shared [`AllocScratch`] the
/// inner divisions sort in. A partition's buffers hold heap only while it
/// has demand (or admits someone); the rest is parked in the spares.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    groups: Vec<Vec<QueryDemand>>,
    part_grants: Vec<Grants>,
    regrant: Grants,
    alloc: AllocScratch,
    spare_groups: SpareVecs<QueryDemand>,
    spare_grants: SpareVecs<(QueryId, u32)>,
}

/// Which memory-division function one partition's budget is divided by —
/// the per-tenant arbitration knob of the multi-tenant policies:
/// `PartitionedPolicy` runs MinMax-∞ everywhere, and each `TenantPmm`
/// controller picks its partition's strategy independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Max within the partition: each query its maximum — *capped at the
    /// partition budget* — or nothing. The cap matters: pages beyond the
    /// quota do not exist for the tenant, so a query whose one-pass
    /// maximum exceeds the whole partition would otherwise never be
    /// admitted, never complete, and starve the tenant's feedback loop
    /// (the paper's operators degrade gracefully below their maximum,
    /// which is what makes the cap sound).
    Max,
    /// MinMax-N within the partition (`None` = MinMax-∞).
    MinMax(Option<u32>),
}

impl PartitionStrategy {
    /// Divide `budget` among `queries` by this strategy, reporting whether
    /// the division was budget-limited (see [`minmax_allocate_flagged_into`]
    /// for the flag's contract).
    pub(crate) fn divide_flagged(
        self,
        queries: &[QueryDemand],
        budget: u32,
        alloc: &mut AllocScratch,
        out: &mut Grants,
    ) -> bool {
        match self {
            PartitionStrategy::Max => {
                max_allocate_clamped_flagged_into(queries, budget, alloc, out)
            }
            PartitionStrategy::MinMax(limit) => {
                minmax_allocate_flagged_into(queries, budget, limit, alloc, out)
            }
        }
    }
}

/// [`max_allocate_into`] with each query's demand capped at `total` (the
/// partition budget): in ED order, a query receives `min(max_mem, total)`
/// pages or the admission stops. Equal to the plain Max division whenever
/// every `max_mem ≤ total`; used by [`PartitionStrategy::Max`], where the
/// cap is the difference between a small tenant making progress and
/// starving (see the variant docs). Also reports whether the division was
/// budget-limited: admission stopped on memory, or any demand was clamped
/// at the budget (the clamp makes grants budget-*dependent*, so a different
/// budget could redistribute); see [`minmax_allocate_flagged_into`] for the
/// flag's contract.
pub(crate) fn max_allocate_clamped_flagged_into(
    queries: &[QueryDemand],
    total: u32,
    scratch: &mut AllocScratch,
    out: &mut Grants,
) -> bool {
    scratch.ed_order(queries);
    out.clear();
    let mut free = total;
    let mut clamped = false;
    for q in &scratch.sorted {
        clamped |= q.max_mem > total;
        let want = q.max_mem.min(total).max(q.min_mem);
        if want <= free {
            free -= want;
            out.push((q.id, want));
        } else {
            return true; // strict ED: nobody overtakes a blocked urgent query
        }
    }
    clamped
}

/// **Partitioned** mode: divide memory across tenant partitions, partition
/// `i` dividing its budget by `strategies[i]`.
///
/// Pass 1 hands every partition its quota and divides its queries against
/// that budget — a hard guarantee that a tenant is never starved below its
/// reservation by another tenant's load. Pass 2 is the borrow-back round:
/// pages no partition is using (unused quota plus any pool pages outside
/// all quotas) are offered to `soft` partitions in declaration order, which
/// re-divide with the enlarged budget. Because the whole division is
/// recomputed from scratch at every allocation event, borrowed pages flow
/// back automatically the moment the lender's own demand returns — pass 1
/// always serves quotas first.
///
/// Queries name their partition via [`QueryDemand::tenant`]; out-of-range
/// indices clamp to the last partition. With no partitions declared this
/// degenerates to plain MinMax-∞ over the whole pool. Quotas that
/// oversubscribe the pool are honored first-declared-first: each
/// partition's reservation is capped to the pages not already reserved
/// ahead of it, so the grants can never exceed `total`. Writes into
/// caller-owned buffers; allocation-free once warm. This is the reference
/// the incremental allocator ([`crate::IncrementalPartitioned`]) matches
/// bit for bit.
///
/// # Panics
/// Panics when `strategies.len() != partitions.len()` (a wiring bug).
pub fn partitioned_allocate_with_into(
    queries: &[QueryDemand],
    partitions: &[PartitionSpec],
    strategies: &[PartitionStrategy],
    total: u32,
    scratch: &mut PartitionScratch,
    out: &mut Grants,
) {
    assert_eq!(
        strategies.len(),
        partitions.len(),
        "one strategy per partition"
    );
    if partitions.is_empty() {
        minmax_allocate_into(queries, total, None, &mut scratch.alloc, out);
        return;
    }
    let n = partitions.len();
    scratch.groups.resize_with(n, Vec::new);
    scratch.part_grants.resize_with(n, Grants::new);
    for g in &mut scratch.groups[..n] {
        scratch.spare_groups.give(g);
    }
    for q in queries {
        let g = &mut scratch.groups[(q.tenant as usize).min(n - 1)];
        scratch.spare_groups.take(g);
        g.push(*q);
    }
    // Pass 1: every partition allocates within its own quota, capped so the
    // reservations themselves never oversubscribe the pool.
    let mut unreserved = total;
    for (i, spec) in partitions.iter().enumerate() {
        let budget = spec.quota.min(unreserved);
        unreserved -= budget;
        if !scratch.groups[i].is_empty() {
            scratch.spare_grants.take(&mut scratch.part_grants[i]);
        }
        let _ = strategies[i].divide_flagged(
            &scratch.groups[i],
            budget,
            &mut scratch.alloc,
            &mut scratch.part_grants[i],
        );
    }
    let used: u64 = scratch.part_grants[..n].iter().map(granted_total).sum();
    // Pass 2 (borrow-back): idle pages go to soft partitions in order.
    let mut pool = (total as u64).saturating_sub(used);
    for (i, spec) in partitions.iter().enumerate() {
        if !spec.soft || pool == 0 {
            continue;
        }
        let own = granted_total(&scratch.part_grants[i]);
        let budget = (own + pool).min(u32::MAX as u64) as u32;
        if !scratch.groups[i].is_empty() {
            scratch.spare_grants.take(&mut scratch.regrant);
        }
        let _ = strategies[i].divide_flagged(
            &scratch.groups[i],
            budget,
            &mut scratch.alloc,
            &mut scratch.regrant,
        );
        let regrant_used = granted_total(&scratch.regrant);
        // More memory can only admit more / grant more under Max and
        // MinMax alike, but guard the invariant anyway: never shrink below
        // the quota pass.
        if regrant_used >= own {
            pool -= regrant_used - own;
            std::mem::swap(&mut scratch.part_grants[i], &mut scratch.regrant);
        }
    }
    out.clear();
    for grants in &mut scratch.part_grants[..n] {
        out.extend_from_slice(grants);
        if grants.is_empty() {
            scratch.spare_grants.give(grants);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    /// Run one `*_allocate_into` division against a fresh scratch and
    /// return its grants.
    fn fresh<S: Default>(divide: impl FnOnce(&mut S, &mut Grants)) -> Grants {
        let mut out = Grants::new();
        divide(&mut S::default(), &mut out);
        out
    }

    fn q(id: u64, deadline: u64, min: u32, max: u32) -> QueryDemand {
        QueryDemand {
            id: QueryId(id),
            deadline: SimTime(deadline),
            min_mem: min,
            max_mem: max,
            tenant: 0,
        }
    }

    fn qt(id: u64, deadline: u64, min: u32, max: u32, tenant: u32) -> QueryDemand {
        QueryDemand {
            tenant,
            ..q(id, deadline, min, max)
        }
    }

    /// The partitioned division with every partition on MinMax-`limit`.
    fn minmax_partitioned_into(
        queries: &[QueryDemand],
        partitions: &[PartitionSpec],
        total: u32,
        limit: Option<u32>,
        scratch: &mut PartitionScratch,
        out: &mut Grants,
    ) {
        let strategies = vec![PartitionStrategy::MinMax(limit); partitions.len()];
        partitioned_allocate_with_into(
            queries,
            partitions,
            &strategies,
            total,
            scratch,
            out,
        );
    }

    #[test]
    fn max_allocates_in_deadline_order() {
        let queries = [q(1, 300, 37, 1321), q(2, 100, 37, 1321), q(3, 200, 37, 500)];
        let grants = fresh(|s, o| max_allocate_into(&queries, 2560, s, o));
        // Query 2 (deadline 100) then query 3 (deadline 200, 500 pages).
        assert_eq!(grants, vec![(QueryId(2), 1321), (QueryId(3), 500)]);
    }

    #[test]
    fn max_blocks_rather_than_bypassing() {
        // The urgent query needs 2000; only 1500 free after it would be
        // blocked — the small later query must NOT overtake it.
        let queries = [q(1, 100, 37, 2000), q(2, 200, 10, 100)];
        let grants = fresh(|s, o| max_allocate_into(&queries, 1500, s, o));
        assert!(grants.is_empty(), "strict ED admits nothing here");
    }

    #[test]
    fn max_fits_memory() {
        let queries: Vec<_> = (0..10).map(|i| q(i, 100 + i, 37, 1321)).collect();
        let grants = fresh(|s, o| max_allocate_into(&queries, 2560, s, o));
        assert_eq!(
            grants.len(),
            1,
            "only one 1321-page query fits 2560 after two would exceed"
        );
        assert!(granted_total(&grants) <= 2560);
    }

    #[test]
    fn minmax_two_pass_shape() {
        // Paper: higher-priority queries end at their maximum, lower at
        // their minimum, one boundary query in between.
        let queries: Vec<_> = (0..5).map(|i| q(i, 100 + i, 37, 1321)).collect();
        let grants = fresh(|s, o| minmax_allocate_into(&queries, 2560, None, s, o));
        assert_eq!(grants.len(), 5, "all five minimums fit (185 pages)");
        // Query 0: topped to max (1321). Remaining: 2560-5*37=2375-1284=...
        assert_eq!(grants[0], (QueryId(0), 1321));
        // Query 1 gets the leftover top-up (boundary query).
        let boundary = grants[1].1;
        assert!((37..=1321).contains(&boundary));
        // The rest stay at minimum.
        assert_eq!(grants[2].1, 37);
        assert_eq!(grants[3].1, 37);
        assert_eq!(grants[4].1, 37);
        assert_eq!(granted_total(&grants), 2560);
    }

    #[test]
    fn minmax_respects_mpl_limit() {
        let queries: Vec<_> = (0..8).map(|i| q(i, 100 + i, 10, 50)).collect();
        let grants = fresh(|s, o| minmax_allocate_into(&queries, 10_000, Some(3), s, o));
        assert_eq!(grants.len(), 3);
        // Plenty of memory: all three at max.
        assert!(grants.iter().all(|&(_, p)| p == 50));
    }

    #[test]
    fn minmax_unlimited_admits_while_minimums_fit() {
        let queries: Vec<_> = (0..100).map(|i| q(i, 100 + i, 37, 1321)).collect();
        let grants = fresh(|s, o| minmax_allocate_into(&queries, 2560, None, s, o));
        // 2560 / 37 = 69 — the paper's own number for the baseline.
        assert_eq!(grants.len(), 69);
        assert!(granted_total(&grants) <= 2560);
    }

    #[test]
    fn minmax_never_exceeds_memory_or_max() {
        let queries: Vec<_> = (0..20)
            .map(|i| q(i, 1000 - i * 10, 5 + (i % 7) as u32, 100 + (i * 13) as u32))
            .collect();
        for m in [50u32, 200, 1000, 5000] {
            let grants = fresh(|s, o| minmax_allocate_into(&queries, m, None, s, o));
            assert!(granted_total(&grants) <= m as u64);
            for (id, pages) in &grants {
                let demand = queries.iter().find(|d| d.id == *id).unwrap();
                assert!(*pages >= demand.min_mem);
                assert!(*pages <= demand.max_mem);
            }
        }
    }

    #[test]
    fn proportional_equal_fractions() {
        let queries = [q(1, 100, 10, 1000), q(2, 200, 10, 500)];
        let grants = fresh(|s, o| proportional_allocate_into(&queries, 750, None, s, o));
        // frac = 750 / 1500 = 0.5 → 500 and 250.
        assert_eq!(grants, vec![(QueryId(1), 500), (QueryId(2), 250)]);
    }

    #[test]
    fn proportional_pins_minimums() {
        // frac would give query 2 less than its minimum; it pins at min and
        // query 1 absorbs the rest.
        let queries = [q(1, 100, 10, 1000), q(2, 200, 90, 100)];
        let grants = fresh(|s, o| proportional_allocate_into(&queries, 500, None, s, o));
        let g2 = grants.iter().find(|&&(id, _)| id == QueryId(2)).unwrap().1;
        assert_eq!(g2, 90, "pinned at minimum");
        let g1 = grants.iter().find(|&&(id, _)| id == QueryId(1)).unwrap().1;
        // (500-90)/1000 = 0.41 → 410.
        assert_eq!(g1, 410);
    }

    #[test]
    fn proportional_caps_at_max() {
        let queries = [q(1, 100, 10, 100), q(2, 200, 10, 100)];
        let grants =
            fresh(|s, o| proportional_allocate_into(&queries, 10_000, None, s, o));
        assert!(grants.iter().all(|&(_, p)| p == 100));
    }

    #[test]
    fn proportional_respects_limit_and_memory() {
        let queries: Vec<_> = (0..50).map(|i| q(i, 100 + i, 37, 1321)).collect();
        let grants =
            fresh(|s, o| proportional_allocate_into(&queries, 2560, Some(10), s, o));
        assert!(grants.len() <= 10);
        assert!(granted_total(&grants) <= 2560);
        for (_, p) in &grants {
            assert!(*p >= 37);
        }
    }

    #[test]
    fn all_strategies_handle_empty_input() {
        assert!(fresh(|s, o| max_allocate_into(&[], 1000, s, o)).is_empty());
        assert!(fresh(|s, o| minmax_allocate_into(&[], 1000, None, s, o)).is_empty());
        assert!(
            fresh(|s, o| proportional_allocate_into(&[], 1000, Some(5), s, o)).is_empty()
        );
    }

    #[test]
    fn deadline_ties_break_by_id() {
        let queries = [q(2, 100, 10, 600), q(1, 100, 10, 600)];
        let grants = fresh(|s, o| max_allocate_into(&queries, 600, s, o));
        assert_eq!(grants[0].0, QueryId(1));
    }

    #[test]
    fn partitioned_empty_spec_degenerates_to_minmax() {
        let queries: Vec<_> = (0..5).map(|i| q(i, 100 + i, 37, 1321)).collect();
        assert_eq!(
            fresh(|s, o| minmax_partitioned_into(&queries, &[], 2560, None, s, o)),
            fresh(|s, o| minmax_allocate_into(&queries, 2560, None, s, o))
        );
    }

    #[test]
    fn hard_quota_is_a_ceiling_even_when_the_pool_is_idle() {
        // Tenant 0 (hard, 1000 pages) is loaded; tenant 1 (1560) is idle.
        let parts = [
            PartitionSpec {
                quota: 1000,
                soft: false,
            },
            PartitionSpec {
                quota: 1560,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..5).map(|i| qt(i, 100 + i, 37, 1321, 0)).collect();
        let grants =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, None, s, o));
        assert!(granted_total(&grants) <= 1000, "hard quota respected");
        assert!(!grants.is_empty());
    }

    #[test]
    fn soft_quota_borrows_idle_pages() {
        let parts = [
            PartitionSpec {
                quota: 1000,
                soft: true,
            },
            PartitionSpec {
                quota: 1560,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..5).map(|i| qt(i, 100 + i, 37, 1321, 0)).collect();
        let grants =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, None, s, o));
        assert!(
            granted_total(&grants) > 1000,
            "soft tenant borrows beyond its quota: {}",
            granted_total(&grants)
        );
        assert!(granted_total(&grants) <= 2560);
    }

    #[test]
    fn borrow_back_when_the_lender_needs_its_quota() {
        let parts = [
            PartitionSpec {
                quota: 1280,
                soft: true,
            },
            PartitionSpec {
                quota: 1280,
                soft: true,
            },
        ];
        // Only tenant 0 active: it borrows tenant 1's idle pages.
        let t0: Vec<_> = (0..4).map(|i| qt(i, 100 + i, 300, 1321, 0)).collect();
        let alone = fresh(|s, o| minmax_partitioned_into(&t0, &parts, 2560, None, s, o));
        assert!(granted_total(&alone) > 1280);
        // Tenant 1 wakes up: the division is recomputed and each side gets
        // at least its quota-backed share — the borrowed pages flowed back.
        let mut both = t0.clone();
        both.extend((10..14).map(|i| qt(i, 100 + i, 300, 1321, 1)));
        let shared =
            fresh(|s, o| minmax_partitioned_into(&both, &parts, 2560, None, s, o));
        let t1_pages: u64 = shared
            .iter()
            .filter(|(id, _)| id.0 >= 10)
            .map(|&(_, p)| p as u64)
            .sum();
        assert!(
            t1_pages >= 1200,
            "returning tenant is served from its quota: {t1_pages}"
        );
        assert!(granted_total(&shared) <= 2560);
    }

    #[test]
    fn partitioned_respects_per_partition_limit_and_memory() {
        let parts = [
            PartitionSpec {
                quota: 1000,
                soft: true,
            },
            PartitionSpec {
                quota: 1000,
                soft: true,
            },
        ];
        let queries: Vec<_> = (0..40)
            .map(|i| qt(i, 100 + i, 37, 400, (i % 2) as u32))
            .collect();
        let grants =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2000, Some(3), s, o));
        assert!(grants.len() <= 6, "≤ limit per partition");
        assert!(granted_total(&grants) <= 2000);
        for (id, pages) in &grants {
            let d = queries.iter().find(|d| d.id == *id).unwrap();
            assert!(*pages >= d.min_mem && *pages <= d.max_mem);
        }
    }

    #[test]
    fn out_of_range_tenant_clamps_to_last_partition() {
        let parts = [
            PartitionSpec {
                quota: 500,
                soft: false,
            },
            PartitionSpec {
                quota: 2060,
                soft: false,
            },
        ];
        let queries = [qt(1, 100, 37, 1321, 9)];
        let grants =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, None, s, o));
        assert_eq!(grants, vec![(QueryId(1), 1321)], "billed to partition 1");
    }

    #[test]
    fn oversubscribed_quotas_never_overcommit_the_pool() {
        // Two 2000-page quotas over a 2560-page pool: declaration order
        // wins the reservation; grants must still fit the pool.
        let parts = [
            PartitionSpec {
                quota: 2000,
                soft: false,
            },
            PartitionSpec {
                quota: 2000,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..10)
            .map(|i| qt(i, 100 + i, 37, 1321, (i % 2) as u32))
            .collect();
        let grants =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, None, s, o));
        assert!(
            granted_total(&grants) <= 2560,
            "grants {} exceed the pool",
            granted_total(&grants)
        );
        // Partition 1 still gets the 560 unreserved pages' worth of minimums.
        assert!(grants.iter().any(|(id, _)| id.0 % 2 == 1));
    }

    #[test]
    fn partitioned_is_deterministic() {
        let parts = [
            PartitionSpec {
                quota: 1300,
                soft: true,
            },
            PartitionSpec {
                quota: 1260,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..20)
            .map(|i| qt(i, 1000 - i * 7, 30 + (i % 5) as u32, 600, (i % 2) as u32))
            .collect();
        let a =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, Some(8), s, o));
        let b =
            fresh(|s, o| minmax_partitioned_into(&queries, &parts, 2560, Some(8), s, o));
        assert_eq!(a, b);
    }

    #[test]
    fn into_variants_match_allocating_paths_with_warm_scratch() {
        // One scratch reused across many differently-shaped calls: results
        // must be identical to fresh-scratch calls every time.
        let mut scratch = AllocScratch::default();
        let mut pscratch = PartitionScratch::default();
        let mut out = Grants::new();
        let parts = [
            PartitionSpec {
                quota: 900,
                soft: true,
            },
            PartitionSpec {
                quota: 1660,
                soft: false,
            },
        ];
        let mut x = 0x1234_5678u64;
        for round in 0..50u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
            let n = x % 30;
            let queries: Vec<_> = (0..n)
                .map(|i| {
                    let h = x.wrapping_mul(i + 1);
                    QueryDemand {
                        id: QueryId(i),
                        deadline: SimTime(100 + h % 500),
                        min_mem: 10 + (h % 60) as u32,
                        max_mem: 100 + (h % 1300) as u32,
                        tenant: (h % 2) as u32,
                    }
                })
                .collect();
            let total = 200 + (x % 3000) as u32;
            let limit = if x.is_multiple_of(3) {
                Some((x % 8) as u32)
            } else {
                None
            };

            max_allocate_into(&queries, total, &mut scratch, &mut out);
            assert_eq!(out, fresh(|s, o| max_allocate_into(&queries, total, s, o)));
            minmax_allocate_into(&queries, total, limit, &mut scratch, &mut out);
            assert_eq!(
                out,
                fresh(|s, o| minmax_allocate_into(&queries, total, limit, s, o))
            );
            proportional_allocate_into(&queries, total, limit, &mut scratch, &mut out);
            assert_eq!(
                out,
                fresh(|s, o| proportional_allocate_into(&queries, total, limit, s, o))
            );
            minmax_partitioned_into(
                &queries,
                &parts,
                total,
                limit,
                &mut pscratch,
                &mut out,
            );
            assert_eq!(
                out,
                fresh(|s, o| minmax_partitioned_into(
                    &queries, &parts, total, limit, s, o
                ))
            );
        }
    }

    #[test]
    fn clamped_max_caps_demands_at_the_budget() {
        let mut scratch = AllocScratch::default();
        let mut out = Grants::new();
        // Equal to plain Max when every demand fits the budget.
        let queries = [q(1, 300, 37, 1321), q(2, 100, 37, 1321), q(3, 200, 37, 500)];
        let _ = max_allocate_clamped_flagged_into(&queries, 2560, &mut scratch, &mut out);
        assert_eq!(out, fresh(|s, o| max_allocate_into(&queries, 2560, s, o)));
        // A 640-page partition cannot grant a 1321-page maximum, but the
        // clamped division still admits the most urgent query at the
        // partition-wide cap instead of starving the tenant.
        let queries = [q(1, 300, 37, 1321), q(2, 100, 37, 1321)];
        let _ = max_allocate_clamped_flagged_into(&queries, 640, &mut scratch, &mut out);
        assert_eq!(out, vec![(QueryId(2), 640)]);
        // A minimum that exceeds the budget still blocks (unservable).
        let queries = [q(1, 100, 700, 1321)];
        let _ = max_allocate_clamped_flagged_into(&queries, 640, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn per_partition_strategies_mix_max_and_minmax() {
        // Tenant 0 runs Max (one query at its maximum or nothing), tenant 1
        // runs MinMax (many minimums) — each within its own quota.
        let parts = [
            PartitionSpec {
                quota: 1400,
                soft: false,
            },
            PartitionSpec {
                quota: 1160,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..10)
            .map(|i| qt(i, 100 + i, 37, 1321, (i % 2) as u32))
            .collect();
        let mut scratch = PartitionScratch::default();
        let mut out = Grants::new();
        partitioned_allocate_with_into(
            &queries,
            &parts,
            &[PartitionStrategy::Max, PartitionStrategy::MinMax(None)],
            2560,
            &mut scratch,
            &mut out,
        );
        let t0: Vec<_> = out.iter().filter(|(id, _)| id.0 % 2 == 0).collect();
        let t1: Vec<_> = out.iter().filter(|(id, _)| id.0 % 2 == 1).collect();
        assert_eq!(t0.len(), 1, "Max admits a single 1321-page query in 1400");
        assert_eq!(t0[0].1, 1321);
        assert!(t1.len() > 1, "MinMax admits many minimums in 1160");
        assert!(granted_total(&out) <= 2560);
    }

    #[test]
    fn with_strategies_borrow_back_respects_the_borrower_strategy() {
        // Tenant 0 (soft, Max strategy) is alone: it borrows tenant 1's
        // idle quota, but still allocates whole maximums only.
        let parts = [
            PartitionSpec {
                quota: 1000,
                soft: true,
            },
            PartitionSpec {
                quota: 1560,
                soft: false,
            },
        ];
        let queries: Vec<_> = (0..4).map(|i| qt(i, 100 + i, 37, 1200, 0)).collect();
        let mut scratch = PartitionScratch::default();
        let mut out = Grants::new();
        partitioned_allocate_with_into(
            &queries,
            &parts,
            &[PartitionStrategy::Max, PartitionStrategy::MinMax(None)],
            2560,
            &mut scratch,
            &mut out,
        );
        // 1000-page quota fits no 1200-page maximum; borrowing the idle
        // 1560 admits exactly two whole maximums (2400 ≤ 2560).
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(_, p)| p == 1200));
    }

    #[test]
    #[should_panic(expected = "one strategy per partition")]
    fn with_strategies_rejects_length_mismatch() {
        let parts = [PartitionSpec {
            quota: 1000,
            soft: false,
        }];
        partitioned_allocate_with_into(
            &[],
            &parts,
            &[],
            2560,
            &mut PartitionScratch::default(),
            &mut Grants::new(),
        );
    }

    #[test]
    fn minmax_ed_shift_on_urgent_arrival() {
        // A newly arrived urgent query displaces top-up memory from the
        // formerly highest-priority query.
        let mut queries = vec![q(1, 500, 37, 1321), q(2, 600, 37, 1321)];
        let before = fresh(|s, o| minmax_allocate_into(&queries, 1500, None, s, o));
        assert_eq!(before[0], (QueryId(1), 1321));
        queries.push(q(3, 100, 37, 1321));
        let after = fresh(|s, o| minmax_allocate_into(&queries, 1500, None, s, o));
        assert_eq!(after[0], (QueryId(3), 1321), "urgent query gets the max");
        let g1 = after.iter().find(|&&(id, _)| id == QueryId(1)).unwrap().1;
        assert!(g1 < 1321, "old leader gives up its top-up");
    }
}
