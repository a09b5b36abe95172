//! Property-based tests (proptest) on the core invariants: allocation
//! algorithms, operator I/O accounting, least-squares fits, and the event
//! calendar.

use integration_tests::fresh_grants;
use pmm_core::exec::{Action, ExecConfig, FileRef, HashJoin, Operator};
use pmm_core::pmm::{
    max_allocate_into, minmax_allocate_into, proportional_allocate_into,
};
use pmm_core::pmm::{
    partitioned_allocate_with_into, DirtySet, Grants, IncrementalPartitioned,
    PartitionScratch, PartitionSpec, PartitionStrategy,
};
use pmm_core::pmm::{QueryDemand, QueryId};
use pmm_core::simkit::{Calendar, SimTime};
use pmm_core::stats::{LinFit, QuadFit};
use pmm_core::storage::{FileId, IoKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn demand_strategy() -> impl Strategy<Value = QueryDemand> {
    (0u64..64, 0u64..10_000, 1u32..200, 0u32..2_000).prop_map(|(id, dl, min, extra)| {
        QueryDemand {
            id: QueryId(id),
            deadline: SimTime(dl),
            min_mem: min,
            max_mem: min + extra,
            tenant: 0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocators_never_overcommit(
        mut demands in proptest::collection::vec(demand_strategy(), 0..40),
        total in 0u32..20_000,
        limit in proptest::option::of(0u32..30),
    ) {
        // Deduplicate ids (the map-based grant application requires it).
        demands.sort_by_key(|d| d.id);
        demands.dedup_by_key(|d| d.id);
        for grants in [
            fresh_grants(|s, o| max_allocate_into(&demands, total, s, o)),
            fresh_grants(|s, o| minmax_allocate_into(&demands, total, limit, s, o)),
            fresh_grants(|s, o| proportional_allocate_into(&demands, total, limit, s, o)),
        ] {
            let sum: u64 = grants.iter().map(|&(_, p)| p as u64).sum();
            prop_assert!(sum <= total as u64, "overcommitted {sum} > {total}");
            for (id, pages) in &grants {
                let d = demands.iter().find(|d| d.id == *id).expect("real query");
                prop_assert!(*pages >= d.min_mem && *pages <= d.max_mem);
            }
            // No duplicate grants.
            let mut ids: Vec<_> = grants.iter().map(|&(id, _)| id).collect();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), grants.len());
        }
    }

    #[test]
    fn minmax_grants_are_ed_monotone(
        mut demands in proptest::collection::vec(demand_strategy(), 2..30),
        total in 100u32..20_000,
    ) {
        demands.sort_by_key(|d| d.id);
        demands.dedup_by_key(|d| d.id);
        let grants = fresh_grants(|s, o| minmax_allocate_into(&demands, total, None, s, o));
        // In deadline order, the fraction of the maximum granted is
        // non-increasing except at the single boundary query: once some
        // query is below its max, everyone later is at their min.
        let mut sorted = demands.clone();
        sorted.sort_by_key(|d| (d.deadline, d.id));
        let mut seen_partial = false;
        for d in &sorted {
            let Some(&(_, pages)) = grants.iter().find(|&&(id, _)| id == d.id) else {
                break;
            };
            if seen_partial {
                prop_assert_eq!(pages, d.min_mem, "after the boundary only minimums");
            }
            if pages < d.max_mem {
                seen_partial = true;
            }
        }
    }

    #[test]
    fn join_io_conservation(
        r in 10u32..400,
        s_mult in 1u32..8,
        alloc_frac in 0.0f64..1.0,
    ) {
        // For any fixed allocation between min and max: every temp page
        // written is read back exactly once (within block rounding), and
        // the operands are read exactly once.
        let s = r * s_mult;
        let cfg = ExecConfig::default();
        let mut op = HashJoin::new(cfg, FileId::Relation(0), r, FileId::Relation(1), s);
        let span = op.max_memory() - op.min_memory();
        let alloc = op.min_memory() + (span as f64 * alloc_frac) as u32;
        op.set_allocation(alloc);
        let (mut base_r, mut temp_r, mut temp_w) = (0u32, 0u32, 0u32);
        let mut steps = 0u64;
        loop {
            steps += 1;
            prop_assert!(steps < 5_000_000, "runaway operator");
            match op.step() {
                Action::Io(io) => match (io.file, io.kind) {
                    (FileRef::Base(_), IoKind::Read) => base_r += io.pages,
                    (FileRef::Temp(_), IoKind::Read) => temp_r += io.pages,
                    (FileRef::Temp(_), IoKind::Write) => temp_w += io.pages,
                    _ => prop_assert!(false, "unexpected I/O"),
                },
                Action::Finished => break,
                Action::Parked => prop_assert!(false, "parked with memory"),
                _ => {}
            }
        }
        prop_assert_eq!(base_r, r + s, "operands read exactly once");
        let imbalance = (temp_r as i64 - temp_w as i64).unsigned_abs();
        prop_assert!(imbalance <= 12, "spill imbalance {imbalance}: w={temp_w} r={temp_r}");
    }

    #[test]
    fn quadfit_interpolates_three_points(
        xs in proptest::collection::hash_set(-50i32..50, 3),
        ys in proptest::collection::vec(-100f64..100.0, 3),
    ) {
        // Three distinct x values determine the quadratic exactly.
        let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
        let mut fit = QuadFit::new();
        for (x, y) in xs.iter().zip(&ys) {
            fit.add(*x, *y);
        }
        if let Some(q) = fit.solve() {
            for (x, y) in xs.iter().zip(&ys) {
                prop_assert!((q.eval(*x) - y).abs() < 1e-4 * (1.0 + y.abs()),
                    "interpolation failed at {x}: {} vs {y}", q.eval(*x));
            }
        }
    }

    #[test]
    fn linfit_residuals_sum_to_zero(
        pts in proptest::collection::vec((-100f64..100.0, -100f64..100.0), 1..40),
    ) {
        let mut fit = LinFit::new();
        for &(x, y) in &pts {
            fit.add(x, y);
        }
        let (a, b) = fit.solve().expect("non-empty");
        let residual_sum: f64 = pts.iter().map(|&(x, y)| y - (a + b * x)).sum();
        let scale: f64 = 1.0 + pts.iter().map(|&(_, y)| y.abs()).sum::<f64>();
        prop_assert!(residual_sum.abs() < 1e-6 * scale, "residual sum {residual_sum}");
    }

    #[test]
    fn calendar_pops_in_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }
}

/// Reference applied-grant map for the equivalence property: run the
/// full-snapshot path over the concatenated groups and record every live
/// query's grant (absent from the output = 0 pages).
fn snapshot_map(
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

/// SplitMix64 step — the churn script's only randomness source, so every
/// failing case replays from the generated round seeds alone.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    // Each case replays a whole churn history against the O(P) reference,
    // so fewer, fatter cases beat the default count.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence contract: incremental dirty-set allocation
    /// is bit-for-bit the full-snapshot division, for randomized tenant
    /// counts, tree fan-outs, soft/hard borrow-back mixes, demand churn,
    /// strategy flips, and mid-run memory shocks (total shrinks, which the
    /// incremental path must answer with a full rebuild).
    #[test]
    fn incremental_allocation_equals_snapshot_under_churn(
        nparts in 1usize..48,
        group_size in 1usize..40,
        soft_in_four in 0usize..5,
        quota in 20u32..300,
        rounds in proptest::collection::vec(0u64..1_000_000_000, 6..24),
    ) {
        let partitions: Vec<PartitionSpec> = (0..nparts)
            .map(|i| PartitionSpec { quota, soft: i % 4 < soft_in_four })
            .collect();
        let mut strategies: Vec<PartitionStrategy> = (0..nparts)
            .map(|i| match i % 3 {
                0 => PartitionStrategy::Max,
                1 => PartitionStrategy::MinMax(None),
                _ => PartitionStrategy::MinMax(Some(1 + (i % 5) as u32)),
            })
            .collect();
        let mut inc = IncrementalPartitioned::with_group_size(
            partitions.clone(),
            PartitionStrategy::MinMax(None),
            group_size,
        );
        for (i, &s) in strategies.iter().enumerate() {
            inc.set_strategy(i, s);
        }
        let mut groups: Vec<Vec<QueryDemand>> = vec![Vec::new(); nparts];
        let mut dirty = DirtySet::new(nparts);
        let mut out = Grants::new();
        let mut total = (nparts as u32).saturating_mul(quota.max(60));
        let mut inc_map: BTreeMap<u64, u32> = BTreeMap::new();
        let mut next_id = 0u64;
        for (round, &seed) in rounds.iter().enumerate() {
            let mut h = mix(seed ^ ((round as u64) << 32));
            // Churn a handful of partitions: arrivals (more likely, so
            // partitions accumulate contending queries), departures, edits.
            for _ in 0..2 + h % 4 {
                h = mix(h);
                let t = (h % nparts as u64) as usize;
                match (h >> 8) % 4 {
                    0 | 3 => {
                        groups[t].push(QueryDemand {
                            id: QueryId(next_id),
                            deadline: SimTime(50 + h % 900),
                            min_mem: 4 + (h >> 16) as u32 % 40,
                            max_mem: 50 + (h >> 24) as u32 % 400,
                            tenant: t as u32,
                        });
                        next_id += 1;
                    }
                    1 if !groups[t].is_empty() => {
                        let k = (h as usize >> 12) % groups[t].len();
                        let gone = groups[t].swap_remove(k);
                        inc_map.remove(&gone.id.0);
                    }
                    _ if !groups[t].is_empty() => {
                        let k = (h as usize >> 12) % groups[t].len();
                        let q = &mut groups[t][k];
                        q.max_mem = q.min_mem + (h >> 20) as u32 % 500;
                    }
                    _ => continue,
                }
                dirty.mark(t);
            }
            // Occasional strategy flip (the allocator marks it dirty).
            if h.is_multiple_of(7) {
                let t = ((h >> 40) % nparts as u64) as usize;
                strategies[t] = match strategies[t] {
                    PartitionStrategy::Max => PartitionStrategy::MinMax(None),
                    PartitionStrategy::MinMax(_) => PartitionStrategy::Max,
                };
                inc.set_strategy(t, strategies[t]);
            }
            // Occasional memory shock: the pool shrinks or recovers, which
            // invalidates every cached borrow-back outcome at once.
            if h.is_multiple_of(5) {
                total = (nparts as u32).saturating_mul(30 + (h >> 33) as u32 % 150);
                dirty.mark_all();
            }
            inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
            dirty.clear();
            for &(id, pages) in &out {
                inc_map.insert(id.0, pages);
            }
            let expect = snapshot_map(&groups, &partitions, &strategies, total);
            prop_assert_eq!(
                &inc_map, &expect,
                "divergence at round {} (P={}, B={}, soft {}/4)",
                round, nparts, group_size, soft_in_four
            );
        }
    }
}
