//! Cross-crate checks of the allocation policies against the operators'
//! real memory demands.

use integration_tests::fresh_grants;
use pmm_core::pmm::{
    max_allocate_into, minmax_allocate_into, proportional_allocate_into,
};
use pmm_core::pmm::{QueryDemand, QueryId};
use pmm_core::prelude::*;
use pmm_core::storage::FileId;

fn demands_from_operators(n: u64) -> Vec<QueryDemand> {
    let cfg = ExecConfig::default();
    (0..n)
        .map(|i| {
            let r = 600 + (i as u32 * 97) % 1200; // ‖R‖ ∈ [600, 1800]
            let join =
                HashJoin::new(cfg, FileId::Relation(0), r, FileId::Relation(1), 5 * r);
            QueryDemand {
                id: QueryId(i),
                deadline: SimTime::from_secs(100 + i),
                max_mem: join.max_memory(),
                min_mem: join.min_memory(),
                tenant: 0,
            }
        })
        .collect()
}

#[test]
fn demands_match_paper_formulas() {
    let cfg = ExecConfig::default();
    let join = HashJoin::new(cfg, FileId::Relation(0), 1200, FileId::Relation(1), 6000);
    assert_eq!(join.max_memory(), 1321); // F·‖R‖ + 1 with F = 1.1
    assert_eq!(join.min_memory(), 37); // √(F·‖R‖) + 1
    let sort = ExternalSort::new(cfg, FileId::Relation(0), 1200);
    assert_eq!(sort.max_memory(), 1200);
    assert_eq!(sort.min_memory(), 3);
}

#[test]
fn all_policies_respect_memory_and_bounds() {
    let demands = demands_from_operators(40);
    for m in [500u32, 2560, 10_000, 100_000] {
        for grants in [
            fresh_grants(|s, o| max_allocate_into(&demands, m, s, o)),
            fresh_grants(|s, o| minmax_allocate_into(&demands, m, None, s, o)),
            fresh_grants(|s, o| minmax_allocate_into(&demands, m, Some(10), s, o)),
            fresh_grants(|s, o| proportional_allocate_into(&demands, m, None, s, o)),
        ] {
            let total: u64 = grants.iter().map(|&(_, p)| p as u64).sum();
            assert!(total <= m as u64, "over-allocated {total} of {m}");
            for (id, pages) in grants {
                let d = demands
                    .iter()
                    .find(|d| d.id == id)
                    .expect("granted a real query");
                assert!(pages >= d.min_mem, "grant below minimum");
                assert!(pages <= d.max_mem, "grant above maximum");
            }
        }
    }
}

#[test]
fn minmax_gives_urgent_queries_their_maximum() {
    let demands = demands_from_operators(20);
    let grants = fresh_grants(|s, o| minmax_allocate_into(&demands, 2560, None, s, o));
    // The earliest-deadline query is demands[0] (deadline 100).
    let first = grants
        .iter()
        .find(|&&(id, _)| id == QueryId(0))
        .expect("admitted");
    assert_eq!(first.1, demands[0].max_mem, "highest priority gets its max");
}

#[test]
fn operators_accept_any_grant_from_policies() {
    // Whatever a policy grants, the operator must accept (0 or ≥ min).
    let demands = demands_from_operators(30);
    let grants = fresh_grants(|s, o| minmax_allocate_into(&demands, 2560, None, s, o));
    let cfg = ExecConfig::default();
    for (id, pages) in grants {
        let r = 600 + (id.0 as u32 * 97) % 1200;
        let mut join =
            HashJoin::new(cfg, FileId::Relation(0), r, FileId::Relation(1), 5 * r);
        join.set_allocation(pages); // must not panic
        assert_eq!(join.allocation(), pages);
    }
}
