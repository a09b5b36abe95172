//! The scenario layer: a named composition of workload classes, an
//! alternation schedule, and tenant memory partitions.
//!
//! A [`Scenario`] is everything the Source needs that is *not* physical
//! resources or the database layout — those stay in the simulator's config,
//! which applies a scenario on top (`SimConfig::apply_scenario` in `rtdbs`).
//! Builders cover the recurring shapes: join-heavy, sort-heavy, and mixed
//! join+sort class mixes, each under any [`ArrivalSpec`].

use crate::arrival::ArrivalSpec;
use crate::class::{AlternationSchedule, QueryType, WorkloadClass};
use crate::tenant::TenantSpec;

/// A complete workload scenario.
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    /// Label for reports.
    pub name: String,
    /// The query classes the Source interleaves.
    pub classes: Vec<WorkloadClass>,
    /// Optional class-alternation schedule (empty = all always active).
    pub schedule: AlternationSchedule,
    /// Tenant memory partitions (empty = single implicit tenant).
    pub tenants: Vec<TenantSpec>,
}

impl Scenario {
    /// An empty scenario to compose onto.
    pub fn named(name: &str) -> Self {
        Scenario {
            name: name.into(),
            ..Scenario::default()
        }
    }

    /// Append a class (builder style).
    pub fn class(mut self, class: WorkloadClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Append a tenant (builder style).
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// One hash-join class over `groups` under `arrival` — the paper's
    /// baseline shape with a pluggable arrival process.
    pub fn join_heavy(groups: (u32, u32), arrival: ArrivalSpec) -> Self {
        Scenario::named("join-heavy").class(WorkloadClass {
            name: "Join".into(),
            query_type: QueryType::HashJoin { groups },
            arrival,
            slack_range: (2.5, 7.5),
            tenant: 0,
        })
    }

    /// A mixed join+sort scenario: both classes always active, each with
    /// its own arrival process.
    pub fn mixed(
        join_groups: (u32, u32),
        join_arrival: ArrivalSpec,
        sort_group: u32,
        sort_arrival: ArrivalSpec,
    ) -> Self {
        let mut s = Scenario::join_heavy(join_groups, join_arrival);
        s.name = "mixed".into();
        s.class(WorkloadClass {
            name: "Sort".into(),
            query_type: QueryType::ExternalSort { group: sort_group },
            arrival: sort_arrival,
            slack_range: (2.5, 7.5),
            tenant: 0,
        })
    }

    /// Parameterized tenant grid for the scale experiments: `n` identical
    /// soft-quota tenants (`t0` … `t{n-1}`, `quota_pages` each), each with
    /// one Poisson class of `query_type` at `rate` billed to it — so a
    /// 10³-tenant configuration is one call, not 10³ literals.
    pub fn tenant_grid(
        n: usize,
        query_type: QueryType,
        rate: f64,
        quota_pages: u32,
    ) -> Self {
        let mut s = Scenario::named("tenant-grid");
        s.classes.reserve_exact(n);
        s.tenants.reserve_exact(n);
        for i in 0..n {
            s.classes.push(
                WorkloadClass::poisson(grid_name('T', i), query_type, rate, (2.5, 7.5))
                    .for_tenant(i),
            );
            s.tenants
                .push(TenantSpec::soft(grid_name('t', i), quota_pages));
        }
        s
    }

    /// Total long-run arrival rate across classes (ignoring alternation).
    pub fn mean_rate(&self) -> f64 {
        self.classes.iter().map(WorkloadClass::mean_rate).sum()
    }
}

/// `"{prefix}{i}"` in one allocation: `format!` would start the string
/// too small for a multi-digit index and grow it.
fn grid_name(prefix: char, i: usize) -> String {
    use std::fmt::Write as _;
    // An ASCII prefix and the 20 digits of the widest index fit in 24 bytes.
    let mut name = String::with_capacity(24);
    write!(name, "{prefix}{i}").expect("writing to a String cannot fail");
    name
}

/// The first class that bills a tenant index beyond `tenants` while any
/// tenants are declared (none declared = one implicit tenant, so every
/// index is fine). `SimConfig::validate` in `rtdbs` rejects a config for
/// which this returns a class.
pub fn dangling_tenant_ref<'a>(
    classes: &'a [WorkloadClass],
    tenants: &[TenantSpec],
) -> Option<&'a WorkloadClass> {
    if tenants.is_empty() {
        return None;
    }
    classes.iter().find(|c| c.tenant >= tenants.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s = Scenario::mixed(
            (0, 1),
            ArrivalSpec::bursty(0.04, 8.0, 600.0),
            0,
            ArrivalSpec::poisson(0.02),
        )
        .tenant(TenantSpec::hard("joins", 1500))
        .tenant(TenantSpec::soft("sorts", 1000));
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.tenants.len(), 2);
        assert!((s.mean_rate() - 0.06).abs() < 1e-12);
        assert!(dangling_tenant_ref(&s.classes, &s.tenants).is_none());
    }

    #[test]
    fn validate_catches_dangling_tenant() {
        let s = Scenario::join_heavy((0, 1), ArrivalSpec::poisson(0.05))
            .class(
                WorkloadClass::poisson(
                    "Stray",
                    QueryType::ExternalSort { group: 0 },
                    0.01,
                    (2.5, 7.5),
                )
                .for_tenant(3),
            )
            .tenant(TenantSpec::hard("only", 2560));
        let stray =
            dangling_tenant_ref(&s.classes, &s.tenants).expect("tenant 3 is undeclared");
        assert_eq!((stray.name.as_str(), stray.tenant), ("Stray", 3));
        assert!(dangling_tenant_ref(&s.classes, &[]).is_none());
    }
}
