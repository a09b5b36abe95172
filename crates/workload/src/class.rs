//! Workload classes (Table 2) and the alternation schedule of Section 5.3.
//!
//! These types used to live inline in `rtdbs::config`; they moved here so
//! that scenario generation is owned end-to-end by the `workload` crate and
//! the engine merely consumes it.

use crate::arrival::ArrivalSpec;

/// What kind of queries a workload class issues (Table 2, `QueryType_j`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryType {
    /// Hash joins: one relation drawn from each listed group; the smaller
    /// becomes the inner (build) relation R.
    HashJoin {
        /// The two operand relation groups (`RelGroup_j`).
        groups: (u32, u32),
    },
    /// External sorts over one relation from `group`.
    ExternalSort {
        /// The operand relation group.
        group: u32,
    },
}

/// One workload class (Table 2), generalized: arrivals come from any
/// [`ArrivalSpec`] and the class may belong to a named tenant.
#[derive(Clone, Debug)]
pub struct WorkloadClass {
    /// Label for reports ("Medium", "Small", ...).
    pub name: String,
    /// Join or sort, and over which relation groups.
    pub query_type: QueryType,
    /// The arrival process this class's queries follow.
    pub arrival: ArrivalSpec,
    /// `SRInterval_j` — slack ratios drawn uniformly from this range.
    pub slack_range: (f64, f64),
    /// Index into the scenario's tenant list (0 when single-tenant).
    pub tenant: usize,
}

impl WorkloadClass {
    /// The paper's shape: Poisson arrivals, tenant 0.
    pub fn poisson(
        name: impl Into<String>,
        query_type: QueryType,
        rate: f64,
        slack_range: (f64, f64),
    ) -> Self {
        WorkloadClass {
            name: name.into(),
            query_type,
            arrival: ArrivalSpec::poisson(rate),
            slack_range,
            tenant: 0,
        }
    }

    /// Long-run mean arrival rate of this class.
    pub fn mean_rate(&self) -> f64 {
        self.arrival.mean_rate()
    }

    /// Assign the class to a tenant (builder style).
    pub fn for_tenant(mut self, tenant: usize) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Alternating-workload schedule (Section 5.3): phase `i` lasts
/// `phases[i].0` seconds with only the listed classes active; the schedule
/// repeats cyclically. An empty schedule means every class is always active.
#[derive(Clone, Debug, Default)]
pub struct AlternationSchedule {
    /// `(duration_secs, active class indices)` per phase.
    pub phases: Vec<(f64, Vec<usize>)>,
}

impl AlternationSchedule {
    /// Build a cyclic schedule from `(duration_secs, classes)` phases.
    pub fn cycle(phases: Vec<(f64, Vec<usize>)>) -> Self {
        AlternationSchedule { phases }
    }

    /// The active class list of the phase covering simulated second `t`,
    /// or `None` when the schedule is empty (= everything active). This is
    /// the allocation-free lookup the engine's per-arrival hot path uses.
    pub fn phase_at(&self, t: f64) -> Option<&[usize]> {
        if self.phases.is_empty() {
            return None;
        }
        let cycle: f64 = self.phases.iter().map(|p| p.0).sum();
        let mut offset = if cycle > 0.0 { t % cycle } else { 0.0 };
        for (len, classes) in &self.phases {
            if offset < *len {
                return Some(classes);
            }
            offset -= len;
        }
        Some(&self.phases.last().expect("non-empty").1)
    }

    /// True if `class` is active at `t`. Allocation-free.
    pub fn is_active(&self, t: f64, class: usize, num_classes: usize) -> bool {
        match self.phase_at(t) {
            Some(classes) => classes.contains(&class),
            None => class < num_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_means_always_active() {
        let s = AlternationSchedule::default();
        for class in 0..3 {
            assert!(s.is_active(12_345.0, class, 3));
        }
        assert!(s.is_active(0.0, 2, 3));
        assert!(!s.is_active(0.0, 3, 3), "class index out of range");
        assert!(s.phase_at(999.0).is_none());
    }

    #[test]
    fn schedule_cycles() {
        let s = AlternationSchedule::cycle(vec![(100.0, vec![0]), (50.0, vec![1])]);
        assert!(s.is_active(10.0, 0, 2) && !s.is_active(10.0, 1, 2));
        assert!(s.is_active(120.0, 1, 2) && !s.is_active(120.0, 0, 2));
        // Wraps: 160 ≡ 10 (mod 150).
        assert!(s.is_active(160.0, 0, 2) && !s.is_active(160.0, 1, 2));
    }

    #[test]
    fn phase_at_borrows_without_allocating() {
        let s = AlternationSchedule::cycle(vec![(100.0, vec![0, 2])]);
        let classes = s.phase_at(50.0).expect("in phase");
        assert_eq!(classes, &[0, 2]);
        // Degenerate zero-length cycle still answers.
        let z = AlternationSchedule::cycle(vec![(0.0, vec![1])]);
        assert_eq!(z.phase_at(5.0), Some(&[1][..]));
    }

    #[test]
    fn class_helpers() {
        let c = WorkloadClass::poisson(
            "Medium",
            QueryType::HashJoin { groups: (0, 1) },
            0.06,
            (2.5, 7.5),
        )
        .for_tenant(1);
        assert_eq!(c.tenant, 1);
        assert!((c.mean_rate() - 0.06).abs() < 1e-12);
    }
}
