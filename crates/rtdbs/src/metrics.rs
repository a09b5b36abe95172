//! Run-level output metrics: everything the paper's figures and tables
//! report.

use pmm::TracePoint;

/// Average timing breakdown (Table 7), in seconds, over completed queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Admission waiting time: arrival → first memory grant.
    pub waiting: f64,
    /// Execution time: first grant → completion.
    pub execution: f64,
    /// Total response time.
    pub response: f64,
}

/// Per-class outcome counts.
#[derive(Clone, Debug, Default)]
pub struct ClassOutcome {
    /// Class label.
    pub name: String,
    /// Queries served (completed + missed).
    pub served: u64,
    /// Queries that missed their deadline.
    pub missed: u64,
}

impl ClassOutcome {
    /// Class miss ratio in percent.
    pub fn miss_pct(&self) -> f64 {
        miss_pct(self.served, self.missed)
    }
}

/// Per-tenant aggregates of one run: the quantitative half of the
/// multi-tenant isolation story. Populated only for multi-tenant configs
/// (`SimConfig::tenants` non-empty), one entry per declared tenant.
#[derive(Clone, Debug, Default)]
pub struct TenantOutcome {
    /// Tenant label from the `TenantSpec`.
    pub name: String,
    /// The tenant's declared quota in pages.
    pub quota_pages: u32,
    /// Whether the quota is soft (may borrow idle pages).
    pub soft: bool,
    /// Queries billed to this tenant that left the system.
    pub served: u64,
    /// Of those, deadline misses.
    pub missed: u64,
    /// Time-averaged MPL of this tenant's queries holding memory.
    pub avg_mpl: f64,
    /// Time-averaged fraction of the quota in use (can exceed 1 for soft
    /// quotas while borrowing).
    pub quota_utilization: f64,
    /// Time-averaged pages held *beyond* the quota — the borrow volume.
    /// Always 0 for hard quotas.
    pub borrowed_pages: f64,
}

impl TenantOutcome {
    /// Tenant miss ratio in percent.
    pub fn miss_pct(&self) -> f64 {
        miss_pct(self.served, self.missed)
    }
}

/// One point of the windowed miss-ratio time series (Figures 12–14).
#[derive(Clone, Copy, Debug)]
pub struct WindowPoint {
    /// Window end, seconds.
    pub t_secs: f64,
    /// Queries served in the window.
    pub served: u64,
    /// Misses in the window.
    pub missed: u64,
}

impl WindowPoint {
    /// Window miss ratio in percent.
    pub fn miss_pct(&self) -> f64 {
        miss_pct(self.served, self.missed)
    }
}

/// Everything measured over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Policy under test.
    pub policy: String,
    /// Queries served (completions + firm misses).
    pub served: u64,
    /// Deadline misses.
    pub missed: u64,
    /// Per-class breakdown.
    pub classes: Vec<ClassOutcome>,
    /// Per-tenant breakdown (empty for single-tenant configs): quota
    /// utilization, borrow volume, and outcomes per partition.
    pub tenants: Vec<TenantOutcome>,
    /// Time-averaged observed MPL (queries holding memory).
    pub avg_mpl: f64,
    /// CPU utilization over the run.
    pub cpu_util: f64,
    /// Mean disk utilization over the run.
    pub disk_util: f64,
    /// Table 7 timings (completed queries).
    pub timings: Timings,
    /// Mean number of memory-allocation changes per query (Figure 7).
    pub avg_fluctuations: f64,
    /// Windowed miss-ratio series.
    pub windows: Vec<WindowPoint>,
    /// Adaptive-policy decision trace (PMM only).
    pub trace: Vec<TracePoint>,
    /// 90% batch-means half-width of the miss ratio, when enough batches
    /// completed.
    pub miss_ci_half_width: Option<f64>,
    /// Total simulated seconds.
    pub sim_secs: f64,
    /// Calendar events dispatched over the run. A perf counter, not a
    /// behavior metric: optimizations may legitimately change it (e.g. by
    /// cancelling dead deadline events instead of dispatching them), so it
    /// is excluded from behavior goldens and from `BENCH_<figure>.json`.
    pub events: u64,
    /// Structured sim-time trace: every record whose kind is in the
    /// `SimConfig::obs.trace` mask (arrivals, gaps, admissions, grants,
    /// CPU/I/O bursts, departures, policy decisions, batch boundaries,
    /// faults), chronological. Empty when the mask is zero. Held in memory
    /// for the whole run. Excluded from goldens and figure JSON —
    /// observability, not a metric.
    pub obs_trace: Vec<obs::TraceRecord>,
    /// Frozen metrics registry (counters/gauges/histograms + windowed
    /// counter deltas), populated when `SimConfig::obs.metrics` is set.
    /// Excluded from goldens and figure JSON.
    pub metrics: Option<obs::MetricsReport>,
    /// Wall-clock self-profile per engine subsystem, populated when
    /// `SimConfig::obs.profile` is set. Machine-dependent: excluded from
    /// goldens, figure JSON, and every byte-identity guarantee.
    pub profile: Option<obs::ProfileReport>,
}

impl RunReport {
    /// Overall miss ratio in percent — the paper's headline metric.
    pub fn miss_pct(&self) -> f64 {
        miss_pct(self.served, self.missed)
    }
}

/// The inter-arrival gaps per workload class (seconds, in draw order) in
/// `records` — a run traced with the [`obs::TraceKind::ArrivalGap`] bit.
/// Each sequence replays exactly through `workload::Trace`
/// (`ArrivalSpec::Trace { gaps, repeat: false }`). A class that drew no
/// gap keeps an empty list, so the result always has `n_classes` entries.
pub fn arrival_gaps(records: &[obs::TraceRecord], n_classes: usize) -> Vec<Vec<f64>> {
    let mut gaps = vec![Vec::new(); n_classes];
    for r in records {
        if let obs::TraceEvent::ArrivalGap { class, gap_secs } = r.event {
            gaps[class as usize].push(gap_secs);
        }
    }
    gaps
}

/// `missed` as a percentage of `served`; 0 when nothing was served.
fn miss_pct(served: u64, missed: u64) -> f64 {
    if served == 0 {
        0.0
    } else {
        100.0 * missed as f64 / served as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_pct_handles_zero() {
        let r = RunReport::default();
        assert_eq!(r.miss_pct(), 0.0);
    }

    #[test]
    fn tenant_outcome_pct() {
        let t = TenantOutcome {
            name: "analytics".into(),
            quota_pages: 1280,
            soft: true,
            served: 50,
            missed: 10,
            avg_mpl: 2.0,
            quota_utilization: 0.8,
            borrowed_pages: 12.5,
        };
        assert!((t.miss_pct() - 20.0).abs() < 1e-12);
        assert_eq!(TenantOutcome::default().miss_pct(), 0.0);
    }

    #[test]
    fn class_outcome_pct() {
        let c = ClassOutcome {
            name: "Medium".into(),
            served: 200,
            missed: 30,
        };
        assert!((c.miss_pct() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn window_pct() {
        let w = WindowPoint {
            t_secs: 100.0,
            served: 10,
            missed: 5,
        };
        assert_eq!(w.miss_pct(), 50.0);
        let empty = WindowPoint {
            t_secs: 1.0,
            served: 0,
            missed: 0,
        };
        assert_eq!(empty.miss_pct(), 0.0);
    }
}
