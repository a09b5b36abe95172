//! `bench` — the experiment harness behind the paper's Section 5.
//!
//! [`driver`] is the one place a figure is defined: [`driver::figure_spec`]
//! lists each figure's cells, each one value with its printed label, the
//! policy name it runs and its full `SimConfig`; the driver runs every cell
//! under independently seeded replications and merges each into one
//! [`driver::MergedCell`]; [`driver::FigureResult::render`] prints the
//! merged results in the paper's layouts (the `experiments` binary's
//! terminal output) while [`driver::FigureResult::to_json`] writes the
//! machine-readable `BENCH_<figure>.json`.
//!
//! This crate root holds the figure constants the driver sweeps and the
//! policy-name resolver [`make_policy_for`], which resolves only the memory
//! algorithm. Wall-clock cost grows with
//! simulated duration; [`PAPER_SECS`] (10 simulated hours) is the paper's
//! measurement horizon.

use pmm_core::pmm::TenantPmm;
use pmm_core::prelude::*;

pub mod driver;

/// The paper's run length: 10 simulated hours.
pub const PAPER_SECS: f64 = 36_000.0;

/// A deliberately crashing policy: its first allocation panics. Exists only
/// for the hidden `crashtest` figure, which proves the driver quarantines a
/// panicking replication instead of losing the whole sweep.
pub struct PanicPolicy;

impl MemoryPolicy for PanicPolicy {
    fn name(&self) -> String {
        "panic".into()
    }

    fn allocate_into(
        &mut self,
        _snapshot: &pmm_core::pmm::SystemSnapshot,
        _scratch: &mut pmm_core::pmm::AllocScratch,
        _out: &mut pmm_core::pmm::Grants,
    ) {
        panic!("deliberate crashtest panic");
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::MinMax
    }

    fn trace(&self) -> &[pmm_core::pmm::TracePoint] {
        &[]
    }
}

/// Construct a policy by short name, resolving the tenant-aware names
/// against `cfg.tenants`: `"Partitioned"` enforces the config's quotas as
/// declared (hard unless the spec says otherwise), `"Partitioned-soft"`
/// lets every partition borrow idle pages, and `"PMM-tenant"` runs one PMM
/// controller per partition (PMM v2). The plain names are `"Max"`,
/// `"MinMax"`, `"MinMax-<N>"`, `"Proportional"`, `"PMM"`, and the crashtest
/// figure's `"panic"`.
///
/// Only the memory algorithm is named here: a figure cell's degradation
/// mode is in its `SimConfig`
/// ([`driver::CellSpec::config`]).
///
/// # Panics
/// Panics on an unknown name, or a tenant-aware name against a config
/// with no tenants.
pub fn make_policy_for(cfg: &SimConfig, name: &str) -> Box<dyn MemoryPolicy> {
    // `all_soft` makes every partition soft (quota + borrowing): the
    // "shared when idle" configuration swept against hard isolation.
    let partitions = |all_soft: bool| -> Vec<PartitionSpec> {
        assert!(
            !cfg.tenants.is_empty(),
            "policy {name} needs tenants in the SimConfig"
        );
        cfg.tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: all_soft || t.soft,
            })
            .collect()
    };
    match name {
        "Partitioned" => Box::new(PartitionedPolicy::new(partitions(false))),
        "Partitioned-soft" => Box::new(PartitionedPolicy::new(partitions(true))),
        "PMM-tenant" => Box::new(TenantPmm::new(partitions(false))),
        "Max" => Box::new(MaxPolicy),
        "MinMax" => Box::new(MinMaxPolicy::unlimited()),
        "Proportional" => Box::new(ProportionalPolicy),
        "PMM" => Box::new(Pmm::with_defaults()),
        "panic" => Box::new(PanicPolicy),
        other => {
            if let Some(n) = other.strip_prefix("MinMax-") {
                Box::new(MinMaxPolicy::with_limit(
                    n.parse().expect("numeric MinMax limit"),
                ))
            } else {
                panic!("unknown policy {other}")
            }
        }
    }
}

/// Arrival rates of the baseline sweep (Figures 3–5, Table 7).
pub const BASELINE_RATES: [f64; 5] = [0.04, 0.05, 0.06, 0.07, 0.08];
/// The four algorithms of the baseline experiment.
pub const BASELINE_POLICIES: [&str; 4] = ["Max", "MinMax", "Proportional", "PMM"];
/// MinMax memory limits of the Figure 11 sweep.
pub const FIG11_LIMITS: [u32; 8] = [2, 3, 4, 6, 8, 10, 15, 20];
/// Arrival rates of the external-sort sweep (Figure 16).
pub const SORT_RATES: [f64; 5] = [0.04, 0.06, 0.08, 0.10, 0.12];
/// Small-class arrival rates of the multiclass sweep (Figures 17–18).
pub const MULTICLASS_SMALL_RATES: [f64; 5] = [0.0, 0.2, 0.4, 0.8, 1.2];
/// Window length (simulated seconds) of the workload-changes miss-ratio
/// time series (Figures 12–14).
pub const CHANGES_WINDOW_SECS: f64 = 2_400.0;
/// MMPP burst ratios of the bursty-arrivals sweep (1 = the Poisson
/// control cell).
pub const BURST_RATIOS: [f64; 4] = [1.0, 4.0, 8.0, 16.0];
/// The policies of the bursty-arrivals experiment: the static baselines
/// and PMM.
pub const BURST_POLICIES: [&str; 3] = ["Max", "MinMax", "PMM"];

/// Fault intensities of the faults sweep: the empty-plan control cell plus
/// a half- and a full-strength storm (see `FaultPlan::scaled`).
pub const FAULT_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
/// Degradation-mode × allocation-policy cells of the faults sweep.
pub const FAULT_POLICIES: [(DegradationMode, &str); 4] = [
    (DegradationMode::Abort, "MinMax"),
    (DegradationMode::Requeue, "MinMax"),
    (DegradationMode::Abort, "PMM"),
    (DegradationMode::Requeue, "PMM"),
];

/// Analytics-tenant memory fractions of the multi-tenant sweep.
pub const TENANT_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.75];
/// The policies of the multi-tenant experiment: a shared pool as the
/// no-isolation control, hard quotas, soft quotas with borrow-back, and
/// the adaptive per-tenant PMM controllers of v2.
pub const TENANT_POLICIES: [&str; 4] =
    ["MinMax", "Partitioned", "Partitioned-soft", "PMM-tenant"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_policy_parses_names() {
        let cfg = SimConfig::baseline(0.05);
        assert_eq!(make_policy_for(&cfg, "Max").name(), "Max");
        assert_eq!(make_policy_for(&cfg, "MinMax").name(), "MinMax");
        assert_eq!(make_policy_for(&cfg, "MinMax-10").name(), "MinMax-10");
        assert_eq!(make_policy_for(&cfg, "PMM").name(), "PMM");
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn make_policy_rejects_garbage() {
        make_policy_for(&SimConfig::baseline(0.05), "Random");
    }

    #[test]
    fn make_policy_for_builds_partitions_from_tenants() {
        let cfg = SimConfig::multi_tenant(0.5);
        assert_eq!(make_policy_for(&cfg, "Partitioned").name(), "Partitioned");
        assert_eq!(
            make_policy_for(&cfg, "Partitioned-soft").name(),
            "Partitioned-soft"
        );
        // Non-partitioned names resolve as usual even with tenants set.
        assert_eq!(make_policy_for(&cfg, "PMM").name(), "PMM");
    }

    #[test]
    #[should_panic(expected = "needs tenants")]
    fn make_policy_for_rejects_partitioned_without_tenants() {
        make_policy_for(&SimConfig::baseline(0.05), "Partitioned");
    }

    #[test]
    fn make_policy_for_resolves_fault_cell_names() {
        // A faults cell names its memory algorithm apart from its label;
        // the degradation mode is in the cell's config, not the name.
        let spec = crate::driver::figure_spec("faults").expect("known figure");
        for cell in &spec.cells {
            let policy = make_policy_for(&cell.config, &cell.algorithm);
            assert_eq!(policy.name(), cell.algorithm);
            assert!(cell.policy.ends_with(&format!("/{}", cell.algorithm)));
        }
    }

    #[test]
    #[should_panic(expected = "deliberate crashtest panic")]
    fn panic_policy_panics_on_first_allocation() {
        let mut cfg = SimConfig::baseline(0.05);
        cfg.duration_secs = 100.0;
        let policy = make_policy_for(&cfg, "panic");
        run_simulation(cfg, policy);
    }
}
