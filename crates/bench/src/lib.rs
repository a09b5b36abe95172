//! `bench` — the experiment harness behind the paper's Section 5.
//!
//! [`driver`] is the one place a figure is defined: [`driver::figure_spec`]
//! lists each figure's cells, the driver runs every cell under independently
//! seeded replications, and [`driver::FigureResult::render`] prints the
//! merged results in the paper's layouts (the `experiments` binary's
//! terminal output) while [`driver::FigureResult::to_json`] writes the
//! machine-readable `BENCH_<figure>.json`.
//!
//! This crate root holds the figure constants the driver sweeps and the
//! policy-name resolver [`make_policy_for`]. Wall-clock cost grows with
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
/// lets every partition borrow idle pages, and `"PMM-tenant"` /
/// `"PMM-tenant-regime"` run one (optionally regime-aware) PMM controller
/// per partition (PMM v2). Device-sweep cell names
/// (`"<combo>/<policy>"`, see [`split_device_cell`]) resolve to their
/// inner allocation policy — the device part only shapes the config —
/// and `"snapshot/<policy>"` cells wrap the inner policy in
/// [`SnapshotOnly`], pinning it to the full-snapshot allocation
/// path (see [`split_snapshot_cell`]). The plain names are `"Max"`,
/// `"MinMax"`, `"MinMax-<N>"`, `"Proportional"`, `"Proportional-<N>"`,
/// `"PMM"`, `"PMM-regime"`, and the crashtest figure's `"panic"`.
///
/// # Panics
/// Panics on an unknown name, or a tenant-aware name against a config
/// with no tenants.
pub fn make_policy_for(cfg: &SimConfig, name: &str) -> Box<dyn MemoryPolicy> {
    if let Some((_, _, policy)) = split_device_cell(name) {
        return make_policy_for(cfg, policy);
    }
    if let Some((_, policy)) = split_fault_cell(name) {
        return make_policy_for(cfg, policy);
    }
    if let Some(policy) = split_snapshot_cell(name) {
        return Box::new(SnapshotOnly::new(make_policy_for(cfg, policy)));
    }
    let partitions = || -> Vec<PartitionSpec> {
        assert!(
            !cfg.tenants.is_empty(),
            "policy {name} needs tenants in the SimConfig"
        );
        cfg.tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect()
    };
    match name {
        "Partitioned" => Box::new(PartitionedPolicy::new(partitions())),
        "Partitioned-soft" => Box::new(PartitionedPolicy::new(partitions()).soften()),
        "PMM-tenant" => Box::new(TenantPmm::new(partitions())),
        "PMM-tenant-regime" => Box::new(TenantPmm::new(partitions()).regime_aware()),
        "Max" => Box::new(MaxPolicy),
        "MinMax" => Box::new(MinMaxPolicy::unlimited()),
        "Proportional" => Box::new(ProportionalPolicy::unlimited()),
        "PMM" => Box::new(Pmm::with_defaults()),
        "PMM-regime" => Box::new(Pmm::regime_aware()),
        "panic" => Box::new(PanicPolicy),
        other => {
            if let Some(n) = other.strip_prefix("MinMax-") {
                Box::new(MinMaxPolicy::with_limit(
                    n.parse().expect("numeric MinMax limit"),
                ))
            } else if let Some(n) = other.strip_prefix("Proportional-") {
                Box::new(ProportionalPolicy::with_limit(
                    n.parse().expect("numeric Proportional limit"),
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
/// The policies of the bursty-arrivals experiment: the static baselines,
/// v1 PMM (stationary projection), and the regime-aware v2 variant that
/// segments its learned batches at detected MMPP state switches.
pub const BURST_POLICIES: [&str; 4] = ["Max", "MinMax", "PMM", "PMM-regime"];
/// Arrival rates of the device sweep: one below and one above the
/// cylinder disk's saturation knee, so the SSD's headroom is visible.
pub const DEVICE_RATES: [f64; 2] = [0.05, 0.07];
/// Device × eviction combinations of the device sweep.
pub const DEVICE_COMBOS: [&str; 4] = ["cyl+lru", "cyl+lruk", "ssd+lru", "ssd+lruk"];
/// The allocation policies crossed with each device combination.
pub const DEVICE_POLICIES: [&str; 3] = ["Max", "MinMax", "PMM"];
/// History depth of the LRU-K cells in the device sweep (LRU-2, the
/// classic O'Neil et al. setting).
pub const DEVICE_LRUK_K: u32 = 2;

/// Split a device-sweep cell name `"<combo>/<policy>"` (e.g.
/// `"ssd+lruk/PMM"`) into its device, eviction policy, and allocation
/// policy name. Returns `None` for plain policy names, which keeps every
/// other figure's cells flowing through untouched.
pub fn split_device_cell(name: &str) -> Option<(DeviceSpec, EvictionSpec, &str)> {
    let (combo, policy) = name.split_once('/')?;
    let (device, eviction) = combo.split_once('+')?;
    let device = match device {
        "cyl" => DeviceSpec::Cylinder,
        "ssd" => DeviceSpec::Ssd(SsdSpec::default()),
        _ => return None,
    };
    let eviction = match eviction {
        "lru" => EvictionSpec::Lru,
        "lruk" => EvictionSpec::LruK { k: DEVICE_LRUK_K },
        _ => return None,
    };
    Some((device, eviction, policy))
}

/// Apply a device-sweep cell name to a config: returns the config with the
/// cell's device and eviction policy installed, plus the allocation-policy
/// name left over. Non-device names pass through as the identity.
pub fn apply_device_cell(cfg: SimConfig, name: &str) -> (SimConfig, String) {
    match split_device_cell(name) {
        Some((device, eviction, policy)) => (
            cfg.with_device(device).with_eviction(eviction),
            policy.to_string(),
        ),
        None => (cfg, name.to_string()),
    }
}

/// Fault intensities of the faults sweep: the empty-plan control cell plus
/// a half- and a full-strength storm (see `FaultPlan::scaled`).
pub const FAULT_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
/// Degradation-mode × allocation-policy cells of the faults sweep.
pub const FAULT_POLICIES: [&str; 4] =
    ["abort/MinMax", "requeue/MinMax", "abort/PMM", "requeue/PMM"];

/// Split a faults-sweep cell name `"<mode>/<policy>"` (e.g.
/// `"requeue/PMM"`) into its degradation mode and allocation-policy name.
/// Returns `None` for plain policy names and for device cells (their combo
/// part is never a mode name), so every other figure's cells pass through
/// untouched.
pub fn split_fault_cell(name: &str) -> Option<(DegradationMode, &str)> {
    let (mode, policy) = name.split_once('/')?;
    let mode = match mode {
        "abort" => DegradationMode::Abort,
        "requeue" => DegradationMode::Requeue,
        _ => return None,
    };
    Some((mode, policy))
}

/// Apply a faults-sweep cell name to a config: installs the cell's
/// degradation mode as the plan's default and returns the allocation-policy
/// name left over. Non-fault names pass through as the identity.
pub fn apply_fault_cell(mut cfg: SimConfig, name: &str) -> (SimConfig, String) {
    match split_fault_cell(name) {
        Some((mode, policy)) => {
            cfg.faults.default_mode = mode;
            (cfg, policy.to_string())
        }
        None => (cfg, name.to_string()),
    }
}

/// Tenant counts of the scale figure's 10¹ → 10³ sweep.
pub const SCALE_TENANTS: [usize; 3] = [10, 100, 1000];
/// The policies of the scale figure: incremental dirty-set allocation,
/// the same policy pinned to the full-snapshot reference path (the
/// `snapshot/` control arm), and the adaptive per-tenant controllers.
pub const SCALE_POLICIES: [&str; 3] = [
    "Partitioned-soft",
    "snapshot/Partitioned-soft",
    "PMM-tenant",
];

/// Split a scale-figure cell name `"snapshot/<policy>"` into the wrapped
/// allocation-policy name. The `snapshot/` prefix pins the policy to the
/// full-snapshot reference allocation path (`pmm::SnapshotOnly`) — the
/// control arm of the incremental-reallocation comparison. Returns `None`
/// for every other name, including device (`ssd+lruk/…`) and fault
/// (`requeue/…`) cells.
pub fn split_snapshot_cell(name: &str) -> Option<&str> {
    name.strip_prefix("snapshot/")
}

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
        assert_eq!(
            make_policy_for(&cfg, "Proportional-5").name(),
            "Proportional-5"
        );
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
    fn device_cell_names_round_trip() {
        use pmm_core::storage::{DeviceSpec, EvictionSpec};
        let (dev, ev, p) = split_device_cell("ssd+lruk/PMM").expect("device cell");
        assert!(matches!(dev, DeviceSpec::Ssd(_)));
        assert_eq!(ev, EvictionSpec::LruK { k: DEVICE_LRUK_K });
        assert_eq!(p, "PMM");
        let (dev, ev, p) = split_device_cell("cyl+lru/MinMax").expect("device cell");
        assert_eq!(dev, DeviceSpec::Cylinder);
        assert_eq!(ev, EvictionSpec::Lru);
        assert_eq!(p, "MinMax");
        // Plain policy names and malformed combos pass through as None.
        assert!(split_device_cell("PMM").is_none());
        assert!(split_device_cell("MinMax-10").is_none());
        assert!(split_device_cell("tape+lru/PMM").is_none());
        assert!(split_device_cell("ssd+fifo/PMM").is_none());
    }

    #[test]
    fn apply_device_cell_installs_device_and_eviction() {
        use pmm_core::storage::{DeviceSpec, EvictionSpec};
        let base = SimConfig::baseline(0.05);
        let (cfg, policy) = apply_device_cell(base.clone(), "ssd+lruk/Max");
        assert!(matches!(cfg.resources.device, DeviceSpec::Ssd(_)));
        assert_eq!(
            cfg.resources.eviction,
            EvictionSpec::LruK { k: DEVICE_LRUK_K }
        );
        assert_eq!(policy, "Max");
        // Identity on non-device names: config untouched, name passed back.
        let (cfg, policy) = apply_device_cell(base, "PMM");
        assert_eq!(cfg.resources.device, DeviceSpec::Cylinder);
        assert_eq!(cfg.resources.eviction, EvictionSpec::Lru);
        assert_eq!(policy, "PMM");
    }

    #[test]
    fn make_policy_for_resolves_device_cell_names() {
        let cfg = SimConfig::baseline(0.05);
        assert_eq!(make_policy_for(&cfg, "ssd+lruk/PMM").name(), "PMM");
        assert_eq!(make_policy_for(&cfg, "cyl+lru/MinMax").name(), "MinMax");
    }

    #[test]
    fn fault_cell_names_round_trip() {
        let (mode, p) = split_fault_cell("abort/MinMax").expect("fault cell");
        assert_eq!(mode, DegradationMode::Abort);
        assert_eq!(p, "MinMax");
        let (mode, p) = split_fault_cell("requeue/PMM").expect("fault cell");
        assert_eq!(mode, DegradationMode::Requeue);
        assert_eq!(p, "PMM");
        // Plain names, unknown modes, and device cells pass through.
        assert!(split_fault_cell("PMM").is_none());
        assert!(split_fault_cell("retry/PMM").is_none());
        assert!(split_fault_cell("ssd+lruk/PMM").is_none());
        assert!(split_device_cell("abort/PMM").is_none());
    }

    #[test]
    fn apply_fault_cell_installs_the_degradation_mode() {
        let base = SimConfig::faulty(1.0);
        let (cfg, policy) = apply_fault_cell(base.clone(), "requeue/PMM");
        assert_eq!(cfg.faults.default_mode, DegradationMode::Requeue);
        assert_eq!(policy, "PMM");
        // Identity on non-fault names.
        let (cfg, policy) = apply_fault_cell(base, "MinMax");
        assert_eq!(cfg.faults.default_mode, DegradationMode::Abort);
        assert_eq!(policy, "MinMax");
    }

    #[test]
    fn make_policy_for_resolves_fault_cell_names() {
        let cfg = SimConfig::faulty(0.5);
        assert_eq!(make_policy_for(&cfg, "abort/PMM").name(), "PMM");
        assert_eq!(make_policy_for(&cfg, "requeue/MinMax").name(), "MinMax");
    }

    #[test]
    fn snapshot_cell_names_round_trip() {
        assert_eq!(
            split_snapshot_cell("snapshot/Partitioned-soft"),
            Some("Partitioned-soft")
        );
        // Plain names, device cells, and fault cells pass through.
        assert!(split_snapshot_cell("Partitioned-soft").is_none());
        assert!(split_snapshot_cell("ssd+lruk/PMM").is_none());
        assert!(split_snapshot_cell("requeue/PMM").is_none());
        assert!(split_device_cell("snapshot/Partitioned-soft").is_none());
        assert!(split_fault_cell("snapshot/Partitioned-soft").is_none());
    }

    #[test]
    fn make_policy_for_resolves_snapshot_cell_names() {
        let cfg = SimConfig::scale(4);
        let wrapped = make_policy_for(&cfg, "snapshot/Partitioned-soft");
        assert_eq!(wrapped.name(), "snapshot/Partitioned-soft");
        assert!(
            !wrapped.supports_dirty_allocation(),
            "the snapshot wrapper pins the full-snapshot path"
        );
        assert!(
            make_policy_for(&cfg, "Partitioned-soft").supports_dirty_allocation(),
            "the unwrapped partitioned policy takes the incremental path"
        );
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
