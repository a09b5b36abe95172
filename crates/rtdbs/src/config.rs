//! Simulation configuration: the database, workload, and physical resource
//! models of Section 4 (Tables 2 and 3), plus the paper's experiment
//! presets and the wider-workload scenarios built on the `workload` crate.
//!
//! Workload description types ([`WorkloadClass`], [`QueryType`],
//! [`AlternationSchedule`], [`ArrivalSpec`], [`TenantSpec`], [`Scenario`])
//! live in `workload` — scenario generation is its own subsystem — and are
//! re-exported here for convenience.

use crate::faults::{FaultPlan, FaultSpec};
use exec::ExecConfig;
pub use obs::ObsConfig;
use storage::{DiskGeometry, RelationGroupSpec};
pub use workload::{
    AlternationSchedule, ArrivalSpec, QueryType, Scenario, TenantSpec, WorkloadClass,
};

/// Physical resources (Table 3).
#[derive(Clone, Copy, Debug)]
pub struct ResourceConfig {
    /// `CPUSpeed` in MIPS (default 40).
    pub cpu_mips: f64,
    /// `NumDisks` (default 10).
    pub num_disks: u32,
    /// `M` — total buffer pool size in pages (default 2560 = 20 MB).
    pub memory_pages: u32,
    /// Disk geometry: file-layout addressing plus every disk's service
    /// parameters (seek factor, rotation, cache).
    pub geometry: DiskGeometry,
    /// Operator cost-model parameters (tuples/page, block size, fudge).
    pub exec: ExecConfig,
}

impl Default for ResourceConfig {
    fn default() -> Self {
        ResourceConfig {
            cpu_mips: 40.0,
            num_disks: 10,
            memory_pages: 2560,
            geometry: DiskGeometry::default(),
            exec: ExecConfig::default(),
        }
    }
}

/// Why a [`SimConfig`] is degenerate — returned by [`SimConfig::validate`]
/// so misconfigurations fail at the driver boundary instead of as implicit
/// panics (or division-by-zero) deep inside the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `exec.block_pages` is 0: block-granular I/O and the prefetch pool
    /// both divide by it.
    ZeroBlockPages,
    /// The disks' prefetch cache holds zero pages (zero cache bytes or
    /// zero page bytes).
    ZeroCacheCapacity,
    /// No workload classes: nothing would ever arrive.
    NoClasses,
    /// No disks to place relations on.
    ZeroDisks,
    /// Zero buffer-pool pages: no query could ever be admitted.
    ZeroMemory,
    /// A non-positive or non-finite simulated duration.
    NonPositiveDuration,
    /// A non-positive or non-finite miss-ratio/metrics window length —
    /// the fig12 window machinery would never (or always) roll.
    NonPositiveWindow,
    /// A fault targets a disk index ≥ `resources.num_disks`.
    FaultDiskOutOfRange,
    /// A fault window is empty, negative, or non-finite.
    FaultWindowInvalid,
    /// A degradation factor or shock fraction outside its meaningful
    /// range (factor must be positive and finite; fraction in (0, 1]).
    FaultFactorInvalid,
    /// A class bills a tenant index ≥ `tenants.len()` while tenants are
    /// declared.
    ClassTenantOutOfRange,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroBlockPages => "exec.block_pages must be positive",
            ConfigError::ZeroCacheCapacity => "disk prefetch cache holds zero pages",
            ConfigError::NoClasses => "workload has no classes",
            ConfigError::ZeroDisks => "resources.num_disks must be positive",
            ConfigError::ZeroMemory => "resources.memory_pages must be positive",
            ConfigError::NonPositiveDuration => {
                "duration_secs must be positive and finite"
            }
            ConfigError::NonPositiveWindow => "window_secs must be positive and finite",
            ConfigError::FaultDiskOutOfRange => {
                "fault plan targets a disk index beyond resources.num_disks"
            }
            ConfigError::FaultWindowInvalid => {
                "fault windows need finite 0 <= start < end"
            }
            ConfigError::FaultFactorInvalid => {
                "degrade factors must be positive and finite; \
                 shock fractions must lie in (0, 1]"
            }
            ConfigError::ClassTenantOutOfRange => {
                "a class bills a tenant index beyond the declared tenants"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// A complete simulation setup.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Physical resources.
    pub resources: ResourceConfig,
    /// Relation groups (Table 2's database model).
    pub database: Vec<RelationGroupSpec>,
    /// Workload classes.
    pub classes: Vec<WorkloadClass>,
    /// Optional class-alternation schedule (Section 5.3).
    pub schedule: AlternationSchedule,
    /// Tenant memory partitions; empty = single-tenant. Enforced by
    /// `pmm::PartitionedPolicy` (classes map to partitions via
    /// [`WorkloadClass::tenant`]).
    pub tenants: Vec<TenantSpec>,
    /// Simulated run length in seconds (the paper runs 10 hours).
    pub duration_secs: f64,
    /// RNG master seed.
    pub seed: u64,
    /// `SampleSize` — completions per policy feedback batch.
    pub sample_size: u32,
    /// Window length for the miss-ratio time series (Figures 12–14).
    pub window_secs: f64,
    /// Firm deadlines: abort queries at their deadline (the paper's model).
    /// Setting this false is the run-to-completion ablation.
    pub firm_deadlines: bool,
    /// Observability switches (tracing, metrics, profiling). All off by
    /// default; never changes simulated behavior, only what is recorded.
    pub obs: ObsConfig,
    /// Deterministic fault schedule (device faults, memory shocks) plus
    /// the degradation policy for their victims. Empty by default: the
    /// dark path is byte-for-byte the unfaulted simulation.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// The Section 5.1 baseline: one Medium hash-join class, ‖R‖ drawn from
    /// [600, 1800] (13 sizes per disk), ‖S‖ from [3000, 9000], slack
    /// [2.5, 7.5], 10 disks, 2560 buffer pages.
    pub fn baseline(arrival_rate: f64) -> Self {
        SimConfig {
            resources: ResourceConfig::default(),
            database: vec![
                RelationGroupSpec {
                    relations_per_disk: 3,
                    size_range: (600, 1800),
                },
                RelationGroupSpec {
                    relations_per_disk: 3,
                    size_range: (3000, 9000),
                },
            ],
            classes: vec![WorkloadClass::poisson(
                "Medium",
                QueryType::HashJoin { groups: (0, 1) },
                arrival_rate,
                (2.5, 7.5),
            )],
            schedule: AlternationSchedule::default(),
            tenants: Vec::new(),
            duration_secs: 36_000.0,
            seed: 1994,
            sample_size: 30,
            window_secs: 1_200.0,
            firm_deadlines: true,
            obs: ObsConfig::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Replace the workload with `scenario` (classes, schedule, tenants).
    /// A class billing an undeclared tenant is caught by
    /// [`SimConfig::validate`] ([`ConfigError::ClassTenantOutOfRange`]).
    pub fn apply_scenario(&mut self, scenario: Scenario) {
        self.classes = scenario.classes;
        self.schedule = scenario.schedule;
        self.tenants = scenario.tenants;
    }

    /// Builder-style: inject faults per `plan`
    /// (`SimConfig::baseline(0.06).with_faults(FaultPlan::scaled(1.0))`).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Reject degenerate configurations before they become implicit panics
    /// (or, worse, division-by-zero) deep inside the engine. The driver
    /// calls this on every cell before spawning replications, and
    /// `Simulator::new` panics on a config it rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let r = &self.resources;
        if r.exec.block_pages == 0 {
            return Err(ConfigError::ZeroBlockPages);
        }
        if r.geometry.cache_pages() == 0 {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if self.classes.is_empty() {
            return Err(ConfigError::NoClasses);
        }
        if workload::scenario::dangling_tenant_ref(&self.classes, &self.tenants).is_some()
        {
            return Err(ConfigError::ClassTenantOutOfRange);
        }
        if r.num_disks == 0 {
            return Err(ConfigError::ZeroDisks);
        }
        if r.memory_pages == 0 {
            return Err(ConfigError::ZeroMemory);
        }
        if !(self.duration_secs > 0.0 && self.duration_secs.is_finite()) {
            return Err(ConfigError::NonPositiveDuration);
        }
        if !(self.window_secs > 0.0 && self.window_secs.is_finite()) {
            return Err(ConfigError::NonPositiveWindow);
        }
        for fault in &self.faults.events {
            let (start, end) = fault.window();
            if !(start.is_finite() && end.is_finite() && start >= 0.0 && start < end) {
                return Err(ConfigError::FaultWindowInvalid);
            }
            match *fault {
                FaultSpec::DiskDegrade { disk, factor, .. } => {
                    if disk >= r.num_disks {
                        return Err(ConfigError::FaultDiskOutOfRange);
                    }
                    if !(factor > 0.0 && factor.is_finite()) {
                        return Err(ConfigError::FaultFactorInvalid);
                    }
                }
                FaultSpec::DiskOutage { disk, .. } => {
                    if disk >= r.num_disks {
                        return Err(ConfigError::FaultDiskOutOfRange);
                    }
                }
                FaultSpec::MemoryShock { fraction, .. } => {
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(ConfigError::FaultFactorInvalid);
                    }
                }
            }
        }
        Ok(())
    }

    /// Section 5.2: the baseline with disk contention — 6 disks.
    pub fn disk_contention(arrival_rate: f64) -> Self {
        let mut cfg = Self::baseline(arrival_rate);
        cfg.resources.num_disks = 6;
        cfg
    }

    /// The Small hash-join class of Table 8 (‖R‖ ∈ [50, 150],
    /// ‖S‖ ∈ [250, 750]); group indices are relative to
    /// [`SimConfig::workload_changes`]' database.
    fn small_class(arrival_rate: f64) -> WorkloadClass {
        WorkloadClass::poisson(
            "Small",
            QueryType::HashJoin { groups: (2, 3) },
            arrival_rate,
            (2.5, 7.5),
        )
    }

    /// The four-group database shared by the workload-changes and
    /// multiclass experiments (Medium + Small operand groups).
    fn four_group_database() -> Vec<RelationGroupSpec> {
        vec![
            RelationGroupSpec {
                relations_per_disk: 3,
                size_range: (600, 1800),
            },
            RelationGroupSpec {
                relations_per_disk: 3,
                size_range: (3000, 9000),
            },
            RelationGroupSpec {
                relations_per_disk: 3,
                size_range: (50, 150),
            },
            RelationGroupSpec {
                relations_per_disk: 3,
                size_range: (250, 750),
            },
        ]
    }

    /// Section 5.3: alternating Small / Medium classes every 2–5 simulated
    /// hours on 6 disks (Table 8: Medium λ = 0.07, Small λ = 2.8).
    pub fn workload_changes() -> Self {
        let mut cfg = Self::baseline(0.07);
        cfg.resources.num_disks = 6;
        cfg.database = Self::four_group_database();
        cfg.classes.push(Self::small_class(2.8));
        // Alternate Medium / Small with phase lengths in the paper's
        // 2–5-hour range (deterministic so runs are reproducible).
        cfg.schedule = AlternationSchedule::cycle(vec![
            (9_000.0, vec![0]),  // Medium, 2.5 h
            (14_400.0, vec![1]), // Small, 4 h
            (10_800.0, vec![0]), // Medium, 3 h
            (7_200.0, vec![1]),  // Small, 2 h
            (12_600.0, vec![0]), // Medium, 3.5 h
        ]);
        cfg.duration_secs = 79_200.0; // cover all five phases (22 h)
        cfg
    }

    /// Section 5.6: Small and Medium active together; Medium fixed at
    /// λ = 0.065, Small swept; 12 disks.
    pub fn multiclass(small_rate: f64) -> Self {
        let mut cfg = Self::baseline(0.065);
        cfg.resources.num_disks = 12;
        cfg.database = Self::four_group_database();
        if small_rate > 0.0 {
            cfg.classes.push(Self::small_class(small_rate));
        }
        cfg
    }

    /// Section 5.5: the baseline workload with external sorts instead of
    /// joins (‖R‖ ∈ [600, 1800]).
    pub fn sorts(arrival_rate: f64) -> Self {
        let mut cfg = Self::baseline(arrival_rate);
        cfg.classes = vec![WorkloadClass::poisson(
            "Sort",
            QueryType::ExternalSort { group: 0 },
            arrival_rate,
            (2.5, 7.5),
        )];
        cfg
    }

    /// Bursty-arrivals scenario: the baseline Medium join class driven by a
    /// 2-state MMPP with the baseline's long-run rate (λ̄ = 0.06) but a
    /// `burst_ratio`-to-1 rate swing between states (10-minute mean
    /// sojourns). `burst_ratio ≤ 1` keeps plain Poisson arrivals — the
    /// control cell of the burst experiment.
    pub fn bursty(burst_ratio: f64) -> Self {
        let mut cfg = Self::baseline(0.06);
        if burst_ratio > 1.0 {
            cfg.apply_scenario(Scenario::join_heavy(
                (0, 1),
                ArrivalSpec::bursty(0.06, burst_ratio, 600.0),
            ));
        }
        cfg
    }

    /// Multi-tenant scenario: an "analytics" tenant running Medium joins and
    /// a "reporting" tenant running sorts, both Poisson λ = 0.05, with
    /// `analytics_frac` of the buffer pool reserved for analytics and the
    /// rest for reporting. Pair with `pmm::PartitionedPolicy` (hard or soft
    /// partitions) or any shared policy as the no-isolation control.
    pub fn multi_tenant(analytics_frac: f64) -> Self {
        let mut cfg = Self::baseline(0.05);
        let m = cfg.resources.memory_pages;
        let quotas = workload::quota_split(m, &[analytics_frac, 1.0 - analytics_frac]);
        let mut scenario = Scenario::mixed(
            (0, 1),
            ArrivalSpec::poisson(0.05),
            0,
            ArrivalSpec::poisson(0.05),
        );
        // Sorts bill the reporting partition.
        scenario.classes[1].tenant = 1;
        cfg.apply_scenario(
            scenario
                .tenant(TenantSpec::hard("analytics", quotas[0]))
                .tenant(TenantSpec::hard("reporting", quotas[1])),
        );
        cfg
    }

    /// Fault-storm scenario: the baseline workload under
    /// [`FaultPlan::scaled`] at `intensity` ∈ [0, 1]. Intensity 0 is the
    /// fault-free control cell of the `faults` figure.
    pub fn faulty(intensity: f64) -> Self {
        Self::baseline(0.06).with_faults(FaultPlan::scaled(intensity))
    }

    /// Scale-out tenancy preset: `n` identical soft-quota tenants generated
    /// by [`Scenario::tenant_grid`] (no 10³ literals), each running one
    /// small Poisson sort class billed to it, with the buffer pool sized at
    /// 256 pages per tenant so per-tenant conditions stay constant as `n`
    /// sweeps 10¹ → 10³. Relation sizes (‖R‖ ∈ [50, 150], group 2) keep a
    /// full sort inside one quota, so soft borrow-back — not starvation —
    /// is what the allocator arbitrates. The `scale` figure pairs this with
    /// `pmm::PartitionedPolicy` (incremental) and its `snapshot/`-pinned
    /// control arm.
    pub fn scale(n: usize) -> Self {
        let n = n.max(1);
        let mut cfg = Self::baseline(0.05);
        cfg.database.push(RelationGroupSpec {
            relations_per_disk: 3,
            size_range: (50, 150),
        });
        cfg.resources.memory_pages = 256 * n as u32;
        // One figure point is minutes of simulated time, not the paper's 10
        // hours: the figure measures reallocation cost, which needs churn
        // volume, not steady-state miss ratios.
        cfg.duration_secs = 1_200.0;
        cfg.window_secs = 300.0;
        cfg.apply_scenario(Scenario::tenant_grid(
            n,
            QueryType::ExternalSort { group: 2 },
            0.02,
            256,
        ));
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_tables() {
        let cfg = SimConfig::baseline(0.06);
        assert_eq!(cfg.resources.cpu_mips, 40.0);
        assert_eq!(cfg.resources.num_disks, 10);
        assert_eq!(cfg.resources.memory_pages, 2560);
        assert_eq!(cfg.classes.len(), 1);
        assert_eq!(cfg.classes[0].arrival, ArrivalSpec::poisson(0.06));
        assert_eq!(cfg.sample_size, 30);
        assert!(cfg.firm_deadlines);
        assert!(cfg.tenants.is_empty());
    }

    #[test]
    fn workload_changes_phases_cover_range() {
        let cfg = SimConfig::workload_changes();
        for (len, classes) in &cfg.schedule.phases {
            assert!(
                (7_200.0..=18_000.0).contains(len),
                "phase {len}s outside 2–5 h"
            );
            assert_eq!(classes.len(), 1, "one class at a time");
        }
        assert_eq!(cfg.resources.num_disks, 6);
    }

    #[test]
    fn multiclass_includes_small_only_when_positive() {
        assert_eq!(SimConfig::multiclass(0.0).classes.len(), 1);
        assert_eq!(SimConfig::multiclass(0.4).classes.len(), 2);
    }

    #[test]
    fn bursty_preserves_the_mean_rate() {
        let poisson = SimConfig::bursty(1.0);
        assert_eq!(poisson.classes[0].arrival, ArrivalSpec::poisson(0.06));
        let bursty = SimConfig::bursty(8.0);
        assert!(matches!(
            bursty.classes[0].arrival,
            ArrivalSpec::Mmpp { .. }
        ));
        assert!((bursty.classes[0].mean_rate() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn multi_tenant_splits_the_pool() {
        let cfg = SimConfig::multi_tenant(0.75);
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].quota_pages, 1920);
        assert_eq!(cfg.tenants[1].quota_pages, 640);
        assert_eq!(cfg.classes[0].tenant, 0);
        assert_eq!(cfg.classes[1].tenant, 1);
        assert!(matches!(
            cfg.classes[1].query_type,
            QueryType::ExternalSort { .. }
        ));
    }

    #[test]
    fn presets_default_to_cylinder_lru() {
        // Every preset runs the paper's Table 3 disk with its 32-page LRU
        // prefetch cache.
        for cfg in [
            SimConfig::baseline(0.06),
            SimConfig::bursty(8.0),
            SimConfig::multi_tenant(0.75),
            SimConfig::sorts(0.1),
        ] {
            assert_eq!(cfg.resources.geometry, DiskGeometry::default());
            assert_eq!(cfg.resources.geometry.cache_pages(), 32);
        }
    }

    #[test]
    fn validate_accepts_every_preset() {
        for cfg in [
            SimConfig::baseline(0.06),
            SimConfig::disk_contention(0.1),
            SimConfig::workload_changes(),
            SimConfig::multiclass(0.4),
            SimConfig::sorts(0.1),
            SimConfig::bursty(8.0),
            SimConfig::multi_tenant(0.75),
            SimConfig::scale(10),
            SimConfig::scale(1000),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn scale_preset_grows_with_tenant_count() {
        let cfg = SimConfig::scale(100);
        assert_eq!(cfg.tenants.len(), 100);
        assert_eq!(cfg.classes.len(), 100);
        assert_eq!(cfg.resources.memory_pages, 25_600);
        assert!(cfg.tenants.iter().all(|t| t.soft && t.quota_pages == 256));
        // Every class bills its own tenant.
        assert!(cfg.classes.iter().enumerate().all(|(i, c)| c.tenant == i));
        // Degenerate request still yields a valid config.
        assert_eq!(SimConfig::scale(0).tenants.len(), 1);
    }

    #[test]
    fn validate_rejects_degenerate_inputs() {
        let mut cfg = SimConfig::baseline(0.06);
        cfg.resources.exec.block_pages = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroBlockPages));

        let mut cfg = SimConfig::baseline(0.06);
        cfg.resources.geometry.cache_bytes = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroCacheCapacity));

        let mut cfg = SimConfig::baseline(0.06);
        cfg.resources.geometry.page_bytes = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroCacheCapacity),
            "zero page bytes must not divide by zero"
        );

        let mut cfg = SimConfig::baseline(0.06);
        cfg.classes.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoClasses));

        let mut cfg = SimConfig::multi_tenant(0.5);
        assert_eq!(cfg.tenants.len(), 2);
        cfg.classes[0].tenant = 5;
        assert_eq!(cfg.validate(), Err(ConfigError::ClassTenantOutOfRange));
        cfg.tenants.clear();
        assert_eq!(
            cfg.validate(),
            Ok(()),
            "single-tenant runs ignore the field"
        );

        let mut cfg = SimConfig::baseline(0.06);
        cfg.resources.num_disks = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroDisks));

        let mut cfg = SimConfig::baseline(0.06);
        cfg.resources.memory_pages = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroMemory));

        let mut cfg = SimConfig::baseline(0.06);
        cfg.duration_secs = 0.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDuration));
        cfg.duration_secs = f64::NAN;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveDuration));

        let mut cfg = SimConfig::baseline(0.06);
        cfg.window_secs = 0.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveWindow));
        cfg.window_secs = f64::INFINITY;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveWindow));
        cfg.window_secs = -1.0;
        assert_eq!(cfg.validate(), Err(ConfigError::NonPositiveWindow));

        // Errors render as readable one-liners.
        assert_eq!(
            ConfigError::ZeroDisks.to_string(),
            "resources.num_disks must be positive"
        );
    }

    #[test]
    fn validate_accepts_fault_plans_and_rejects_bad_ones() {
        use crate::faults::{DegradationMode, FaultPlan, FaultSpec};

        for i in [0.0, 0.5, 1.0] {
            assert_eq!(SimConfig::faulty(i).validate(), Ok(()));
        }
        assert!(SimConfig::faulty(0.0).faults.is_empty());
        assert_eq!(SimConfig::faulty(1.0).faults.mode, DegradationMode::Abort);

        let fault_cfg = |spec: FaultSpec| {
            SimConfig::baseline(0.06).with_faults(FaultPlan {
                events: vec![spec],
                ..FaultPlan::default()
            })
        };
        let cfg = fault_cfg(FaultSpec::DiskOutage {
            disk: 10,
            start_secs: 1.0,
            end_secs: 2.0,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::FaultDiskOutOfRange));
        let cfg = fault_cfg(FaultSpec::DiskDegrade {
            disk: 0,
            start_secs: 5.0,
            end_secs: 5.0,
            factor: 2.0,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::FaultWindowInvalid));
        let cfg = fault_cfg(FaultSpec::MemoryShock {
            start_secs: f64::NAN,
            end_secs: 2.0,
            fraction: 0.5,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::FaultWindowInvalid));
        let cfg = fault_cfg(FaultSpec::DiskDegrade {
            disk: 0,
            start_secs: 1.0,
            end_secs: 2.0,
            factor: 0.0,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::FaultFactorInvalid));
        let cfg = fault_cfg(FaultSpec::MemoryShock {
            start_secs: 1.0,
            end_secs: 2.0,
            fraction: 1.5,
        });
        assert_eq!(cfg.validate(), Err(ConfigError::FaultFactorInvalid));
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn apply_scenario_rejects_dangling_tenant_refs() {
        let mut cfg = SimConfig::baseline(0.05);
        cfg.apply_scenario(
            Scenario::mixed(
                (0, 1),
                ArrivalSpec::bursty(0.04, 8.0, 600.0),
                0,
                ArrivalSpec::poisson(0.02),
            )
            .tenant(TenantSpec::hard("joins", 1500))
            .tenant(TenantSpec::soft("sorts", 1000)),
        );
        assert_eq!(cfg.validate(), Ok(()));
        let stray = WorkloadClass::poisson(
            "Stray",
            QueryType::ExternalSort { group: 0 },
            0.01,
            (2.5, 7.5),
        )
        .for_tenant(3);
        cfg.apply_scenario(
            Scenario::join_heavy((0, 1), ArrivalSpec::poisson(0.05))
                .class(stray)
                .tenant(TenantSpec::hard("only", 2560)),
        );
        assert_eq!(cfg.validate(), Err(ConfigError::ClassTenantOutOfRange));
        crate::engine::Simulator::new(cfg, Box::new(pmm::MinMaxPolicy::unlimited()));
    }
}
