//! Golden determinism pins: full `RunReport`s serialized byte-for-byte and
//! compared against checked-in snapshots — one per paper policy on a
//! single-tenant baseline cell, and the per-tenant readings of a
//! multi-tenant scale cell.
//!
//! This is the behavior bar for hot-path work: an optimization PR must not
//! move a single simulated event, so the report it produces — served/missed
//! counts, per-class outcomes, MPL, utilizations, timings, windows, PMM
//! trace — must match the snapshot captured *before* the refactor, bit for
//! bit. (`RunReport::events` is deliberately excluded: it is a perf counter,
//! and optimizations may legitimately dispatch fewer dead events.)
//!
//! To re-bless after an *intentional* behavior change:
//! `UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test golden_report`

use integration_tests::{check_golden, serialize_report};
use pmm_core::prelude::*;
use pmm_core::rtdbs::RunReport;
use std::fmt::Write as _;

/// The pinned configuration: a Figure 3-style baseline cell, shortened so
/// the test stays fast but long enough to cross several feedback batches,
/// windows, and (under PMM) at least one strategy decision.
fn golden_cfg() -> SimConfig {
    let mut cfg = SimConfig::baseline(0.06);
    cfg.duration_secs = 2_500.0;
    cfg.window_secs = 500.0;
    cfg.seed = 1994;
    cfg
}

#[test]
fn run_report_matches_golden_snapshot() {
    let mut actual = String::new();
    for policy in ["Max", "MinMax", "PMM"] {
        let boxed: Box<dyn MemoryPolicy> = match policy {
            "Max" => Box::new(MaxPolicy),
            "MinMax" => Box::new(MinMaxPolicy::unlimited()),
            _ => Box::new(Pmm::with_defaults()),
        };
        let report = run_simulation(golden_cfg(), boxed);
        let _ = writeln!(actual, "==== {policy} ====");
        actual.push_str(&serialize_report(&report));
    }
    check_golden("runreport_fig3.txt", &actual);
}

/// The pinned multi-tenant configuration: the scale preset at 100 tenants,
/// shortened so each tenant sees only a handful of queries — every tenant
/// spends most of the run idle, so its usage readings cycle
/// idle → holding → idle many times over. Quotas shrink below a sort's
/// maximum demand so soft tenants borrow, arrivals speed up until queries
/// miss, and the feedback batch shrinks so the per-tenant PMM controllers
/// close batches within the horizon.
fn tenants_cfg() -> SimConfig {
    let mut cfg = SimConfig::scale(100);
    for t in &mut cfg.tenants {
        t.quota_pages = 16;
    }
    cfg.resources.memory_pages = 16 * 100;
    for c in &mut cfg.classes {
        c.arrival = ArrivalSpec::poisson(0.1);
    }
    cfg.duration_secs = 400.0;
    cfg.window_secs = 100.0;
    cfg.sample_size = 5;
    cfg.seed = 1994;
    cfg.obs.metrics = true;
    cfg
}

/// Exact serialization of the per-tenant readings: every `TenantOutcome`
/// field plus the final per-tenant MPL gauge cells.
fn serialize_tenants(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", report.policy);
    let _ = writeln!(out, "served: {}", report.served);
    let _ = writeln!(out, "missed: {}", report.missed);
    let _ = writeln!(out, "avg_mpl: {:?}", report.avg_mpl);
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "tenant {}: quota={} soft={} served={} missed={} avg_mpl={:?} \
             quota_utilization={:?} borrowed_pages={:?}",
            t.name,
            t.quota_pages,
            t.soft,
            t.served,
            t.missed,
            t.avg_mpl,
            t.quota_utilization,
            t.borrowed_pages
        );
    }
    let metrics = report.metrics.as_ref().expect("metrics are on");
    for (name, cells) in &metrics.gauge_families {
        let _ = writeln!(out, "{name}: {cells:?}");
    }
    out
}

#[test]
fn tenant_readings_match_golden_snapshot() {
    let cfg = tenants_cfg();
    let mut actual = String::new();
    for policy in ["Partitioned-soft", "PMM-tenant"] {
        let report = run_simulation(cfg.clone(), bench::make_policy_for(&cfg, policy));
        assert_eq!(report.tenants.len(), 100);
        let _ = writeln!(actual, "==== {policy} ====");
        actual.push_str(&serialize_tenants(&report));
    }
    check_golden("runreport_tenants.txt", &actual);
}
