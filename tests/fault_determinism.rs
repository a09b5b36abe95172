//! The fault layer's cross-crate contracts:
//!
//! 1. **Determinism under faults**: a fault storm is part of the simulated
//!    world, so the merged `faults` figure is byte-identical for any
//!    `--threads` value — same bar the healthy figures meet.
//! 2. **Dark path**: a `FaultPlan` that never fires inside the horizon is
//!    indistinguishable from no plan at all — not one event moves.
//! 3. **Crash tolerance**: a replication that panics is quarantined with
//!    its provenance while every other cell completes, and the partial
//!    result is itself deterministic.
//! 4. **One degradation path**: every fault counter in the metrics
//!    registry equals the number of trace records of its kind.

use bench::driver::{quarantine_json, run_figure, DriverConfig};
use bench::make_policy_for;
use integration_tests::short_baseline;
use pmm_core::prelude::*;

#[test]
fn faults_figure_is_thread_count_invariant() {
    let base = DriverConfig {
        seeds: 2,
        threads: 1,
        secs: 400.0,
        master_seed: 1994,
        ..DriverConfig::default()
    };
    let serial = run_figure("faults", base.clone()).expect("serial run");
    let parallel =
        run_figure("faults", DriverConfig { threads: 4, ..base }).expect("parallel run");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "BENCH_faults.json must be byte-identical across thread counts"
    );
    // The sweep exercises both degradation modes at a fault-free control
    // and a full-intensity storm; nothing quarantines on a healthy plan.
    assert!(
        serial.cells.iter().all(|c| c.quarantine.is_empty()),
        "healthy sweep quarantines nothing"
    );
    assert!(serial.cells.iter().all(|c| c.replications == 2));
    assert!(serial.cells.iter().any(|c| c.policy.starts_with("abort/")));
    assert!(serial
        .cells
        .iter()
        .any(|c| c.policy.starts_with("requeue/")));
}

/// A storm under each degradation mode, traced in full with metrics on:
/// each fault counter counts exactly the records its path emits. The
/// canonical storm's 90 s outage exhausts retry budgets, and an extra
/// severe shock leaves admitted queries without a page.
#[test]
fn fault_counters_equal_their_trace_records() {
    use pmm_core::obs::{DegradedAction, TraceEvent};
    for mode in [DegradationMode::Abort, DegradationMode::Requeue] {
        let mut cfg = short_baseline(0.10, 1_000.0);
        cfg.faults = FaultPlan::scaled(1.0);
        cfg.faults.mode = mode;
        cfg.faults.events.push(FaultSpec::MemoryShock {
            start_secs: 400.0,
            end_secs: 700.0,
            fraction: 0.02,
        });
        cfg.obs.trace = TraceKind::ALL;
        cfg.obs.metrics = true;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        let metrics = report.metrics.as_ref().expect("metrics on");
        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("counter {name} registered"))
        };
        let records = |pick: &dyn Fn(&TraceEvent) -> bool| {
            report.obs_trace.iter().filter(|r| pick(&r.event)).count() as u64
        };
        let degraded = |want: DegradedAction| {
            records(
                &|e| matches!(*e, TraceEvent::Degraded { action, .. } if action == want),
            )
        };
        let (aborted, requeued, suspended) = (
            degraded(DegradedAction::Aborted),
            degraded(DegradedAction::Requeued),
            degraded(DegradedAction::Suspended),
        );
        assert_eq!(counter("faults.aborts"), aborted, "{mode:?}");
        assert_eq!(counter("faults.requeues"), requeued, "{mode:?}");
        assert_eq!(
            counter("faults.io_retries"),
            records(&|e| matches!(e, TraceEvent::IoRetry { .. })),
            "{mode:?}"
        );
        assert_eq!(
            counter("faults.injected"),
            records(&|e| matches!(e, TraceEvent::FaultInjected { .. })),
            "{mode:?}"
        );
        assert!(
            counter("faults.io_retries") > 0,
            "{mode:?}: the outage retries"
        );
        assert!(
            counter("faults.shock_victims") > 0,
            "{mode:?}: the shock bites"
        );
        match mode {
            DegradationMode::Abort => {
                assert_eq!(requeued + suspended, 0, "abort mode only aborts");
                assert!(aborted > counter("faults.shock_victims"), "retries exhaust");
            }
            DegradationMode::Requeue => {
                assert_eq!(aborted, 0, "requeue mode never fault-aborts");
                assert_eq!(counter("faults.shock_victims"), suspended);
                assert!(requeued > 0, "retries exhaust");
            }
        }
    }
}

/// A plan whose every window opens after the horizon closes must leave the
/// run untouched: scheduling is gated on `at < end`, so an inert plan
/// consumes no events and no randomness.
#[test]
fn out_of_horizon_fault_plan_is_inert() {
    let secs = 1_500.0;
    let dark = run_simulation(short_baseline(0.06, secs), Box::new(Pmm::with_defaults()));
    let mut cfg = short_baseline(0.06, secs);
    cfg.faults = FaultPlan {
        events: vec![
            FaultSpec::DiskOutage {
                disk: 0,
                start_secs: secs + 100.0,
                end_secs: secs + 200.0,
            },
            FaultSpec::MemoryShock {
                start_secs: secs + 50.0,
                end_secs: secs + 60.0,
                fraction: 0.5,
            },
        ],
        ..FaultPlan::default()
    };
    let inert = run_simulation(cfg, Box::new(Pmm::with_defaults()));
    assert_eq!(dark.served, inert.served);
    assert_eq!(dark.missed, inert.missed);
    assert_eq!(dark.events, inert.events, "not one event may move");
    assert_eq!(
        format!(
            "{:.12}/{:.12}/{:.12}/{:.12}",
            dark.avg_mpl, dark.cpu_util, dark.disk_util, dark.avg_fluctuations
        ),
        format!(
            "{:.12}/{:.12}/{:.12}/{:.12}",
            inert.avg_mpl, inert.cpu_util, inert.disk_util, inert.avg_fluctuations
        ),
    );
    assert_eq!(dark.windows.len(), inert.windows.len());
}

/// End-to-end equivalence of the incremental reallocation path under the
/// storm machinery: a multi-tenant `scale` run through a mid-run memory
/// shock and a disk outage must produce the very same report whether the
/// engine drives the dirty-set path (`Partitioned-soft`, `PMM-tenant`) or
/// the pinned full-snapshot reference (`snapshot/<policy>`). The shock is
/// the hard case — total memory moves under the allocator, which must
/// answer with a rebuild that is the reference algorithm verbatim.
/// `PMM-tenant` adds the controllers' decisions: each of its runs must
/// record some, both paths must record the same ones, and at least one
/// must change a partition's strategy (the 48-tenant grid never leaves Max
/// mode — its tenants never wait for memory — so its controllers only
/// restart; the two-tenant preset switches to MinMax and moves targets).
#[test]
fn incremental_reallocation_survives_storms_bit_for_bit() {
    let faults = FaultPlan {
        events: vec![
            FaultSpec::MemoryShock {
                start_secs: 120.0,
                end_secs: 260.0,
                fraction: 0.5,
            },
            FaultSpec::DiskOutage {
                disk: 1,
                start_secs: 300.0,
                end_secs: 380.0,
            },
        ],
        ..FaultPlan::default()
    };
    let mut strategy_changed = false;
    for (policy, mut cfg, secs) in [
        ("Partitioned-soft", SimConfig::scale(48), 600.0),
        ("PMM-tenant", SimConfig::scale(48), 9_600.0),
        ("PMM-tenant", SimConfig::multi_tenant(0.5), 2_400.0),
    ] {
        cfg.duration_secs = secs;
        cfg.window_secs = 150.0;
        cfg.faults = faults.clone();
        let inc = run_simulation(cfg.clone(), make_policy_for(&cfg, policy));
        let snap = run_simulation(
            cfg.clone(),
            make_policy_for(&cfg, &format!("snapshot/{policy}")),
        );
        assert_eq!(
            (inc.served, inc.missed),
            (snap.served, snap.missed),
            "{policy}"
        );
        assert_eq!(inc.events, snap.events, "{policy}: not one event may move");
        for (a, b) in [
            (inc.avg_mpl, snap.avg_mpl),
            (inc.cpu_util, snap.cpu_util),
            (inc.disk_util, snap.disk_util),
            (inc.avg_fluctuations, snap.avg_fluctuations),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{policy}: aggregate drifted: {a} vs {b}"
            );
        }
        assert_eq!(inc.windows.len(), snap.windows.len(), "{policy}");
        for (w, v) in inc.windows.iter().zip(&snap.windows) {
            assert_eq!((w.served, w.missed), (v.served, v.missed), "{policy}");
        }
        assert_eq!(inc.trace, snap.trace, "{policy}: decision traces differ");
        if policy == "PMM-tenant" {
            assert!(
                !inc.trace.is_empty(),
                "PMM-tenant took no decision in {secs} s: lengthen the run"
            );
        }
        strategy_changed |= inc.trace.iter().any(|p| p.mode == StrategyMode::MinMax);
        assert_eq!(inc.tenants.len(), cfg.tenants.len());
        for (t, u) in inc.tenants.iter().zip(&snap.tenants) {
            let who = format!("{policy} {}", t.name);
            assert_eq!((t.served, t.missed), (u.served, u.missed), "{who}");
            assert_eq!(t.avg_mpl.to_bits(), u.avg_mpl.to_bits(), "{who}");
            assert_eq!(
                t.quota_utilization.to_bits(),
                u.quota_utilization.to_bits(),
                "{who}"
            );
            assert_eq!(
                t.borrowed_pages.to_bits(),
                u.borrowed_pages.to_bits(),
                "{who}"
            );
        }
    }
    assert!(
        strategy_changed,
        "no controller changed its partition's strategy"
    );
}

#[test]
fn panicking_replication_is_quarantined_not_fatal() {
    let cfg = DriverConfig {
        seeds: 2,
        threads: 2,
        secs: 200.0,
        master_seed: 7,
        ..DriverConfig::default()
    };
    let r = run_figure("crashtest", cfg.clone()).expect("sweep survives");
    // The middle cell runs the deliberately panicking policy: both of its
    // replications quarantine, in replication order.
    let quarantine = &r.cells[1].quarantine;
    assert_eq!(quarantine.len(), 2, "both panic-cell replications caught");
    assert!(r.cells[0].quarantine.is_empty() && r.cells[2].quarantine.is_empty());
    assert_eq!(r.cells[1].policy, "panic");
    for (rep, q) in quarantine.iter().enumerate() {
        assert_eq!(q.rep, rep as u64);
        assert!(
            q.message.contains("deliberate crashtest panic"),
            "panic message surfaced: {}",
            q.message
        );
    }
    // The healthy neighbours complete with full replication counts.
    assert_eq!(r.cells.len(), 3);
    assert_eq!(r.cells[0].replications, 2);
    assert!(r.cells[0].served > 0);
    assert_eq!(r.cells[1].replications, 0, "panicked cell keeps no reports");
    assert_eq!(r.cells[2].replications, 2);
    assert!(r.cells[2].served > 0);
    // The quarantine report names the failed unit and its seed, and the
    // partial result is deterministic: a rerun reproduces it bit for bit.
    let qjson = quarantine_json(&r);
    assert!(qjson.contains("\"kind\": \"quarantine\""));
    assert!(qjson.contains("\"policy\":\"panic\""));
    assert!(qjson.contains("\"cell\":1,"));
    assert!(qjson.contains(&format!("\"seed\":{}", quarantine[0].seed)));
    let again = run_figure("crashtest", cfg).expect("rerun survives");
    assert_eq!(r.to_json(), again.to_json());
    assert_eq!(qjson, quarantine_json(&again));
}
