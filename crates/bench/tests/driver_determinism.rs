//! The driver's core contract: merged output depends only on
//! `(figure, secs, seeds, master_seed)` — never on the thread count or on
//! which worker ran which replication.

use bench::driver::{
    run_figure, run_figure_traced, trace_files, CellTrace, DriverConfig, FigureResult,
};
use pmm_core::obs::TraceKind;
use pmm_core::rtdbs::arrival_gaps;
use std::sync::Mutex;

/// `run_figure_traced` with a sink that keeps every recording, in cell
/// order.
fn run_traced(figure: &str, cfg: DriverConfig) -> (FigureResult, Vec<CellTrace>) {
    let traces = Mutex::new(Vec::new());
    let r = run_figure_traced(figure, cfg, |t| {
        traces.lock().expect("sink lock").push(t);
        Ok(())
    })
    .expect("figure runs");
    let mut traces = traces.into_inner().expect("sink lock");
    traces.sort_by_key(|t| t.cell);
    (r, traces)
}

/// A parallel 4-thread run over N seeds produces byte-identical merged JSON
/// to the serial run over the same seeds.
#[test]
fn parallel_json_matches_serial() {
    let base = DriverConfig {
        seeds: 3,
        threads: 1,
        secs: 200.0,
        master_seed: 1994,
        ..DriverConfig::default()
    };
    let serial = run_figure("fig3", base.clone()).expect("serial run");
    let parallel = run_figure(
        "fig3",
        DriverConfig {
            threads: 4,
            ..base.clone()
        },
    )
    .expect("parallel run");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "4-thread merged JSON must be byte-identical to the serial run"
    );
}

/// Oversubscribing workers far beyond the unit count must not change the
/// merge either (workers racing on an empty queue).
#[test]
fn oversubscribed_threads_match_serial() {
    let base = DriverConfig {
        seeds: 2,
        threads: 1,
        secs: 150.0,
        master_seed: 42,
        ..DriverConfig::default()
    };
    let serial = run_figure("fig11", base.clone()).expect("serial run");
    let flooded = run_figure(
        "fig11",
        DriverConfig {
            threads: 32,
            ..base
        },
    )
    .expect("flooded run");
    assert_eq!(serial.to_json(), flooded.to_json());
}

/// The wider-workload figures (MMPP bursts, multi-tenant partitions) obey
/// the same contract: merged JSON — including the per-tenant
/// quota-utilization/borrow-volume aggregates and the adaptive
/// `PMM-tenant` column — is byte-identical across thread counts.
#[test]
fn burst_and_tenants_json_match_serial() {
    for figure in ["burst", "tenants"] {
        let base = DriverConfig {
            seeds: 2,
            threads: 1,
            secs: 200.0,
            master_seed: 1994,
            ..DriverConfig::default()
        };
        let serial = run_figure(figure, base.clone()).expect("serial run");
        let parallel = run_figure(
            figure,
            DriverConfig {
                threads: 4,
                ..base.clone()
            },
        )
        .expect("parallel run");
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{figure}: 4-thread JSON must match the serial run"
        );
    }
}

/// The `tenants` figure's cells carry per-tenant aggregates and the
/// per-tenant-adaptive PMM column; the `burst` figure carries the static
/// policies and PMM at every burst ratio, plus their windowed miss-ratio
/// series.
#[test]
fn tenant_and_burst_cells_are_emitted() {
    let cfg = DriverConfig {
        seeds: 2,
        threads: 2,
        secs: 200.0,
        master_seed: 1994,
        ..DriverConfig::default()
    };
    let tenants = run_figure("tenants", cfg.clone()).expect("tenants runs");
    assert!(
        tenants.cells.iter().any(|c| c.policy == "PMM-tenant"),
        "adaptive per-tenant PMM column present"
    );
    assert!(
        tenants.cells.iter().all(|c| c.tenants.len() == 2),
        "every tenants cell merges both partitions"
    );
    let json = tenants.to_json();
    assert!(json.contains("\"policy\":\"PMM-tenant\""), "{json}");
    assert!(
        json.contains("\"tenants\":[{\"name\":\"analytics\""),
        "per-tenant aggregates serialized: {json}"
    );
    assert!(json.contains("\"quota_utilization\""));
    assert!(json.contains("\"borrowed_pages\""));

    let burst = run_figure("burst", cfg).expect("burst runs");
    for ratio in bench::BURST_RATIOS {
        let policies: Vec<&str> = burst
            .cells
            .iter()
            .filter(|c| c.x == ratio)
            .map(|c| c.policy.as_str())
            .collect();
        assert_eq!(policies, bench::BURST_POLICIES, "ratio {ratio}");
    }
    // At 200 sim-secs a high-ratio MMPP cell can sit in its slow state the
    // whole run and serve nothing; the Poisson control cells (x = 1) must
    // still carry their windowed miss-ratio series.
    assert!(
        burst
            .cells
            .iter()
            .filter(|c| c.x == 1.0)
            .all(|c| !c.windows.is_empty()),
        "control cells carry the windowed miss-ratio series"
    );
    assert!(
        burst.cells.iter().all(|c| c.tenants.is_empty()),
        "burst is single-tenant: no tenants array"
    );
    assert!(!burst.to_json().contains("\"tenants\":["));
}

/// `--trace=arrivals`: replication 0's gaps are captured per cell and
/// class, replay exactly through `workload::Trace`, and do not perturb the
/// merged JSON.
#[test]
fn recorded_arrival_traces_replay_and_leave_json_untouched() {
    let base = DriverConfig {
        seeds: 2,
        threads: 1,
        secs: 300.0,
        master_seed: 7,
        ..DriverConfig::default()
    };
    let (plain, none) = run_traced("fig11", base.clone());
    assert!(none.is_empty(), "recording is off by default");
    let (recorded, traces) = run_traced(
        "fig11",
        DriverConfig {
            trace: TraceKind::ArrivalGap.bit(),
            ..base
        },
    );
    assert_eq!(
        plain.to_json(),
        recorded.to_json(),
        "recording must not perturb the merged JSON"
    );
    assert_eq!(traces.len(), recorded.cells.len(), "one recording per cell");
    for t in &traces {
        let c = t.cell;
        assert_eq!(t.classes, 1, "fig11 cells run one class");
        let gaps = arrival_gaps(&t.records, 1).remove(0);
        assert!(!gaps.is_empty(), "cell {c} recorded no gaps");
        assert_eq!(gaps.len(), t.records.len(), "the mask keeps only gaps");
        // The recorded gaps replay through the Trace process exactly.
        let mut trace = pmm_core::workload::Trace::from_gaps(gaps.clone(), false);
        let mut rng = pmm_core::simkit::Rng::new(1);
        for (i, &g) in gaps.iter().enumerate() {
            let replayed = trace
                .next_interarrival(&mut rng)
                .unwrap_or_else(|| panic!("gap {i} missing"));
            assert_eq!(
                replayed,
                pmm_core::simkit::Duration::from_secs_f64(g),
                "gap {i} must replay bit-for-bit"
            );
        }
        assert!(trace.next_interarrival(&mut rng).is_none());
    }
}

/// Each of `trace`'s artifact files, as its name and the bytes it renders
/// through an in-memory writer.
fn rendered(figure: &str, mask: u16, trace: &CellTrace) -> Vec<(String, Vec<u8>)> {
    trace_files(figure, mask, trace)
        .into_iter()
        .map(|f| {
            let mut bytes = Vec::new();
            f.write_to(&mut bytes)
                .expect("writing to a Vec cannot fail");
            (f.name, bytes)
        })
        .collect()
}

/// `--trace`: every observability artifact — the trace files the driver
/// projects as each cell's replication 0 finishes (rendered structured
/// traces, Chrome trace-event export) and the merged metrics JSON — is
/// byte-identical across thread counts, and the recording leaves the
/// merged figure JSON untouched. The faults figure records the same way as
/// every other, so its fault, retry and degradation records are pinned too.
#[test]
fn trace_artifacts_are_thread_count_invariant() {
    for figure in ["fig12", "faults"] {
        let base = DriverConfig {
            seeds: 2,
            threads: 1,
            secs: 300.0,
            master_seed: 1994,
            trace: TraceKind::ALL,
            metrics: true,
            ..DriverConfig::default()
        };
        let (serial, s_traces) = run_traced(figure, base.clone());
        let (parallel, p_traces) = run_traced(
            figure,
            DriverConfig {
                threads: 4,
                ..base.clone()
            },
        );
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(s_traces.len(), serial.cells.len(), "one recording per cell");
        assert_eq!(s_traces.len(), p_traces.len());
        for (s, p) in s_traces.iter().zip(&p_traces) {
            let c = s.cell;
            assert!(!s.records.is_empty(), "{figure} cell {c} recorded a trace");
            assert_eq!(
                rendered(figure, base.trace, s),
                rendered(figure, base.trace, p),
                "{figure} cell {c}: trace files must be byte-identical across \
                 thread counts"
            );
        }
        if figure == "faults" {
            assert!(
                s_traces.iter().any(|t| {
                    let mut text = Vec::new();
                    pmm_core::obs::write_text(&t.records, &mut text)
                        .expect("writing to a Vec cannot fail");
                    String::from_utf8_lossy(&text).contains(" fault kind=")
                }),
                "the faults figure records its fault events"
            );
        }
        assert_eq!(
            bench::driver::metrics_json(&serial),
            bench::driver::metrics_json(&parallel),
            "{figure}: merged metrics JSON must be byte-identical across \
             thread counts"
        );
        // A trace run leaves the figure JSON identical to a no-trace run:
        // the observability path never perturbs the simulation.
        let off =
            run_figure(figure, DriverConfig { trace: 0, ..base }).expect("plain run");
        assert_eq!(off.to_json(), serial.to_json());
    }
}

/// Per-tenant metric label families: multi-tenant cells carry dense
/// per-tenant counters/gauges in their merged metrics JSON, the output is
/// byte-identical across thread counts, and single-tenant figures' metrics
/// JSON keeps its established family-free shape.
#[test]
fn tenant_metric_families_merge_and_stay_thread_invariant() {
    let base = DriverConfig {
        seeds: 2,
        threads: 1,
        secs: 200.0,
        master_seed: 1994,
        metrics: true,
        ..DriverConfig::default()
    };
    let serial = run_figure("tenants", base.clone()).expect("serial run");
    let parallel = run_figure(
        "tenants",
        DriverConfig {
            threads: 4,
            ..base.clone()
        },
    )
    .expect("parallel run");
    let json = bench::driver::metrics_json(&serial);
    assert_eq!(
        json,
        bench::driver::metrics_json(&parallel),
        "tenants metrics JSON must be byte-identical across thread counts"
    );
    assert!(json.contains("\"families\":["), "{json}");
    assert!(
        json.contains(
            "{\"name\":\"engine.tenant.served\",\"kind\":\"counter\",\"values\":["
        ),
        "{json}"
    );
    assert!(json.contains("\"engine.tenant.missed\""));
    assert!(
        json.contains("{\"name\":\"engine.tenant.mpl\",\"kind\":\"gauge\",\"values\":["),
        "{json}"
    );
    for (c, cell) in serial.cells.iter().enumerate() {
        let metrics = cell.metrics.as_ref().expect("metrics collected");
        let served: u64 = metrics
            .counter_families
            .iter()
            .find(|(n, _)| n == "engine.tenant.served")
            .map(|(_, v)| v.iter().sum())
            .expect("tenants cells carry the served family");
        let total = metrics
            .counters
            .iter()
            .find(|(n, _)| n == "engine.served")
            .map(|(_, v)| *v)
            .expect("plain served counter present");
        assert_eq!(
            served, total,
            "cell {c}: per-tenant served cells must sum to the global counter"
        );
    }
    // Single-tenant figures: no families key, same shape as before.
    let single = run_figure(
        "fig11",
        DriverConfig {
            seeds: 1,
            secs: 150.0,
            ..base
        },
    )
    .expect("fig11 runs");
    assert!(!bench::driver::metrics_json(&single).contains("\"families\""));
}

/// Different master seeds must actually change the results — otherwise the
/// determinism assertions above would be vacuous.
#[test]
fn master_seed_changes_results() {
    let a = run_figure(
        "fig11",
        DriverConfig {
            seeds: 2,
            threads: 2,
            secs: 150.0,
            master_seed: 1,
            ..DriverConfig::default()
        },
    )
    .expect("seed 1");
    let b = run_figure(
        "fig11",
        DriverConfig {
            seeds: 2,
            threads: 2,
            secs: 150.0,
            master_seed: 2,
            ..DriverConfig::default()
        },
    )
    .expect("seed 2");
    assert_ne!(a.to_json(), b.to_json());
}
