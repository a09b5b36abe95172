//! The observability subsystem's cross-crate contract: tracing, metrics,
//! and profiling are strictly read-only riders — turning any of them on
//! must not change a single simulated outcome — and the full trace covers
//! the whole query lifecycle the paper's Figure 2 pipeline implies.

use integration_tests::{rendered, short_baseline};
use pmm_core::obs::{self, TraceEvent, TraceKind};
use pmm_core::prelude::*;

fn fingerprint(r: &RunReport) -> (u64, u64, String, usize, usize) {
    (
        r.served,
        r.missed,
        format!(
            "{:.12}/{:.12}/{:.12}/{:.12}",
            r.avg_mpl, r.cpu_util, r.disk_util, r.avg_fluctuations
        ),
        r.windows.len(),
        r.trace.len(),
    )
}

fn observed(secs: f64, trace: u16) -> RunReport {
    let mut cfg = short_baseline(0.06, secs);
    cfg.obs = ObsConfig {
        trace,
        metrics: true,
        profile: true,
    };
    run_simulation(cfg, Box::new(Pmm::with_defaults()))
}

/// The overhead gate's semantic half: with every observability feature on,
/// the simulation's outcomes are bit-identical to a dark run. (The byte
/// half — a zero trace mask leaving the golden report untouched — is pinned by
/// `golden_report.rs`, which runs with `ObsConfig::default()`.)
#[test]
fn observability_is_behavior_invariant() {
    let dark = run_simulation(
        short_baseline(0.06, 2_000.0),
        Box::new(Pmm::with_defaults()),
    );
    assert!(dark.obs_trace.is_empty() && dark.metrics.is_none());
    let lit = observed(2_000.0, TraceKind::ALL);
    assert_eq!(fingerprint(&dark), fingerprint(&lit));
    assert_eq!(dark.trace, lit.trace, "policy decisions unchanged");
    assert!(!lit.obs_trace.is_empty());
    assert!(lit.metrics.is_some());
    assert!(lit.profile.is_some());
}

/// The full trace covers the lifecycle end to end — arrival, admission,
/// grant changes, CPU and I/O bursts, departure, policy decisions, batch
/// boundaries — in chronological order.
#[test]
fn full_trace_covers_query_lifecycle() {
    let r = observed(2_000.0, TraceKind::ALL);
    let kinds: u16 = r
        .obs_trace
        .iter()
        .fold(0, |m, rec| m | rec.event.kind().bit());
    for kind in [
        TraceKind::Arrival,
        TraceKind::Admission,
        TraceKind::Grant,
        TraceKind::Cpu,
        TraceKind::Io,
        TraceKind::Departure,
        TraceKind::PolicyDecision,
        TraceKind::Batch,
    ] {
        assert_ne!(kinds & kind.bit(), 0, "missing {kind:?} records");
    }
    for w in r.obs_trace.windows(2) {
        assert!(w[0].at <= w[1].at, "trace must be chronological");
    }
    // Lifecycle counts agree with the report: one arrival record per
    // arrival that entered before the horizon, one departure per served.
    let departures = r
        .obs_trace
        .iter()
        .filter(|rec| matches!(rec.event, TraceEvent::Completed { .. }))
        .count() as u64;
    assert_eq!(departures, r.served);
    let missed = r
        .obs_trace
        .iter()
        .filter(|rec| matches!(rec.event, TraceEvent::Completed { missed: true, .. }))
        .count() as u64;
    assert_eq!(missed, r.missed);
    // The re-routed PMM decision records reproduce the policy trace.
    let decisions: Vec<(SimTime, Option<u32>)> = r
        .obs_trace
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::PolicyDecision { target_mpl, .. } => Some((rec.at, target_mpl)),
            _ => None,
        })
        .collect();
    let expected: Vec<(SimTime, Option<u32>)> =
        r.trace.iter().map(|p| (p.at, p.target_mpl)).collect();
    assert_eq!(decisions, expected);
}

/// The metrics registry agrees with the run report it rode along with, and
/// its windowed counter deltas land on the report's window boundaries.
#[test]
fn metrics_registry_agrees_with_report() {
    let r = observed(2_000.0, 0);
    assert!(r.obs_trace.is_empty(), "metrics do not imply tracing");
    let m = r.metrics.as_ref().expect("metrics collected");
    let counter = |name: &str| {
        m.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} registered"))
            .1
    };
    assert_eq!(counter("engine.served"), r.served);
    assert_eq!(counter("engine.missed"), r.missed);
    assert!(counter("engine.arrivals") >= r.served);
    assert!(counter("disk.cache_hits") <= counter("disk.requests"));
    assert_eq!(m.windows.len(), r.windows.len());
    for (mw, rw) in m.windows.iter().zip(&r.windows) {
        assert_eq!(mw.t_secs, rw.t_secs, "metrics windows share boundaries");
    }
    // The response-time histogram counts every served query somewhere.
    let hist = m
        .hists
        .iter()
        .find(|h| h.name == "engine.response_secs")
        .expect("response histogram registered");
    assert_eq!(hist.counts.iter().sum::<u64>(), r.served);
    assert_eq!(hist.counts.len(), hist.bounds.len() + 1);
}

/// The Chrome trace-event export is structurally sound JSON with paired
/// async begin/end events per completed query.
#[test]
fn chrome_export_is_well_formed() {
    let r = observed(1_000.0, TraceKind::ALL);
    let json = rendered(|w| obs::write_chrome_json(&r.obs_trace, w));
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.trim_end().ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    let begins = json.matches("\"ph\":\"b\"").count();
    let ends = json.matches("\"ph\":\"e\"").count();
    assert_eq!(ends, r.served as usize, "one async end per departure");
    assert!(begins >= ends, "every span that ended began");
}

/// Self-profiling attributes wall time to every mandated engine section.
#[test]
fn profile_covers_every_section() {
    let r = observed(1_000.0, 0);
    let p = r.profile.as_ref().expect("profiling enabled");
    let names: Vec<&str> = p.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["calendar_pop", "dispatch", "disk_start", "reallocate"],
        "fixed section order"
    );
    for s in &p.sections {
        assert!(s.calls > 0, "section {} never sampled", s.name);
        assert!(s.wall_secs >= 0.0);
    }
    let off = run_simulation(
        short_baseline(0.06, 1_000.0),
        Box::new(Pmm::with_defaults()),
    );
    assert!(off.profile.is_none(), "profiling is opt-in");
}
