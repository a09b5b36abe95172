//! Shared fixtures for the cross-crate integration tests.

use pmm_core::pmm::{AllocScratch, Grants};
use pmm_core::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A short baseline configuration sized for test runtimes: same model as
/// the paper's Section 5.1 setup, shorter horizon.
pub fn short_baseline(rate: f64, secs: f64) -> SimConfig {
    let mut cfg = SimConfig::baseline(rate);
    cfg.duration_secs = secs;
    cfg.window_secs = secs / 4.0;
    cfg
}

/// The bytes a streaming trace renderer (`obs::write_text`,
/// `obs::write_chrome_json`) writes, as a `String`.
pub fn rendered(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the rendering is UTF-8")
}

/// Deterministic, exact serialization of every behavior field of a
/// `RunReport`. Floats use `{:?}` (shortest round-trip), so any bit-level
/// difference shows. `RunReport::events` is deliberately left out: it is a
/// perf counter, and optimizations may legitimately dispatch fewer dead
/// events.
pub fn serialize_report(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", report.policy);
    let _ = writeln!(out, "served: {}", report.served);
    let _ = writeln!(out, "missed: {}", report.missed);
    for c in &report.classes {
        let _ = writeln!(
            out,
            "class {}: served={} missed={}",
            c.name, c.served, c.missed
        );
    }
    let _ = writeln!(out, "avg_mpl: {:?}", report.avg_mpl);
    let _ = writeln!(out, "cpu_util: {:?}", report.cpu_util);
    let _ = writeln!(out, "disk_util: {:?}", report.disk_util);
    let _ = writeln!(out, "waiting: {:?}", report.timings.waiting);
    let _ = writeln!(out, "execution: {:?}", report.timings.execution);
    let _ = writeln!(out, "response: {:?}", report.timings.response);
    let _ = writeln!(out, "avg_fluctuations: {:?}", report.avg_fluctuations);
    for w in &report.windows {
        let _ = writeln!(
            out,
            "window t={:?}: served={} missed={}",
            w.t_secs, w.served, w.missed
        );
    }
    for p in &report.trace {
        let _ = writeln!(
            out,
            "trace t={:?}: mode={} target_mpl={:?}",
            p.at.as_secs_f64(),
            p.mode,
            p.target_mpl
        );
    }
    let _ = writeln!(out, "miss_ci_half_width: {:?}", report.miss_ci_half_width);
    let _ = writeln!(out, "sim_secs: {:?}", report.sim_secs);
    out
}

/// Run one `pmm::*_allocate_into` division against a fresh
/// `AllocScratch` and return its grants.
pub fn fresh_grants(divide: impl FnOnce(&mut AllocScratch, &mut Grants)) -> Grants {
    let mut out = Grants::new();
    divide(&mut AllocScratch::default(), &mut out);
    out
}

/// 64-bit FNV-1a over `bytes`: a stable digest for pinning long artifacts
/// (full event traces) in a one-line golden entry.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare `actual` against the snapshot `golden/<file>`, or overwrite the
/// snapshot when `UPDATE_GOLDEN` is set.
pub fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden snapshot");
        eprintln!("golden snapshot updated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "output deviates from the golden snapshot {} — the simulation moved \
         an event. If the change is intentional, re-bless with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}
