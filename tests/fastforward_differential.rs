//! Differential pin against the retired fast-forward path.
//!
//! The engine used to drive operators two ways: a batched run protocol with
//! closed-form descriptor planning (`SimConfig::fastforward = true`, then
//! the default) and single-stepping, one state-machine step per action.
//! This harness held the two *bit-identical* — every simulated event at the
//! same tick with the same payload, every f64 accumulator walking the same
//! association order. The batched path is gone; single-stepping is the one
//! operator protocol.
//!
//! Before the batched path was deleted, every case below ran on it and
//! recorded two digests under `golden/fastforward_*.txt`: one of its full
//! obs trace (the `TraceKind::ALL` mask, rendered by `obs::write_text`) and one of
//! its serialized report. The single-step engine must reproduce both, so the
//! comparison still spans the two paths, now against the recording. The
//! cases cover the presets, arrival rates, seeds, policies, feedback batch
//! sizes (which move where allocation changes interrupt an operator) and
//! fault storms.
//!
//! Re-bless after an *intentional* behavior change:
//! `UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test fastforward_differential`

use integration_tests::{
    check_golden, fnv1a, rendered, serialize_report, short_baseline,
};
use pmm_core::prelude::*;
use std::fmt::Write as _;

/// Policy slots the randomized cases draw from: the three static
/// allocators, a limited MinMax (different grant shapes), and PMM
/// (feedback-driven reallocations at batch boundaries). The sixth slot held
/// the retired regime-aware PMM variant; it stays in the draw so every
/// other case keeps its recorded config, and the cases that draw it are
/// skipped.
const POLICIES: [Option<&str>; 6] = [
    Some("Max"),
    Some("MinMax"),
    Some("MinMax-16"),
    Some("Proportional"),
    Some("PMM"),
    None,
];

/// Run `cfg` under `policy` with a full trace and append its digest line.
fn record(out: &mut String, label: &str, mut cfg: SimConfig, policy: &str) {
    cfg.obs.trace = TraceKind::ALL;
    let policy = bench::make_policy_for(&cfg, policy);
    let report = run_simulation(cfg, policy);
    let trace = rendered(|w| pmm_core::obs::write_text(&report.obs_trace, w));
    let _ = writeln!(
        out,
        "{label}: records={} trace={:016x} report={:016x}",
        report.obs_trace.len(),
        fnv1a(trace.as_bytes()),
        fnv1a(serialize_report(&report).as_bytes())
    );
}

/// The baseline cell that the golden report pins.
#[test]
fn baseline_paths_agree() {
    let mut out = String::new();
    record(&mut out, "baseline/PMM", short_baseline(0.06, 600.0), "PMM");
    check_golden("fastforward_baseline.txt", &out);
}

/// Faulted run: degradation, outages, and memory shocks all interrupt
/// operators mid-stretch, which is where the batched path had to reconcile
/// an abandoned plan.
#[test]
fn faulted_paths_agree() {
    let mut cfg = short_baseline(0.06, 300.0);
    cfg.faults = FaultPlan::scaled(0.8);
    let mut out = String::new();
    record(&mut out, "faulted/MinMax", cfg, "MinMax");
    check_golden("fastforward_faulted.txt", &out);
}

/// SplitMix64: a fixed, self-contained case generator, so the recorded
/// case list never depends on another crate's random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Randomized cases: preset, rate, seed, policy, feedback batch size, and
/// an optional fault storm.
#[test]
fn fastforward_matches_reference() {
    let mut rng = SplitMix(1994);
    let mut out = String::new();
    for case in 0..10 {
        let preset = rng.below(5);
        let rate = rng.uniform(0.02, 0.12);
        let seed = rng.below(1_000_000);
        let policy = POLICIES[rng.below(POLICIES.len() as u64) as usize];
        let sample_size = 4 + rng.below(20) as u32;
        let fault_intensity = (rng.below(2) == 1).then(|| rng.uniform(0.2, 1.0));
        let Some(policy) = policy else {
            continue;
        };
        let secs = 240.0;
        let mut cfg = match preset {
            0 => SimConfig::baseline(rate),
            1 => SimConfig::disk_contention(rate),
            2 => SimConfig::sorts(rate),
            3 => SimConfig::multiclass(rate),
            _ => SimConfig::workload_changes(),
        };
        cfg.duration_secs = secs;
        cfg.window_secs = secs / 4.0;
        cfg.seed = seed;
        cfg.sample_size = sample_size;
        if let Some(intensity) = fault_intensity {
            cfg.faults = FaultPlan::scaled(intensity);
        }
        let label = format!(
            "case {case} preset={preset} rate={rate:.3} seed={seed} policy={policy} \
             sample_size={sample_size} faults={fault_intensity:?}"
        );
        record(&mut out, &label, cfg, policy);
    }
    check_golden("fastforward_randomized.txt", &out);
}
