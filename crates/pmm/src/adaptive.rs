//! The Priority Memory Management algorithm (Section 3).
//!
//! PMM adapts two decisions to the workload:
//!
//! * **The allocation strategy** — it starts in Max mode and switches to
//!   MinMax when a batch shows (1) missed deadlines, (2) CPU *and* disks
//!   below `UtilLow`, (3) statistically non-zero admission waiting time, and
//!   (4) execution times statistically below the time constraints (all four
//!   conditions of Section 3.2, the tests at `AdaptConfLevel`). It reverts
//!   to Max when the MinMax target MPL falls to or below the average MPL
//!   that Max mode realized.
//! * **The target MPL** (in MinMax mode) — by *miss-ratio projection*:
//!   a least-squares quadratic of miss ratio against MPL, classified into
//!   the four curve types of Section 3.1.1, backed by the *resource
//!   utilization heuristic* of Section 3.1.2 when the projection fails or
//!   lacks data.
//!
//! PMM also monitors three workload characteristics and restarts itself
//! (dropping all learned statistics) when any of them shifts significantly
//! at `ChangeConfLevel` (Section 3.3).

use crate::allocator::{max_allocate_into, minmax_allocate_into, AllocScratch, Grants};
use crate::policy::MemoryPolicy;
use crate::types::{BatchStats, StrategyMode, SystemSnapshot, TracePoint};
use simkit::metrics::Tally;
use stats::{
    mean_positive_test, means_differ_test, CurveShape, LinFit, QuadFit, SampleSummary,
};

/// PMM tuning knobs (Table 1).
#[derive(Clone, Copy, Debug)]
pub struct PmmParams {
    /// `SampleSize` — re-evaluation frequency in query completions. The
    /// simulator owns batching; this is kept here so reports can show it.
    pub sample_size: u32,
    /// Lower edge of the desirable bottleneck-utilization range.
    pub util_low: f64,
    /// Upper edge of the desirable bottleneck-utilization range.
    pub util_high: f64,
    /// Confidence level of the strategy-switch tests (conditions 3 and 4).
    pub adapt_conf_level: f64,
    /// Confidence level of the workload-change tests.
    pub change_conf_level: f64,
    /// Safety cap on the target MPL (the paper needs none because its
    /// workloads are bounded; we keep the guard for degenerate configs).
    pub mpl_cap: u32,
}

impl Default for PmmParams {
    fn default() -> Self {
        PmmParams {
            sample_size: 30,
            util_low: 0.70,
            util_high: 0.85,
            adapt_conf_level: 0.95,
            change_conf_level: 0.99,
            mpl_cap: 512,
        }
    }
}

/// The PMM policy.
pub struct Pmm {
    params: PmmParams,
    mode: StrategyMode,
    target_mpl: u32,
    /// Quadratic (MPL, miss-ratio) fit — the miss-ratio projection state.
    miss_fit: QuadFit,
    /// Linear (MPL, bottleneck-utilization) fit — the RU heuristic state.
    util_fit: LinFit,
    /// Realized MPL while in Max mode (for the revert-to-Max condition).
    max_mode_mpl: Tally,
    /// Previous batch's workload characteristics, for change detection.
    prev_chars: Option<[SampleSummary; 3]>,
    /// Evidence pooled across Max-mode batches for the switch tests
    /// (conditions 3 and 4 need large samples; one batch is only
    /// `SampleSize` observations).
    wait_evidence: SampleSummary,
    slack_evidence: SampleSummary,
    trace: Vec<TracePoint>,
    batches_seen: u64,
    restarts: u64,
}

impl Pmm {
    /// A fresh PMM instance in Max mode.
    pub fn new(params: PmmParams) -> Self {
        Pmm {
            params,
            mode: StrategyMode::Max,
            target_mpl: 1,
            miss_fit: QuadFit::new(),
            util_fit: LinFit::new(),
            max_mode_mpl: Tally::new(),
            prev_chars: None,
            wait_evidence: SampleSummary::default(),
            slack_evidence: SampleSummary::default(),
            trace: Vec::new(),
            batches_seen: 0,
            restarts: 0,
        }
    }

    /// With the Table 1 defaults.
    pub fn with_defaults() -> Self {
        Pmm::new(PmmParams::default())
    }

    /// The resource-utilization heuristic (Section 3.1.2):
    /// `MPL_new = (UtilLow + UtilHigh) / (2·Util_current) × MPL_current`,
    /// where `Util_current` comes from the least-squares utilization line
    /// evaluated at the current MPL (not just the latest reading).
    fn ru_heuristic(&self, current_mpl: f64, latest_util: f64) -> u32 {
        let util = self
            .util_fit
            .predict(current_mpl)
            .unwrap_or(latest_util)
            .max(0.02); // guard against division blow-up at idle
        let mid = (self.params.util_low + self.params.util_high) / 2.0;
        let new = mid / util * current_mpl;
        (new.round() as u32).clamp(1, self.params.mpl_cap)
    }

    /// Detect a workload change by comparing each monitored characteristic
    /// with its last observed value (Section 3.3).
    fn workload_changed(&self, stats: &BatchStats) -> bool {
        let Some(prev) = &self.prev_chars else {
            return false;
        };
        let current = [
            stats.char_max_mem,
            stats.char_operand_ios,
            stats.char_norm_constraint,
        ];
        prev.iter()
            .zip(&current)
            .any(|(p, c)| means_differ_test(*p, *c, self.params.change_conf_level))
    }

    /// Forget everything and re-adapt (the PMM restart of Section 3.3).
    fn restart(&mut self, stats: &BatchStats) {
        self.mode = StrategyMode::Max;
        self.target_mpl = 1;
        self.miss_fit.reset();
        self.util_fit.reset();
        self.max_mode_mpl.reset();
        self.wait_evidence.reset();
        self.slack_evidence.reset();
        self.batches_seen = 0;
        self.restarts += 1;
        self.trace.push(TracePoint {
            at: stats.now,
            mode: self.mode,
            target_mpl: None,
        });
    }

    /// The four switch-to-MinMax conditions of Section 3.2. Conditions 3
    /// and 4 are large-sample tests over the evidence pooled since the last
    /// restart, because a single batch (`SampleSize` = 30 queries, fewer of
    /// them completed) rarely reaches the large-sample threshold alone.
    fn should_switch_to_minmax(&self, stats: &BatchStats) -> bool {
        let missed = stats.missed > 0;
        let under_utilized = stats.cpu_util < self.params.util_low
            && stats.disk_util < self.params.util_low;
        let memory_contended =
            mean_positive_test(self.wait_evidence, self.params.adapt_conf_level);
        let slack_available =
            mean_positive_test(self.slack_evidence, self.params.adapt_conf_level);
        missed && under_utilized && memory_contended && slack_available
    }

    /// Miss-ratio projection (Section 3.1.1): fit, classify, choose.
    fn project_target(&mut self, stats: &BatchStats) -> u32 {
        let fallback = self.ru_heuristic(self.target_mpl as f64, stats.bottleneck_util());
        let Some(curve) = self.miss_fit.solve() else {
            return fallback;
        };
        let lo = self.miss_fit.min_x();
        let hi = self.miss_fit.max_x();
        match curve.classify(lo, hi) {
            CurveShape::Bowl => {
                let vertex = curve.vertex().unwrap_or(fallback as f64);
                (vertex.round() as u32).clamp(1, self.params.mpl_cap)
            }
            CurveShape::Decreasing => {
                // One above the largest attempted MPL, unless the RU
                // heuristic argues for even higher.
                let candidate = (hi.round() as u32).saturating_add(1);
                candidate.max(fallback).clamp(1, self.params.mpl_cap)
            }
            CurveShape::Increasing => {
                // One below the smallest attempted MPL, or lower if the RU
                // heuristic says so.
                let candidate = (lo.round() as u32).saturating_sub(1).max(1);
                candidate.min(fallback).max(1)
            }
            CurveShape::Hill => fallback,
        }
    }
}

impl MemoryPolicy for Pmm {
    fn name(&self) -> String {
        "PMM".into()
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        match self.mode {
            StrategyMode::Max => {
                max_allocate_into(&snapshot.queries, snapshot.total_memory, scratch, out);
            }
            StrategyMode::MinMax => minmax_allocate_into(
                &snapshot.queries,
                snapshot.total_memory,
                Some(self.target_mpl),
                scratch,
                out,
            ),
            StrategyMode::Proportional => unreachable!("PMM never uses Proportional"),
        }
    }

    fn on_batch(&mut self, stats: &BatchStats) {
        // 1. Workload change ⇒ restart (and skip learning from a batch that
        //    straddles the change).
        if self.workload_changed(stats) {
            self.prev_chars = Some([
                stats.char_max_mem,
                stats.char_operand_ios,
                stats.char_norm_constraint,
            ]);
            self.restart(stats);
            return;
        }
        self.prev_chars = Some([
            stats.char_max_mem,
            stats.char_operand_ios,
            stats.char_norm_constraint,
        ]);

        self.batches_seen += 1;

        // 2. Record the batch's observations.
        let batch_mpl = if self.mode == StrategyMode::MinMax {
            // The MPL whose consequences we observed: the setting in force.
            self.target_mpl as f64
        } else {
            stats.realized_mpl.max(1.0)
        };
        self.util_fit.add(batch_mpl, stats.bottleneck_util());

        match self.mode {
            StrategyMode::Max => {
                self.max_mode_mpl.record(stats.realized_mpl);
                self.wait_evidence.merge(&stats.wait_time);
                self.slack_evidence.merge(&stats.slack_surplus);
                if self.should_switch_to_minmax(stats) {
                    self.mode = StrategyMode::MinMax;
                    // Initial target from the RU heuristic (the projection
                    // has no MinMax observations yet).
                    self.target_mpl = self
                        .ru_heuristic(
                            stats.realized_mpl.max(1.0),
                            stats.bottleneck_util(),
                        )
                        .max(2);
                    self.trace.push(TracePoint {
                        at: stats.now,
                        mode: self.mode,
                        target_mpl: Some(self.target_mpl),
                    });
                }
            }
            StrategyMode::MinMax => {
                // Only MinMax-mode batches inform the miss-ratio projection:
                // Max mode has no MPL setting to correlate with.
                self.miss_fit.add(batch_mpl, stats.miss_ratio());
                let new_target = self.project_target(stats);
                // Revert to Max when MinMax buys no extra concurrency
                // (Section 3.2's feedback check).
                let max_mpl = self.max_mode_mpl.mean();
                if self.max_mode_mpl.count() > 0 && (new_target as f64) <= max_mpl {
                    self.mode = StrategyMode::Max;
                    self.trace.push(TracePoint {
                        at: stats.now,
                        mode: self.mode,
                        target_mpl: None,
                    });
                } else if new_target != self.target_mpl {
                    self.target_mpl = new_target;
                    self.trace.push(TracePoint {
                        at: stats.now,
                        mode: self.mode,
                        target_mpl: Some(self.target_mpl),
                    });
                }
            }
            StrategyMode::Proportional => unreachable!(),
        }
    }

    fn target_mpl(&self) -> Option<u32> {
        (self.mode == StrategyMode::MinMax).then_some(self.target_mpl)
    }

    fn mode(&self) -> StrategyMode {
        self.mode
    }

    fn trace(&self) -> &[TracePoint] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{QueryDemand, QueryId};
    use simkit::SimTime;

    fn summary(mean: f64, var: f64, n: u64) -> SampleSummary {
        SampleSummary::new(mean, var, n)
    }

    /// A batch typical of the memory-bottlenecked baseline in Max mode:
    /// misses, idle resources, real waiting, plenty of slack.
    fn max_mode_struggle(now_s: u64) -> BatchStats {
        BatchStats {
            now: SimTime::from_secs(now_s),
            served: 30,
            missed: 8,
            realized_mpl: 1.8,
            cpu_util: 0.15,
            disk_util: 0.25,
            wait_time: summary(40.0, 100.0, 30),
            slack_surplus: summary(120.0, 400.0, 30),
            char_max_mem: summary(1321.0, 10_000.0, 30),
            char_operand_ios: summary(1200.0, 10_000.0, 30),
            char_norm_constraint: summary(0.2, 0.001, 30),
        }
    }

    fn minmax_batch(now_s: u64, mpl_effect: f64) -> BatchStats {
        BatchStats {
            now: SimTime::from_secs(now_s),
            served: 30,
            missed: (mpl_effect * 30.0) as u64,
            realized_mpl: 10.0,
            cpu_util: 0.3,
            disk_util: 0.45,
            wait_time: summary(2.0, 4.0, 30),
            slack_surplus: summary(100.0, 400.0, 30),
            char_max_mem: summary(1321.0, 10_000.0, 30),
            char_operand_ios: summary(1200.0, 10_000.0, 30),
            char_norm_constraint: summary(0.2, 0.001, 30),
        }
    }

    #[test]
    fn starts_in_max_mode() {
        let pmm = Pmm::with_defaults();
        assert_eq!(pmm.mode(), StrategyMode::Max);
        assert_eq!(pmm.target_mpl(), None);
    }

    #[test]
    fn switches_to_minmax_when_all_conditions_hold() {
        let mut pmm = Pmm::with_defaults();
        pmm.on_batch(&max_mode_struggle(100));
        assert_eq!(pmm.mode(), StrategyMode::MinMax);
        let target = pmm.target_mpl().unwrap();
        // RU heuristic from MPL 1.8 at util 0.25: 0.775/0.5 × 1.8 ≈ 3,
        // well above the Max-mode MPL.
        assert!(target >= 2, "target {target}");
        assert_eq!(pmm.trace().len(), 1);
    }

    #[test]
    fn does_not_switch_without_misses() {
        let mut pmm = Pmm::with_defaults();
        let mut b = max_mode_struggle(100);
        b.missed = 0;
        pmm.on_batch(&b);
        assert_eq!(pmm.mode(), StrategyMode::Max);
    }

    #[test]
    fn does_not_switch_when_resources_busy() {
        // High disk utilization means the bottleneck is the disk, not
        // memory: switching to MinMax would only cause thrashing.
        let mut pmm = Pmm::with_defaults();
        let mut b = max_mode_struggle(100);
        b.disk_util = 0.8;
        pmm.on_batch(&b);
        assert_eq!(pmm.mode(), StrategyMode::Max);
    }

    #[test]
    fn does_not_switch_without_waiting_evidence() {
        let mut pmm = Pmm::with_defaults();
        let mut b = max_mode_struggle(100);
        b.wait_time = summary(0.0, 1.0, 30);
        pmm.on_batch(&b);
        assert_eq!(pmm.mode(), StrategyMode::Max);
    }

    #[test]
    fn does_not_switch_when_constraints_already_tight() {
        let mut pmm = Pmm::with_defaults();
        let mut b = max_mode_struggle(100);
        b.slack_surplus = summary(-5.0, 25.0, 30); // exec times exceed constraints
        pmm.on_batch(&b);
        assert_eq!(pmm.mode(), StrategyMode::Max);
    }

    #[test]
    fn projection_converges_to_bowl_minimum() {
        // Feed PMM a synthetic concave miss-ratio curve with minimum at
        // MPL 10 and watch the target approach it.
        let mut pmm = Pmm::with_defaults();
        pmm.on_batch(&max_mode_struggle(0));
        assert_eq!(pmm.mode(), StrategyMode::MinMax);
        let curve = |mpl: f64| 0.10 + 0.002 * (mpl - 10.0) * (mpl - 10.0);
        for i in 0..20 {
            let mpl = pmm.target_mpl().unwrap() as f64;
            let mut b = minmax_batch(100 + i, 0.0);
            b.realized_mpl = mpl;
            b.missed = (curve(mpl) * 30.0).round() as u64;
            pmm.on_batch(&b);
            if pmm.mode() != StrategyMode::MinMax {
                panic!("reverted unexpectedly at iteration {i}");
            }
        }
        let final_target = pmm.target_mpl().unwrap();
        assert!(
            (7..=13).contains(&final_target),
            "target {final_target} should approach the optimum 10"
        );
    }

    #[test]
    fn reverts_to_max_when_target_collapses() {
        let mut pmm = Pmm::with_defaults();
        // Establish Max-mode average MPL ≈ 1.8 but prevent switching yet.
        let mut quiet = max_mode_struggle(0);
        quiet.missed = 0;
        pmm.on_batch(&quiet);
        pmm.on_batch(&max_mode_struggle(1));
        assert_eq!(pmm.mode(), StrategyMode::MinMax);
        // Now feed batches where higher MPL means more misses: the
        // projection pushes the target down to the Max-mode level.
        for i in 0..30 {
            let mpl = pmm.target_mpl().unwrap_or(1) as f64;
            let mut b = minmax_batch(10 + i, 0.0);
            b.realized_mpl = mpl;
            // Steep increasing curve: misses grow with MPL.
            b.missed = ((0.05 * mpl).min(0.9) * 30.0).round() as u64;
            pmm.on_batch(&b);
            if pmm.mode() == StrategyMode::Max {
                return; // reverted as expected
            }
        }
        panic!("PMM never reverted to Max");
    }

    #[test]
    fn workload_change_restarts_pmm() {
        let mut pmm = Pmm::with_defaults();
        pmm.on_batch(&max_mode_struggle(0));
        assert_eq!(pmm.mode(), StrategyMode::MinMax);
        pmm.on_batch(&minmax_batch(10, 0.1));
        assert!(pmm.batches_seen >= 2);
        // The Small class arrives: max-mem demand drops 1321 → 111.
        let mut changed = minmax_batch(20, 0.1);
        changed.char_max_mem = summary(111.0, 100.0, 30);
        changed.char_operand_ios = summary(100.0, 64.0, 30);
        pmm.on_batch(&changed);
        assert_eq!(pmm.mode(), StrategyMode::Max, "restart returns to Max");
        assert_eq!(pmm.restarts, 1);
        assert_eq!(pmm.batches_seen, 0);
    }

    #[test]
    fn small_fluctuations_do_not_restart() {
        let mut pmm = Pmm::with_defaults();
        pmm.on_batch(&max_mode_struggle(0));
        let mut b = minmax_batch(10, 0.1);
        // 2% wiggle in the demand, large variance: not significant at 99%.
        b.char_max_mem = summary(1350.0, 200_000.0, 30);
        pmm.on_batch(&b);
        assert_eq!(pmm.restarts, 0);
    }

    #[test]
    fn allocation_respects_mode() {
        let mut pmm = Pmm::with_defaults();
        let snap = SystemSnapshot {
            now: SimTime::ZERO,
            total_memory: 2560,
            queries: (0..10)
                .map(|i| QueryDemand {
                    id: QueryId(i),
                    deadline: SimTime(100 + i),
                    min_mem: 37,
                    max_mem: 1321,
                    tenant: 0,
                })
                .collect(),
        };
        // Max mode: a single query fits.
        assert_eq!(pmm.allocate(&snap).len(), 1);
        // After switching: target-MPL many queries.
        pmm.on_batch(&max_mode_struggle(0));
        let grants = pmm.allocate(&snap);
        let target = pmm.target_mpl().unwrap() as usize;
        assert_eq!(grants.len(), target.min(10));
    }

    #[test]
    fn ru_heuristic_centers_utilization() {
        let pmm = Pmm::with_defaults();
        // util 0.31 at MPL 10 → 0.775/0.62 ≈ 1.25 → target 25 at mpl 20...
        let t = pmm.ru_heuristic(10.0, 0.31);
        assert_eq!(t, 25);
        // Saturated resource → cut the MPL.
        let t = pmm.ru_heuristic(10.0, 0.97);
        assert!(t < 10, "target {t}");
    }

    #[test]
    fn trace_records_decisions() {
        let mut pmm = Pmm::with_defaults();
        pmm.on_batch(&max_mode_struggle(0));
        pmm.on_batch(&minmax_batch(10, 0.2));
        assert!(!pmm.trace().is_empty());
        assert_eq!(pmm.trace()[0].mode, StrategyMode::MinMax);
    }
}
