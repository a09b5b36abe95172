//! End-to-end behaviour of the full simulator: the paper's qualitative
//! claims on small-but-real runs.

use integration_tests::short_baseline;
use pmm_core::prelude::*;

#[test]
fn baseline_ordering_minmax_beats_max_under_load() {
    // Section 5.1's headline: with memory as the bottleneck, MinMax's
    // liberal admission beats Max's conservative one.
    let max = run_simulation(short_baseline(0.06, 3_000.0), Box::new(MaxPolicy));
    let minmax = run_simulation(
        short_baseline(0.06, 3_000.0),
        Box::new(pmm_core::pmm::MinMaxPolicy::unlimited()),
    );
    assert!(
        minmax.miss_pct() < max.miss_pct(),
        "MinMax {:.1}% must beat Max {:.1}%",
        minmax.miss_pct(),
        max.miss_pct()
    );
    // And it does so by admitting more queries, not by luck.
    assert!(minmax.avg_mpl > 1.5 * max.avg_mpl);
    // Max's admission queue shows up as waiting time; MinMax's does not.
    assert!(max.timings.waiting > 10.0 * minmax.timings.waiting.max(0.1));
}

#[test]
fn proportional_is_worse_than_minmax() {
    // Corn89/Yu93's result, reproduced in Figure 3: same admission, worse
    // memory division.
    let minmax = run_simulation(
        short_baseline(0.06, 3_000.0),
        Box::new(pmm_core::pmm::MinMaxPolicy::unlimited()),
    );
    let prop = run_simulation(
        short_baseline(0.06, 3_000.0),
        Box::new(ProportionalPolicy::unlimited()),
    );
    // On short horizons the miss ratios can tie; Proportional must never
    // come out ahead (VALIDATION.md's fig3 sweep shows the full gap).
    assert!(
        prop.miss_pct() >= minmax.miss_pct(),
        "Proportional {:.1}% vs MinMax {:.1}%",
        prop.miss_pct(),
        minmax.miss_pct()
    );
    assert!(
        prop.timings.execution > minmax.timings.execution,
        "equal shares inflate execution times"
    );
    // Proportional redistributes on every arrival/departure: far more
    // allocation churn per query (Figure 7).
    assert!(prop.avg_fluctuations > 2.0 * minmax.avg_fluctuations);
}

#[test]
fn disk_contention_flips_the_ordering() {
    // Section 5.2: with 6 disks, MinMax's unrestrained admission thrashes
    // the disks; an MPL-limited MinMax-N does better.
    let mut unrestrained = SimConfig::disk_contention(0.06);
    unrestrained.duration_secs = 3_000.0;
    let minmax = run_simulation(
        unrestrained,
        Box::new(pmm_core::pmm::MinMaxPolicy::unlimited()),
    );
    let mut limited = SimConfig::disk_contention(0.06);
    limited.duration_secs = 3_000.0;
    let minmax_n = run_simulation(
        limited,
        Box::new(pmm_core::pmm::MinMaxPolicy::with_limit(2)),
    );
    assert!(
        minmax_n.miss_pct() < minmax.miss_pct(),
        "bounded MPL {:.1}% must beat unbounded {:.1}% under disk contention",
        minmax_n.miss_pct(),
        minmax.miss_pct()
    );
    assert!(
        minmax.disk_util > minmax_n.disk_util,
        "thrashing shows in disk util"
    );
}

#[test]
fn sort_workload_properties() {
    // Section 5.5 context: sorts place a much lighter disk load per page of
    // memory demand than joins. Our model reproduces that resource profile
    // (the Figure 16 ordering is discussed in VALIDATION.md): MinMax
    // admits far more sorts than Max, and Max queues them instead.
    let mut sort_cfg = SimConfig::sorts(0.20);
    sort_cfg.duration_secs = 3_000.0;
    let max = run_simulation(sort_cfg.clone(), Box::new(MaxPolicy));
    let minmax =
        run_simulation(sort_cfg, Box::new(pmm_core::pmm::MinMaxPolicy::unlimited()));
    assert!(
        minmax.avg_mpl > 2.0 * max.avg_mpl,
        "MinMax admits more sorts"
    );
    assert!(
        max.timings.waiting > minmax.timings.waiting,
        "Max queues sorts"
    );
    // Sorts at reduced allocations do strictly more I/O.
    assert!(minmax.disk_util > max.disk_util);
}

#[test]
fn report_invariants_hold() {
    let r = run_simulation(
        short_baseline(0.05, 2_000.0),
        Box::new(Pmm::with_defaults()),
    );
    assert!(r.missed <= r.served);
    assert!((0.0..=1.0).contains(&r.cpu_util));
    assert!((0.0..=1.0).contains(&r.disk_util));
    assert!(r.avg_mpl >= 0.0);
    let class_served: u64 = r.classes.iter().map(|c| c.served).sum();
    assert_eq!(class_served, r.served);
    let window_served: u64 = r.windows.iter().map(|w| w.served).sum();
    assert_eq!(window_served, r.served);
    assert!(r.timings.response >= r.timings.execution);
}
