//! The timing wrapper must be invisible to the engine: every (workload,
//! policy) pair answers the engine's capability queries as the bare policy
//! does, so the engine takes the same allocation and feedback paths, and
//! gives a bit-identical `RunReport` with and without the wrapper.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::cell::RefCell;
use std::rc::Rc;

use perfbench::{rep_spans, SpanLog, Timed, WORKLOADS};
use pmm_core::prelude::*;
use pmm_core::rtdbs::Simulator;

/// A short replication of `policy` on the workload's config, optionally
/// wrapped; returns the report's debug form and the log.
fn run(cfg: &SimConfig, policy: &str, wrap: bool) -> (String, SpanLog) {
    let log = Rc::new(RefCell::new(SpanLog::new()));
    let mut p = bench::make_policy_for(cfg, policy);
    if wrap {
        p = Box::new(Timed::new(p, Rc::clone(&log), 0));
    }
    let start = log.borrow().now_ns();
    let report = Simulator::new(cfg.clone(), p).run();
    let end = log.borrow().now_ns();
    log.borrow_mut().record(0, "run", start, end);
    let log = Rc::try_unwrap(log)
        .ok()
        .expect("the simulator dropped its wrapper")
        .into_inner();
    (format!("{report:?}"), log)
}

/// Everything the engine asks a policy besides the allocation and feedback
/// calls themselves. The dirty-set path gives the same grants as the
/// snapshot path, so only these answers show that a wrapper forwards it.
fn capabilities(p: &dyn MemoryPolicy) -> String {
    format!(
        "{} dirty={} tenant_feedback={} target_mpl={:?} mode={:?} trace={:?}",
        p.name(),
        p.supports_dirty_allocation(),
        p.wants_tenant_feedback(),
        p.target_mpl(),
        p.mode(),
        p.trace()
    )
}

#[test]
fn wrapper_leaves_every_report_bit_identical() {
    for w in &WORKLOADS {
        let mut cfg = w.config(bench::driver::replication_seed(1994, 0));
        // Long enough for feedback batches and, under PMM, a decision.
        cfg.duration_secs = cfg.duration_secs.min(3_000.0);
        for &policy in w.policies {
            let bare = bench::make_policy_for(&cfg, policy);
            let log = Rc::new(RefCell::new(SpanLog::new()));
            let timed = Timed::new(bench::make_policy_for(&cfg, policy), log, 0);
            assert_eq!(capabilities(bare.as_ref()), capabilities(&timed));
            let (plain, _) = run(&cfg, policy, false);
            let (wrapped, log) = run(&cfg, policy, true);
            assert_eq!(
                plain, wrapped,
                "{} / {policy}: wrapper changed the report",
                w.name
            );
            let spans = rep_spans(&log.spans, 0).expect("pmm spans nest inside run");
            assert!(
                spans.alloc_calls > 0,
                "{} / {policy}: no allocation spans",
                w.name
            );
            assert!(
                spans.feedback_calls > 0,
                "{} / {policy}: no feedback spans",
                w.name
            );
            assert_eq!(
                spans.self_ns + spans.alloc_ns + spans.feedback_ns,
                spans.run_ns
            );
        }
    }
}

#[test]
fn overlapping_or_escaping_child_spans_are_rejected() {
    let mut log = SpanLog::new();
    log.record(7, "pmm.allocate", 10, 20);
    log.record(7, "pmm.feedback", 15, 25);
    log.record(7, "run", 0, 100);
    assert!(rep_spans(&log.spans, 7).is_err(), "overlapping siblings");

    let mut log = SpanLog::new();
    log.record(7, "pmm.allocate", 90, 120);
    log.record(7, "run", 0, 100);
    assert!(rep_spans(&log.spans, 7).is_err(), "child outlives run");

    let mut log = SpanLog::new();
    log.record(7, "pmm.allocate", 10, 20);
    log.record(7, "pmm.feedback", 30, 35);
    log.record(7, "run", 0, 100);
    log.record(8, "run", 0, 50);
    let s = rep_spans(&log.spans, 7).expect("well nested");
    assert_eq!((s.alloc_ns, s.feedback_ns, s.self_ns), (10, 5, 85));
}
