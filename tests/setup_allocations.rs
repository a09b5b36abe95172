//! Allocation budgets for building and reporting a 10³-tenant simulator.
//!
//! Building one `SimConfig::scale(1000)` replication used to cost thousands
//! of heap allocations: a formatted name per random sub-stream, a boxed
//! arrival process per class and copies of every class and tenant name.
//! These budgets keep construction at one allocation per name and O(1)
//! others, however many tenants there are. A counting global allocator
//! tallies allocator calls (`alloc`, `alloc_zeroed` and `realloc`) made on
//! the calling thread, so tests running in parallel do not disturb each
//! other's counts.

// A `GlobalAlloc` implementation is `unsafe` by signature; this one only
// forwards to the system allocator.
#![allow(unsafe_code)]

use pmm_core::prelude::*;
use pmm_core::rtdbs::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so a call during thread teardown is not a panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// non-allocating thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees pass on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocator calls it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The two tenant policies the `tenants-1000` benchmark runs.
const POLICIES: [&str; 2] = ["Partitioned-soft", "PMM-tenant"];

#[test]
fn scale_config_costs_at_most_two_allocations_per_tenant() {
    for n in [10, 100, 1000] {
        let (cfg, calls) = counted(|| SimConfig::scale(n));
        assert_eq!(cfg.tenants.len(), n);
        // One class name and one tenant name per tenant; the rest (the
        // baseline's database and class, the pre-sized lists) is constant.
        let budget = 2 * n as u64 + 16;
        assert!(
            calls <= budget,
            "SimConfig::scale({n}) made {calls} allocations, budget {budget}"
        );
    }
}

#[test]
fn simulator_new_allocations_do_not_grow_with_tenants() {
    for policy in POLICIES {
        for metrics in [false, true] {
            let new_calls = |n: usize| {
                let mut cfg = SimConfig::scale(n);
                cfg.obs.metrics = metrics;
                let policy = bench::make_policy_for(&cfg, policy);
                counted(|| Simulator::new(cfg, policy)).1
            };
            let (small, large) = (new_calls(10), new_calls(1000));
            assert!(
                large <= small + 8,
                "{policy} (metrics {metrics}): Simulator::new made {large} \
                 allocations at 1000 tenants, {small} at 10"
            );
        }
    }
}

#[test]
fn finish_report_moves_names_instead_of_cloning_them() {
    // A run this short dispatches no arrival, so nearly all of `run` is
    // `finish_report`. Cloning the class and tenant names would cost 2,000
    // allocations at 1000 tenants.
    let run_calls = |n: usize| {
        let mut cfg = SimConfig::scale(n);
        cfg.duration_secs = 1e-6;
        let policy = bench::make_policy_for(&cfg, POLICIES[0]);
        let sim = Simulator::new(cfg, policy);
        counted(|| sim.run())
    };
    let (_, small) = run_calls(10);
    let (report, large) = run_calls(1000);
    assert!(
        large <= small + 8,
        "run() made {large} allocations at 1000 tenants, {small} at 10"
    );
    assert_eq!(report.classes[999].name, "T999");
    assert_eq!(report.tenants[999].name, "t999");
    assert_eq!(report.served, 0, "the run must serve nothing");
}
