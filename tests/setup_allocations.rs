//! Allocation budgets for building, running and reporting a 10³-tenant
//! simulator.
//!
//! Building one `SimConfig::scale(1000)` replication used to cost thousands
//! of heap allocations: a formatted name per random sub-stream, a boxed
//! arrival process per class and copies of every class and tenant name.
//! These budgets keep construction at one allocation per name and O(1)
//! others, however many tenants there are. The byte budgets keep the heap a
//! run holds proportional to its live work: a PMM controller only for a
//! tenant that closed a feedback batch, demand and grant buffers only for
//! partitions with live demand, and one seek table per disk farm. A
//! counting global allocator tallies allocator calls (`alloc`,
//! `alloc_zeroed` and `realloc`) and the bytes they hold on the calling
//! thread, so tests running in parallel do not disturb each other's counts.

// A `GlobalAlloc` implementation is `unsafe` by signature; this one only
// forwards to the system allocator.
#![allow(unsafe_code)]

use pmm_core::pmm::{DirtySet, Grants};
use pmm_core::prelude::*;
use pmm_core::rtdbs::Simulator;
use pmm_core::storage::{Access, DiskFarm, FileId, IoKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static HELD: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `HELD` since the last [`peak_of`] reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocator call that changes the bytes held by `delta`.
fn bump(delta: i64) {
    // `try_with` so a call during thread teardown is not a panic.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    hold(delta);
}

fn hold(delta: i64) {
    let _ = HELD.try_with(|h| {
        let held = h.get() + delta;
        h.set(held);
        let _ = PEAK.try_with(|p| p.set(p.get().max(held)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// non-allocating thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees pass on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
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

/// `f`'s result and the bytes that stay held on this thread when it
/// returns (what the result keeps, less what `f` freed).
fn held_by<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = HELD.with(Cell::get);
    let out = f();
    (out, HELD.with(Cell::get) - before)
}

/// `f`'s result and the most bytes held on this thread at any point while
/// it ran, above what was held when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = HELD.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
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

#[test]
fn pmm_tenant_holds_no_controller_for_a_tenant_without_a_batch() {
    // Before a run no tenant has closed a feedback batch, so none needs
    // its own PMM controller yet: the adaptive policy must cost what the
    // static one does.
    let held = |name: &str| {
        let cfg = SimConfig::scale(1000);
        held_by(|| {
            let policy = bench::make_policy_for(&cfg, name);
            Simulator::new(cfg, policy)
        })
        .1
    };
    let (soft, adaptive) = (held(POLICIES[0]), held(POLICIES[1]));
    assert!(
        adaptive <= soft + 1024,
        "at 1000 tenants PMM-tenant's policy and simulator hold {adaptive} \
         bytes, Partitioned-soft's {soft}"
    );
}

#[test]
fn an_all_hard_table_builds_no_borrow_back_cache() {
    // Hard partitions never borrow idle pages, so the first allocation of
    // an all-hard table builds only the quota pass: per partition a budget,
    // an empty grant buffer, its pages in use and its tree marks, about 40
    // bytes. A borrow-back cache per partition would add 56 more.
    let first_allocation = |n: usize| {
        let mut cfg = SimConfig::scale(n);
        for t in &mut cfg.tenants {
            t.soft = false;
        }
        let mut policy = bench::make_policy_for(&cfg, "Partitioned");
        let groups = vec![Vec::new(); n];
        let mut dirty = DirtySet::new(n);
        let mut out = Grants::new();
        let memory = cfg.resources.memory_pages;
        held_by(|| policy.allocate_dirty_into(memory, &groups, &mut dirty, &mut out)).1
    };
    let (small, large) = (first_allocation(10), first_allocation(1000));
    let per_partition = (large - small) / 990;
    assert!(
        per_partition <= 48,
        "an all-hard table holds {per_partition} bytes a partition \
         ({small} at 10 partitions, {large} at 1000)"
    );
}

#[test]
fn a_cylinder_farm_holds_one_seek_table() {
    // Bytes that each disk's first media read adds to a built farm of `n`
    // disks with one request queued per disk. The reads skip prefetch, so
    // the cache stays untouched and what they add is the service memo.
    let first_reads = |n: u32| {
        let mut farm = DiskFarm::new(n, DiskGeometry::default(), 6);
        for d in 0..n as usize {
            let access = Access {
                owner: 0,
                file: FileId::Relation(d as u32),
                first_page: 0,
                pages: 6,
                kind: IoKind::Read,
                prefetch: false,
                cylinder: 700,
            };
            farm.disk_mut(d).enqueue(SimTime::ZERO, access);
        }
        held_by(|| {
            for d in 0..n as usize {
                assert!(farm.start(d).is_some());
            }
        })
        .1
    };
    let (one, six) = (first_reads(1), first_reads(6));
    let table = 8 * DiskGeometry::default().num_cylinders as i64;
    assert!(
        one >= table,
        "a one-disk farm fills a seek table: {one} bytes"
    );
    assert!(
        six <= one + 512,
        "a 6-disk farm's service memo holds {six} bytes, a 1-disk farm's {one}"
    );
}

#[test]
fn a_run_holds_buffers_for_live_queries_not_for_tenants() {
    // The snapshot arm of a policy re-divides from scratch, so it holds
    // what the live queries need and no cache; the incremental arm holds
    // its per-partition tables besides. Both arms make bit-identical
    // grants, so everything else (queries, calendar, report) is equal, and
    // the difference between their peaks is the incremental machinery.
    // After 5 s about a hundred tenants have seen a query, after 120 s
    // about 900, while ≈45 queries are live at any time: demand groups and
    // grant caches kept per touched tenant would widen the gap by ≈200
    // bytes a tenant.
    for name in POLICIES {
        let extra = |secs: f64| {
            let peak = |snapshot: bool| {
                let mut cfg = SimConfig::scale(1000);
                cfg.duration_secs = secs;
                cfg.seed = 7;
                let mut policy = bench::make_policy_for(&cfg, name);
                if snapshot {
                    policy = Box::new(SnapshotOnly::new(policy));
                }
                let sim = Simulator::new(cfg, policy);
                peak_of(|| sim.run())
            };
            let (report, inc) = peak(false);
            let (_, snap) = peak(true);
            (report.served, inc - snap)
        };
        let (few, early) = extra(5.0);
        let (many, late) = extra(120.0);
        assert!(many > 20 * few, "{name}: served {few}, then {many}");
        assert!(
            late <= early + 4096,
            "{name}: the incremental arm holds {early} bytes more than the \
             snapshot arm after {few} queries, {late} after {many}"
        );
    }
}

#[test]
fn run_allocator_calls_follow_queries_not_partitions() {
    // About one allocator call per query served, plus a constant: emptied demand and grant buffers are reused, not freed
    // and reallocated. Keeping one buffer per touched tenant cost ≈3 000
    // calls more at 300 s (9 294 for 5 928 queries).
    for name in POLICIES {
        let mut cfg = SimConfig::scale(1000);
        cfg.duration_secs = 300.0;
        cfg.seed = 7;
        let policy = bench::make_policy_for(&cfg, name);
        let sim = Simulator::new(cfg, policy);
        let (report, calls) = counted(|| sim.run());
        let budget = report.served + 1024;
        assert!(
            calls <= budget,
            "{name}: run() made {calls} allocator calls for {} queries, \
             budget {budget}",
            report.served
        );
    }
}
