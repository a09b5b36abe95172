//! Hot-path micro-benchmarks: the substrates the event loop spends its
//! time in — the calendar (push/pop/cancel), the memory-division
//! allocators behind `reallocate()`, the per-disk ED+elevator queue and
//! prefetch pool, and operator stepping at paper-scale relation sizes —
//! plus the set-up cost of a 10³-tenant simulator.
//!
//! These track the repo's perf trajectory: run
//! `cargo bench -p bench --bench hotpath_micro` before and after touching
//! the event loop, and keep `BENCH_perf.json` (the driver's sim-s/wall-s
//! reading) moving in the same direction.

use criterion::{criterion_group, criterion_main, Criterion};
use pmm_core::exec::{Action, ExecConfig, ExternalSort, HashJoin, Operator};
use pmm_core::obs::{MetricsRegistry, TraceEvent, TraceKind, Tracer};
use pmm_core::pmm::{
    minmax_allocate_into, partitioned_allocate_with_into, AllocScratch, DirtySet, Grants,
    IncrementalPartitioned, PartitionScratch, PartitionSpec, PartitionStrategy,
    QueryDemand, QueryId,
};
use pmm_core::rtdbs::{SimConfig, Simulator};
use pmm_core::simkit::metrics::{TimeWeighted, TimeWeightedN, TimeWeightedRows};
use pmm_core::simkit::{Calendar, Duration, SimTime};
use pmm_core::storage::{BufferPool, DiskQueue, FileId, QueuedRequest};
use std::hint::black_box;

/// Deterministic pseudo-random stream (SplitMix64) for bench inputs.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn demands(n: u64) -> Vec<QueryDemand> {
    (0..n)
        .map(|i| QueryDemand {
            id: QueryId(i),
            deadline: SimTime(1_000_000 + mix(i) % 10_000_000),
            min_mem: 37,
            max_mem: 200 + (mix(i ^ 0xABCD) % 1200) as u32,
            tenant: 0,
        })
        .collect()
}

/// Per-tenant demand groups for the scale-out reallocation cells: `n`
/// tenants of `per` queries each, every query billed to its group.
fn tenant_groups(n: usize, per: usize) -> Vec<Vec<QueryDemand>> {
    (0..n)
        .map(|g| {
            (0..per)
                .map(|i| {
                    let k = (g * per + i) as u64;
                    QueryDemand {
                        id: QueryId(k),
                        deadline: SimTime(1_000_000 + mix(k) % 10_000_000),
                        min_mem: 37,
                        max_mem: 64 + (mix(k ^ 0xBEEF) % 400) as u32,
                        tenant: g as u32,
                    }
                })
                .collect()
        })
        .collect()
}

/// One churn round: re-demand one query in each of `churn` pseudo-randomly
/// chosen tenants (≈1% of the population in the cells below), marking the
/// touched partitions when a dirty set rides along.
fn churn_round(
    groups: &mut [Vec<QueryDemand>],
    churn: usize,
    round: u64,
    mut dirty: Option<&mut DirtySet>,
) {
    for j in 0..churn {
        let g = (mix(round ^ ((j as u64) << 17)) as usize) % groups.len();
        if groups[g].is_empty() {
            continue;
        }
        let qi = (mix(round.wrapping_add(j as u64 * 7919)) as usize) % groups[g].len();
        let q = &mut groups[g][qi];
        q.max_mem = 64 + (mix(round ^ q.id.0) % 400) as u32;
        if let Some(d) = dirty.as_deref_mut() {
            d.mark(g);
        }
    }
}

/// Drive an operator to completion one `step()` at a time (the engine's
/// protocol), tallying the actions so nothing is optimized away.
fn drain_steps(op: &mut dyn Operator) -> u64 {
    let mut n = 0u64;
    let mut cpu = 0u64;
    loop {
        match op.step() {
            Action::Cpu(c) => cpu += c,
            Action::Finished => return n ^ cpu,
            Action::Parked => unreachable!("fixed allocation never parks"),
            _ => {}
        }
        n += 1;
    }
}

fn bench(c: &mut Criterion) {
    // Paper-workload calendar depth: per-disk completions plus one arrival
    // timer per class and one deadline per live query — a mean of 18
    // entries at each pop on `paper-joins`, a couple hundred at most.
    // (The 10³-tenant preset parks ~1,000 timers: `tenant_timers_1k`.)
    // Drain/refill many times so the timing is dominated by steady-state
    // churn.
    c.bench_function("calendar/push_pop_256", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            let mut n = 0u64;
            for round in 0..40u64 {
                for i in 0..256u64 {
                    let k = round * 256 + i;
                    cal.schedule(cal.now() + Duration(1 + mix(k) % 10_000), k);
                }
                while cal.pop().is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });

    // Stress depth (far beyond what the engine builds): keeps the asymptote
    // honest in the trajectory.
    c.bench_function("calendar/push_pop_10k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..10_000u64 {
                cal.schedule(SimTime(100_000 + mix(i) % 1_000_000), i);
            }
            let mut n = 0u64;
            while cal.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    c.bench_function("calendar/cancel_half_10k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            let handles: Vec<_> = (0..10_000u64)
                .map(|i| cal.schedule(SimTime(100_000 + mix(i) % 1_000_000), i))
                .collect();
            for h in handles.iter().step_by(2) {
                cal.cancel(*h);
            }
            let mut n = 0u64;
            while cal.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    // Epoch skip vs per-event heap traffic. The engine's inner loop is a
    // schedule-then-pop chain: each dispatched action schedules its
    // completion, which is the next event to fire. The one-element front
    // buffer turns that whole epoch into buffer swaps — the resident
    // deadline set below never sees a sift. `_front` is the chain shape
    // (pure fast path); `_heap` schedules a second, later event per round
    // so every other pop walks the heap — the per-event cost the front
    // buffer skips.
    c.bench_function("calendar/epoch_chain_front_10k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..256u64 {
                cal.schedule(SimTime(u64::MAX / 2 + i), i);
            }
            let mut n = 0u64;
            for k in 0..10_000u64 {
                cal.schedule(cal.now() + Duration(1 + mix(k) % 1_000), k);
                n += u64::from(cal.pop().is_some());
            }
            black_box(n)
        })
    });

    c.bench_function("calendar/epoch_chain_heap_10k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..256u64 {
                cal.schedule(SimTime(u64::MAX / 2 + i), i);
            }
            let mut n = 0u64;
            for k in 0..5_000u64 {
                let now = cal.now();
                let d = 1 + mix(k) % 1_000;
                cal.schedule(now + Duration(d), k);
                cal.schedule(now + Duration(d + 1), k);
                n += u64::from(cal.pop().is_some());
                n += u64::from(cal.pop().is_some());
            }
            black_box(n)
        })
    });

    // The engine's firm-deadline pattern: every query schedules a far-future
    // deadline event that is cancelled when the query completes first.
    c.bench_function("calendar/deadline_churn_10k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            let mut live = 0u64;
            for i in 0..10_000u64 {
                let now = cal.now();
                // Deadline far out; work lands first, then the deadline is
                // cancelled — so cancelled entries pile up in the calendar.
                let h = cal.schedule_timer(now + Duration::from_secs(100), i);
                cal.schedule(now + Duration(1 + mix(i) % 100), i);
                if cal.pop().is_some() {
                    live += 1;
                }
                cal.cancel(h);
            }
            while cal.pop().is_some() {
                live += 1;
            }
            black_box(live)
        })
    });

    // The `tenants-1000` shape: one arrival timer per tenant class parked
    // far ahead in the timer lane, while ~11 completions (disks + CPU)
    // cycle schedule → pop. With one heap every completion sifted
    // through all ~1,000 timers; with lanes it sifts through the dozen.
    c.bench_function("calendar/tenant_timers_1k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..1_000u64 {
                cal.schedule_timer(SimTime(u64::MAX / 2 + mix(i) % 1_000_000), i);
            }
            for i in 0..11u64 {
                cal.schedule(SimTime(1 + mix(i) % 1_000), i);
            }
            let mut n = 0u64;
            for k in 0..10_000u64 {
                let (now, e) = cal.pop().expect("completions in flight");
                n ^= e;
                cal.schedule(now + Duration(1 + mix(k) % 1_000), k);
            }
            black_box(n)
        })
    });

    // The `tenants-1000` per-tenant usage bookkeeping after a reallocation:
    // 1,000 tenants, 45 of them holding memory, 1-2 with changed counters
    // per call, 10,000 calls. `usage_walk_1k` is the walk over every
    // holding tenant's scattered state (three usage signals on one clock
    // plus the feedback batch's MPL); `usage_rows_1k` advances dense rows
    // on one shared clock and re-sets only the changed tenants.
    const TENANTS: usize = 1_000;
    const HOLDING: usize = 45;
    let holding: Vec<usize> = (0..HOLDING).map(|k| k * TENANTS / HOLDING).collect();
    let readings = |call: u64, k: usize| {
        let holders = 1 + mix(call ^ k as u64) % 4;
        let pages = (holders * 50 + mix(call ^ 0x5EED) % 50) as f64;
        [holders as f64, pages, (pages - 120.0).max(0.0)]
    };
    // Room for the rest of a tenant's state (name, outcome counters,
    // feedback tallies), so the walk touches one cache line per tenant.
    struct WalkTenant {
        usage: TimeWeightedN<3>,
        b_mpl: TimeWeighted,
        counters: [f64; 3],
        _rest: [u64; 40],
    }
    c.bench_function("tenants/usage_walk_1k", |b| {
        let mut tenants: Vec<WalkTenant> = (0..TENANTS)
            .map(|_| WalkTenant {
                usage: TimeWeightedN::new(SimTime::ZERO),
                b_mpl: TimeWeighted::new(SimTime::ZERO, 0.0),
                counters: [1.0, 50.0, 0.0],
                _rest: [0; 40],
            })
            .collect();
        let mut call = 0u64;
        b.iter(|| {
            for _ in 0..10_000 {
                call += 1;
                let now = SimTime(call * 1_000 + mix(call) % 1_000);
                for j in 0..1 + call % 2 {
                    let k = (mix(call ^ (j << 20)) % HOLDING as u64) as usize;
                    tenants[holding[k]].counters = readings(call, k);
                }
                for &ti in &holding {
                    let t = &mut tenants[ti];
                    t.usage.set(now, t.counters);
                    t.b_mpl.set(now, t.counters[0]);
                }
            }
            black_box(tenants[holding[0]].usage.current())
        })
    });
    c.bench_function("tenants/usage_rows_1k", |b| {
        let mut usage = TimeWeightedRows::<3>::new(SimTime::ZERO);
        let mut b_mpl = TimeWeightedRows::<1>::new(SimTime::ZERO);
        for _ in 0..HOLDING {
            usage.insert(TimeWeightedN::new(SimTime::ZERO), [1.0, 50.0, 0.0]);
            b_mpl.insert(TimeWeightedN::new(SimTime::ZERO), [1.0]);
        }
        let mut call = 0u64;
        b.iter(|| {
            for _ in 0..10_000 {
                call += 1;
                let now = SimTime(call * 1_000 + mix(call) % 1_000);
                usage.advance(now);
                b_mpl.advance(now);
                for j in 0..1 + call % 2 {
                    let k = (mix(call ^ (j << 20)) % HOLDING as u64) as usize;
                    let v = readings(call, k);
                    usage.set(k, v);
                    b_mpl.set(k, [v[0]]);
                }
            }
            black_box(usage.current(0))
        })
    });

    // Operator stepping at paper scale (Table 2 / Section 5.1 sizes):
    // the baseline join builds ‖R‖ = 1200 and probes ‖S‖ = 6000 pages; the
    // sort forms runs over 1200 pages with a 100-page workspace and merges
    // them, one `step()` per action as the engine drives them.
    let join_mid = || {
        let mut op = HashJoin::new(
            ExecConfig::default(),
            FileId::Relation(0),
            1200,
            FileId::Relation(1),
            6000,
        );
        // Mid allocation: both the in-memory and the spill/second-pass
        // paths are exercised, like a contended engine run.
        let alloc = (op.min_memory() + op.max_memory()) / 2;
        op.set_allocation(alloc);
        op
    };
    c.bench_function("opstep/join_build_probe_step_1200x6000", |b| {
        b.iter(|| black_box(drain_steps(&mut join_mid())))
    });

    let sort_two_pass = || {
        let mut op = ExternalSort::new(ExecConfig::default(), FileId::Relation(0), 1200);
        op.set_allocation(100); // ~198-page runs, single merge pass
        op
    };
    c.bench_function("opstep/sort_form_merge_step_1200_w100", |b| {
        b.iter(|| black_box(drain_steps(&mut sort_two_pass())))
    });

    // The engine's steady-state path: warm caller-owned scratch, no
    // allocation per call.
    c.bench_function("reallocate/minmax_into_64_warm", |b| {
        let queries = demands(64);
        let mut scratch = AllocScratch::default();
        let mut out = Grants::new();
        b.iter(|| {
            minmax_allocate_into(black_box(&queries), 2560, None, &mut scratch, &mut out);
            black_box(out.len())
        })
    });

    // Scale-out tenancy: incremental dirty-set reallocation vs the full
    // snapshot path at 10/100/1000 tenants under ~1% churn per feedback
    // event. The snapshot arm re-collects and re-divides every tenant every
    // round (the seed path: cost ∝ population); the incremental arm
    // re-divides only the dirtied partitions (cost ∝ churn). The
    // `snapshot_1000 / incremental_1000` ratio is the PR's headline number
    // — CI asserts it stays ≥ 5×.
    for n in [10usize, 100, 1000] {
        let total = 256 * n as u32;
        let churn = (n / 100).max(1);
        c.bench_function(format!("realloc/incremental_{n}"), |b| {
            let partitions = vec![
                PartitionSpec {
                    quota: 256,
                    soft: true
                };
                n
            ];
            let mut inc =
                IncrementalPartitioned::new(partitions, PartitionStrategy::MinMax(None));
            let mut groups = tenant_groups(n, 8);
            let mut dirty = DirtySet::new(n);
            let mut out = Grants::new();
            // Prime: the first call full-rebuilds; the timed rounds are
            // steady-state incremental re-runs.
            dirty.mark_all();
            inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
            dirty.clear();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                churn_round(&mut groups, churn, round, Some(&mut dirty));
                inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
                dirty.clear();
                black_box(out.len())
            })
        });
        c.bench_function(format!("realloc/snapshot_{n}"), |b| {
            let partitions = vec![
                PartitionSpec {
                    quota: 256,
                    soft: true
                };
                n
            ];
            let strategies = vec![PartitionStrategy::MinMax(None); n];
            let mut groups = tenant_groups(n, 8);
            let mut flat: Vec<QueryDemand> = Vec::with_capacity(n * 8);
            let mut scratch = PartitionScratch::default();
            let mut out = Grants::new();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                churn_round(&mut groups, churn, round, None);
                // The engine's snapshot path rebuilds the demand list from
                // the live table every reallocation; the flatten is part of
                // the measured cost.
                flat.clear();
                for g in &groups {
                    flat.extend_from_slice(g);
                }
                partitioned_allocate_with_into(
                    &flat,
                    &partitions,
                    &strategies,
                    total,
                    &mut scratch,
                    &mut out,
                );
                black_box(out.len())
            })
        });
    }

    // Hierarchical borrow-back: the two-level partition tree (32-tenant
    // groups with cached idle totals) vs the flat per-partition scan
    // (`with_group_size(…, 1)` degenerates every group to one partition).
    // Half the tenants idle, half over-demand their soft quota, so every
    // round borrows from the idle pool — the path the subtree cache prunes.
    for (cell, group_size) in [("tree_borrow_1000", 32), ("flat_borrow_1000", 1)] {
        c.bench_function(format!("partition/{cell}"), |b| {
            let n = 1000usize;
            let total = 256 * n as u32;
            let partitions = vec![
                PartitionSpec {
                    quota: 256,
                    soft: true
                };
                n
            ];
            let mut inc = IncrementalPartitioned::with_group_size(
                partitions,
                PartitionStrategy::MinMax(None),
                group_size,
            );
            let mut groups = tenant_groups(n, 4);
            for (g, group) in groups.iter_mut().enumerate() {
                if g % 2 == 0 {
                    group.clear(); // idle tenant: pure lender
                } else {
                    for q in group.iter_mut() {
                        q.max_mem = 600; // over-demands the 256-page quota
                    }
                }
            }
            let mut dirty = DirtySet::new(n);
            let mut out = Grants::new();
            dirty.mark_all();
            inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
            dirty.clear();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                // Churn an over-demanding tenant: its re-divide hits the
                // borrow-back walk over the idle pool.
                let g = 2 * ((mix(round) as usize) % (n / 2)) + 1;
                let qi = (mix(round ^ 0xD1CE) as usize) % groups[g].len();
                groups[g][qi].max_mem = 300 + (mix(round ^ 0xFEED) % 600) as u32;
                dirty.mark(g);
                inc.allocate_dirty_into(&groups, total, &dirty, &mut out);
                dirty.clear();
                black_box(out.len())
            })
        });
    }

    // The engine-shaped case: every request carries a distinct deadline
    // (a deadline level is one query, and each query has at most one
    // outstanding I/O), depth bounded by the live-query population.
    c.bench_function("disk_queue/engine_mix_96", |b| {
        b.iter(|| {
            let mut q: DiskQueue<u64> = DiskQueue::new();
            let mut head = 0u32;
            let mut n = 0u64;
            for round in 0..100u64 {
                for i in 0..96u64 {
                    let k = round * 96 + i;
                    q.push(QueuedRequest {
                        deadline: SimTime(1_000_000 + k * 37 + mix(k) % 17),
                        cylinder: (mix(k ^ 0x5A5A) % 1500) as u32,
                        tag: k,
                    });
                }
                while let Some(r) = q.pop(head) {
                    head = r.cylinder;
                    n += 1;
                }
            }
            black_box(n)
        })
    });

    // Tie-heavy stress: 12-deep deadline levels and same-cylinder piles.
    // The engine cannot produce these shapes (see above), but they record
    // the flat scan's worst case in the trajectory.
    c.bench_function("disk_queue/push_pop_96", |b| {
        b.iter(|| {
            let mut q: DiskQueue<u64> = DiskQueue::new();
            let mut head = 0u32;
            let mut n = 0u64;
            for round in 0..100u64 {
                for i in 0..96u64 {
                    let k = round * 96 + i;
                    q.push(QueuedRequest {
                        // Few distinct deadlines → wide levels,
                        // elevator-heavy.
                        deadline: SimTime(1_000 + round * 10 + mix(k) % 8),
                        cylinder: (mix(k ^ 0x5A5A) % 1500) as u32,
                        tag: k,
                    });
                }
                while let Some(r) = q.pop(head) {
                    head = r.cylinder;
                    n += 1;
                }
            }
            black_box(n)
        })
    });

    c.bench_function("disk_queue/fifo_bucket_96", |b| {
        b.iter(|| {
            let mut q: DiskQueue<u64> = DiskQueue::new();
            let mut n = 0u64;
            // One deadline, one cylinder: a pure FIFO bucket — the
            // `Vec::remove(0)` path of the seed implementation.
            for round in 0..100u64 {
                for i in 0..96u64 {
                    q.push(QueuedRequest {
                        deadline: SimTime(7 + round),
                        cylinder: 42,
                        tag: i,
                    });
                }
                while q.pop(42).is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });

    // Observability overhead cells: the engine calls `Tracer::emit` and
    // `MetricsRegistry::inc` on every arrival/burst/departure, so the off
    // path must price at a masked branch (the <2% hot-path budget) and the
    // buffered path at a vector push — these cells pin both in the
    // trajectory.
    c.bench_function("obs/emit_off_10k", |b| {
        let mut tracer = Tracer::off();
        b.iter(|| {
            let mut n = 0u64;
            for i in 0..10_000u64 {
                tracer.emit(
                    SimTime(i),
                    TraceEvent::CpuBurst {
                        query: i,
                        instructions: mix(i),
                    },
                );
                n += 1;
            }
            black_box((n, tracer.len()))
        })
    });

    c.bench_function("obs/emit_full_10k", |b| {
        b.iter(|| {
            let mut tracer = Tracer::with_mask(TraceKind::ALL);
            for i in 0..10_000u64 {
                tracer.emit(
                    SimTime(i),
                    TraceEvent::CpuBurst {
                        query: i,
                        instructions: mix(i),
                    },
                );
            }
            black_box(tracer.len())
        })
    });

    c.bench_function("obs/metrics_inc_10k", |b| {
        let mut reg = MetricsRegistry::new();
        let bursts = reg.counter("cpu.bursts");
        b.iter(|| {
            for _ in 0..10_000u64 {
                reg.inc(bursts, 1);
            }
            black_box(reg.report().counters.len())
        })
    });

    // The paper's per-disk prefetch pool (256 KB = 32 pages in 6-page
    // lines, so 5 lines) on its dominant path: a sequential read that
    // misses, fetches its block and evicts the least recently used line.
    // Three interleaved scans keep every lookup a miss.
    c.bench_function("pool/paper_read_miss_5_lines", |b| {
        b.iter(|| {
            let mut pool = BufferPool::new(32, 6);
            let mut misses = 0u32;
            for i in 0..10_000u32 {
                let (file, first) = (FileId::Relation(i % 3), (i / 3) * 6);
                if !pool.lookup(file, first, 6) {
                    misses += 1;
                    pool.insert(file, first, 6);
                }
            }
            black_box(misses)
        })
    });

    // Stress depth: ~10× deeper than the engine ever queues. The flat scan
    // is O(n) per pop, so this case deliberately records the asymptote.
    c.bench_function("disk_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q: DiskQueue<u64> = DiskQueue::new();
            for i in 0..1_024u64 {
                q.push(QueuedRequest {
                    deadline: SimTime(1_000 + mix(i) % 8),
                    cylinder: (mix(i ^ 0x5A5A) % 1500) as u32,
                    tag: i,
                });
            }
            let mut head = 0u32;
            let mut n = 0u64;
            while let Some(r) = q.pop(head) {
                head = r.cylinder;
                n += 1;
            }
            black_box(n)
        })
    });

    // Building one `tenants-1000` replication the way the benchmark times
    // its set-up: the 10³-tenant preset, its partitioned policy and the
    // simulator. Construction makes one allocation per class and tenant
    // name and O(1) others (`tests/setup_allocations.rs` pins that).
    c.bench_function("setup/scale_1000", |b| {
        b.iter(|| {
            let cfg = SimConfig::scale(1000);
            let policy = bench::make_policy_for(&cfg, "Partitioned-soft");
            black_box(Simulator::new(cfg, policy))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
