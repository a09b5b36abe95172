//! Equivalence pins for the buffer pool's eviction policies.
//!
//! The LRU arm keeps its lines in one recency-ordered key vector (LRU
//! first) instead of the seed's `VecDeque`. The observable behavior — which lookups hit, which miss, and the hit/miss counters —
//! must be *identical* to the original deque implementation, because the
//! engine's golden determinism pin rides on every cache decision. This
//! model test replays long random op sequences against a faithful
//! re-implementation of the seed deque cache, at the paper's 5-line size
//! (256 KB / 8 KB pages / 6-page blocks) and at larger shapes where
//! eviction churns harder.
//!
//! The LRU-K arm is pinned the same way: [`LruKModel`] is a naive
//! from-the-paper transcription (a flat list of lines, each holding its
//! last K access stamps; the victim minimizes `(has full history, oldest
//! retained stamp)`), replayed against `BufferPool` with
//! `EvictionSpec::LruK`, at the paper's pool size and at larger
//! capacities, and LRU-1 is checked to degenerate to exact LRU against the
//! deque reference.

use std::collections::VecDeque;
use storage::{BufferPool, EvictionSpec, FileId, PrefetchCache};

/// The seed implementation, verbatim semantics: a deque of `(file, block)`
/// lines, scanned linearly.
struct DequeModel {
    capacity_blocks: usize,
    block_pages: u32,
    lru: VecDeque<(FileId, u32)>,
    hits: u64,
    misses: u64,
}

impl DequeModel {
    fn new(capacity_pages: u32, block_pages: u32) -> Self {
        DequeModel {
            capacity_blocks: (capacity_pages / block_pages).max(1) as usize,
            block_pages,
            lru: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        let first_block = first / self.block_pages;
        let last_block = (first + pages.max(1) - 1) / self.block_pages;
        let all_present =
            (first_block..=last_block).all(|block| self.lru.contains(&(file, block)));
        if all_present {
            self.hits += 1;
            for block in first_block..=last_block {
                if let Some(pos) = self.lru.iter().position(|&x| x == (file, block)) {
                    let line = self.lru.remove(pos).expect("position valid");
                    self.lru.push_back(line);
                }
            }
        } else {
            self.misses += 1;
        }
        all_present
    }

    fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        for p in (first..first + pages.max(1)).step_by(self.block_pages as usize) {
            let k = (file, p / self.block_pages);
            if let Some(pos) = self.lru.iter().position(|&x| x == k) {
                self.lru.remove(pos);
            }
            self.lru.push_back(k);
            while self.lru.len() > self.capacity_blocks {
                self.lru.pop_front();
            }
        }
    }

    fn invalidate_file(&mut self, file: FileId) {
        self.lru.retain(|k| k.0 != file);
    }
}

/// Naive LRU-K reference \[O'Neil et al. 93\], transcribed directly: a flat
/// list of `(line, access stamps)` pairs fed by a global logical clock.
/// Each access appends a stamp and trims the history to the last K; the
/// victim is the line minimizing `(has full history, oldest retained
/// stamp)`, so short-history lines go first (oldest first access first)
/// and full lines by oldest K-th-most-recent access. Stamps are unique, so
/// victim selection never depends on list order.
struct LruKModel {
    capacity_blocks: usize,
    block_pages: u32,
    k: usize,
    clock: u64,
    lines: Vec<((FileId, u32), Vec<u64>)>,
    hits: u64,
    misses: u64,
}

impl LruKModel {
    fn new(capacity_pages: u32, block_pages: u32, k: usize) -> Self {
        LruKModel {
            capacity_blocks: (capacity_pages / block_pages).max(1) as usize,
            block_pages,
            k,
            clock: 0,
            lines: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn record(&mut self, key: (FileId, u32)) {
        self.clock += 1;
        let clock = self.clock;
        let k = self.k;
        let history = &mut self
            .lines
            .iter_mut()
            .find(|(l, _)| *l == key)
            .expect("resident line")
            .1;
        history.push(clock);
        if history.len() > k {
            history.remove(0);
        }
    }

    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        let first_block = first / self.block_pages;
        let last_block = (first + pages.max(1) - 1) / self.block_pages;
        let all_present = (first_block..=last_block)
            .all(|block| self.lines.iter().any(|(l, _)| *l == (file, block)));
        if all_present {
            self.hits += 1;
            for block in first_block..=last_block {
                self.record((file, block));
            }
        } else {
            self.misses += 1;
        }
        all_present
    }

    fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        for p in (first..first + pages.max(1)).step_by(self.block_pages as usize) {
            let key = (file, p / self.block_pages);
            if !self.lines.iter().any(|(l, _)| *l == key) {
                self.lines.push((key, Vec::new()));
            }
            self.record(key);
            while self.lines.len() > self.capacity_blocks {
                let victim = self
                    .lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, h))| (h.len() >= self.k, h[0]))
                    .map(|(i, _)| i)
                    .expect("over-capacity pool is non-empty");
                self.lines.remove(victim);
            }
        }
    }

    fn invalidate_file(&mut self, file: FileId) {
        self.lines.retain(|((f, _), _)| *f != file);
    }
}

/// An op-by-op oracle a [`BufferPool`] is replayed against.
trait RefModel {
    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool;
    fn insert(&mut self, file: FileId, first: u32, pages: u32);
    fn invalidate_file(&mut self, file: FileId);
    fn stats(&self) -> (u64, u64);
}

impl RefModel for DequeModel {
    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        DequeModel::lookup(self, file, first, pages)
    }
    fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        DequeModel::insert(self, file, first, pages)
    }
    fn invalidate_file(&mut self, file: FileId) {
        DequeModel::invalidate_file(self, file)
    }
    fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl RefModel for LruKModel {
    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        LruKModel::lookup(self, file, first, pages)
    }
    fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        LruKModel::insert(self, file, first, pages)
    }
    fn invalidate_file(&mut self, file: FileId) {
        LruKModel::invalidate_file(self, file)
    }
    fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Drive `cache` and an op-by-op oracle through the same pseudo-random op
/// sequence and demand identical hit/miss behavior after every single
/// operation. One harness serves every reference model.
fn reference_run(
    mut cache: BufferPool,
    model: &mut dyn RefModel,
    block_pages: u32,
    ops: u64,
    seed: u64,
) {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    for op in 0..ops {
        let file = match next() % 4 {
            0 => FileId::Relation((next() % 3) as u32),
            1 => FileId::Relation((next() % 2) as u32),
            2 => FileId::Temp(next() % 3),
            _ => FileId::Temp(next() % 2),
        };
        let first = (next() % 40) as u32;
        let pages = 1 + (next() % (2 * block_pages as u64 + 1)) as u32;
        match next() % 8 {
            // Reads dominate, as in the engine.
            0..=4 => {
                let got = cache.lookup(file, first, pages);
                let want = model.lookup(file, first, pages);
                assert_eq!(got, want, "lookup diverged at op {op}");
            }
            5 | 6 => {
                // Block-aligned insert, as `Disk::service` performs after a
                // prefetching read miss.
                let aligned = (first / block_pages) * block_pages;
                let whole = pages.div_ceil(block_pages) * block_pages;
                cache.insert(file, aligned, whole);
                model.insert(file, aligned, whole);
            }
            _ => {
                cache.invalidate_file(file);
                model.invalidate_file(file);
            }
        }
        assert_eq!(
            cache.stats(),
            model.stats(),
            "hit/miss counters diverged at op {op}"
        );
    }
    let (hits, misses) = cache.stats();
    assert!(hits > 0, "degenerate sequence: no hits exercised");
    assert!(misses > 0, "degenerate sequence: no misses exercised");
}

/// Pin a cache (LRU unless overridden) against the seed deque reference.
fn deque_equivalence_run(
    cache: BufferPool,
    capacity_pages: u32,
    block_pages: u32,
    ops: u64,
    seed: u64,
) {
    let mut model = DequeModel::new(capacity_pages, block_pages);
    reference_run(cache, &mut model, block_pages, ops, seed);
}

fn equivalence_run(capacity_pages: u32, block_pages: u32, ops: u64, seed: u64) {
    deque_equivalence_run(
        PrefetchCache::new(capacity_pages, block_pages),
        capacity_pages,
        block_pages,
        ops,
        seed,
    );
}

/// Pin the flat-vector LRU-K pool against the naive reference.
fn equivalence_run_lruk(
    capacity_pages: u32,
    block_pages: u32,
    k: u32,
    ops: u64,
    seed: u64,
) {
    let cache =
        BufferPool::with_policy(capacity_pages, block_pages, EvictionSpec::LruK { k });
    let mut model = LruKModel::new(capacity_pages, block_pages, k as usize);
    reference_run(cache, &mut model, block_pages, ops, seed);
}

/// The paper's configuration: 256 KB cache, 8 KB pages, 6-page blocks —
/// 5 whole cache lines.
#[test]
fn paper_size_five_lines() {
    equivalence_run(32, 6, 20_000, 0x9E37_79B9);
}

/// A larger cache (the shape the indexed order exists for) and a tiny
/// 1-block degenerate cache, where eviction fires on every insert.
#[test]
fn stress_shapes() {
    equivalence_run(256, 6, 20_000, 0xDEAD_BEEF);
    equivalence_run(4, 4, 5_000, 7);
}

/// LRU-2 at the paper's 5-line pool size.
#[test]
fn paper_size_five_lines_lru2() {
    equivalence_run_lruk(32, 6, 2, 20_000, 0x9E37_79B9);
}

/// LRU-K on a larger cache, a 1-line degenerate pool with deeper history,
/// and a mid-size K = 4 shape.
#[test]
fn stress_shapes_lruk() {
    equivalence_run_lruk(256, 6, 2, 20_000, 0xDEAD_BEEF);
    equivalence_run_lruk(4, 4, 3, 5_000, 7);
    equivalence_run_lruk(64, 6, 4, 10_000, 0x1234_5678);
}

/// LRU-1 keeps exactly one stamp — the last access — so its victim is the
/// least-recently-used line: it must replay bit-for-bit against the seed
/// deque LRU reference, at the paper's size and on a larger cache.
#[test]
fn lru1_degenerates_to_exact_lru() {
    for (cap, bp) in [(32u32, 6u32), (256, 6)] {
        deque_equivalence_run(
            BufferPool::with_policy(cap, bp, EvictionSpec::LruK { k: 1 }),
            cap,
            bp,
            20_000,
            0x5EED,
        );
    }
}
