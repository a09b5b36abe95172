//! Equivalence pin for the buffer pool's LRU.
//!
//! The pool keeps its lines in one recency-ordered key vector (LRU
//! first) instead of the seed's `VecDeque`. The observable behavior — which lookups hit and which miss — must be *identical* to the original deque implementation, because the
//! engine's golden determinism pin rides on every cache decision. This
//! model test replays long random op sequences against a faithful
//! re-implementation of the seed deque cache, at the paper's 5-line size
//! (256 KB / 8 KB pages / 6-page blocks) and at larger shapes where
//! eviction churns harder.

use std::collections::VecDeque;
use storage::{BufferPool, FileId};

/// The seed implementation, verbatim semantics: a deque of `(file, block)`
/// lines, scanned linearly.
struct DequeModel {
    capacity_blocks: usize,
    block_pages: u32,
    lru: VecDeque<(FileId, u32)>,
}

impl DequeModel {
    fn new(capacity_pages: u32, block_pages: u32) -> Self {
        DequeModel {
            capacity_blocks: (capacity_pages / block_pages).max(1) as usize,
            block_pages,
            lru: VecDeque::new(),
        }
    }

    fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        let first_block = first / self.block_pages;
        let last_block = (first + pages.max(1) - 1) / self.block_pages;
        let all_present =
            (first_block..=last_block).all(|block| self.lru.contains(&(file, block)));
        if all_present {
            for block in first_block..=last_block {
                if let Some(pos) = self.lru.iter().position(|&x| x == (file, block)) {
                    let line = self.lru.remove(pos).expect("position valid");
                    self.lru.push_back(line);
                }
            }
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

/// Drive an LRU pool and the deque reference through the same
/// pseudo-random op sequence and demand identical hit/miss behavior after
/// every single operation.
fn equivalence_run(capacity_pages: u32, block_pages: u32, ops: u64, seed: u64) {
    let mut cache = BufferPool::new(capacity_pages, block_pages);
    let mut model = DequeModel::new(capacity_pages, block_pages);
    let (mut hits, mut misses) = (0u64, 0u64);
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
                if got {
                    hits += 1;
                } else {
                    misses += 1;
                }
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
    }
    assert!(hits > 0, "degenerate sequence: no hits exercised");
    assert!(misses > 0, "degenerate sequence: no misses exercised");
}

/// The paper's configuration: 256 KB cache, 8 KB pages, 6-page blocks —
/// 5 whole cache lines.
#[test]
fn paper_size_five_lines() {
    equivalence_run(32, 6, 20_000, 0x9E37_79B9);
}

/// A larger cache, where eviction churns harder, and a tiny
/// 1-block degenerate cache, where eviction fires on every insert.
#[test]
fn stress_shapes() {
    equivalence_run(256, 6, 20_000, 0xDEAD_BEEF);
    equivalence_run(4, 4, 5_000, 7);
}
