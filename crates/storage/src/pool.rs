//! The per-disk buffer pool (prefetch cache).
//!
//! Section 4.2 gives each disk a 256-KByte prefetch cache with LRU
//! replacement. [`BufferPool`] manages block-granular lines over one
//! recency-ordered key vector
//! (LRU first, MRU last; lookups scan it, hits move the key to the back,
//! eviction takes the front). Its semantics are identical to the seed's
//! deque cache, pinned by `crates/storage/tests/lru_model.rs` and the
//! golden report.

use crate::layout::FileId;

/// A cache line: one block of pages of one file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CacheKey {
    /// File the line belongs to.
    file: FileId,
    /// Block index within the file (page / block_pages).
    block: u32,
}

/// Block-granular LRU buffer pool: the prefetch cache of Section 4.2.
///
/// The resident lines are one recency-ordered key vector, least recently
/// used first. Every operation is O(resident lines): at the paper's 5-line
/// pool (the paper's 256 KB disk cache) a scan of a few adjacent keys
/// beats any index, and moving a key to the back shifts at most a handful
/// of entries.
#[derive(Debug)]
pub struct BufferPool {
    capacity_blocks: usize,
    block_pages: u32,
    /// Resident keys, LRU (the eviction victim) first, MRU last.
    order: Vec<CacheKey>,
}

impl BufferPool {
    /// LRU pool with `capacity_pages` pages organized in `block_pages`-page
    /// lines (256 KB / 8 KB = 32 pages = 5 whole 6-page blocks).
    pub fn new(capacity_pages: u32, block_pages: u32) -> Self {
        assert!(block_pages > 0);
        let capacity_blocks = (capacity_pages / block_pages).max(1) as usize;
        BufferPool {
            capacity_blocks,
            block_pages,
            order: Vec::with_capacity(capacity_blocks + 1),
        }
    }

    /// Pages per cache line.
    pub fn block_pages(&self) -> u32 {
        self.block_pages
    }

    /// Move the key at `at` to the MRU end.
    fn move_back(&mut self, at: usize) {
        self.order[at..].rotate_left(1);
    }

    /// True if every page of `[first, first+pages)` of `file` is cached.
    /// Moves the lines to the MRU end on a full hit. Runs on every read
    /// service.
    pub fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        let first_block = first / self.block_pages;
        let last_block = (first + pages.max(1) - 1) / self.block_pages;
        let all_present = (first_block..=last_block)
            .all(|block| self.order.contains(&CacheKey { file, block }));
        if all_present {
            for block in first_block..=last_block {
                let key = CacheKey { file, block };
                if let Some(at) = self.order.iter().position(|k| *k == key) {
                    self.move_back(at);
                }
            }
        }
        all_present
    }

    /// Insert the lines covering `[first, first+pages)` of `file` at the
    /// MRU end (moving a resident line there), evicting from the LRU end
    /// past capacity.
    pub fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        for p in (first..first + pages.max(1)).step_by(self.block_pages as usize) {
            let key = CacheKey {
                file,
                block: p / self.block_pages,
            };
            match self.order.iter().position(|k| *k == key) {
                Some(at) => self.move_back(at),
                None => self.order.push(key),
            }
            while self.order.len() > self.capacity_blocks {
                self.order.remove(0);
            }
        }
    }

    /// Drop every line belonging to `file` (called when a temp is deleted).
    pub fn invalidate_file(&mut self, file: FileId) {
        self.order.retain(|k| k.file != file);
    }
}
