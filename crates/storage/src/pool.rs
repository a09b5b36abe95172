//! The per-disk buffer pool (prefetch cache) with pluggable eviction.
//!
//! Section 4.2 gives each disk a 256-KByte prefetch cache; the seed
//! hard-wired LRU eviction into `PrefetchCache`. This module generalizes it
//! into [`BufferPool`] — hit/miss accounting plus block-granular line
//! management — over an [`EvictionPolicy`] trait with two implementations:
//!
//! * [`IndexedLru`] — the LRU order as one recency-ordered key vector
//!   (LRU first, MRU last; lookups scan it, hits move the key to the back,
//!   eviction takes the front), semantics identical to the seed's deque
//!   cache and pinned by `crates/storage/tests/lru_model.rs` and the golden
//!   report.
//! * [`LruKPolicy`] — LRU-K \[O'Neil et al. 93\]: each line keeps its last
//!   `K` access stamps; the victim is the line whose K-th most recent
//!   access is oldest, with lines holding fewer than `K` stamps evicted
//!   first (oldest first access breaks the tie). LRU-1 degenerates to
//!   exact LRU.
//!
//! [`EvictionSpec`] is the configuration-surface enum selecting a policy,
//! mirroring `DeviceSpec` on the device axis.

use crate::layout::FileId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher for the cache index: the key space is
/// tiny fixed-width integers, where SipHash's per-probe cost dominated the
/// read-service hot path. Only used where iteration order is never
/// observed (pure point lookups), so swapping the hasher cannot move a
/// simulated event.
#[derive(Default)]
pub struct FastHasher(u64);

/// Knuth's multiplicative constant (golden-ratio based).
const FAST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FAST_SEED);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FAST_SEED);
    }

    fn finish(&self) -> u64 {
        // Final avalanche so low bits (the map's bucket index) mix.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(FAST_SEED);
        h ^ (h >> 29)
    }
}

/// `HashMap` with [`FastHasher`], for order-insensitive point lookups.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A cache line: one block of pages of one file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// File the line belongs to.
    pub file: FileId,
    /// Block index within the file (page / block_pages).
    pub block: u32,
}

/// How a [`BufferPool`] orders its lines for replacement.
///
/// Object-safe: the pool boxes one, selected by [`EvictionSpec`]. The
/// contract mirrors what block-granular caching needs — membership,
/// access recording, insertion (which records an access when the line is
/// already resident), victim selection, and filtered invalidation.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Short policy name for reports (`"lru"`, `"lru-2"`).
    fn name(&self) -> String;

    /// Number of resident lines.
    fn len(&self) -> usize;

    /// True when no lines are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `key` is resident.
    fn contains(&self, key: &CacheKey) -> bool;

    /// Record an access to `key` if resident (cache hit).
    fn touch(&mut self, key: &CacheKey);

    /// Make `key` resident, recording an access (re-inserting a resident
    /// line is equivalent to touching it). The caller evicts afterwards if
    /// the pool is over capacity.
    fn insert(&mut self, key: CacheKey);

    /// Remove and return the replacement victim, if any line is resident.
    fn evict(&mut self) -> Option<CacheKey>;

    /// Drop every line failing `pred`, preserving the order of the rest.
    fn retain(&mut self, pred: &dyn Fn(&CacheKey) -> bool);
}

/// LRU order as one recency-ordered key vector, least recently used
/// first. Every operation is O(resident lines): at the paper's 5-line
/// pool (every shipped device has 256 KB) a scan of a few adjacent keys
/// beats any index, and moving a key to the back shifts at most a handful
/// of entries. The observable order semantics are *identical* to the seed's
/// deque version — `crates/storage/tests/lru_model.rs` pins that against a
/// reference model.
#[derive(Debug)]
pub struct IndexedLru {
    /// Resident keys, LRU (the eviction victim) first, MRU last.
    order: Vec<CacheKey>,
}

impl IndexedLru {
    /// An empty order sized for `capacity_entries` lines.
    pub fn new(capacity_entries: usize) -> Self {
        IndexedLru {
            order: Vec::with_capacity(capacity_entries + 1),
        }
    }

    /// Move the key at `at` to the MRU end.
    fn move_back(&mut self, at: usize) {
        self.order[at..].rotate_left(1);
    }
}

impl EvictionPolicy for IndexedLru {
    fn name(&self) -> String {
        "lru".into()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.order.contains(key)
    }

    /// Move `key` to the MRU end if present.
    fn touch(&mut self, key: &CacheKey) {
        if let Some(at) = self.order.iter().position(|k| k == key) {
            self.move_back(at);
        }
    }

    /// Insert `key` at the MRU end (moving it there if already present —
    /// the deque version's remove + push_back).
    fn insert(&mut self, key: CacheKey) {
        match self.order.iter().position(|k| *k == key) {
            Some(at) => self.move_back(at),
            None => self.order.push(key),
        }
    }

    /// Evict the LRU entry.
    fn evict(&mut self) -> Option<CacheKey> {
        (!self.order.is_empty()).then(|| self.order.remove(0))
    }

    fn retain(&mut self, pred: &dyn Fn(&CacheKey) -> bool) {
        self.order.retain(|k| pred(k));
    }
}

/// One LRU-K line: its key and up to `k` most-recent access stamps
/// (oldest first).
#[derive(Clone, Debug)]
struct LruKEntry {
    key: CacheKey,
    /// Logical access stamps, oldest at index 0, at most `k` retained.
    history: Vec<u64>,
}

/// LRU-K replacement \[O'Neil et al. 93\]: evict the line whose K-th most
/// recent access lies furthest in the past. Lines touched fewer than K
/// times have infinite backward-K distance and are evicted before any
/// fully-historied line, oldest first access first. Stamps come from a
/// pool-global logical access counter, so all comparisons are exact and
/// tie-free (every stamp is unique) — victim selection is deterministic
/// regardless of the order the lines are stored in.
///
/// The lines live in one flat vector, like [`IndexedLru`]: every operation
/// scans it — O(resident lines) — which is fine at cache-line counts (the
/// paper's pool holds 5 lines; the stress shapes dozens).
#[derive(Debug)]
pub struct LruKPolicy {
    k: u32,
    /// Pool-global logical clock, incremented on every recorded access.
    clock: u64,
    /// Resident lines, in no particular order.
    lines: Vec<LruKEntry>,
}

impl LruKPolicy {
    /// A new policy keeping `k` stamps per line.
    pub fn new(k: u32, capacity_entries: usize) -> Self {
        assert!(k > 0, "LRU-K needs at least one stamp of history");
        LruKPolicy {
            k,
            clock: 0,
            lines: Vec::with_capacity(capacity_entries + 1),
        }
    }

    fn position(&self, key: &CacheKey) -> Option<usize> {
        self.lines.iter().position(|e| e.key == *key)
    }

    /// Record one access to the line at `at`.
    fn record(&mut self, at: usize) {
        self.clock += 1;
        let entry = &mut self.lines[at];
        entry.history.push(self.clock);
        if entry.history.len() > self.k as usize {
            entry.history.remove(0);
        }
    }

    /// The victim-selection key of `entry`: lines with short history sort
    /// before full-history lines; within each class the oldest retained
    /// stamp (first access, resp. K-th most recent access) decides.
    fn victim_key(entry: &LruKEntry, k: u32) -> (bool, u64) {
        let full = entry.history.len() >= k as usize;
        (full, entry.history[0])
    }
}

impl EvictionPolicy for LruKPolicy {
    fn name(&self) -> String {
        format!("lru-{}", self.k)
    }

    fn len(&self) -> usize {
        self.lines.len()
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.position(key).is_some()
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(at) = self.position(key) {
            self.record(at);
        }
    }

    fn insert(&mut self, key: CacheKey) {
        let at = self.position(&key).unwrap_or_else(|| {
            self.lines.push(LruKEntry {
                key,
                history: Vec::with_capacity(self.k as usize + 1),
            });
            self.lines.len() - 1
        });
        self.record(at);
    }

    fn evict(&mut self) -> Option<CacheKey> {
        let k = self.k;
        let victim =
            (0..self.lines.len()).min_by_key(|&i| Self::victim_key(&self.lines[i], k))?;
        Some(self.lines.swap_remove(victim).key)
    }

    fn retain(&mut self, pred: &dyn Fn(&CacheKey) -> bool) {
        self.lines.retain(|e| pred(&e.key));
    }
}

/// Which eviction policy a buffer pool runs — the cache axis of the
/// configuration surface (`ResourceConfig::eviction`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionSpec {
    /// Plain LRU (the seed behavior; the default).
    #[default]
    Lru,
    /// LRU-K with `k` retained access stamps per line.
    LruK {
        /// History depth (K ≥ 1; K = 2 is the classic setting).
        k: u32,
    },
}

impl EvictionSpec {
    /// Short policy name for cell labels (`"lru"`, `"lruk"`).
    pub fn name(&self) -> &'static str {
        match self {
            EvictionSpec::Lru => "lru",
            EvictionSpec::LruK { .. } => "lruk",
        }
    }

    /// Build a fresh policy sized for `capacity_entries` lines.
    pub fn build(&self, capacity_entries: usize) -> Box<dyn EvictionPolicy> {
        match self {
            EvictionSpec::Lru => Box::new(IndexedLru::new(capacity_entries)),
            EvictionSpec::LruK { k } => Box::new(LruKPolicy::new(*k, capacity_entries)),
        }
    }
}

/// Block-granular buffer pool: hit/miss accounting over an eviction
/// policy. This is the prefetch cache of Section 4.2, generalized — the
/// seed's `PrefetchCache` is exactly `BufferPool` with [`EvictionSpec::Lru`]
/// (the name survives as an alias).
#[derive(Debug)]
pub struct BufferPool {
    capacity_blocks: usize,
    block_pages: u32,
    policy: Box<dyn EvictionPolicy>,
    hits: u64,
    misses: u64,
}

/// The paper's name for the per-disk pool.
pub type PrefetchCache = BufferPool;

impl BufferPool {
    /// LRU pool with `capacity_pages` pages organized in `block_pages`-page
    /// lines (256 KB / 8 KB = 32 pages = 5 whole 6-page blocks) — the seed
    /// constructor, byte-identical behavior.
    pub fn new(capacity_pages: u32, block_pages: u32) -> Self {
        Self::with_policy(capacity_pages, block_pages, EvictionSpec::Lru)
    }

    /// Pool with an explicit eviction policy.
    pub fn with_policy(
        capacity_pages: u32,
        block_pages: u32,
        eviction: EvictionSpec,
    ) -> Self {
        assert!(block_pages > 0);
        let capacity_blocks = (capacity_pages / block_pages).max(1) as usize;
        BufferPool {
            capacity_blocks,
            block_pages,
            policy: eviction.build(capacity_blocks),
            hits: 0,
            misses: 0,
        }
    }

    /// Pages per cache line.
    pub fn block_pages(&self) -> u32 {
        self.block_pages
    }

    fn key(&self, file: FileId, page: u32) -> CacheKey {
        CacheKey {
            file,
            block: page / self.block_pages,
        }
    }

    /// True if every page of `[first, first+pages)` of `file` is cached.
    /// Records the accesses (policy update) on a full hit. Runs on every
    /// read service.
    pub fn lookup(&mut self, file: FileId, first: u32, pages: u32) -> bool {
        let first_block = first / self.block_pages;
        let last_block = (first + pages.max(1) - 1) / self.block_pages;
        let all_present = (first_block..=last_block)
            .all(|block| self.policy.contains(&CacheKey { file, block }));
        if all_present {
            self.hits += 1;
            for block in first_block..=last_block {
                self.policy.touch(&CacheKey { file, block });
            }
        } else {
            self.misses += 1;
        }
        all_present
    }

    /// Insert the lines covering `[first, first+pages)` of `file`.
    pub fn insert(&mut self, file: FileId, first: u32, pages: u32) {
        for p in (first..first + pages.max(1)).step_by(self.block_pages as usize) {
            let k = self.key(file, p);
            self.policy.insert(k);
            while self.policy.len() > self.capacity_blocks {
                self.policy.evict();
            }
        }
    }

    /// Drop every line belonging to `file` (called when a temp is deleted).
    pub fn invalidate_file(&mut self, file: FileId) {
        self.policy.retain(&|k| k.file != file);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u32, block: u32) -> CacheKey {
        CacheKey {
            file: FileId::Relation(file),
            block,
        }
    }

    #[test]
    fn lruk_scan_resistance() {
        // The motivating LRU-K behavior: a twice-touched line survives a
        // sweep of once-touched lines that would flush plain LRU.
        let mut pool = BufferPool::with_policy(12, 6, EvictionSpec::LruK { k: 2 });
        let hot = FileId::Relation(0);
        pool.insert(hot, 0, 6);
        pool.insert(hot, 0, 6); // second access: full history
        for f in 1..5u32 {
            pool.insert(FileId::Relation(f), 0, 6); // scan: single-touch lines
        }
        assert!(pool.lookup(hot, 0, 6), "hot line must survive the scan");

        let mut lru = BufferPool::with_policy(12, 6, EvictionSpec::Lru);
        lru.insert(hot, 0, 6);
        lru.insert(hot, 0, 6);
        for f in 1..5u32 {
            lru.insert(FileId::Relation(f), 0, 6);
        }
        assert!(!lru.lookup(hot, 0, 6), "plain LRU flushes the hot line");
    }

    #[test]
    fn lruk_evicts_short_history_before_full_history() {
        let mut p = LruKPolicy::new(2, 8);
        p.insert(key(0, 0));
        p.insert(key(0, 0)); // full history, oldest stamps
        p.insert(key(0, 1)); // one stamp
        p.insert(key(0, 2)); // one stamp, newer
        assert_eq!(p.evict(), Some(key(0, 1)), "oldest single-touch first");
        assert_eq!(p.evict(), Some(key(0, 2)));
        assert_eq!(p.evict(), Some(key(0, 0)), "full-history line last");
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn lruk_orders_full_lines_by_kth_most_recent() {
        let mut p = LruKPolicy::new(2, 8);
        p.insert(key(0, 0)); // stamps 1
        p.insert(key(0, 1)); // stamps 2
        p.insert(key(0, 0)); // stamps 1,3
        p.insert(key(0, 1)); // stamps 2,4
                             // Touch line 0 again: its history becomes 3,5 — its K-th most
                             // recent (3) is now newer than line 1's (2).
        p.touch(&key(0, 0));
        assert_eq!(p.evict(), Some(key(0, 1)));
    }

    #[test]
    fn lruk_retain_and_slot_reuse() {
        let mut p = LruKPolicy::new(2, 8);
        p.insert(key(0, 0));
        p.insert(key(1, 0));
        p.insert(key(0, 1));
        p.retain(&|k| k.file != FileId::Relation(0));
        assert_eq!(p.len(), 1);
        assert!(p.contains(&key(1, 0)));
        assert!(!p.contains(&key(0, 0)));
        // A line inserted after the retain starts with a clean history.
        p.insert(key(2, 0));
        p.insert(key(2, 0));
        assert_eq!(p.evict(), Some(key(1, 0)), "fresh full history wins");
    }

    #[test]
    fn pool_reports_policy_names() {
        assert_eq!(EvictionSpec::Lru.name(), "lru");
        assert_eq!(EvictionSpec::LruK { k: 2 }.name(), "lruk");
    }
}
