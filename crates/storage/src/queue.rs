//! Per-disk request queue: Earliest Deadline across priorities, elevator
//! (SCAN) within a priority level.
//!
//! Section 4.2: "Every disk manages its own queue by the ED policy; any disk
//! requests that ED assigns the same priority to are serviced according to
//! the elevator algorithm."
//!
//! The seed implementation nested `BTreeMap<SimTime, BTreeMap<u32, Vec<_>>>`
//! — three allocation sites per push in the worst case, and an O(n)
//! `Vec::remove(0)` per same-cylinder FIFO dequeue. Disk queues are short
//! (bounded by the live-query population: each live query has at most one
//! outstanding I/O), so this version is a flat parallel-array structure
//! scanned on pop:
//!
//! * **push** appends to two `Vec`s — amortized O(1), zero allocations in
//!   steady state once capacity is warm.
//! * **pop** selects by `(deadline, elevator cylinder, seq)` in one scan
//!   over the dense 24-byte key array (payloads are never touched) and
//!   removes with `swap_remove` — O(n) scan with a cache-line-friendly
//!   constant, O(1) removal. FIFO among equal `(deadline, cylinder)`
//!   requests rides on the monotone `seq` stamp, so selection is
//!   independent of element order and `swap_remove`'s shuffling is
//!   invisible. (At engine-realistic depths the scan beats the seed's tree
//!   walk plus node churn; a tree wins again only at depths the simulator
//!   never reaches — the `disk_queue/push_pop_1k` stress bench records
//!   that asymptote honestly.)
//! * **drain** never allocates per bucket; [`DiskQueue::discard_where`]
//!   (the abort path) allocates nothing at all.

use simkit::SimTime;

/// A queued disk request. `T` is the caller's tag (the simulator uses it to
/// route the completion back to the owning query).
#[derive(Clone, Debug, PartialEq)]
pub struct QueuedRequest<T> {
    /// ED priority: the owning query's deadline (earlier = more urgent).
    pub deadline: SimTime,
    /// Target cylinder of the access.
    pub cylinder: u32,
    /// Caller tag.
    pub tag: T,
}

/// Selection key of one stored request: everything `pop` scans, packed
/// densely so the scan never strides over payloads.
#[derive(Clone, Copy, Debug)]
struct Key {
    deadline: SimTime,
    cylinder: u32,
    seq: u64,
}

/// Total selection order of one request under a fixed head position and
/// sweep direction: `(deadline, off-preferred-side, distance, seq)`. The
/// argmin of this rank over all queued keys is the request
/// [`DiskQueue::pop`] chooses — ED level first, then the preferred sweep
/// side, then nearest cylinder, then FIFO — and an argmin with the penalty
/// bit set means the preferred side was empty, i.e. the sweep reverses.
type Rank = (SimTime, u8, u32, u64);

fn rank_of(key: &Key, head: u32, ascending: bool) -> Rank {
    let (penalty, dist) = match key.cylinder.cmp(&head) {
        // On the head's cylinder: reachable without a seek in either
        // direction, so it is never off-side.
        std::cmp::Ordering::Equal => (0, 0),
        std::cmp::Ordering::Greater => (u8::from(!ascending), key.cylinder - head),
        std::cmp::Ordering::Less => (u8::from(ascending), head - key.cylinder),
    };
    (key.deadline, penalty, dist, key.seq)
}

/// The incrementally maintained winner of the next [`DiskQueue::pop`],
/// valid only for the exact `(head, ascending)` it was computed under.
#[derive(Clone, Copy, Debug)]
struct Cached {
    head: u32,
    ascending: bool,
    idx: usize,
    rank: Rank,
}

/// ED + elevator queue for one disk. `keys[i]` and `reqs[i]` describe the
/// same request; both sides `swap_remove` together.
///
/// When the caller can name the disk-head position at enqueue time
/// ([`DiskQueue::push_at`]), the queue folds each new request into a cached
/// winner in O(1); a later `pop` from the same head position takes the
/// winner without rescanning. The head only moves when a media access
/// starts, so the common busy-disk pattern — requests arriving during a
/// service, then one pop at its completion — never rescans at all. Any
/// removal or head movement falls back to the scan (and the scan is what
/// the cache is checked against in debug builds).
#[derive(Debug)]
pub struct DiskQueue<T> {
    keys: Vec<Key>,
    reqs: Vec<QueuedRequest<T>>,
    next_seq: u64,
    /// Elevator sweep direction: true = ascending cylinder numbers.
    ascending: bool,
    cached: Option<Cached>,
}

impl<T> Default for DiskQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DiskQueue<T> {
    /// An empty queue sweeping upward.
    pub fn new() -> Self {
        DiskQueue {
            keys: Vec::new(),
            reqs: Vec::new(),
            next_seq: 0,
            ascending: true,
            cached: None,
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Enqueue a request without a head hint. The cached winner (if any)
    /// cannot be maintained and is dropped; the next pop rescans.
    pub fn push(&mut self, request: QueuedRequest<T>) {
        self.cached = None;
        self.append(request);
    }

    /// Enqueue a request, folding it into the cached pop winner for the
    /// given head position. O(1); a subsequent [`DiskQueue::pop`] from the
    /// same head with the same sweep direction skips its scan.
    pub fn push_at(&mut self, head: u32, request: QueuedRequest<T>) {
        let idx = self.keys.len();
        let key = Key {
            deadline: request.deadline,
            cylinder: request.cylinder,
            seq: self.next_seq,
        };
        match &mut self.cached {
            _ if idx == 0 => {
                self.cached = Some(Cached {
                    head,
                    ascending: self.ascending,
                    idx,
                    rank: rank_of(&key, head, self.ascending),
                });
            }
            Some(c) if c.head == head && c.ascending == self.ascending => {
                let rank = rank_of(&key, head, self.ascending);
                if rank < c.rank {
                    c.idx = idx;
                    c.rank = rank;
                }
            }
            // Either no winner survives from before, or the head moved
            // between pushes: fall back to the scan at the next pop.
            _ => self.cached = None,
        }
        self.append(request);
    }

    fn append(&mut self, request: QueuedRequest<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.keys.push(Key {
            deadline: request.deadline,
            cylinder: request.cylinder,
            seq,
        });
        self.reqs.push(request);
    }

    /// Dequeue the next request to service given the current head position.
    ///
    /// The most urgent deadline level is selected first (ED); within that
    /// level the elevator picks the nearest cylinder in the current sweep
    /// direction, reversing direction at the end of a sweep: the argmin of
    /// one rank order, from the cached winner or one scan.
    pub fn pop(&mut self, head: u32) -> Option<QueuedRequest<T>> {
        if self.keys.is_empty() {
            self.cached = None;
            return None;
        }
        let (chosen, rank) = match self.cached.take() {
            Some(c) if c.head == head && c.ascending == self.ascending => {
                debug_assert_eq!(
                    c.idx,
                    self.argmin(head).0,
                    "cached winner diverged from the argmin"
                );
                (c.idx, c.rank)
            }
            _ => self.argmin(head),
        };
        // A winner off the preferred side means that side is empty at the
        // most urgent level: the sweep reverses.
        if rank.1 == 1 {
            self.ascending = !self.ascending;
        }
        self.keys.swap_remove(chosen);
        Some(self.reqs.swap_remove(chosen))
    }

    /// One scan over the dense key array: the index and rank of the
    /// request with the smallest [`rank_of`] (ranks are unique — `seq` is).
    ///
    /// # Panics
    /// Panics if the queue is empty.
    fn argmin(&self, head: u32) -> (usize, Rank) {
        let (mut best, mut best_rank) = (0, rank_of(&self.keys[0], head, self.ascending));
        for (i, key) in self.keys.iter().enumerate().skip(1) {
            // A less urgent level never wins: skip it without ranking.
            if key.deadline > best_rank.0 {
                continue;
            }
            let rank = rank_of(key, head, self.ascending);
            if rank < best_rank {
                (best, best_rank) = (i, rank);
            }
        }
        (best, best_rank)
    }

    /// Remove every request whose tag matches `remove` (e.g. requests of an
    /// aborted query) and count them — allocation-free, for the firm-abort
    /// path that never inspects them.
    pub fn discard_where<F: Fn(&T) -> bool>(&mut self, remove: F) -> usize {
        self.cached = None;
        let before = self.reqs.len();
        let mut i = 0;
        while i < self.reqs.len() {
            if remove(&self.reqs[i].tag) {
                self.keys.swap_remove(i);
                self.reqs.swap_remove(i);
            } else {
                i += 1;
            }
        }
        before - self.reqs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(deadline: u64, cylinder: u32, tag: u32) -> QueuedRequest<u32> {
        QueuedRequest {
            deadline: SimTime(deadline),
            cylinder,
            tag,
        }
    }

    #[test]
    fn earliest_deadline_first() {
        let mut q = DiskQueue::new();
        q.push(req(300, 10, 1));
        q.push(req(100, 900, 2));
        q.push(req(200, 20, 3));
        assert_eq!(q.pop(0).unwrap().tag, 2);
        assert_eq!(q.pop(0).unwrap().tag, 3);
        assert_eq!(q.pop(0).unwrap().tag, 1);
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn elevator_within_same_deadline() {
        let mut q = DiskQueue::new();
        // All same deadline; head at 500 sweeping up: expect 600, 900, then
        // reverse to 400, 100.
        for (cyl, tag) in [(900, 1), (400, 2), (600, 3), (100, 4)] {
            q.push(req(50, cyl, tag));
        }
        let mut head = 500;
        let mut tags = Vec::new();
        while let Some(r) = q.pop(head) {
            head = r.cylinder;
            tags.push(r.tag);
        }
        assert_eq!(tags, vec![3, 1, 2, 4]);
    }

    #[test]
    fn elevator_reverses_and_recovers() {
        let mut q = DiskQueue::new();
        q.push(req(50, 100, 1));
        let mut head = 500;
        // Nothing above 500: the elevator reverses and picks 100.
        let r = q.pop(head).unwrap();
        assert_eq!(r.tag, 1);
        head = r.cylinder;
        // Now descending; a request above the head flips it back.
        q.push(req(50, 800, 2));
        assert_eq!(q.pop(head).unwrap().tag, 2);
    }

    #[test]
    fn same_cylinder_fifo() {
        let mut q = DiskQueue::new();
        q.push(req(50, 42, 1));
        q.push(req(50, 42, 2));
        q.push(req(50, 42, 3));
        assert_eq!(q.pop(0).unwrap().tag, 1);
        assert_eq!(q.pop(42).unwrap().tag, 2);
        assert_eq!(q.pop(42).unwrap().tag, 3);
    }

    #[test]
    fn fifo_survives_interleaved_pushes_and_removals() {
        // swap_remove shuffles storage order; the seq stamp must keep
        // same-cylinder FIFO intact regardless.
        let mut q = DiskQueue::new();
        q.push(req(50, 42, 1));
        q.push(req(10, 7, 99)); // more urgent, elsewhere
        q.push(req(50, 42, 2));
        assert_eq!(q.pop(42).unwrap().tag, 99);
        q.push(req(50, 42, 3));
        assert_eq!(q.pop(42).unwrap().tag, 1);
        assert_eq!(q.pop(42).unwrap().tag, 2);
        assert_eq!(q.pop(42).unwrap().tag, 3);
    }

    #[test]
    fn discard_counts_without_allocating() {
        let mut q = DiskQueue::new();
        q.push(req(10, 1, 7));
        q.push(req(20, 2, 8));
        q.push(req(30, 3, 7));
        assert_eq!(q.discard_where(|&tag| tag == 7), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(0).unwrap().tag, 8);
        assert_eq!(q.discard_where(|_| true), 0);
    }

    #[test]
    fn push_at_cached_winner_reverses_sweep() {
        let mut q = DiskQueue::new();
        q.push_at(500, req(50, 400, 1)); // below an up-sweeping head
        assert_eq!(q.pop(500).unwrap().tag, 1);
        // The cached-winner pop must have reversed the sweep, exactly like
        // the scan: a later same-deadline pair prefers the downward side.
        q.push_at(400, req(50, 450, 2));
        q.push_at(400, req(50, 350, 3));
        assert_eq!(q.pop(400).unwrap().tag, 3, "descending after reversal");
        assert_eq!(q.pop(350).unwrap().tag, 2);
    }

    #[test]
    fn push_at_agrees_with_push_under_random_mix() {
        // One queue fed through push_at (incremental winner), a twin through
        // plain push (always scans); identical operation tapes must produce
        // identical pop sequences. In debug builds the cache-hit path also
        // self-checks against the scan.
        let mut fast = DiskQueue::new();
        let mut slow = DiskQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut head = 300u32;
        for tag in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let deadline = 10 + x % 8; // few levels: big elevator groups
            let cyl = (x >> 16) as u32 % 1_000;
            fast.push_at(head, req(deadline, cyl, tag));
            slow.push(req(deadline, cyl, tag));
            if x.is_multiple_of(3) {
                let a = fast.pop(head);
                let b = slow.pop(head);
                assert_eq!(a, b, "divergence at tag {tag}");
                if let Some(r) = a {
                    head = r.cylinder;
                }
            }
        }
        loop {
            let a = fast.pop(head);
            let b = slow.pop(head);
            assert_eq!(a, b);
            match a {
                Some(r) => head = r.cylinder,
                None => break,
            }
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = DiskQueue::new();
        assert!(q.is_empty());
        q.push(req(1, 1, 1));
        q.push(req(2, 2, 2));
        assert_eq!(q.len(), 2);
        q.pop(0);
        assert_eq!(q.len(), 1);
    }
}
