//! Per-disk request queue: Earliest Deadline across priorities, elevator
//! (SCAN) within a priority level.
//!
//! Section 4.2: "Every disk manages its own queue by the ED policy; any disk
//! requests that ED assigns the same priority to are serviced according to
//! the elevator algorithm."
//!
//! Disk queues are short (each live query has at most one outstanding
//! I/O), so the queue is two parallel vectors, the dense selection keys and
//! the payloads:
//!
//! * **push** appends to both: amortized O(1), no allocation once warm.
//! * **pop** is one scan of the 24-byte keys for the argmin of one rank,
//!   `(deadline, off the sweep side, distance, seq)`, then a `swap_remove`.
//!   The monotone `seq` stamp keeps same-cylinder requests FIFO whatever
//!   order `swap_remove` leaves them in. At engine-realistic depths the
//!   scan beats any index; the `disk_queue/push_pop_1k` stress bench
//!   records the O(n) asymptote.
//! * **discard_where** (the abort path) allocates nothing.
//!
//! `crates/storage/tests/queue_model.rs` holds `pop` to a naive model
//! written from Section 4.2.

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

/// ED + elevator queue for one disk. `keys[i]` and `reqs[i]` describe the
/// same request; both sides `swap_remove` together. Every pop is one scan
/// for the argmin of `rank_of` from the head's position.
#[derive(Debug)]
pub struct DiskQueue<T> {
    keys: Vec<Key>,
    reqs: Vec<QueuedRequest<T>>,
    next_seq: u64,
    /// Elevator sweep direction: true = ascending cylinder numbers.
    ascending: bool,
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

    /// Enqueue a request: amortized O(1), no allocation once capacity is
    /// warm.
    pub fn push(&mut self, request: QueuedRequest<T>) {
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
    /// one rank order over the queued keys.
    pub fn pop(&mut self, head: u32) -> Option<QueuedRequest<T>> {
        if self.keys.is_empty() {
            return None;
        }
        let (chosen, rank) = self.argmin(head);
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
