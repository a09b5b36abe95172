//! An 8-ary min-heap of `Copy` entries ordered by a key: the event
//! calendar's lanes and the CPU's ready queue.
//!
//! Entries live inline in one flat `Vec`, so push and pop touch no node
//! allocation. Sift-down visits a third of the levels of a binary heap, and
//! a node's eight children sit in one or two cache lines. Keys should be
//! unique: then the pop order is a function of the keys alone, whatever
//! the insertion order or the heap layout.

use std::ops::Deref;

const ARITY: usize = 8;

/// An entry of a [`MinHeap`]: the heap pops the smallest key first.
pub trait Keyed: Copy {
    /// The ordering key.
    type Key: Ord;
    /// This entry's key.
    fn key(&self) -> Self::Key;
}

/// 8-ary min-heap on [`Keyed::key`]. Derefs to the entries in heap order
/// (the root first) for read-only inspection.
#[derive(Clone, Debug)]
pub struct MinHeap<T> {
    entries: Vec<T>,
}

impl<T> Default for MinHeap<T> {
    fn default() -> Self {
        MinHeap {
            entries: Vec::new(),
        }
    }
}

impl<T> Deref for MinHeap<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.entries
    }
}

impl<T: Keyed> MinHeap<T> {
    /// Insert `entry`.
    #[inline]
    pub fn push(&mut self, entry: T) {
        let i = self.entries.len();
        self.entries.push(entry);
        sift_up(&mut self.entries, i);
    }

    /// Remove and return the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let root = *self.entries.first()?;
        let last = self.entries.pop().expect("heap is non-empty");
        if !self.entries.is_empty() {
            self.entries[0] = last;
            sift_down(&mut self.entries, 0);
        }
        Some(root)
    }

    /// Keep only the entries `keep` accepts: a scan plus a re-heapify when
    /// anything was removed, for rare removals by content.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        let before = self.entries.len();
        self.entries.retain(keep);
        if self.entries.len() != before {
            // Floyd heapify: sift every parent down, the last one first.
            for i in (0..self.entries.len().div_ceil(ARITY)).rev() {
                sift_down(&mut self.entries, i);
            }
        }
    }
}

fn sift_up<T: Keyed>(heap: &mut [T], mut i: usize) {
    let entry = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[parent].key() <= entry.key() {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = entry;
}

fn sift_down<T: Keyed>(heap: &mut [T], mut i: usize) {
    let entry = heap[i];
    let n = heap.len();
    loop {
        let first_child = i * ARITY + 1;
        if first_child >= n {
            break;
        }
        let last_child = (first_child + ARITY).min(n);
        let mut best = first_child;
        let mut best_key = heap[first_child].key();
        let mut c = first_child + 1;
        while c < last_child {
            let k = heap[c].key();
            if k < best_key {
                best = c;
                best_key = k;
            }
            c += 1;
        }
        if best_key >= entry.key() {
            break;
        }
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = entry;
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Keyed for u64 {
        type Key = u64;
        fn key(&self) -> u64 {
            *self
        }
    }

    #[test]
    fn pops_in_key_order_after_pushes_and_retains() {
        let mut heap = MinHeap::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut model = Vec::new();
        for round in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(round | 1);
            let v = x >> 40;
            if !model.contains(&v) {
                heap.push(v);
                model.push(v);
            }
            if round % 7 == 0 {
                let min = model.iter().copied().min();
                model.retain(|&m| Some(m) != min);
                assert_eq!(heap.pop(), min);
            }
            if round % 97 == 0 {
                heap.retain(|&e| e % 3 != 0);
                model.retain(|&m| m % 3 != 0);
            }
            assert_eq!(heap.len(), model.len());
            assert_eq!(heap.first().copied(), model.iter().copied().min());
        }
        model.sort_unstable();
        let drained: Vec<u64> = std::iter::from_fn(|| heap.pop()).collect();
        assert_eq!(drained, model);
    }
}
