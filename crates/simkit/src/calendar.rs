//! The event calendar: a time-ordered priority queue with deterministic
//! FIFO tie-breaking and O(1) cancellation via generation handles.
//!
//! Events scheduled for the same instant pop in scheduling order, which keeps
//! simulation runs reproducible. The implementation is two 8-ary min-heaps
//! of `(time, seq)` keys over one slab of payload slots:
//!
//! * **No hashing on the hot path.** The seed implementation tracked
//!   cancellations in a `HashSet<u64>`, paying a SipHash probe on *every*
//!   pop and peek. Here a handle is a `(slot, generation)` pair: cancellation
//!   is one bounds check plus a generation compare — O(1) with no hash —
//!   and stale handles (the event already fired) fail the generation check
//!   instead of leaking tombstones.
//! * **Cancellation stays lazy.** A cancelled entry keeps its place in its
//!   heap and is discarded when it surfaces, the standard DES-calendar
//!   technique. Unlike the seed, the live-event count is exact: `len()`
//!   counts scheduled-minus-(fired+cancelled), and cancelling after the
//!   event fired is a true no-op (the seed undercounted forever after).
//! * **8-ary layout.** Each lane is a [`MinHeap`]: sift-down visits a third
//!   of the levels of a binary heap with better cache locality; entries are
//!   compact 24-byte `(time, seq, slot, lane)` records stored inline,
//!   payloads stay put in the slab.
//! * **Two lanes.** [`Calendar::schedule`] files an event in the
//!   *completion* heap, [`Calendar::schedule_timer`] in the *timer* heap.
//!   Completions are few; timers (arrivals, deadlines) scale with classes
//!   and live queries, so apart a completion sifts through a dozen entries,
//!   not a thousand. The lane is a cost hint only: both share the slab and
//!   the `seq` counter, and `pop` takes the smaller `(time, seq)` root, so
//!   the pop order is the global order whichever lane holds an event.
//! * **Front-buffer fast path.** The dominant simulator pattern is
//!   schedule-then-pop-min: a handler schedules the next completion, which
//!   immediately pops as the global minimum. An event strictly earlier than
//!   every queued entry (both lane roots) bypasses the heaps into a
//!   one-element front buffer; the subsequent pop takes it with no sift at
//!   all. Strictly-earlier is the only safe admission test — `seq` grows
//!   monotonically, so a same-time event must sit behind existing entries
//!   to keep FIFO ties.
//! * **Clock advance without an event.** A caller that has proved no live
//!   event is due at or before `t` (via [`Calendar::peek_time`]) may move
//!   the clock there with [`Calendar::advance_to`] instead of scheduling and
//!   popping a completion: the pop order of every queued event is
//!   unchanged, and `events_dispatched` does not count the skipped event.

use crate::heap::{Keyed, MinHeap};
use crate::time::SimTime;

/// A handle identifying one scheduled event, used for cancellation. Stale
/// handles (fired or already-cancelled events) are harmless.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

const COMPLETION: u8 = 0;
const TIMER: u8 = 1;

/// Heap key: time-ordered, FIFO within a tie, pointing at its payload slot.
/// `lane` (`COMPLETION` or `TIMER`) is the heap it lives in or returns to.
#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    lane: u8,
}

impl Keyed for HeapEntry {
    type Key = (SimTime, u64);

    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// One payload slot. `gen` advances every time the slot is vacated, so
/// handles into previous occupancies can never alias the current one.
struct Slot<E> {
    gen: u32,
    cancelled: bool,
    payload: Option<E>,
}

/// The event calendar.
///
/// `E` is the caller's event payload type. The calendar itself knows nothing
/// about event semantics; the simulation main loop pops events and dispatches
/// them.
pub struct Calendar<E> {
    /// The completion and timer heaps, indexed by `HeapEntry::lane`.
    lanes: [MinHeap<HeapEntry>; 2],
    /// Fast-path buffer: when `Some`, this entry's key is strictly smaller
    /// than every key in both lanes, so it is the next entry to surface. Its
    /// payload lives in `slots` like any other event (cancellation works
    /// unchanged); only the heap position is elided.
    front: Option<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    live: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at `t = 0`.
    pub fn new() -> Self {
        Calendar {
            lanes: Default::default(),
            front: None,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            live: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `at` in the completion lane.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock: the past is immutable.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        self.insert(at, payload, COMPLETION)
    }

    /// Schedule `payload` at absolute time `at` in the timer lane, for
    /// events whose count scales with the workload (arrivals, deadlines).
    /// It pops (or panics on a past `at`) exactly as [`Calendar::schedule`].
    pub fn schedule_timer(&mut self, at: SimTime, payload: E) -> EventHandle {
        self.insert(at, payload, TIMER)
    }

    #[inline]
    fn insert(&mut self, at: SimTime, payload: E, lane: u8) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none(), "free slot must be vacant");
                s.cancelled = false;
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slot count fits u32");
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                    payload: Some(payload),
                });
                slot
            }
        };
        let entry = HeapEntry {
            at,
            seq,
            slot,
            lane,
        };
        match self.front {
            // Strictly earlier than the buffered minimum: the new event
            // becomes the front and the old front rejoins its lane (it is
            // still smaller than everything there, so the invariant holds).
            Some(front) if entry.key() < front.key() => {
                self.front = Some(entry);
                self.push(front);
            }
            Some(_) => self.push(entry),
            // No front yet: admit the new event if it precedes both lane
            // roots (cancelled entries only over-approximate the minimum,
            // which keeps the test conservative and correct).
            None => match self.min_lane() {
                Some(l) if self.lanes[l][0].key() < entry.key() => self.push(entry),
                _ => self.front = Some(entry),
            },
        }
        self.live += 1;
        EventHandle {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a silent no-op, which lets callers
    /// keep stale handles without bookkeeping.
    pub fn cancel(&mut self, handle: EventHandle) {
        if let Some(s) = self.slots.get_mut(handle.slot as usize) {
            if s.gen == handle.gen && s.payload.is_some() && !s.cancelled {
                s.cancelled = true;
                self.live -= 1;
            }
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = match self.front.take() {
                Some(front) => front,
                None => self.lanes[self.min_lane()?]
                    .pop()
                    .expect("min lane is non-empty"),
            };
            let (payload, was_cancelled) = self.vacate(entry.slot);
            if was_cancelled {
                continue;
            }
            debug_assert!(entry.at >= self.now, "calendar order violated");
            self.now = entry.at;
            self.popped += 1;
            self.live -= 1;
            return Some((entry.at, payload));
        }
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(front) = self.front {
            if !self.slots[front.slot as usize].cancelled {
                return Some(front.at);
            }
            // Vacate the cancelled front eagerly: its slot returns to the
            // free list so a later `schedule` can reuse it, and the stale
            // entry can never shadow that new occupant.
            self.front = None;
            self.vacate(front.slot);
        }
        loop {
            let lane = self.min_lane()?;
            let root = self.lanes[lane][0];
            if !self.slots[root.slot as usize].cancelled {
                return Some(root.at);
            }
            self.lanes[lane].pop();
            self.vacate(root.slot);
        }
    }

    /// Move the clock to `t` without dispatching an event. The caller
    /// guarantees that no live event is due at or before `t` — an event
    /// due exactly at `t` must still pop first — so the pop order of
    /// every queued event is the same as if a completion scheduled at `t`
    /// had been popped.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "cannot advance into the past");
        debug_assert!(
            self.front
                .iter()
                .chain(self.lanes.iter().flat_map(|lane| lane.iter()))
                .all(|e| e.at > t || self.slots[e.slot as usize].cancelled),
            "advance_to({t:?}) would skip a live event due at or before it"
        );
        self.now = t;
    }

    /// Number of live (non-cancelled) events still scheduled.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Take the payload out of `slot` and return it to the free list,
    /// advancing the generation so outstanding handles go stale. Returns
    /// the payload and whether the entry had been cancelled.
    fn vacate(&mut self, slot: u32) -> (E, bool) {
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("heap entry has a payload");
        let was_cancelled = s.cancelled;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        (payload, was_cancelled)
    }

    fn push(&mut self, entry: HeapEntry) {
        self.lanes[entry.lane as usize].push(entry);
    }

    /// The lane holding the smaller root key, or `None` if both are empty.
    /// Keys are unique (`seq` never repeats), so the roots never tie.
    fn min_lane(&self) -> Option<usize> {
        match (self.lanes[0].first(), self.lanes[1].first()) {
            (Some(c), Some(t)) => Some(usize::from(t.key() < c.key())),
            (Some(_), None) => Some(0),
            (None, t) => t.map(|_| 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(30), "c");
        cal.schedule(SimTime(10), "a");
        cal.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(2), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(100), ());
        cal.pop();
        cal.schedule(SimTime(50), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut cal = Calendar::new();
        let h1 = cal.schedule(SimTime(1), "dead");
        cal.schedule(SimTime(2), "live");
        cal.cancel(h1);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("live"));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(1), ());
        cal.pop();
        cal.cancel(h); // must not affect later events
        cal.schedule(SimTime(2), ());
        assert!(cal.pop().is_some());
    }

    #[test]
    fn cancel_after_fire_keeps_len_exact() {
        // Seed-implementation regression: a cancel() after the event fired
        // left a stale tombstone that undercounted len() forever.
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(1), ());
        cal.pop();
        cal.cancel(h);
        cal.schedule(SimTime(2), ());
        assert_eq!(cal.len(), 1, "one live event is queued");
        assert!(!cal.is_empty());
        cal.cancel(h); // still stale, still a no-op
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(1), ());
        cal.schedule(SimTime(2), ());
        cal.cancel(h);
        cal.cancel(h);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().map(|(t, ())| t), Some(SimTime(2)));
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuse() {
        // The slot of a fired event is reused by a new event; the old handle
        // must not be able to cancel the new occupant.
        let mut cal = Calendar::new();
        let h_old = cal.schedule(SimTime(1), "old");
        cal.pop();
        cal.schedule(SimTime(2), "new"); // reuses the vacated slot
        cal.cancel(h_old);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("new"));
    }

    #[test]
    fn peek_respects_cancellation() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(1), "x");
        cal.schedule(SimTime(7), "y");
        cal.cancel(h);
        assert_eq!(cal.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), 1u32);
        let (t, _) = cal.pop().unwrap();
        cal.schedule(t + Duration(5), 2u32);
        cal.schedule(t + Duration(1), 3u32);
        assert_eq!(cal.pop().map(|(_, e)| e), Some(3));
        assert_eq!(cal.pop().map(|(_, e)| e), Some(2));
        assert_eq!(cal.events_dispatched(), 3);
    }

    #[test]
    fn front_fast_path_preserves_fifo_ties() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), 0u32); // buffered front
        cal.schedule(SimTime(10), 1u32); // tie: must queue behind, not displace
        cal.schedule(SimTime(5), 2u32); // strictly earlier: displaces front
        assert_eq!(cal.pop().map(|(_, e)| e), Some(2));
        assert_eq!(cal.pop().map(|(_, e)| e), Some(0));
        assert_eq!(cal.pop().map(|(_, e)| e), Some(1));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn schedule_pop_chain_never_touches_heap() {
        // The pattern the fast path exists for: each handler schedules the
        // next minimum, which pops immediately.
        let mut cal = Calendar::new();
        cal.schedule_timer(SimTime(1_000_000), "horizon");
        for i in 1..=100u64 {
            cal.schedule(SimTime(i), "step");
            assert_eq!(cal.pop(), Some((SimTime(i), "step")));
        }
        assert_eq!(
            cal.lanes.each_ref().map(|lane| lane.len()),
            [0, 1],
            "the chain must bypass both heaps"
        );
        assert_eq!(cal.pop().map(|(_, e)| e), Some("horizon"));
    }

    #[test]
    fn lane_tag_fits_in_the_entry_padding() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
    }

    #[test]
    fn same_instant_ties_across_lanes_pop_fifo() {
        // Both tied events sit in their lane heaps behind an earlier front;
        // the scheduling order decides, not the lane.
        for timer_first in [false, true] {
            let mut cal = Calendar::new();
            cal.schedule(SimTime(1), "front");
            if timer_first {
                cal.schedule_timer(SimTime(5), "first");
                cal.schedule(SimTime(5), "second");
            } else {
                cal.schedule(SimTime(5), "first");
                cal.schedule_timer(SimTime(5), "second");
            }
            assert_eq!(cal.lanes.each_ref().map(|lane| lane.len()), [1, 1]);
            let order: Vec<_> =
                std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
            assert_eq!(
                order,
                ["front", "first", "second"],
                "timer_first={timer_first}"
            );
        }
    }

    #[test]
    fn front_admission_tests_the_smaller_lane_root() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(1), "first");
        cal.schedule_timer(SimTime(10), "t10");
        cal.schedule(SimTime(20), "c20");
        cal.pop();
        // Earlier than its own lane's root (20) but later than the timer
        // root (10): it must queue, not take the front.
        cal.schedule(SimTime(15), "c15");
        assert!(cal.front.is_none());
        // Earlier than both roots: admitted.
        cal.schedule(SimTime(5), "c5");
        assert_eq!(cal.front.map(|f| f.at), Some(SimTime(5)));
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["c5", "t10", "c15", "c20"]);
    }

    #[test]
    fn peek_drops_a_cancelled_timer_root() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(1), "first");
        let h = cal.schedule_timer(SimTime(5), "dead");
        cal.schedule(SimTime(9), "live");
        cal.pop();
        cal.cancel(h);
        assert_eq!(cal.peek_time(), Some(SimTime(9)));
        assert!(
            cal.lanes[TIMER as usize].is_empty(),
            "the cancelled root is gone"
        );
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime(9), "live")));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancelled_front_slot_reuse_is_not_shadowed() {
        // Cancel the buffered minimum, peek (which vacates it and frees the
        // slot), then schedule into the freed slot: the fast path must
        // surface the new occupant, and the stale handle must stay inert.
        let mut cal = Calendar::new();
        let h_min = cal.schedule(SimTime(1), "min");
        cal.schedule(SimTime(9), "later");
        cal.cancel(h_min);
        assert_eq!(cal.peek_time(), Some(SimTime(9)));
        assert_eq!(cal.len(), 1);
        cal.schedule(SimTime(3), "reused"); // reoccupies the vacated slot
        assert_eq!(cal.peek_time(), Some(SimTime(3)));
        cal.cancel(h_min); // stale generation: no-op
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("reused"));
        assert_eq!(cal.pop().map(|(_, e)| e), Some("later"));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancelled_front_is_skipped_by_pop() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(2), "front");
        cal.schedule(SimTime(4), "heap");
        cal.cancel(h);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("heap"));
        assert!(cal.pop().is_none());
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn advance_to_keeps_time_and_fifo_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), 0u32);
        cal.schedule(SimTime(10), 1u32);
        cal.advance_to(SimTime(9));
        assert_eq!(cal.now(), SimTime(9));
        assert_eq!(cal.events_dispatched(), 0, "advancing dispatches nothing");
        cal.schedule(SimTime(9), 2u32);
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(order, [(SimTime(9), 2), (SimTime(10), 0), (SimTime(10), 1)]);
    }

    #[test]
    fn advance_to_may_pass_a_cancelled_event() {
        let mut cal = Calendar::new();
        let h = cal.schedule(SimTime(5), "dead");
        cal.schedule(SimTime(20), "live");
        cal.cancel(h);
        cal.advance_to(SimTime(15));
        assert_eq!(cal.pop(), Some((SimTime(20), "live")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would skip a live event")]
    fn advance_to_past_a_live_event_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(7), ());
        cal.advance_to(SimTime(7));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would skip a live event")]
    fn advance_to_past_a_live_timer_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(1), ());
        cal.schedule_timer(SimTime(7), ());
        cal.pop();
        assert!(cal.front.is_none(), "the timer waits in its lane heap");
        cal.advance_to(SimTime(7));
    }

    #[test]
    fn heavy_interleaving_stays_sorted() {
        // Deterministic pseudo-random schedule/pop mix; output must be
        // non-decreasing in time and FIFO within ties.
        let mut cal = Calendar::new();
        let mut x = 0x9E37_79B9u64;
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        for seq in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let dt = x % 50;
            cal.schedule(cal.now() + Duration(dt), seq);
            if x.is_multiple_of(3) {
                if let Some((t, s)) = cal.pop() {
                    popped.push((t, s));
                }
            }
        }
        while let Some((t, s)) = cal.pop() {
            popped.push((t, s));
        }
        assert_eq!(popped.len(), 2_000);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }
}
