//! Model-based property test: the slab/8-ary-heap calendar must agree with
//! a naive reference implementation under arbitrary interleavings of
//! schedule / cancel / pop / peek — including cancels aimed at handles that
//! already fired or were already cancelled (stale-handle no-ops). Each
//! schedule picks a random lane (`schedule` or `schedule_timer`) while the
//! model has no lanes at all, so agreement also proves that pop order,
//! peeks and lengths do not depend on the lane.

use proptest::prelude::*;
use simkit::time::{Duration, SimTime};
use simkit::Calendar;

/// The reference: a flat list scanned for the minimum `(at, seq)` live
/// entry. Obviously correct, obviously slow.
#[derive(Default)]
struct ModelCalendar {
    /// `(at, seq, cancelled, fired)` per scheduled event.
    events: Vec<(SimTime, u64, bool, bool)>,
    now: SimTime,
}

impl ModelCalendar {
    fn schedule(&mut self, at: SimTime) -> usize {
        let seq = self.events.len() as u64;
        self.events.push((at, seq, false, false));
        self.events.len() - 1
    }

    fn cancel(&mut self, idx: usize) {
        let e = &mut self.events[idx];
        if !e.2 && !e.3 {
            e.2 = true;
        }
    }

    fn next_live(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.2 && !e.3)
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let i = self.next_live()?;
        self.events[i].3 = true;
        self.now = self.events[i].0;
        Some((self.events[i].0, self.events[i].1))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.next_live().map(|i| self.events[i].0)
    }

    fn len(&self) -> usize {
        self.events.iter().filter(|e| !e.2 && !e.3).count()
    }
}

/// Regression for the front-buffer fast path: cancelling the minimum and
/// then scheduling into its freed slot must surface the new occupant — the
/// stale front entry must neither shadow it in `peek_time` nor let the old
/// handle cancel it.
#[test]
fn cancel_min_then_reuse_slot_keeps_peek_fresh() {
    let mut cal: Calendar<&str> = Calendar::new();
    let h_min = cal.schedule(SimTime(10), "min");
    cal.schedule(SimTime(50), "later");
    cal.cancel(h_min);
    // The peek drops the cancelled minimum and frees its slot.
    assert_eq!(cal.peek_time(), Some(SimTime(50)));
    assert_eq!(cal.len(), 1);
    // This reuses the freed slot and becomes the new minimum.
    let h_new = cal.schedule(SimTime(20), "reused");
    assert_eq!(cal.peek_time(), Some(SimTime(20)));
    // The stale handle aliases the slot but not the generation: a cancel
    // through it must not touch the new occupant.
    cal.cancel(h_min);
    assert_eq!(cal.len(), 2);
    assert_eq!(cal.peek_time(), Some(SimTime(20)));
    assert_eq!(cal.pop(), Some((SimTime(20), "reused")));
    assert_eq!(cal.pop(), Some((SimTime(50), "later")));
    assert_eq!(cal.pop(), None);
    // And the fresh handle is stale now too.
    cal.cancel(h_new);
    assert_eq!(cal.len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive both calendars with the same random operation tape and compare
    /// every observable: pop order and times, peeks, lengths, clock.
    #[test]
    fn calendar_agrees_with_reference_model(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000, 0u8..2), 0..400),
    ) {
        let mut cal: Calendar<u64> = Calendar::new();
        let mut model = ModelCalendar::default();
        // Handles of every event ever scheduled, fired or not — cancels are
        // aimed at arbitrary entries so stale handles get exercised.
        let mut handles = Vec::new();
        for (op, arg, lane) in ops {
            match op {
                // Schedule (biased: half the tape), with frequent ties to
                // stress FIFO ordering.
                0..=3 => {
                    let at = model.now + Duration(arg % 40);
                    let payload = model.events.len() as u64;
                    let h = if lane == 0 {
                        cal.schedule(at, payload)
                    } else {
                        cal.schedule_timer(at, payload)
                    };
                    let idx = model.schedule(at);
                    handles.push((h, idx));
                }
                4 | 5 => {
                    // Cancel an arbitrary (possibly stale) handle.
                    if !handles.is_empty() {
                        let (h, idx) = handles[arg as usize % handles.len()];
                        cal.cancel(h);
                        model.cancel(idx);
                    }
                }
                6 => {
                    let got = cal.pop();
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(cal.now(), model.now);
                }
                _ => {
                    prop_assert_eq!(cal.peek_time(), model.peek_time());
                }
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.is_empty(), model.len() == 0);
        }
        // Drain: the full remaining sequence must match exactly.
        loop {
            let got = cal.pop();
            let want = model.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
