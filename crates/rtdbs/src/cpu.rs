//! The CPU manager: a single CPU scheduled by preemptive-resume Earliest
//! Deadline (Section 4.2: "The CPU ... is scheduled by the Earliest
//! Deadline discipline").
//!
//! A running burst is preempted the instant a more urgent query becomes
//! ready; the preempted burst keeps its progress and resumes when it again
//! has the earliest deadline. Completion events are cancelled on preemption
//! so no generation counters are needed.
//!
//! The ready queue is the calendar's 8-ary [`MinHeap`], keyed by
//! `(deadline, query)`, instead of the seed's `BTreeMap`: push and pop-min
//! touch a flat `Vec` of 24-byte `Copy` entries with no node allocation or
//! tree rebalancing on the per-burst hot path. Unlike the calendar no slab
//! indirection is needed: entries carry their payload (the burst's
//! remaining instructions) inline and there are no cancellation handles —
//! the rare firm-abort removal scans the heap and re-heapifies.
//! `(deadline, query)` is unique (a query has at most one outstanding
//! burst), so pop-min is deterministic.
//!
//! **Inline completion.** Most bursts of the paper workloads are
//! uncontended: the CPU is idle, nothing is ready, and no calendar event is
//! due before the burst would end. Nothing can preempt such a burst, so
//! [`CpuManager::run_inline`] books its busy time and advances the calendar
//! clock to its end instead of scheduling a `CpuDone` and popping it. An
//! event due exactly at the end would fire before that `CpuDone` (FIFO tie
//! on the scheduling sequence), so that case takes the scheduled path.

use crate::engine::Event;
use pmm::QueryId;
use simkit::calendar::EventHandle;
use simkit::heap::{Keyed, MinHeap};
use simkit::metrics::Utilization;
use simkit::{Calendar, Duration, SimTime};

struct Running {
    query: QueryId,
    deadline: SimTime,
    remaining_instr: f64,
    started: SimTime,
    handle: EventHandle,
}

/// One parked burst: ED key plus remaining work.
#[derive(Clone, Copy, Debug)]
struct ReadyEntry {
    deadline: SimTime,
    query: QueryId,
    instr: f64,
}

impl Keyed for ReadyEntry {
    type Key = (SimTime, QueryId);

    #[inline]
    fn key(&self) -> (SimTime, QueryId) {
        (self.deadline, self.query)
    }
}

/// The preemptive-ED CPU.
pub(crate) struct CpuManager {
    mips: f64,
    running: Option<Running>,
    /// Ready bursts, min-heap on (deadline, query id).
    ready: MinHeap<ReadyEntry>,
    /// Busy accounting over the run and over the feedback batch.
    pub(crate) util: Utilization,
}

impl CpuManager {
    /// A CPU rated at `mips` million instructions per second.
    pub(crate) fn new(mips: f64, start: SimTime) -> Self {
        assert!(mips > 0.0, "MIPS rating must be positive");
        CpuManager {
            mips,
            running: None,
            ready: MinHeap::default(),
            util: Utilization::new(start),
        }
    }

    fn burst_duration(&self, instructions: f64) -> Duration {
        Duration::from_secs_f64(instructions / (self.mips * 1e6))
    }

    fn begin(
        &mut self,
        now: SimTime,
        query: QueryId,
        deadline: SimTime,
        instr: f64,
        cal: &mut Calendar<Event>,
    ) {
        let handle =
            cal.schedule(now + self.burst_duration(instr), Event::CpuDone { query });
        if self.running.is_none() {
            self.util.begin_busy(now);
        }
        self.running = Some(Running {
            query,
            deadline,
            remaining_instr: instr,
            started: now,
            handle,
        });
    }

    /// Submit a CPU burst for `query`. Preempts the running burst if this
    /// one is more urgent.
    pub(crate) fn submit(
        &mut self,
        now: SimTime,
        query: QueryId,
        deadline: SimTime,
        instructions: u64,
        cal: &mut Calendar<Event>,
    ) {
        let instr = instructions as f64;
        match &self.running {
            None => self.begin(now, query, deadline, instr, cal),
            Some(run) if (deadline, query) < (run.deadline, run.query) => {
                // Preempt: bank the incumbent's progress.
                let run = self.running.take().expect("checked above");
                cal.cancel(run.handle);
                let executed = now.since(run.started).as_secs_f64() * self.mips * 1e6;
                let left = (run.remaining_instr - executed).max(0.0);
                self.ready.push(ReadyEntry {
                    deadline: run.deadline,
                    query: run.query,
                    instr: left,
                });
                self.begin(now, query, deadline, instr, cal);
            }
            Some(_) => {
                self.ready.push(ReadyEntry {
                    deadline,
                    query,
                    instr,
                });
            }
        }
    }

    /// Run an `instructions` burst to completion at once if nothing can
    /// interrupt it: the CPU is idle, no burst is ready, and every live
    /// calendar event is due strictly after the burst ends. On success the
    /// busy time is booked, the calendar clock stands at the burst's end,
    /// and that end is returned — the caller continues the query there, as
    /// the `CpuDone` handler would have. Otherwise nothing changes and the
    /// caller must [`CpuManager::submit`] the burst.
    pub(crate) fn run_inline(
        &mut self,
        now: SimTime,
        instructions: u64,
        cal: &mut Calendar<Event>,
    ) -> Option<SimTime> {
        if self.running.is_some() || !self.ready.is_empty() {
            return None;
        }
        let end = now + self.burst_duration(instructions as f64);
        if cal.peek_time().is_some_and(|t| t <= end) {
            return None;
        }
        self.util.begin_busy(now);
        self.util.end_busy(end);
        cal.advance_to(end);
        Some(end)
    }

    /// Handle a `CpuDone` event: the running burst finished. Returns the
    /// finished query; the next ready burst (if any) is dispatched.
    pub(crate) fn on_done(
        &mut self,
        now: SimTime,
        query: QueryId,
        cal: &mut Calendar<Event>,
    ) -> QueryId {
        let run = self.running.take().expect("CpuDone with idle CPU");
        debug_assert_eq!(run.query, query, "completion routed to wrong query");
        self.util.end_busy(now);
        self.dispatch_next(now, cal);
        query
    }

    fn dispatch_next(&mut self, now: SimTime, cal: &mut Calendar<Event>) {
        if let Some(next) = self.ready.pop() {
            self.begin(now, next.query, next.deadline, next.instr, cal);
        }
    }

    /// Remove every trace of `query` (firm-deadline abort). If it was
    /// running, the CPU immediately moves on to the next ready burst.
    pub(crate) fn cancel(
        &mut self,
        now: SimTime,
        query: QueryId,
        cal: &mut Calendar<Event>,
    ) {
        // At most one burst per query; rare (firm aborts only).
        self.ready.retain(|e| e.query != query);
        if self.running.as_ref().is_some_and(|r| r.query == query) {
            let run = self.running.take().expect("checked");
            cal.cancel(run.handle);
            self.util.end_busy(now);
            self.dispatch_next(now, cal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CpuManager, Calendar<Event>) {
        (CpuManager::new(40.0, SimTime::ZERO), Calendar::new())
    }

    fn expect_done(cal: &mut Calendar<Event>) -> (SimTime, QueryId) {
        match cal.pop() {
            Some((t, Event::CpuDone { query })) => (t, query),
            other => panic!("expected CpuDone, got {other:?}"),
        }
    }

    #[test]
    fn single_burst_timing() {
        let (mut cpu, mut cal) = setup();
        // 40 MIPS → 40 M instr takes 1 s.
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(100),
            40_000_000,
            &mut cal,
        );
        let (t, q) = expect_done(&mut cal);
        assert_eq!(q, QueryId(1));
        assert_eq!(t, SimTime::from_secs(1));
        cpu.on_done(t, q, &mut cal);
        assert!(cpu.running.is_none());
    }

    #[test]
    fn fifo_within_equal_priority_by_id() {
        let (mut cpu, mut cal) = setup();
        let d = SimTime::from_secs(100);
        cpu.submit(SimTime::ZERO, QueryId(2), d, 40_000_000, &mut cal);
        cpu.submit(SimTime::ZERO, QueryId(1), d, 40_000_000, &mut cal);
        // Query 1 preempts query 2 (same deadline, lower id wins — a stable
        // deterministic tie-break).
        let (t, q) = expect_done(&mut cal);
        assert_eq!(q, QueryId(1));
        cpu.on_done(t, q, &mut cal);
        let (t2, q2) = expect_done(&mut cal);
        assert_eq!(q2, QueryId(2));
        assert_eq!(t2, SimTime::from_secs(2));
    }

    #[test]
    fn preemption_preserves_progress() {
        let (mut cpu, mut cal) = setup();
        // Query 9 (loose deadline) starts a 2 s burst.
        cpu.submit(
            SimTime::ZERO,
            QueryId(9),
            SimTime::from_secs(1000),
            80_000_000,
            &mut cal,
        );
        // At t = 0.5 s, urgent query 1 arrives with a 1 s burst.
        let t_preempt = SimTime::from_secs_f64(0.5);
        cpu.submit(
            t_preempt,
            QueryId(1),
            SimTime::from_secs(10),
            40_000_000,
            &mut cal,
        );
        // Query 1 finishes at 1.5 s.
        let (t, q) = expect_done(&mut cal);
        assert_eq!(q, QueryId(1));
        assert_eq!(t, SimTime::from_secs_f64(1.5));
        cpu.on_done(t, q, &mut cal);
        // Query 9 resumes with 1.5 s of work left → finishes at 3.0 s.
        let (t2, q2) = expect_done(&mut cal);
        assert_eq!(q2, QueryId(9));
        assert_eq!(t2, SimTime::from_secs(3));
    }

    #[test]
    fn lower_priority_does_not_preempt() {
        let (mut cpu, mut cal) = setup();
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(10),
            40_000_000,
            &mut cal,
        );
        cpu.submit(
            SimTime::ZERO,
            QueryId(2),
            SimTime::from_secs(99),
            40_000_000,
            &mut cal,
        );
        assert_eq!(cpu.ready.len(), 1);
        let (_, q) = expect_done(&mut cal);
        assert_eq!(q, QueryId(1));
    }

    #[test]
    fn cancel_running_burst_dispatches_next() {
        let (mut cpu, mut cal) = setup();
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(10),
            40_000_000,
            &mut cal,
        );
        cpu.submit(
            SimTime::ZERO,
            QueryId(2),
            SimTime::from_secs(20),
            40_000_000,
            &mut cal,
        );
        cpu.cancel(SimTime::from_secs_f64(0.25), QueryId(1), &mut cal);
        // Query 1's completion was cancelled; query 2 runs 0.25 → 1.25 s.
        let (t, q) = expect_done(&mut cal);
        assert_eq!(q, QueryId(2));
        assert_eq!(t, SimTime::from_secs_f64(1.25));
    }

    #[test]
    fn cancel_ready_burst() {
        let (mut cpu, mut cal) = setup();
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(10),
            40_000_000,
            &mut cal,
        );
        cpu.submit(
            SimTime::ZERO,
            QueryId(2),
            SimTime::from_secs(20),
            40_000_000,
            &mut cal,
        );
        cpu.cancel(SimTime::ZERO, QueryId(2), &mut cal);
        assert_eq!(cpu.ready.len(), 0);
        assert!(cpu.running.is_some());
    }

    /// A 1 s burst at 40 MIPS.
    const ONE_SEC: u64 = 40_000_000;

    #[test]
    fn run_inline_refuses_when_the_cpu_is_busy() {
        let (mut cpu, mut cal) = setup();
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(10),
            ONE_SEC,
            &mut cal,
        );
        assert_eq!(cpu.run_inline(SimTime::ZERO, ONE_SEC, &mut cal), None);
        assert_eq!(cal.now(), SimTime::ZERO);
    }

    #[test]
    fn run_inline_refuses_when_a_burst_is_ready() {
        // A ready burst normally implies a running one; park one directly
        // so the ready-heap check is exercised on its own.
        let (mut cpu, mut cal) = setup();
        cpu.ready.push(ReadyEntry {
            deadline: SimTime::from_secs(10),
            query: QueryId(2),
            instr: ONE_SEC as f64,
        });
        assert_eq!(cpu.run_inline(SimTime::ZERO, ONE_SEC, &mut cal), None);
        assert_eq!(cal.now(), SimTime::ZERO);
    }

    #[test]
    fn run_inline_refuses_when_an_event_is_due_before_the_end() {
        let (mut cpu, mut cal) = setup();
        cal.schedule(
            SimTime::from_secs_f64(0.5),
            Event::Deadline { query: QueryId(7) },
        );
        assert_eq!(cpu.run_inline(SimTime::ZERO, ONE_SEC, &mut cal), None);
        assert!(cpu.running.is_none());
    }

    #[test]
    fn run_inline_refuses_when_an_event_is_due_exactly_at_the_end() {
        // The event would pop before a `CpuDone` scheduled later at the
        // same instant, so the burst must not complete ahead of it.
        let (mut cpu, mut cal) = setup();
        cal.schedule(SimTime::from_secs(1), Event::Deadline { query: QueryId(7) });
        assert_eq!(cpu.run_inline(SimTime::ZERO, ONE_SEC, &mut cal), None);
        assert_eq!(cpu.util.fraction(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn run_inline_passes_a_cancelled_event() {
        let (mut cpu, mut cal) = setup();
        let h = cal.schedule(
            SimTime::from_secs_f64(0.5),
            Event::Deadline { query: QueryId(7) },
        );
        cal.schedule(SimTime::from_secs(5), Event::EndOfRun);
        cal.cancel(h);
        let end = cpu.run_inline(SimTime::ZERO, ONE_SEC, &mut cal);
        assert_eq!(end, Some(SimTime::from_secs(1)));
        assert_eq!(cal.now(), SimTime::from_secs(1));
        assert!(cpu.running.is_none());
        assert!(matches!(cal.pop(), Some((_, Event::EndOfRun))));
    }

    #[test]
    fn inline_burst_books_the_same_utilization_as_the_scheduled_path() {
        let start = SimTime::from_secs_f64(0.25);
        let read_at = SimTime::from_secs(4);
        let (mut scheduled, mut cal) = setup();
        cal.schedule(start, Event::EndOfRun);
        cal.pop();
        scheduled.submit(start, QueryId(1), SimTime::from_secs(10), ONE_SEC, &mut cal);
        let (t, q) = expect_done(&mut cal);
        scheduled.on_done(t, q, &mut cal);

        let (mut inline, mut cal) = setup();
        cal.schedule(start, Event::EndOfRun);
        cal.pop();
        assert_eq!(inline.run_inline(start, ONE_SEC, &mut cal), Some(t));
        let (a, b) = (&scheduled.util, &inline.util);
        assert_eq!(a.fraction(read_at).to_bits(), b.fraction(read_at).to_bits());
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let (mut cpu, mut cal) = setup();
        cpu.submit(
            SimTime::ZERO,
            QueryId(1),
            SimTime::from_secs(10),
            40_000_000,
            &mut cal,
        );
        let (t, q) = expect_done(&mut cal);
        cpu.on_done(t, q, &mut cal);
        // Busy 1 s out of 4.
        let u = cpu.util.fraction(SimTime::from_secs(4));
        assert!((u - 0.25).abs() < 1e-9, "util {u}");
    }
}
