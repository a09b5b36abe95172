//! `simkit` — a small, deterministic discrete-event simulation substrate.
//!
//! The original paper's simulator was written in DeNet \[Livn90\], a
//! process-oriented simulation language. DeNet provides three primitives the
//! model relies on: a virtual clock with an event calendar, independent
//! random-number streams, and statistics collectors. This crate provides the
//! same primitives as a library:
//!
//! * [`SimTime`] / [`Duration`] — fixed-point virtual time (microseconds).
//! * [`Calendar`] — the event calendar (a priority queue keyed by time with
//!   deterministic FIFO tie-breaking).
//! * [`heap`] — the 8-ary min-heap behind the calendar's lanes, shared with
//!   the simulator's CPU ready queue.
//! * [`rng`] — a seedable xoshiro256++ generator with stream splitting, plus
//!   the distributions the workload model needs (exponential inter-arrival
//!   times, uniform ranges).
//! * [`metrics`] — counters, Welford tallies, time-weighted averages and
//!   batch-means confidence intervals, mirroring the paper's use of the batch
//!   means method \[Sarg76\] for its 90% confidence intervals.
//!
//! Everything is single-threaded and fully deterministic: two runs with the
//! same seed produce bit-identical traces, which the integration test suite
//! checks explicitly.

pub mod calendar;
pub mod heap;
pub mod metrics;
pub mod rng;
pub mod time;

pub use calendar::Calendar;
pub use rng::{Rng, SeedSequence};
pub use time::{Duration, SimTime};
