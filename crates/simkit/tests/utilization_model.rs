//! Model-based property test: one `Utilization` must read, bit for bit,
//! what two separate busy collectors read — one over the whole run, one
//! restarted at every window reset (the engine's feedback batch). The
//! reference below is that separate collector: it zeroes its busy time at
//! a reset and restarts an open interval at the reset instant.

use proptest::prelude::*;
use simkit::metrics::Utilization;
use simkit::time::{Duration, SimTime};

/// A busy collector with one measurement window.
struct Reference {
    busy: Duration,
    busy_since: Option<SimTime>,
    window_start: SimTime,
}

impl Reference {
    fn new(start: SimTime) -> Self {
        Reference {
            busy: Duration::ZERO,
            busy_since: None,
            window_start: start,
        }
    }

    fn begin_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    fn end_busy(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy += now.since(since);
        }
    }

    fn fraction(&self, now: SimTime) -> f64 {
        let span = now.since(self.window_start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let mut busy = self.busy;
        if let Some(since) = self.busy_since {
            busy += now.since(since);
        }
        (busy.as_secs_f64() / span).min(1.0)
    }

    fn reset_window(&mut self, now: SimTime) {
        self.busy = Duration::ZERO;
        self.window_start = now;
        if self.busy_since.is_some() {
            self.busy_since = Some(now);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_clock_reads_what_a_run_and_a_window_collector_read(
        ops in proptest::collection::vec((0u8..4, 0u64..3_000_000_000), 0..400),
    ) {
        let start = SimTime(23);
        let mut merged = Utilization::new(start);
        let mut run = Reference::new(start);
        let mut window = Reference::new(start);
        let mut now = start;
        for (op, gap) in ops {
            // Ties (gap 0) are frequent: a reset and a busy edge at one
            // instant, or a zero-span window read.
            now += Duration(gap % 3 * (gap / 3));
            match op {
                0 => {
                    merged.begin_busy(now);
                    run.begin_busy(now);
                    window.begin_busy(now);
                }
                1 => {
                    merged.end_busy(now);
                    run.end_busy(now);
                    window.end_busy(now);
                }
                2 => {
                    merged.reset_window(now);
                    window.reset_window(now);
                }
                _ => {}
            }
            prop_assert_eq!(merged.fraction(now).to_bits(), run.fraction(now).to_bits());
            prop_assert_eq!(
                merged.window_fraction(now).to_bits(),
                window.fraction(now).to_bits()
            );
        }
    }
}
