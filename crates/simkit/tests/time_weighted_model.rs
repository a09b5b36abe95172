//! Model-based property test: one `TimeWeighted` must read, bit for bit,
//! what two separate collectors read — one over the whole run, one
//! restarted at every window reset (the engine's feedback batch). The
//! references are `TimeWeightedN<1>`s, the engine's former pair of MPL
//! collectors. A reset is always followed by a `set` at the same instant,
//! as the engine's batch close is (it reallocates, which sets the MPL);
//! that is the condition under which one clock and two clocks agree.

use proptest::prelude::*;
use simkit::metrics::{TimeWeighted, TimeWeightedN};
use simkit::time::{Duration, SimTime};

/// A reference's mean at `now`, read from a copy so the reference's own
/// clock is not split by the read.
fn mean(reference: &TimeWeightedN<1>, now: SimTime) -> f64 {
    let mut copy = *reference;
    copy.means(now)[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_clock_reads_what_a_run_and_a_window_collector_read(
        ops in proptest::collection::vec((0u8..3, 0u64..3_000_000_000, 0u32..40), 0..400),
    ) {
        let start = SimTime(23);
        let mut merged = TimeWeighted::new(start, 0.0);
        let mut run = TimeWeightedN::<1>::new(start);
        let mut window = TimeWeightedN::<1>::new(start);
        let mut now = start;
        for (op, gap, level) in ops {
            // Ties (gap 0) are frequent: a reset and a set at one instant,
            // or a zero-span window read.
            now += Duration(gap % 3 * (gap / 3));
            let v = f64::from(level) * 0.5;
            match op {
                0 => {
                    merged.set(now, v);
                    run.set(now, [v]);
                    window.set(now, [v]);
                }
                1 => {
                    merged.reset_window(now);
                    window.reset_window(now);
                    merged.set(now, v);
                    run.set(now, [v]);
                    window.set(now, [v]);
                }
                _ => {}
            }
            prop_assert_eq!(merged.current().to_bits(), run.current()[0].to_bits());
            prop_assert_eq!(merged.mean(now).to_bits(), mean(&run, now).to_bits());
            prop_assert_eq!(
                merged.window_mean(now).to_bits(),
                mean(&window, now).to_bits()
            );
        }
    }
}
