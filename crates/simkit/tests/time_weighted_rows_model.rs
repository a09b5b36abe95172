//! Model-based property test: `TimeWeightedRows` must hold, bit for bit,
//! what one `TimeWeightedN` per entity holds when every listed entity is
//! set at every shared instant — the engine's per-tenant usage pattern.
//! The tape inserts, re-sets and removes entities at shared instants and
//! closes single entities' windows in between (the per-tenant feedback
//! batch), listed or not.

use proptest::prelude::*;
use simkit::metrics::{TimeWeightedN, TimeWeightedRows};
use simkit::time::{Duration, SimTime};

const ENTITIES: usize = 9;

fn bits<const N: usize>(v: [f64; N]) -> [u64; N] {
    v.map(f64::to_bits)
}

/// Values drawn from `arg`, zero now and then (an idle entity).
fn values(arg: u64) -> [f64; 2] {
    if arg.is_multiple_of(5) {
        [0.0; 2]
    } else {
        [(arg % 13) as f64, (arg % 1_000) as f64 * 0.37]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_agree_with_one_collector_per_entity(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000_000, 0u64..10_000), 0..300),
    ) {
        let start = SimTime(17);
        let mut reference = [TimeWeightedN::<2>::new(start); ENTITIES];
        let mut rows = TimeWeightedRows::<2>::new(start);
        // Off-row entities, and the row of each listed one.
        let mut parked = reference;
        let mut row_of = [None::<usize>; ENTITIES];
        let mut entity_of: Vec<usize> = Vec::new();
        let mut now = start;
        for (op, gap, arg) in ops {
            // Ties (gap 0) are frequent: closes and advances at one instant.
            now += Duration(gap % 4 * (gap / 4));
            let e = (arg as usize) % ENTITIES;
            if op == 0 {
                // Close one entity's window between shared instants.
                let got = match row_of[e] {
                    Some(row) => rows.close_window(row, now),
                    None => parked[e].close_window(now),
                };
                prop_assert_eq!(bits(got), bits(reference[e].close_window(now)));
            } else {
                // A shared instant: every listed entity is set, entity `e`
                // to new values, joining or leaving the rows as it goes
                // nonzero or back to zero.
                rows.advance(now);
                for (k, tw) in reference.iter_mut().enumerate() {
                    if row_of[k].is_some() && k != e {
                        tw.set(now, tw.current());
                    }
                }
                let v = values(arg / ENTITIES as u64);
                let idle = v == [0.0; 2];
                match row_of[e] {
                    Some(row) => {
                        reference[e].set(now, v);
                        rows.set(row, v);
                        if idle {
                            parked[e] = rows.remove(row);
                            row_of[e] = None;
                            entity_of.swap_remove(row);
                            if let Some(&moved) = entity_of.get(row) {
                                row_of[moved] = Some(row);
                            }
                        }
                    }
                    None if !idle => {
                        reference[e].set(now, v);
                        row_of[e] = Some(rows.insert(parked[e], v));
                        entity_of.push(e);
                    }
                    // Touched but idle: both sides skip it (0 × dt adds 0).
                    None => {}
                }
            }
            prop_assert_eq!(rows.len(), entity_of.len());
            for k in 0..ENTITIES {
                let tw = row_of[k].map_or(parked[k], |row| rows.get(row));
                prop_assert_eq!(bits(tw.current()), bits(reference[k].current()));
                prop_assert_eq!(bits(tw.integrals()), bits(reference[k].integrals()));
            }
        }
        let end = now + Duration(1_000_003);
        rows.advance(end);
        for k in 0..ENTITIES {
            let mut tw = row_of[k].map_or(parked[k], |row| rows.get(row));
            if row_of[k].is_some() {
                reference[k].set(end, reference[k].current());
            }
            prop_assert_eq!(bits(tw.means(end)), bits(reference[k].means(end)));
        }
    }
}
