//! Chrome trace-event JSON export.
//!
//! Renders a slice of [`TraceRecord`]s to the Chrome trace-event format
//! (the JSON Object Format: `{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Virtual
//! time maps directly onto the trace clock: one simulator tick is one
//! microsecond, which is exactly the unit of the `ts`/`dur` fields, so
//! timestamps are emitted as exact integers.
//!
//! Lane layout (all under pid 0):
//! - tid 0 — engine control: policy decisions and batch boundaries;
//! - tid 1 — query lifecycle: async `b`/`n`/`e` spans keyed by query id
//!   (arrival → admission → completion), plus grant-change instants;
//! - tid 2 — CPU burst submissions;
//! - tid `10 + d` — disk `d`: media accesses as complete (`X`) slices
//!   with their service time as the duration, cache hits as instants.

use crate::trace::{TraceEvent, TraceRecord};
use std::fmt;
use std::io::{self, Write};

const ENGINE_TID: u32 = 0;
const QUERY_TID: u32 = 1;
const CPU_TID: u32 = 2;
const DISK_TID_BASE: u32 = 10;

/// The comma-separated event list of the document, one event a line.
struct Events<W: Write> {
    w: W,
    first: bool,
}

impl<W: Write> Events<W> {
    fn push(&mut self, body: fmt::Arguments<'_>) -> io::Result<()> {
        self.w.write_all(if self.first { b"\n" } else { b",\n" })?;
        self.first = false;
        self.w.write_fmt(body)
    }

    fn meta_thread(&mut self, tid: u32, name: impl fmt::Display) -> io::Result<()> {
        self.push(format_args!(
            r#"{{"ph":"M","pid":0,"tid":{tid},"name":"thread_name","args":{{"name":"{name}"}}}}"#
        ))
    }
}

/// Write `records` to `w` as a Chrome trace-event JSON document, one
/// event at a time.
///
/// Output is deterministic: identical records yield identical bytes.
pub fn write_chrome_json(records: &[TraceRecord], mut w: impl Write) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\": [")?;
    let mut ev = Events { w, first: true };
    ev.push(format_args!(
        r#"{{"ph":"M","pid":0,"name":"process_name","args":{{"name":"pmm-sim"}}}}"#
    ))?;
    ev.meta_thread(ENGINE_TID, "engine")?;
    ev.meta_thread(QUERY_TID, "queries")?;
    ev.meta_thread(CPU_TID, "cpu")?;
    let mut disks_seen: Vec<u32> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Io { disk, .. } | TraceEvent::IoRetry { disk, .. } => Some(disk),
            TraceEvent::FaultInjected { disk, .. } => disk,
            _ => None,
        })
        .collect();
    disks_seen.sort_unstable();
    disks_seen.dedup();
    for d in &disks_seen {
        ev.meta_thread(DISK_TID_BASE + d, format_args!("disk{d}"))?;
    }

    // Open outage windows per disk, so the clearing transition can be
    // rendered as a complete (`X`) slice spanning the whole window.
    let mut outage_open: Vec<(u32, u64)> = Vec::new();
    for r in records {
        let ts = r.at.0;
        match r.event {
            TraceEvent::Arrival { query, class } => {
                ev.push(format_args!(
                    r#"{{"ph":"b","cat":"query","id":{query},"name":"q{query}","pid":0,"tid":{QUERY_TID},"ts":{ts},"args":{{"class":{class}}}}}"#
                ))?;
            }
            TraceEvent::ArrivalGap { .. } => {}
            TraceEvent::Admitted { query, wait } => {
                ev.push(format_args!(
                    r#"{{"ph":"n","cat":"query","id":{query},"name":"q{query}","pid":0,"tid":{QUERY_TID},"ts":{ts},"args":{{"admitted_after_us":{}}}}}"#,
                    wait.0
                ))?;
            }
            TraceEvent::GrantChanged { query, pages } => {
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"t","name":"grant q{query}","pid":0,"tid":{QUERY_TID},"ts":{ts},"args":{{"pages":{pages}}}}}"#
                ))?;
            }
            TraceEvent::CpuBurst {
                query,
                instructions,
            } => {
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"t","name":"cpu q{query}","pid":0,"tid":{CPU_TID},"ts":{ts},"args":{{"instructions":{instructions}}}}}"#
                ))?;
            }
            TraceEvent::Io {
                query,
                disk,
                pages,
                write,
                cache_hit,
                service,
            } => {
                let tid = DISK_TID_BASE + disk;
                let kind = if write { "write" } else { "read" };
                if cache_hit {
                    ev.push(format_args!(
                        r#"{{"ph":"i","s":"t","name":"hit q{query}","pid":0,"tid":{tid},"ts":{ts},"args":{{"pages":{pages},"kind":"{kind}"}}}}"#
                    ))?;
                } else {
                    ev.push(format_args!(
                        r#"{{"ph":"X","name":"io q{query}","pid":0,"tid":{tid},"ts":{ts},"dur":{},"args":{{"pages":{pages},"kind":"{kind}"}}}}"#,
                        service.0
                    ))?;
                }
            }
            TraceEvent::Completed {
                query,
                class,
                missed,
            } => {
                ev.push(format_args!(
                    r#"{{"ph":"e","cat":"query","id":{query},"name":"q{query}","pid":0,"tid":{QUERY_TID},"ts":{ts},"args":{{"class":{class},"missed":{missed}}}}}"#
                ))?;
            }
            TraceEvent::PolicyDecision { mode, target_mpl } => {
                let target = target_mpl.map_or("null".to_string(), |m| m.to_string());
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"g","name":"policy {mode}","pid":0,"tid":{ENGINE_TID},"ts":{ts},"args":{{"target_mpl":{target}}}}}"#
                ))?;
            }
            TraceEvent::BatchClosed { served, missed } => {
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"g","name":"batch","pid":0,"tid":{ENGINE_TID},"ts":{ts},"args":{{"served":{served},"missed":{missed}}}}}"#
                ))?;
            }
            TraceEvent::FaultInjected {
                fault,
                disk,
                active,
                factor,
            } => {
                use crate::trace::FaultClass;
                match (fault, disk) {
                    (FaultClass::DiskOutage, Some(d)) => {
                        // Outage windows render as per-disk duration spans:
                        // an instant at the opening transition, the `X`
                        // slice once the window's extent is known.
                        if active {
                            outage_open.push((d, ts));
                            ev.push(format_args!(
                                r#"{{"ph":"i","s":"t","name":"outage begin","pid":0,"tid":{},"ts":{ts}}}"#,
                                DISK_TID_BASE + d
                            ))?;
                        } else if let Some(i) =
                            outage_open.iter().position(|&(od, _)| od == d)
                        {
                            let (_, start) = outage_open.swap_remove(i);
                            ev.push(format_args!(
                                r#"{{"ph":"X","name":"outage","pid":0,"tid":{},"ts":{start},"dur":{}}}"#,
                                DISK_TID_BASE + d,
                                ts - start
                            ))?;
                        }
                    }
                    (_, d) => {
                        let tid = d.map_or(ENGINE_TID, |d| DISK_TID_BASE + d);
                        ev.push(format_args!(
                            r#"{{"ph":"i","s":"g","name":"{fault} {}","pid":0,"tid":{tid},"ts":{ts},"args":{{"factor":{factor:?}}}}}"#,
                            if active { "begin" } else { "end" }
                        ))?;
                    }
                }
            }
            TraceEvent::IoRetry {
                query,
                disk,
                attempt,
                backoff,
            } => {
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"t","name":"retry q{query}","pid":0,"tid":{},"ts":{ts},"args":{{"attempt":{attempt},"backoff_us":{}}}}}"#,
                    DISK_TID_BASE + disk,
                    backoff.0
                ))?;
            }
            TraceEvent::Degraded {
                query,
                class,
                action,
            } => {
                ev.push(format_args!(
                    r#"{{"ph":"i","s":"t","name":"degraded q{query}","pid":0,"tid":{QUERY_TID},"ts":{ts},"args":{{"class":{class},"action":"{action}"}}}}"#
                ))?;
            }
        }
    }
    // Outages still open at the end of the trace span to its last instant.
    if let Some(last) = records.last() {
        outage_open.sort_unstable();
        for (d, start) in outage_open {
            ev.push(format_args!(
                r#"{{"ph":"X","name":"outage","pid":0,"tid":{},"ts":{start},"dur":{}}}"#,
                DISK_TID_BASE + d,
                last.at.0.saturating_sub(start)
            ))?;
        }
    }
    ev.w.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StrategyMode;
    use simkit::{Duration, SimTime};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                at: SimTime(1_000_000),
                event: TraceEvent::Arrival { query: 1, class: 0 },
            },
            TraceRecord {
                at: SimTime(1_100_000),
                event: TraceEvent::Admitted {
                    query: 1,
                    wait: Duration(100_000),
                },
            },
            TraceRecord {
                at: SimTime(1_200_000),
                event: TraceEvent::Io {
                    query: 1,
                    disk: 0,
                    pages: 8,
                    write: false,
                    cache_hit: false,
                    service: Duration(21_000),
                },
            },
            TraceRecord {
                at: SimTime(1_300_000),
                event: TraceEvent::Io {
                    query: 1,
                    disk: 1,
                    pages: 1,
                    write: true,
                    cache_hit: true,
                    service: Duration(0),
                },
            },
            TraceRecord {
                at: SimTime(2_000_000),
                event: TraceEvent::Completed {
                    query: 1,
                    class: 0,
                    missed: true,
                },
            },
            TraceRecord {
                at: SimTime(2_000_000),
                event: TraceEvent::PolicyDecision {
                    mode: StrategyMode::Max,
                    target_mpl: None,
                },
            },
        ]
    }

    #[test]
    fn export_is_wrapped_and_deterministic() {
        let a = crate::rendered(|w| write_chrome_json(&sample(), w));
        let b = crate::rendered(|w| write_chrome_json(&sample(), w));
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\": ["));
        assert!(a.ends_with("]}\n"));
    }

    #[test]
    fn export_contains_expected_phases_and_lanes() {
        let json = crate::rendered(|w| write_chrome_json(&sample(), w));
        assert!(json.contains(r#""ph":"b","cat":"query","id":1"#));
        assert!(json.contains(r#""ph":"e","cat":"query","id":1"#));
        assert!(json.contains(r#""ph":"X","name":"io q1""#));
        assert!(json.contains(r#""dur":21000"#));
        assert!(json.contains(r#""name":"disk0""#));
        assert!(json.contains(r#""name":"disk1""#));
        assert!(json.contains(r#""name":"policy Max""#));
        assert!(json.contains(r#""target_mpl":null"#));
        assert!(json.contains(r#""ts":1000000"#));
    }

    #[test]
    fn outage_windows_render_as_disk_duration_spans() {
        use crate::trace::{DegradedAction, FaultClass};
        let records = vec![
            TraceRecord {
                at: SimTime(120_000_000),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::DiskOutage,
                    disk: Some(2),
                    active: true,
                    factor: 1.0,
                },
            },
            TraceRecord {
                at: SimTime(125_000_000),
                event: TraceEvent::IoRetry {
                    query: 9,
                    disk: 2,
                    attempt: 1,
                    backoff: Duration(250_000),
                },
            },
            TraceRecord {
                at: SimTime(130_000_000),
                event: TraceEvent::Degraded {
                    query: 9,
                    class: 0,
                    action: DegradedAction::Aborted,
                },
            },
            TraceRecord {
                at: SimTime(210_000_000),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::DiskOutage,
                    disk: Some(2),
                    active: false,
                    factor: 1.0,
                },
            },
            TraceRecord {
                at: SimTime(220_000_000),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::MemoryShock,
                    disk: None,
                    active: true,
                    factor: 0.5,
                },
            },
        ];
        let json = crate::rendered(|w| write_chrome_json(&records, w));
        // The outage is a complete slice on disk 2's lane spanning the
        // whole window.
        assert!(json.contains(
            r#""ph":"X","name":"outage","pid":0,"tid":12,"ts":120000000,"dur":90000000"#
        ));
        assert!(
            json.contains(r#""name":"disk2""#),
            "fault-only disks get lanes"
        );
        assert!(json.contains(r#""name":"retry q9""#));
        assert!(json.contains(r#""name":"degraded q9""#));
        assert!(json.contains(r#""name":"shock begin""#));
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn unclosed_outage_spans_to_the_last_record() {
        use crate::trace::FaultClass;
        let records = vec![
            TraceRecord {
                at: SimTime(100),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::DiskOutage,
                    disk: Some(0),
                    active: true,
                    factor: 1.0,
                },
            },
            TraceRecord {
                at: SimTime(500),
                event: TraceEvent::Arrival { query: 1, class: 0 },
            },
        ];
        let json = crate::rendered(|w| write_chrome_json(&records, w));
        assert!(json
            .contains(r#""ph":"X","name":"outage","pid":0,"tid":10,"ts":100,"dur":400"#));
    }

    #[test]
    fn export_balances_braces_and_brackets() {
        let json = crate::rendered(|w| write_chrome_json(&sample(), w));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
