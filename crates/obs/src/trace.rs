//! Sim-time tracing: typed events, an in-memory recorder, and a text
//! renderer.
//!
//! A [`Tracer`] owns an event-kind bitmask and the log of accepted
//! records. `emit` is `#[inline]` and checks the mask first, so a disabled
//! tracer costs one load, test, and (not-taken) branch per call site — it
//! "compiles to nothing on the hot path".

use simkit::{Duration, SimTime};
use std::io::{self, Write};

/// Event categories, one bit each, for the tracer's enable mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum TraceKind {
    /// A query entered the system.
    Arrival = 1 << 0,
    /// An inter-arrival gap was drawn from the arrival process.
    ArrivalGap = 1 << 1,
    /// A query received its first non-zero memory grant.
    Admission = 1 << 2,
    /// A query's memory grant changed.
    Grant = 1 << 3,
    /// A CPU burst was submitted for a query.
    Cpu = 1 << 4,
    /// A disk request started service (cache hit or media access).
    Io = 1 << 5,
    /// A query left the system (commit or deadline miss).
    Departure = 1 << 6,
    /// The memory policy recorded a strategy/target decision.
    PolicyDecision = 1 << 7,
    /// A feedback batch closed.
    Batch = 1 << 8,
    /// A fault-plan transition was applied (fault began or cleared).
    Fault = 1 << 9,
    /// A disk access failed during an outage and entered a retry backoff.
    IoRetry = 1 << 10,
    /// The degradation policy acted on a query (abort/requeue/suspend).
    Degraded = 1 << 11,
}

impl TraceKind {
    /// All kinds enabled.
    pub const ALL: u16 = (1 << 12) - 1;

    /// This kind's bit in the enable mask.
    #[inline]
    pub fn bit(self) -> u16 {
        self as u16
    }
}

/// Which allocation strategy a policy is currently operating.
///
/// Defined here, the lowest crate both the policies and the tracer depend
/// on; `pmm` re-exports it as `pmm::StrategyMode`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyMode {
    /// Each query gets its maximum or nothing.
    Max,
    /// High-priority queries get their maximum, the rest their minimum.
    MinMax,
    /// Equal percentage of maximum, at least the minimum (the baseline the
    /// paper argues against).
    Proportional,
}

impl std::fmt::Display for StrategyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyMode::Max => write!(f, "Max"),
            StrategyMode::MinMax => write!(f, "MinMax"),
            StrategyMode::Proportional => write!(f, "Proportional"),
        }
    }
}

/// Which fault shape a [`TraceEvent::FaultInjected`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A disk's media service times are scaled by a factor.
    DiskDegrade,
    /// A disk is unreachable; accesses fail into the retry ladder.
    DiskOutage,
    /// Total buffer memory shrank (or restored).
    MemoryShock,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultClass::DiskDegrade => "degrade",
            FaultClass::DiskOutage => "outage",
            FaultClass::MemoryShock => "shock",
        })
    }
}

/// What the degradation policy did to a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedAction {
    /// Aborted and counted missed.
    Aborted,
    /// Its hard-failed I/O was put back on the disk queue.
    Requeued,
    /// Left parked at zero grant until memory returns.
    Suspended,
}

impl std::fmt::Display for DegradedAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradedAction::Aborted => "aborted",
            DegradedAction::Requeued => "requeued",
            DegradedAction::Suspended => "suspended",
        })
    }
}

/// One typed trace event. All payloads are `Copy`; identifiers are raw
/// integers so the crate stays independent of the engine's types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A query entered the system.
    Arrival {
        /// Engine-assigned query id.
        query: u64,
        /// Workload class index.
        class: u32,
    },
    /// An inter-arrival gap was drawn (recorded even when the resulting
    /// arrival falls past the horizon, so a recorded stream replays every
    /// draw).
    ArrivalGap {
        /// Workload class index.
        class: u32,
        /// The gap in seconds, exactly as drawn.
        gap_secs: f64,
    },
    /// First non-zero grant: the query finished its admission wait.
    Admitted {
        /// Engine-assigned query id.
        query: u64,
        /// Time spent waiting for admission.
        wait: Duration,
    },
    /// The query's page grant changed (including to zero).
    GrantChanged {
        /// Engine-assigned query id.
        query: u64,
        /// New grant in pages.
        pages: u32,
    },
    /// A CPU burst was submitted to the scheduler.
    CpuBurst {
        /// Engine-assigned query id.
        query: u64,
        /// Burst length in instructions.
        instructions: u64,
    },
    /// A disk request started service.
    Io {
        /// Owning query id.
        query: u64,
        /// Disk index.
        disk: u32,
        /// Pages transferred.
        pages: u32,
        /// True for writes.
        write: bool,
        /// True when served from the buffer pool (service time zero).
        cache_hit: bool,
        /// Media service time (zero on cache hits).
        service: Duration,
    },
    /// A query left the system.
    Completed {
        /// Engine-assigned query id.
        query: u64,
        /// Workload class index.
        class: u32,
        /// True when the firm deadline was missed (abort), false on commit.
        missed: bool,
    },
    /// The memory policy recorded a strategy decision.
    PolicyDecision {
        /// Strategy the policy switched to / reaffirmed.
        mode: StrategyMode,
        /// MPL target, when the strategy carries one.
        target_mpl: Option<u32>,
    },
    /// A feedback batch closed (sample-size completions reached).
    BatchClosed {
        /// Queries served in the batch.
        served: u64,
        /// Deadline misses in the batch.
        missed: u64,
    },
    /// A fault-plan transition was applied.
    FaultInjected {
        /// The fault shape.
        fault: FaultClass,
        /// Target disk for device faults; `None` for memory shocks.
        disk: Option<u32>,
        /// True when the fault begins, false when it clears.
        active: bool,
        /// Degrade factor, or surviving memory fraction for shocks;
        /// 1.0 for outages and on every clearing transition.
        factor: f64,
    },
    /// A disk access failed during an outage: retry after a backoff.
    IoRetry {
        /// Owning query id.
        query: u64,
        /// Disk index.
        disk: u32,
        /// 1-based retry attempt this backoff precedes.
        attempt: u32,
        /// The backoff span of sim time.
        backoff: Duration,
    },
    /// The degradation policy acted on a query.
    Degraded {
        /// Engine-assigned query id.
        query: u64,
        /// Workload class index.
        class: u32,
        /// What was done to it.
        action: DegradedAction,
    },
}

impl TraceEvent {
    /// The kind bit this event belongs to.
    #[inline]
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::Arrival { .. } => TraceKind::Arrival,
            TraceEvent::ArrivalGap { .. } => TraceKind::ArrivalGap,
            TraceEvent::Admitted { .. } => TraceKind::Admission,
            TraceEvent::GrantChanged { .. } => TraceKind::Grant,
            TraceEvent::CpuBurst { .. } => TraceKind::Cpu,
            TraceEvent::Io { .. } => TraceKind::Io,
            TraceEvent::Completed { .. } => TraceKind::Departure,
            TraceEvent::PolicyDecision { .. } => TraceKind::PolicyDecision,
            TraceEvent::BatchClosed { .. } => TraceKind::Batch,
            TraceEvent::FaultInjected { .. } => TraceKind::Fault,
            TraceEvent::IoRetry { .. } => TraceKind::IoRetry,
            TraceEvent::Degraded { .. } => TraceKind::Degraded,
        }
    }
}

/// A trace event stamped with the virtual time it happened at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

/// The recording front end: an enable mask plus an in-memory log of the
/// records whose kind is in the mask.
#[derive(Debug, Default)]
pub struct Tracer {
    mask: u16,
    records: Vec<TraceRecord>,
}

impl Tracer {
    /// A disabled tracer: mask zero, nothing held, `emit` is a no-op branch.
    pub fn off() -> Self {
        Tracer::default()
    }

    /// Build a tracer keeping every record whose kind is in `mask` (bits
    /// from [`TraceKind::bit`]). A zero mask records nothing.
    pub fn with_mask(mask: u16) -> Self {
        Tracer {
            mask,
            records: Vec::new(),
        }
    }

    /// True when `kind` events are being recorded.
    #[inline]
    pub fn wants(&self, kind: TraceKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// True when nothing is recorded (the hot-path fast case).
    #[inline]
    pub fn is_off(&self) -> bool {
        self.mask == 0
    }

    /// Record `event` at virtual time `at`, if its kind is enabled.
    #[inline]
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if self.mask & event.kind().bit() == 0 {
            return;
        }
        self.push(TraceRecord { at, event });
    }

    // Out of line so the inlined `emit` stays a mask test and a call.
    #[inline(never)]
    fn push(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain the held records in chronological order. The tracer keeps
    /// recording afterwards.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Write records to `w` as deterministic text, one line per record.
///
/// Times are seconds formatted with Rust's shortest-roundtrip `{:?}`, so
/// the output is byte-identical for identical records — across runs,
/// seeds, and driver thread counts.
pub fn write_text(records: &[TraceRecord], mut w: impl Write) -> io::Result<()> {
    for r in records {
        write_record(&mut w, r)?;
    }
    Ok(())
}

/// Write one record as its text line.
fn write_record(w: &mut impl Write, r: &TraceRecord) -> io::Result<()> {
    let t = r.at.as_secs_f64();
    match r.event {
        TraceEvent::Arrival { query, class } => {
            writeln!(w, "{t:?} arrival query={query} class={class}")
        }
        TraceEvent::ArrivalGap { class, gap_secs } => {
            writeln!(w, "{t:?} gap class={class} secs={gap_secs:?}")
        }
        TraceEvent::Admitted { query, wait } => {
            writeln!(
                w,
                "{t:?} admitted query={query} wait={:?}",
                wait.as_secs_f64()
            )
        }
        TraceEvent::GrantChanged { query, pages } => {
            writeln!(w, "{t:?} grant query={query} pages={pages}")
        }
        TraceEvent::CpuBurst {
            query,
            instructions,
        } => {
            writeln!(w, "{t:?} cpu query={query} instr={instructions}")
        }
        TraceEvent::Io {
            query,
            disk,
            pages,
            write,
            cache_hit,
            service,
        } => {
            let kind = if write { "write" } else { "read" };
            writeln!(
                w,
                "{t:?} io query={query} disk={disk} pages={pages} kind={kind} hit={cache_hit} service={:?}",
                    service.as_secs_f64()
            )
        }
        TraceEvent::Completed {
            query,
            class,
            missed,
        } => {
            writeln!(w, "{t:?} done query={query} class={class} missed={missed}")
        }
        TraceEvent::PolicyDecision { mode, target_mpl } => {
            let target = target_mpl.map_or("-".to_string(), |m| m.to_string());
            writeln!(w, "{t:?} policy mode={mode} target={target}")
        }
        TraceEvent::BatchClosed { served, missed } => {
            writeln!(w, "{t:?} batch served={served} missed={missed}")
        }
        TraceEvent::FaultInjected {
            fault,
            disk,
            active,
            factor,
        } => {
            let disk = disk.map_or("-".to_string(), |d| d.to_string());
            writeln!(
                w,
                "{t:?} fault kind={fault} disk={disk} active={active} factor={factor:?}"
            )
        }
        TraceEvent::IoRetry {
            query,
            disk,
            attempt,
            backoff,
        } => {
            writeln!(
                w,
                "{t:?} io-retry query={query} disk={disk} attempt={attempt} backoff={:?}",
                backoff.as_secs_f64()
            )
        }
        TraceEvent::Degraded {
            query,
            class,
            action,
        } => {
            writeln!(
                w,
                "{t:?} degraded query={query} class={class} action={action}"
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(us: u64, q: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime(us),
            event: TraceEvent::Arrival { query: q, class: 0 },
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(t.is_off());
        t.emit(SimTime(1), TraceEvent::Arrival { query: 0, class: 0 });
        assert!(t.is_empty());
        assert!(t.take_records().is_empty());
    }

    #[test]
    fn full_sink_keeps_everything_in_order() {
        let mut t = Tracer::with_mask(TraceKind::ALL);
        for i in 0..10 {
            t.emit(rec(i, i).at, rec(i, i).event);
        }
        let got = t.take_records();
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(t.is_empty());
    }

    #[test]
    fn mask_filters_kinds() {
        let mut t = Tracer::with_mask(TraceKind::ArrivalGap.bit());
        assert!(t.wants(TraceKind::ArrivalGap));
        assert!(!t.wants(TraceKind::Arrival));
        t.emit(SimTime(1), TraceEvent::Arrival { query: 0, class: 0 });
        t.emit(
            SimTime(2),
            TraceEvent::ArrivalGap {
                class: 0,
                gap_secs: 0.5,
            },
        );
        let got = t.take_records();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].event, TraceEvent::ArrivalGap { .. }));
    }

    #[test]
    fn zero_mask_forces_null_sink() {
        let mut t = Tracer::with_mask(0);
        assert!(t.is_off());
        t.emit(SimTime(1), TraceEvent::Arrival { query: 1, class: 0 });
        assert!(t.is_empty(), "a zero mask records nothing");
    }

    #[test]
    fn render_text_is_deterministic_and_covers_all_kinds() {
        let records = vec![
            TraceRecord {
                at: SimTime(1_000_000),
                event: TraceEvent::Arrival { query: 1, class: 0 },
            },
            TraceRecord {
                at: SimTime(1_000_000),
                event: TraceEvent::ArrivalGap {
                    class: 0,
                    gap_secs: 12.25,
                },
            },
            TraceRecord {
                at: SimTime(1_500_000),
                event: TraceEvent::Admitted {
                    query: 1,
                    wait: Duration(500_000),
                },
            },
            TraceRecord {
                at: SimTime(1_500_000),
                event: TraceEvent::GrantChanged {
                    query: 1,
                    pages: 40,
                },
            },
            TraceRecord {
                at: SimTime(1_600_000),
                event: TraceEvent::CpuBurst {
                    query: 1,
                    instructions: 5000,
                },
            },
            TraceRecord {
                at: SimTime(1_700_000),
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
                at: SimTime(2_000_000),
                event: TraceEvent::Completed {
                    query: 1,
                    class: 0,
                    missed: false,
                },
            },
            TraceRecord {
                at: SimTime(2_000_000),
                event: TraceEvent::PolicyDecision {
                    mode: StrategyMode::MinMax,
                    target_mpl: Some(12),
                },
            },
            TraceRecord {
                at: SimTime(2_000_000),
                event: TraceEvent::BatchClosed {
                    served: 30,
                    missed: 4,
                },
            },
        ];
        let a = crate::rendered(|w| write_text(&records, w));
        let b = crate::rendered(|w| write_text(&records, w));
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), records.len());
        assert!(a.contains("1.0 arrival query=1 class=0"));
        assert!(a.contains("gap class=0 secs=12.25"));
        assert!(a.contains("policy mode=MinMax target=12"));
        assert!(a.contains("io query=1 disk=0 pages=8 kind=read hit=false service=0.021"));
    }

    fn fault_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                at: SimTime(60_000_000),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::DiskDegrade,
                    disk: Some(0),
                    active: true,
                    factor: 3.0,
                },
            },
            TraceRecord {
                at: SimTime(61_000_000),
                event: TraceEvent::FaultInjected {
                    fault: FaultClass::MemoryShock,
                    disk: None,
                    active: true,
                    factor: 0.5,
                },
            },
            TraceRecord {
                at: SimTime(62_000_000),
                event: TraceEvent::IoRetry {
                    query: 5,
                    disk: 2,
                    attempt: 1,
                    backoff: Duration(250_000),
                },
            },
            TraceRecord {
                at: SimTime(63_000_000),
                event: TraceEvent::Degraded {
                    query: 5,
                    class: 0,
                    action: DegradedAction::Aborted,
                },
            },
        ]
    }

    #[test]
    fn render_text_covers_fault_kinds() {
        let a = crate::rendered(|w| write_text(&fault_records(), w));
        assert_eq!(a.lines().count(), 4);
        assert!(a.contains("60.0 fault kind=degrade disk=0 active=true factor=3.0"));
        assert!(a.contains("61.0 fault kind=shock disk=- active=true factor=0.5"));
        assert!(a.contains("62.0 io-retry query=5 disk=2 attempt=1 backoff=0.25"));
        assert!(a.contains("63.0 degraded query=5 class=0 action=aborted"));
    }

    #[test]
    fn fault_kinds_have_distinct_mask_bits() {
        let mut t = Tracer::with_mask(TraceKind::Degraded.bit());
        assert!(t.wants(TraceKind::Degraded));
        assert!(!t.wants(TraceKind::Fault));
        assert!(!t.wants(TraceKind::IoRetry));
        for r in fault_records() {
            t.emit(r.at, r.event);
        }
        let got = t.take_records();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].event, TraceEvent::Degraded { .. }));
    }
}
