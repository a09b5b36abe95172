//! Deterministic fault injection: scheduled device faults and memory
//! shocks, plus the engine's degradation policy for their victims.
//!
//! A [`FaultPlan`] lives on `SimConfig` and schedules fault events at fixed
//! instants of **virtual time** — no randomness is consumed, so a plan
//! perturbs a run only through the faults themselves and the empty plan is
//! byte-for-byte the unfaulted simulation. Three fault shapes:
//!
//! * [`FaultSpec::DiskDegrade`] — a brown-out window during which one
//!   disk's media service times are multiplied by `factor` (the cache is
//!   unaffected: the media is slow, not the controller).
//! * [`FaultSpec::DiskOutage`] — a window during which every access to one
//!   disk fails, even would-be cache hits. The storage layer retries up
//!   to 5 times with capped exponential backoff priced in sim time
//!   (0.25 s doubling to a 4 s cap); when the budget is spent the engine
//!   applies the owning query's [`DegradationMode`].
//! * [`FaultSpec::MemoryShock`] — total buffer memory shrinks to
//!   `fraction` of its configured size, then restores. The engine
//!   reallocates under the shrunken pool and applies each de-scheduled
//!   victim's [`DegradationMode`]; policy feedback batches that overlap the
//!   shock are segmented out so learned estimates are not poisoned by
//!   shock-era samples.

use obs::{FaultClass, TraceEvent};
use simkit::SimTime;

/// One scheduled fault: a window `[start_secs, end_secs)` of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Disk `disk`'s media service times are multiplied by `factor`
    /// (> 1 = slower) for the window.
    DiskDegrade {
        /// Target disk index.
        disk: u32,
        /// Window start (seconds of virtual time).
        start_secs: f64,
        /// Window end (seconds of virtual time).
        end_secs: f64,
        /// Media service-time multiplier while degraded.
        factor: f64,
    },
    /// Disk `disk` is unreachable for the window: every access fails and
    /// enters the retry/backoff ladder.
    DiskOutage {
        /// Target disk index.
        disk: u32,
        /// Window start (seconds of virtual time).
        start_secs: f64,
        /// Window end (seconds of virtual time).
        end_secs: f64,
    },
    /// Total buffer memory shrinks to `fraction` of its configured size
    /// for the window, then restores.
    MemoryShock {
        /// Window start (seconds of virtual time).
        start_secs: f64,
        /// Window end (seconds of virtual time).
        end_secs: f64,
        /// Fraction of `resources.memory_pages` available during the
        /// shock, in (0, 1]; at least one page survives.
        fraction: f64,
    },
}

impl FaultSpec {
    /// The fault's window as `(start_secs, end_secs)`.
    pub fn window(&self) -> (f64, f64) {
        match *self {
            FaultSpec::DiskDegrade {
                start_secs,
                end_secs,
                ..
            }
            | FaultSpec::DiskOutage {
                start_secs,
                end_secs,
                ..
            }
            | FaultSpec::MemoryShock {
                start_secs,
                end_secs,
                ..
            } => (start_secs, end_secs),
        }
    }
}

/// What the engine does with a query a fault de-schedules: one whose I/O
/// hard-failed, or one a memory shock left without buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegradationMode {
    /// Abort it and count it missed — the firm-deadline reflex; frees its
    /// resources immediately for the survivors.
    #[default]
    Abort,
    /// Keep it: a hard-failed I/O is re-queued (it backs off again if the
    /// outage persists) and a shock victim stays suspended at zero grant
    /// until memory returns. Its deadline still applies — requeue trades
    /// throughput for a chance to finish.
    Requeue,
}

impl std::fmt::Display for DegradationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationMode::Abort => "abort",
            DegradationMode::Requeue => "requeue",
        })
    }
}

/// A deterministic schedule of faults plus the degradation policy for
/// their victims. The default plan is empty: no faults, no behavior
/// change, not one event or random draw different from the unfaulted run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled faults, applied at their window boundaries.
    pub events: Vec<FaultSpec>,
    /// Degradation mode for every fault victim.
    pub mode: DegradationMode,
}

impl FaultPlan {
    /// True when the plan schedules nothing — the dark path.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical fault storm at `intensity` ∈ [0, 1], sized to land
    /// inside even a smoke run's 300-second horizon: a two-disk brown-out,
    /// an outage on a third disk, and a memory shock, all overlapping.
    /// `intensity ≤ 0` is the empty plan (the sweep's control cell).
    pub fn scaled(intensity: f64) -> FaultPlan {
        if intensity <= 0.0 {
            return FaultPlan::default();
        }
        FaultPlan {
            events: vec![
                FaultSpec::DiskDegrade {
                    disk: 0,
                    start_secs: 60.0,
                    end_secs: 240.0,
                    factor: 1.0 + 2.0 * intensity,
                },
                FaultSpec::DiskDegrade {
                    disk: 1,
                    start_secs: 60.0,
                    end_secs: 240.0,
                    factor: 1.0 + 2.0 * intensity,
                },
                FaultSpec::DiskOutage {
                    disk: 2,
                    start_secs: 120.0,
                    end_secs: 120.0 + 90.0 * intensity,
                },
                FaultSpec::MemoryShock {
                    start_secs: 150.0,
                    end_secs: 270.0,
                    fraction: 1.0 - 0.5 * intensity,
                },
            ],
            mode: DegradationMode::Abort,
        }
    }
}

/// A run's fault state: the plan expanded into its window edges up front
/// (so the event handler is a table lookup), and the memory ceiling the
/// policy sees, shrunk while a shock is active.
pub(crate) struct FaultState {
    /// `(instant, fault, opens)` per edge, sorted by time; a stable sort
    /// keeps plan order as the tie-break, so the firing sequence is a pure
    /// function of the plan.
    edges: Vec<(SimTime, FaultSpec, bool)>,
    total_memory: u32,
    effective_memory: u32,
    shock_active: bool,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, total_memory: u32) -> Self {
        let mut edges = Vec::new();
        for &ev in &plan.events {
            let (start, end) = ev.window();
            edges.push((SimTime::from_secs_f64(start), ev, true));
            edges.push((SimTime::from_secs_f64(end), ev, false));
        }
        edges.sort_by_key(|&(t, _, _)| t);
        FaultState {
            edges,
            total_memory,
            effective_memory: total_memory,
            shock_active: false,
        }
    }

    /// The instant of every edge, by index.
    pub(crate) fn edge_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.edges.iter().map(|&(t, _, _)| t)
    }

    /// Fire edge `index`: returns its fault, whether the edge opens the
    /// window, and the edge's trace record. A shock edge moves the memory
    /// ceiling; the disk edges are the caller's to apply.
    pub(crate) fn fire(&mut self, index: usize) -> (FaultSpec, bool, TraceEvent) {
        let (_, fault, active) = self.edges[index];
        // A degrade factor or memory fraction holds while its window is open.
        let in_force = |x: f64| if active { x } else { 1.0 };
        let (class, disk, factor) = match fault {
            FaultSpec::DiskDegrade { disk, factor, .. } => {
                (FaultClass::DiskDegrade, Some(disk), in_force(factor))
            }
            FaultSpec::DiskOutage { disk, .. } => {
                (FaultClass::DiskOutage, Some(disk), 0.0)
            }
            FaultSpec::MemoryShock { fraction, .. } => {
                let memory = f64::from(self.total_memory) * in_force(fraction);
                self.effective_memory = (memory.floor() as u32).max(1);
                self.shock_active = active;
                (FaultClass::MemoryShock, None, in_force(fraction))
            }
        };
        let trace = TraceEvent::FaultInjected {
            fault: class,
            disk,
            active,
            factor,
        };
        (fault, active, trace)
    }

    /// The pages the memory policy may grant now.
    pub(crate) fn memory(&self) -> u32 {
        self.effective_memory
    }

    /// Whether a memory shock is active: feedback windows opened now start
    /// tainted.
    pub(crate) fn shock_active(&self) -> bool {
        self.shock_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.mode, DegradationMode::Abort);
    }

    #[test]
    fn scaled_zero_is_the_control_cell() {
        assert!(FaultPlan::scaled(0.0).is_empty());
        assert!(FaultPlan::scaled(-1.0).is_empty());
        let storm = FaultPlan::scaled(1.0);
        assert_eq!(storm.events.len(), 4);
        for e in &storm.events {
            let (s, t) = e.window();
            assert!(s < t, "window {s}..{t} must be non-empty");
            assert!(t <= 300.0, "fits the smoke horizon");
        }
    }

    #[test]
    fn modes_render_as_cell_name_prefixes() {
        assert_eq!(DegradationMode::Abort.to_string(), "abort");
        assert_eq!(DegradationMode::Requeue.to_string(), "requeue");
    }
}
