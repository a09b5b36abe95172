//! `obs` — sim-time observability for the reproduction.
//!
//! Four pieces, all independent of the engine so every crate can use them:
//!
//! 1. **Tracing** ([`trace`]): typed [`TraceEvent`] records stamped in
//!    *virtual* time, written through a [`Tracer`] whose event-kind mask
//!    picks what is kept in its in-memory log (a zero mask compiles to one
//!    load+test+branch on the hot path).
//! 2. **Metrics** ([`metrics`]): a registry of named counters, gauges, and
//!    fixed-bucket histograms with windowed counter-delta snapshots that
//!    reuse the fig12 window boundaries.
//! 3. **Self-profiling** ([`profile`]): wall-clock attribution per engine
//!    subsystem (calendar pop, dispatch, `Disk::start`, `reallocate()`),
//!    off by default and free when disabled.
//! 4. **Chrome trace export** ([`chrome`]): renders a trace to the Chrome
//!    trace-event JSON format so a replication's virtual-time timeline can
//!    be opened in `chrome://tracing` or Perfetto.
//!
//! Everything here is deterministic given the input records: text and JSON
//! renderings are byte-identical across runs and thread counts.

pub mod chrome;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use chrome::write_chrome_json;
pub use metrics::{
    CounterFamilyId, CounterId, GaugeFamilyId, GaugeId, HistId, HistReport,
    MetricsRegistry, MetricsReport, MetricsWindow,
};
pub use profile::{ProfileReport, Profiler, Section, SectionStats};
pub use trace::{
    write_text, DegradedAction, FaultClass, StrategyMode, TraceEvent, TraceKind,
    TraceRecord, Tracer,
};

/// Per-run observability switches, carried on the simulator config.
///
/// The default is everything off: no trace records, no metrics registry,
/// no profiling, and a golden report byte-identical to the pre-obs engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// The event kinds to record, as a [`TraceKind`] bit mask: 0 records
    /// nothing, [`TraceKind::ALL`] the full trace. The run buffers what
    /// it records in memory and returns it on the report; `metrics` alone
    /// is the O(counters) configuration for long horizons.
    pub trace: u16,
    /// Enable the metrics registry (counters/gauges/histograms with
    /// windowed snapshots on the fig12 boundaries).
    pub metrics: bool,
    /// Enable wall-clock self-profiling of engine subsystems.
    pub profile: bool,
}

/// The bytes a streaming renderer writes, as a `String`.
#[cfg(test)]
fn rendered(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the rendering is UTF-8")
}
