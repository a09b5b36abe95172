//! The parallel multi-seed experiment driver.
//!
//! The paper's measurement protocol is batched means over long runs; the
//! modern equivalent — and the Li & Deshpande consensus-over-replications
//! framing — is many *independently seeded* replications of each experiment
//! cell, merged into means with confidence intervals. This module shards the
//! figure experiments across a thread pool, one deterministic
//! `SeedSequence`-derived RNG stream per replication, and merges the per-seed
//! [`RunReport`]s into [`pmm_core::simkit::metrics::BatchMeans`] summaries — scalar
//! metrics and the windowed miss-ratio time series alike (Figures 12–14 plot
//! the latter).
//!
//! Determinism contract: the merged output (and therefore the emitted JSON)
//! depends only on `(figure, secs, seeds, master_seed)` — never on the
//! thread count or on scheduling. Replications are merged in seed order from
//! a pre-sized result table, so a 4-thread run is byte-identical to a serial
//! run. `tests/driver_determinism.rs` pins that property.

use crate::make_policy_for;
use pmm_core::obs;
use pmm_core::prelude::*;
use pmm_core::rtdbs::{arrival_gaps, WindowPoint};
use pmm_core::simkit::metrics::BatchMeans;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Names of the figure experiments the driver knows how to shard. Beyond
/// the paper's figures, `burst` sweeps MMPP burst ratios, `tenants` sweeps
/// multi-tenant quota splits, `faults` sweeps fault-storm
/// intensity × degradation policy, and `scale` sweeps tenant population
/// 10¹→10³ under incremental vs snapshot reallocation.
pub const FIGURES: [&str; 10] = [
    "fig3", "fig8", "fig11", "fig12", "fig16", "fig17", "burst", "tenants", "faults",
    "scale",
];

/// Two-sided 90% Student-t quantile (`t_{0.95, df}`) for the given degrees
/// of freedom. With a handful of replications the normal quantile (1.645)
/// understates the interval; this is the correct small-sample width. For
/// `df > 30` a Cornish–Fisher correction on the normal quantile is accurate
/// to three decimals.
pub fn t_quantile_90(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796,
        1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717,
        1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
    ];
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[df - 1],
        _ => {
            let z = 1.645;
            z + (z * z * z + z) / (4.0 * df as f64)
        }
    }
}

/// One experiment cell: a point on a figure's x-axis run under one memory
/// algorithm, with the config it runs.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The swept parameter (arrival rate, MinMax N, Small-class rate, ...).
    pub x: f64,
    /// The cell's label, as every artifact prints it: the memory algorithm,
    /// prefixed by what else the cell varies (`"requeue/PMM"`,
    /// `"snapshot/Partitioned-soft"`). Nothing parses it.
    pub policy: String,
    /// The memory algorithm, as [`crate::make_policy_for`] resolves it.
    pub algorithm: String,
    /// The cell's simulation config: the figure's preset for `x`, its
    /// window, and the degradation mode the label names. The
    /// driver fills in the duration, seed and observability settings per
    /// replication.
    pub config: SimConfig,
}

impl CellSpec {
    /// A cell whose label is its memory algorithm.
    fn new(x: f64, algorithm: &str, config: SimConfig) -> CellSpec {
        CellSpec {
            x,
            policy: algorithm.to_string(),
            algorithm: algorithm.to_string(),
            config,
        }
    }
}

/// A figure experiment: its cells, in output order.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Figure name ("fig3", ...).
    pub name: &'static str,
    /// Meaning of the x axis, for reports.
    pub x_label: &'static str,
    /// Window length (simulated seconds) of the miss-ratio time series the
    /// figure plots (Figures 12–14), installed in every cell's config.
    /// `None` keeps the config's default window, and
    /// [`FigureResult::render`] prints no series.
    pub window_secs: Option<f64>,
    /// The cells, in output order.
    pub cells: Vec<CellSpec>,
}

/// Every x under every algorithm, x-major, each cell on `preset(x)`.
fn cross(
    xs: &[f64],
    algorithms: &[&str],
    preset: impl Fn(f64) -> SimConfig,
) -> Vec<CellSpec> {
    xs.iter()
        .flat_map(|&x| algorithms.iter().map(move |&a| (x, a)))
        .map(|(x, a)| CellSpec::new(x, a, preset(x)))
        .collect()
}

/// Look up a figure by name.
///
/// # Errors
/// Returns the list of known figures if `name` is not one of them.
pub fn figure_spec(name: &str) -> Result<FigureSpec, String> {
    let mut spec = match name {
        "fig3" => FigureSpec {
            name: "fig3",
            x_label: "arrival rate (queries/s)",
            window_secs: None,
            cells: cross(
                &crate::BASELINE_RATES,
                &crate::BASELINE_POLICIES,
                SimConfig::baseline,
            ),
        },
        "fig8" => FigureSpec {
            name: "fig8",
            x_label: "arrival rate (queries/s)",
            window_secs: None,
            cells: cross(
                &crate::BASELINE_RATES,
                &["Max", "MinMax", "PMM", "MinMax-2"],
                SimConfig::disk_contention,
            ),
        },
        "fig11" => FigureSpec {
            name: "fig11",
            x_label: "MinMax memory limit N",
            window_secs: None,
            cells: crate::FIG11_LIMITS
                .iter()
                .map(|&n| {
                    CellSpec::new(
                        f64::from(n),
                        &format!("MinMax-{n}"),
                        SimConfig::disk_contention(0.07),
                    )
                })
                .collect(),
        },
        "fig12" => FigureSpec {
            name: "fig12",
            x_label: "(single alternating workload)",
            window_secs: Some(crate::CHANGES_WINDOW_SECS),
            cells: cross(&[0.0], &["Max", "MinMax", "PMM"], |_| {
                SimConfig::workload_changes()
            }),
        },
        "fig16" => FigureSpec {
            name: "fig16",
            x_label: "arrival rate (queries/s)",
            window_secs: None,
            cells: cross(
                &crate::SORT_RATES,
                &crate::BASELINE_POLICIES,
                SimConfig::sorts,
            ),
        },
        "fig17" => FigureSpec {
            name: "fig17",
            x_label: "Small-class arrival rate (queries/s)",
            window_secs: None,
            cells: cross(
                &crate::MULTICLASS_SMALL_RATES,
                &["Max", "MinMax", "PMM"],
                SimConfig::multiclass,
            ),
        },
        "burst" => FigureSpec {
            name: "burst",
            x_label: "MMPP burst ratio (1 = Poisson control)",
            window_secs: None,
            cells: cross(
                &crate::BURST_RATIOS,
                &crate::BURST_POLICIES,
                SimConfig::bursty,
            ),
        },
        "tenants" => FigureSpec {
            name: "tenants",
            x_label: "analytics-tenant memory fraction",
            window_secs: None,
            cells: cross(
                &crate::TENANT_FRACTIONS,
                &crate::TENANT_POLICIES,
                SimConfig::multi_tenant,
            ),
        },
        "faults" => FigureSpec {
            name: "faults",
            x_label: "fault intensity (0 = fault-free control)",
            window_secs: None,
            // x is the fault-storm intensity; each cell's degradation mode
            // is its plan's default, labelled "<mode>/<algorithm>".
            cells: crate::FAULT_INTENSITIES
                .iter()
                .flat_map(|&x| {
                    crate::FAULT_POLICIES.map(|(mode, a)| {
                        let mut config = SimConfig::faulty(x);
                        config.faults.mode = mode;
                        CellSpec {
                            policy: format!("{mode}/{a}"),
                            ..CellSpec::new(x, a, config)
                        }
                    })
                })
                .collect(),
        },
        "scale" => FigureSpec {
            name: "scale",
            x_label: "tenant count",
            window_secs: None,
            // The `snapshot/` algorithms pin the reference full-snapshot
            // allocation path, so incremental vs snapshot reallocation is
            // an arm of the sweep rather than a separate figure.
            cells: cross(
                &crate::SCALE_TENANTS.map(|n| n as f64),
                &crate::SCALE_POLICIES,
                |x| SimConfig::scale(x as usize),
            ),
        },
        // Hidden from `FIGURES` (and so from `--figure all`): a tiny sweep
        // whose middle cell runs the deliberately crashing `panic` policy,
        // proving end to end that a panicking replication is quarantined
        // while the neighbouring cells complete.
        "crashtest" => FigureSpec {
            name: "crashtest",
            x_label: "(crashtest cells)",
            window_secs: None,
            cells: [(0.0, "MinMax"), (1.0, "panic"), (2.0, "MinMax")]
                .into_iter()
                .map(|(x, a)| CellSpec::new(x, a, SimConfig::baseline(0.05)))
                .collect(),
        },
        other => {
            return Err(format!(
                "unknown figure {other:?}; known figures: {}",
                FIGURES.join(", ")
            ))
        }
    };
    if let Some(w) = spec.window_secs {
        for cell in &mut spec.cells {
            cell.config.window_secs = w;
        }
    }
    Ok(spec)
}

/// Driver parameters.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Independent replications per cell.
    pub seeds: u64,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Simulated seconds per replication.
    pub secs: f64,
    /// Master seed the per-replication streams derive from.
    pub master_seed: u64,
    /// The trace kinds replication 0 of every cell records
    /// (`--trace=<kinds>`), as an [`obs::TraceKind`] mask: 0 records
    /// nothing, [`obs::TraceKind::ALL`] the full structured sim-time trace.
    /// [`run_figure_traced`] hands each recording to its sink as a
    /// [`CellTrace`], and [`trace_files`] turns one into the artifacts its
    /// kinds allow: the rendered trace, the arrival-gap streams, the PMM
    /// decision series. Metric-only: the merged `BENCH_<figure>.json` is
    /// unaffected.
    pub trace: u16,
    /// Collect the metrics registry on every replication (`--metrics`),
    /// merged per cell in seed order into [`MergedCell::metrics`]. Its
    /// memory is O(registry), not O(events), so it is the long-horizon
    /// configuration. Metric-only, and independent of
    /// [`DriverConfig::trace`].
    pub metrics: bool,
    /// Enable engine self-profiling (`--profile`): wall-clock attribution
    /// per subsystem, aggregated over all replications into
    /// [`FigureResult::profile`]. Machine-dependent — never byte-diffed.
    pub profile: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            seeds: 8,
            threads: 1,
            secs: 3_600.0,
            master_seed: 1994,
            trace: 0,
            metrics: false,
            profile: false,
        }
    }
}

/// Mean and 90% batch-means half-width of one metric over the replications.
#[derive(Clone, Copy, Debug)]
pub struct MetricSummary {
    /// Mean over replications.
    pub mean: f64,
    /// 90% half-width (`None` with fewer than two replications).
    pub ci90: Option<f64>,
}

fn summarize<F: Fn(&RunReport) -> f64>(reports: &[RunReport], f: F) -> MetricSummary {
    let mut bm = BatchMeans::new(1);
    for r in reports {
        bm.record(f(r));
    }
    MetricSummary {
        mean: bm.mean(),
        ci90: bm.half_width(t_quantile_90(reports.len().saturating_sub(1))),
    }
}

/// One window of the merged miss-ratio time series: the same batch-means
/// machinery as the scalar metrics, applied per window index across the
/// replications (closing the "fig12 windows are dropped" gap — Figures
/// 12–14 plot exactly this series).
#[derive(Clone, Debug)]
pub struct MergedWindow {
    /// Window end in simulated seconds.
    pub t_secs: f64,
    /// Replications contributing this window (late windows can be missing
    /// from replications that went quiet early).
    pub replications: u64,
    /// Total queries served in this window across replications.
    pub served: u64,
    /// Total misses in this window across replications.
    pub missed: u64,
    /// Window miss ratio (%), mean ± CI over replications.
    pub miss_pct: MetricSummary,
}

/// One tenant's merged statistics over the replications of a cell: the
/// quantitative isolation story of the `tenants` figure (quota utilization
/// and borrow volume per partition, with CIs across seeds).
#[derive(Clone, Debug)]
pub struct MergedTenant {
    /// Tenant label from the scenario's `TenantSpec`.
    pub name: String,
    /// Declared quota in pages.
    pub quota_pages: u32,
    /// Whether the quota is soft (borrowing allowed).
    pub soft: bool,
    /// Queries billed to this tenant across replications.
    pub served: u64,
    /// Of those, deadline misses.
    pub missed: u64,
    /// Tenant miss ratio (%), mean ± CI over replications.
    pub miss_pct: MetricSummary,
    /// Time-averaged tenant MPL.
    pub avg_mpl: MetricSummary,
    /// Time-averaged fraction of the quota in use (> 1 while borrowing).
    pub quota_utilization: MetricSummary,
    /// Time-averaged pages held beyond the quota (borrow volume).
    pub borrowed_pages: MetricSummary,
}

/// Merge the per-replication tenant outcomes index-by-index (every
/// replication of a cell runs the same tenant table).
fn merge_tenants(reports: &[RunReport]) -> Vec<MergedTenant> {
    let n = reports.first().map_or(0, |r| r.tenants.len());
    (0..n)
        .map(|j| {
            let first = &reports[0].tenants[j];
            let of = |f: &dyn Fn(&pmm_core::rtdbs::TenantOutcome) -> f64| {
                summarize(reports, |r| f(&r.tenants[j]))
            };
            MergedTenant {
                name: first.name.clone(),
                quota_pages: first.quota_pages,
                soft: first.soft,
                served: reports.iter().map(|r| r.tenants[j].served).sum(),
                missed: reports.iter().map(|r| r.tenants[j].missed).sum(),
                miss_pct: of(&|t| t.miss_pct()),
                avg_mpl: of(&|t| t.avg_mpl),
                quota_utilization: of(&|t| t.quota_utilization),
                borrowed_pages: of(&|t| t.borrowed_pages),
            }
        })
        .collect()
}

/// One workload class's merged outcome over the replications of a cell —
/// the per-class split of Figure 18. In memory only: the figure JSON
/// carries no per-class block.
#[derive(Clone, Debug)]
pub struct MergedClass {
    /// Class label from the config's `WorkloadClass`.
    pub name: String,
    /// Queries of this class served across replications.
    pub served: u64,
    /// Of those, deadline misses.
    pub missed: u64,
    /// Class miss ratio (%), mean ± CI over replications.
    pub miss_pct: MetricSummary,
}

/// Merge the per-replication class outcomes index-by-index (every
/// replication of a cell runs the same class list).
fn merge_classes(reports: &[RunReport]) -> Vec<MergedClass> {
    let n = reports.first().map_or(0, |r| r.classes.len());
    (0..n)
        .map(|j| MergedClass {
            name: reports[0].classes[j].name.clone(),
            served: reports.iter().map(|r| r.classes[j].served).sum(),
            missed: reports.iter().map(|r| r.classes[j].missed).sum(),
            miss_pct: summarize(reports, |r| r.classes[j].miss_pct()),
        })
        .collect()
}

/// Replication 0's recording of one cell, handed to
/// [`run_figure_traced`]'s sink as soon as that replication finishes.
#[derive(Debug)]
pub struct CellTrace {
    /// The cell's index in the figure.
    pub cell: usize,
    /// The cell's swept parameter ([`CellSpec::x`]).
    pub x: f64,
    /// The cell's label ([`CellSpec::policy`]).
    pub policy: String,
    /// Workload classes in the cell's config.
    pub classes: usize,
    /// The records of the kinds in [`DriverConfig::trace`], chronological.
    pub records: Vec<obs::TraceRecord>,
}

/// One artifact file a cell's recording projects to: its name, and the
/// projection [`TraceFile::write_to`] streams into a writer, so no file's
/// body is ever held in memory whole.
#[derive(Debug)]
pub struct TraceFile<'a> {
    /// File name, relative to the output directory.
    pub name: String,
    /// The `# <figure> cell <i> (x=…, policy=…)<what>` line the file starts
    /// with (empty for the Chrome export).
    header: String,
    body: TraceBody<'a>,
}

#[derive(Debug)]
enum TraceBody<'a> {
    /// The rendered structured trace.
    Text(&'a [obs::TraceRecord]),
    /// The Chrome trace-event export.
    Chrome(&'a [obs::TraceRecord]),
    /// One class's inter-arrival gaps in seconds, one a line.
    Gaps(Vec<f64>),
    /// The policy decisions as `t_secs mode target_mpl` lines.
    Decisions(&'a [obs::TraceRecord]),
}

impl TraceFile<'_> {
    /// Write the file's bytes to `w`.
    pub fn write_to(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        w.write_all(self.header.as_bytes())?;
        match &self.body {
            TraceBody::Text(records) => obs::write_text(records, w),
            TraceBody::Chrome(records) => obs::write_chrome_json(records, w),
            TraceBody::Gaps(gaps) => gaps.iter().try_for_each(|g| writeln!(w, "{g:?}")),
            TraceBody::Decisions(records) => records.iter().try_for_each(|r| {
                let obs::TraceEvent::PolicyDecision { mode, target_mpl } = r.event else {
                    return Ok(());
                };
                let t = r.at.as_secs_f64();
                match target_mpl {
                    Some(m) => writeln!(w, "{t:?} {mode} {m}"),
                    None => writeln!(w, "{t:?} {mode} -"),
                }
            }),
        }
    }
}

/// The artifact files a cell's recording projects to — one per projection
/// whose kind `mask` recorded:
///
/// - the full mask ([`obs::TraceKind::ALL`]): the rendered structured trace
///   `TRACE_obs_<figure>_cell<i>.txt`, plus the Chrome trace-event export
///   `CHROME_<figure>_cell0.json` for cell 0;
/// - [`obs::TraceKind::ArrivalGap`]: one `TRACE_<figure>_cell<i>_class<j>.txt`
///   per workload class, in the exact format `workload::Trace::from_file`
///   parses (replayable via `ArrivalSpec::Trace`);
/// - [`obs::TraceKind::PolicyDecision`]: the Figures 6/15 decision series
///   `TRACE_pmm_<figure>_cell<i>.txt`, skipped for a cell whose policy
///   decided nothing (the static baselines).
///
/// The sink only sees cells whose replication 0 completed, so a cell whose
/// replication 0 panicked projects to nothing.
pub fn trace_files<'a>(
    figure: &str,
    mask: u16,
    trace: &'a CellTrace,
) -> Vec<TraceFile<'a>> {
    let mut files = Vec::new();
    let c = trace.cell;
    let records = &trace.records[..];
    // Every file but the Chrome export starts `# <figure> cell <i> (x=…,
    // policy=…)` followed by what it holds.
    let header = |what: &str| {
        format!(
            "# {figure} cell {c} (x={:?}, policy={}){what}\n",
            trace.x, trace.policy
        )
    };
    if mask == obs::TraceKind::ALL {
        files.push(TraceFile {
            name: format!("TRACE_obs_{figure}_cell{c}.txt"),
            header: header(" — replication 0 structured sim-time trace"),
            body: TraceBody::Text(records),
        });
        if c == 0 {
            files.push(TraceFile {
                name: format!("CHROME_{figure}_cell0.json"),
                header: String::new(),
                body: TraceBody::Chrome(records),
            });
        }
    }
    if mask & obs::TraceKind::ArrivalGap.bit() != 0 {
        for (class, gaps) in arrival_gaps(records, trace.classes).into_iter().enumerate()
        {
            files.push(TraceFile {
                name: format!("TRACE_{figure}_cell{c}_class{class}.txt"),
                header: header(&format!(
                    " class {class} — replication 0 inter-arrival gaps (s)"
                )),
                body: TraceBody::Gaps(gaps),
            });
        }
    }
    if mask & obs::TraceKind::PolicyDecision.bit() != 0
        && records
            .iter()
            .any(|r| matches!(r.event, obs::TraceEvent::PolicyDecision { .. }))
    {
        files.push(TraceFile {
            name: format!("TRACE_pmm_{figure}_cell{c}.txt"),
            header: header(" — replication 0 PMM decision trace: t_secs mode target_mpl"),
            body: TraceBody::Decisions(records),
        });
    }
    files
}

/// One cell's results over all replications: the merged statistics, the
/// run's cost, its observability payloads and its quarantined
/// replications.
#[derive(Clone, Debug)]
pub struct MergedCell {
    /// The swept parameter.
    pub x: f64,
    /// The cell's label ([`CellSpec::policy`]).
    pub policy: String,
    /// Replications merged.
    pub replications: u64,
    /// Total queries served across replications.
    pub served: u64,
    /// Total deadline misses across replications.
    pub missed: u64,
    /// Miss ratio (%), mean ± CI over replications.
    pub miss_pct: MetricSummary,
    /// Time-averaged MPL.
    pub avg_mpl: MetricSummary,
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: MetricSummary,
    /// Mean disk utilization in `[0, 1]`.
    pub disk_util: MetricSummary,
    /// Admission waiting time (s).
    pub waiting: MetricSummary,
    /// Execution time (s).
    pub execution: MetricSummary,
    /// Response time (s).
    pub response: MetricSummary,
    /// Memory-allocation changes per query.
    pub avg_fluctuations: MetricSummary,
    /// Merged windowed miss-ratio time series.
    pub windows: Vec<MergedWindow>,
    /// Merged per-tenant aggregates (empty for single-tenant figures).
    pub tenants: Vec<MergedTenant>,
    /// Merged per-class outcomes, in the config's class order. Not
    /// serialized by [`FigureResult::to_json`].
    pub classes: Vec<MergedClass>,
    /// Calendar events dispatched, summed over replications.
    pub events: u64,
    /// Simulated seconds, summed over replications.
    pub sim_secs: f64,
    /// Wall seconds, summed over replications. Each replication is timed
    /// on its own worker, so the rates approximate per-core simulator
    /// throughput; oversubscribed workers on a CPU-quota-limited machine
    /// timeshare and inflate it, so trust `--threads 1` readings. Kept out
    /// of the deterministic JSON: [`perf_json`] writes it.
    pub wall_secs: f64,
    /// The metrics registry merged over the replications in seed order
    /// (counters and histogram buckets sum, gauges average, windowed deltas
    /// merge index-by-index), `None` unless [`DriverConfig::metrics`] is
    /// set. Serialized by [`metrics_json`].
    pub metrics: Option<obs::MetricsReport>,
    /// The replications that panicked, in replication order. Empty on a
    /// healthy cell.
    pub quarantine: Vec<QuarantinedUnit>,
}

/// `n` per wall second, or 0 when no wall time was recorded.
fn per_wall_sec(n: f64, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        n / wall_secs
    } else {
        0.0
    }
}

impl MergedCell {
    /// Simulator throughput in events per wall second.
    pub fn events_per_sec(&self) -> f64 {
        per_wall_sec(self.events as f64, self.wall_secs)
    }

    /// Simulated seconds per wall second. Prefer it to events/s: an engine
    /// that covers the same horizon with fewer events reads lower there.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        per_wall_sec(self.sim_secs, self.wall_secs)
    }
}

/// Merge the per-replication window series index-by-index. Replication
/// windows share boundaries (same `window_secs` and duration), but a run
/// may emit one final partial window the others lack — each index is merged
/// over the replications that actually have it.
fn merge_windows(reports: &[RunReport]) -> Vec<MergedWindow> {
    let longest = reports.iter().map(|r| r.windows.len()).max().unwrap_or(0);
    (0..longest)
        .map(|j| {
            let points: Vec<&WindowPoint> =
                reports.iter().filter_map(|r| r.windows.get(j)).collect();
            let mut bm = BatchMeans::new(1);
            for p in &points {
                bm.record(p.miss_pct());
            }
            MergedWindow {
                t_secs: points[0].t_secs,
                replications: points.len() as u64,
                served: points.iter().map(|p| p.served).sum(),
                missed: points.iter().map(|p| p.missed).sum(),
                miss_pct: MetricSummary {
                    mean: bm.mean(),
                    ci90: bm.half_width(t_quantile_90(points.len().saturating_sub(1))),
                },
            }
        })
        .collect()
}

/// One replication that panicked mid-run: quarantined with its provenance
/// instead of aborting the sweep. The remaining replications of its cell
/// (and every other cell) still merge normally; the binary writes the list
/// as `BENCH_<figure>_quarantine.json` (see [`quarantine_json`]).
#[derive(Clone, Debug)]
pub struct QuarantinedUnit {
    /// Replication index within the cell.
    pub rep: u64,
    /// The replication's derived RNG seed — rerun it with
    /// `SimConfig { seed, .. }` to reproduce the panic.
    pub seed: u64,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// A figure's complete merged result.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Figure name.
    pub figure: &'static str,
    /// Meaning of the x axis.
    pub x_label: &'static str,
    /// The figure's time-series window ([`FigureSpec::window_secs`]).
    pub window_secs: Option<f64>,
    /// Driver parameters the result was produced under.
    pub config: DriverConfig,
    /// Merged cells, in the figure's canonical order.
    pub cells: Vec<MergedCell>,
    /// Wall-clock self-profile aggregated over every replication of every
    /// cell (`None` unless [`DriverConfig::profile`] is set).
    /// Machine-dependent: serialized by [`profile_json`], never diffed.
    pub profile: Option<obs::ProfileReport>,
}

impl FigureResult {
    /// Total events dispatched across cells.
    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Total wall seconds across cells.
    pub fn wall_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_secs).sum()
    }

    /// Aggregate throughput in events per wall second.
    pub fn events_per_sec(&self) -> f64 {
        per_wall_sec(self.events() as f64, self.wall_secs())
    }

    /// Aggregate simulated seconds per wall second.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        let sim: f64 = self.cells.iter().map(|c| c.sim_secs).sum();
        per_wall_sec(sim, self.wall_secs())
    }
}

/// Derive the RNG seed for replication `rep` — stable for a given master
/// seed, independent of cell, thread count, and scheduling.
pub fn replication_seed(master_seed: u64, rep: u64) -> u64 {
    pmm_core::simkit::SeedSequence::new(master_seed)
        .substream("replication", rep)
        .next_u64()
}

/// Run one figure: shard `cells × seeds` simulation units across
/// `cfg.threads` workers, then merge per cell in seed order. Whatever
/// [`DriverConfig::trace`] records is dropped; [`run_figure_traced`]
/// hands it to a sink instead.
///
/// # Errors
/// Propagates [`figure_spec`]'s error for unknown figure names, rejects a
/// cell config that fails validation.
///
/// # Panics
/// A replication that panics does **not** abort the sweep: the panic is
/// caught on its worker and the unit lands in its cell's
/// [`MergedCell::quarantine`] while every other unit completes. Only
/// driver-internal invariant violations still panic.
pub fn run_figure(figure: &str, cfg: DriverConfig) -> Result<FigureResult, String> {
    run_figure_traced(figure, cfg, |_| Ok(()))
}

/// [`run_figure`], handing each cell's recording to `sink` on the worker
/// that ran the cell's replication 0, as soon as that replication
/// finishes. Only the recordings of the replications still running are
/// held at once, whatever the number of cells, and each recording is a
/// pure function of its cell and seed, so what the sink writes is
/// independent of `cfg.threads`.
///
/// # Errors
/// As [`run_figure`], plus the error of the lowest-numbered cell whose
/// sink call failed; the other cells still run.
pub fn run_figure_traced<F>(
    figure: &str,
    cfg: DriverConfig,
    sink: F,
) -> Result<FigureResult, String>
where
    F: Fn(CellTrace) -> Result<(), String> + Sync,
{
    let spec = figure_spec(figure)?;
    // Replication `s` of cell `c` runs the cell's config with the driver's
    // duration, seed and observability settings. Traces are per cell, not
    // per replication: replication 0 is the canonical recording (its seed
    // derivation is stable). Metrics are collected on *every* replication
    // so the per-cell merge spans all seeds.
    let unit_config = |c: usize, s: u64| {
        let mut sim = spec.cells[c].config.clone();
        sim.duration_secs = cfg.secs;
        sim.seed = replication_seed(cfg.master_seed, s);
        if s == 0 {
            sim.obs.trace = cfg.trace;
        }
        sim.obs.metrics = cfg.metrics;
        sim.obs.profile = cfg.profile;
        sim
    };
    // Reject degenerate configs before any replication spawns.
    for (c, cell) in spec.cells.iter().enumerate() {
        unit_config(c, 0).validate().map_err(|e| {
            format!("invalid config for {figure} cell {:?}: {e}", cell.policy)
        })?;
    }

    // One unit per (cell, replication); results land in a pre-sized table so
    // merge order is independent of which worker ran which unit.
    let units: Vec<(usize, u64)> = (0..spec.cells.len())
        .flat_map(|c| (0..cfg.seeds).map(move |s| (c, s)))
        .collect();
    let results: Vec<OnceLock<Result<(RunReport, f64), String>>> =
        units.iter().map(|_| OnceLock::new()).collect();
    let sink_errors: Vec<OnceLock<String>> =
        spec.cells.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);

    let run_unit = |unit: usize| {
        let (c, s) = units[unit];
        let sim = unit_config(c, s);
        let started = std::time::Instant::now();
        // A panicking replication (crashing policy, engine invariant blown
        // on a hostile config) is caught here on its own worker: the unit
        // quarantines, the sweep survives.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let policy = make_policy_for(&sim, &spec.cells[c].algorithm);
            run_simulation(sim, policy)
        }));
        let wall = started.elapsed().as_secs_f64();
        let entry = match outcome {
            Ok(mut report) => {
                if s == 0 && cfg.trace != 0 {
                    let trace = CellTrace {
                        cell: c,
                        x: spec.cells[c].x,
                        policy: spec.cells[c].policy.clone(),
                        classes: spec.cells[c].config.classes.len(),
                        records: std::mem::take(&mut report.obs_trace),
                    };
                    if let Err(e) = sink(trace) {
                        let _ = sink_errors[c].set(e);
                    }
                }
                Ok((report, wall))
            }
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        results[unit]
            .set(entry)
            .expect("each unit is claimed exactly once");
    };

    let workers = cfg.threads.max(1).min(units.len().max(1));
    if workers <= 1 {
        for unit in 0..units.len() {
            run_unit(unit);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let unit = next.fetch_add(1, Ordering::Relaxed);
                    if unit >= units.len() {
                        break;
                    }
                    run_unit(unit);
                });
            }
        });
    }

    if let Some(e) = sink_errors.into_iter().find_map(OnceLock::into_inner) {
        return Err(e);
    }
    let mut results = results
        .into_iter()
        .map(|r| r.into_inner().expect("all units completed"));
    let mut profile: Option<obs::ProfileReport> = None;
    let cells = spec
        .cells
        .iter()
        .map(|cell| {
            let mut wall_secs = 0.0;
            // Panicked replications drop out of the per-cell report set and
            // land in the cell's quarantine instead, in replication order —
            // deterministic regardless of worker count.
            let mut reports: Vec<RunReport> = Vec::new();
            let mut quarantine = Vec::new();
            for rep in 0..cfg.seeds {
                match results.next().expect("one result per unit") {
                    Ok((report, wall)) => {
                        wall_secs += wall;
                        reports.push(report);
                    }
                    Err(message) => quarantine.push(QuarantinedUnit {
                        rep,
                        seed: replication_seed(cfg.master_seed, rep),
                        message,
                    }),
                }
            }
            for r in &reports {
                if let Some(p) = &r.profile {
                    match &mut profile {
                        Some(acc) => acc.absorb(p),
                        None => profile = Some(p.clone()),
                    }
                }
            }
            let metrics = cfg.metrics.then(|| {
                let per_seed: Vec<&obs::MetricsReport> =
                    reports.iter().filter_map(|r| r.metrics.as_ref()).collect();
                obs::MetricsReport::merge(&per_seed)
            });
            MergedCell {
                x: cell.x,
                policy: cell.policy.clone(),
                replications: reports.len() as u64,
                served: reports.iter().map(|r| r.served).sum(),
                missed: reports.iter().map(|r| r.missed).sum(),
                miss_pct: summarize(&reports, RunReport::miss_pct),
                avg_mpl: summarize(&reports, |r| r.avg_mpl),
                cpu_util: summarize(&reports, |r| r.cpu_util),
                disk_util: summarize(&reports, |r| r.disk_util),
                waiting: summarize(&reports, |r| r.timings.waiting),
                execution: summarize(&reports, |r| r.timings.execution),
                response: summarize(&reports, |r| r.timings.response),
                avg_fluctuations: summarize(&reports, |r| r.avg_fluctuations),
                windows: merge_windows(&reports),
                tenants: merge_tenants(&reports),
                classes: merge_classes(&reports),
                events: reports.iter().map(|r| r.events).sum(),
                sim_secs: reports.iter().map(|r| r.sim_secs).sum(),
                wall_secs,
                metrics,
                quarantine,
            }
        })
        .collect();

    Ok(FigureResult {
        figure: spec.name,
        x_label: spec.x_label,
        window_secs: spec.window_secs,
        config: cfg,
        cells,
        profile,
    })
}

/// Recover a human-readable message from a caught panic payload. `panic!`
/// with a format string boxes a `String`; a bare literal boxes `&str`;
/// anything else is opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serialize a figure's quarantine to the `BENCH_<figure>_quarantine.json`
/// format: one entry per panicked replication, with enough provenance
/// (cell, policy, replication index, seed) to rerun the unit in isolation.
pub fn quarantine_json(result: &FigureResult) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\n  \"figure\": \"{}\",\n  \"paper\": \"conf_sigmod_PangCL94\",\n  \
         \"kind\": \"quarantine\",\n  \"seeds\": {},\n  \"master_seed\": {},\n  \
         \"units\": [\n",
        result.figure, result.config.seeds, result.config.master_seed
    ));
    // Cell-major, replication-minor.
    let units: Vec<(usize, &MergedCell, &QuarantinedUnit)> = result
        .cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| cell.quarantine.iter().map(move |u| (c, cell, u)))
        .collect();
    for (i, (c, cell, u)) in units.iter().enumerate() {
        out.push_str(&format!("    {{\"cell\":{c},\"x\":"));
        push_f64(&mut out, cell.x);
        out.push_str(&format!(
            ",\"policy\":\"{}\",\"rep\":{},\"seed\":{},\"message\":{}}}",
            cell.policy,
            u.rep,
            u.seed,
            json_string(&u.message)
        ));
        out.push_str(if i + 1 < units.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal JSON string escaping for panic messages (quotes, backslashes,
/// control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize the perf trajectory of one driver invocation to the
/// `BENCH_perf.json` format. Unlike `BENCH_<figure>.json` this output
/// contains wall-clock readings, so it varies by machine and run — CI
/// archives it as a trajectory artifact but never diffs it byte-for-byte.
pub fn perf_json(cfg: &DriverConfig, figures: &[FigureResult]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\n  \"paper\": \"conf_sigmod_PangCL94\",\n  \"kind\": \"perf\",\n  \
         \"note\": \"wall-clock perf trajectory; machine-dependent, never \
         diffed for byte-identity\",\n  \"seeds\": {},\n  \"master_seed\": {},\n  \
         \"threads\": {},\n  \"sim_secs\": ",
        cfg.seeds, cfg.master_seed, cfg.threads
    ));
    push_f64(&mut out, cfg.secs);
    out.push_str(",\n  \"figures\": [\n");
    for (i, result) in figures.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\":\"{}\",\"events\":{},\"wall_secs\":",
            result.figure,
            result.events()
        ));
        push_f64(&mut out, result.wall_secs());
        out.push_str(",\"events_per_sec\":");
        push_f64(&mut out, result.events_per_sec());
        out.push_str(",\"sim_s_per_wall_s\":");
        push_f64(&mut out, result.sim_s_per_wall_s());
        out.push_str(",\"cells\":[");
        for (j, c) in result.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"x\":{:?},\"policy\":\"{}\",\"events\":{},\"wall_secs\":",
                c.x, c.policy, c.events
            ));
            push_f64(&mut out, c.wall_secs);
            out.push_str(",\"events_per_sec\":");
            push_f64(&mut out, c.events_per_sec());
            out.push_str(",\"sim_s_per_wall_s\":");
            push_f64(&mut out, c.sim_s_per_wall_s());
            out.push('}');
        }
        out.push_str("]}");
        if i + 1 < figures.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize one figure's merged metrics registries to the
/// `BENCH_<figure>_metrics.json` format. Like the figure JSON this is a
/// pure function of the seed-order merge: thread count and wall-clock time
/// never appear, so runs with different parallelism are byte-identical.
pub fn metrics_json(result: &FigureResult) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"figure\": \"{}\",\n  \"paper\": \"conf_sigmod_PangCL94\",\n  \
         \"kind\": \"metrics\",\n  \"seeds\": {},\n  \"master_seed\": {},\n  \
         \"sim_secs\": ",
        result.figure, result.config.seeds, result.config.master_seed
    ));
    push_f64(&mut out, result.config.secs);
    out.push_str(",\n  \"cells\": [\n");
    let cells: Vec<(usize, &MergedCell, &obs::MetricsReport)> = result
        .cells
        .iter()
        .enumerate()
        .filter_map(|(c, cell)| Some((c, cell, cell.metrics.as_ref()?)))
        .collect();
    for (i, (c, cell, metrics)) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cell\":{c},\"x\":{:?},\"policy\":\"{}\",\"counters\":{{",
            cell.x, cell.policy
        ));
        for (j, (name, total)) in metrics.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{total}"));
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, value)) in metrics.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            push_f64(&mut out, *value);
        }
        out.push_str("},\"histograms\":[");
        for (j, h) in metrics.hists.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{}\",\"bounds\":[", h.name));
            for (k, b) in h.bounds.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_f64(&mut out, *b);
            }
            out.push_str("],\"counts\":[");
            for (k, c) in h.counts.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}");
        }
        out.push(']');
        // Label families ride only in multi-tenant cells, so single-tenant
        // metrics JSON keeps its established byte-exact shape.
        if !metrics.counter_families.is_empty() || !metrics.gauge_families.is_empty() {
            out.push_str(",\"families\":[");
            let mut first = true;
            for (name, values) in &metrics.counter_families {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"kind\":\"counter\",\"values\":["
                ));
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
                out.push_str("]}");
            }
            for (name, values) in &metrics.gauge_families {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"kind\":\"gauge\",\"values\":["
                ));
                for (k, v) in values.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    push_f64(&mut out, *v);
                }
                out.push_str("]}");
            }
            out.push(']');
        }
        out.push_str(",\"windows\":[");
        for (j, w) in metrics.windows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"t_secs\":{:?},\"deltas\":[", w.t_secs));
            for (k, d) in w.deltas.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&d.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        if i + 1 < cells.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialize the self-profile of one driver invocation to the
/// `BENCH_profile.json` format. Like `BENCH_perf.json` this carries
/// wall-clock readings — machine-dependent, archived as a trajectory
/// artifact but never diffed for byte-identity.
pub fn profile_json(
    cfg: &DriverConfig,
    figures: &[(String, obs::ProfileReport)],
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\n  \"paper\": \"conf_sigmod_PangCL94\",\n  \"kind\": \"profile\",\n  \
         \"note\": \"wall-clock self-profile per engine subsystem; \
         machine-dependent, never diffed for byte-identity\",\n  \
         \"seeds\": {},\n  \"master_seed\": {},\n  \"threads\": {},\n  \
         \"sim_secs\": ",
        cfg.seeds, cfg.master_seed, cfg.threads
    ));
    push_f64(&mut out, cfg.secs);
    out.push_str(",\n  \"figures\": [\n");
    for (i, (name, report)) in figures.iter().enumerate() {
        out.push_str(&format!("    {{\"figure\":\"{name}\",\"sections\":["));
        for (j, s) in report.sections.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{}\",\"wall_secs\":", s.name));
            push_f64(&mut out, s.wall_secs);
            out.push_str(&format!(",\"calls\":{}}}", s.calls));
        }
        out.push_str("]}");
        if i + 1 < figures.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

// --- JSON emission (hand-rolled: no registry access, so no serde) ---------

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is shortest-roundtrip formatting: deterministic and exact.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

fn push_summary(out: &mut String, name: &str, m: MetricSummary) {
    out.push_str(&format!("\"{name}\":{{\"mean\":"));
    push_f64(out, m.mean);
    out.push_str(",\"ci90\":");
    match m.ci90 {
        Some(hw) => push_f64(out, hw),
        None => out.push_str("null"),
    }
    out.push('}');
}

impl FigureResult {
    /// Serialize to the machine-readable `BENCH_<figure>.json` format.
    ///
    /// The output is a pure function of the merged statistics — thread count
    /// and wall-clock time are deliberately excluded so that runs with
    /// different parallelism are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\n  \"figure\": \"{}\",\n  \"paper\": \"conf_sigmod_PangCL94\",\n  \
             \"x_label\": \"{}\",\n  \"seeds\": {},\n  \"master_seed\": {},\n  \
             \"sim_secs\": ",
            self.figure, self.x_label, self.config.seeds, self.config.master_seed
        ));
        push_f64(&mut out, self.config.secs);
        out.push_str(",\n  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"x\":{:?},\"policy\":\"{}\",\"replications\":{},\
                 \"served\":{},\"missed\":{},",
                cell.x, cell.policy, cell.replications, cell.served, cell.missed
            ));
            push_summary(&mut out, "miss_pct", cell.miss_pct);
            out.push(',');
            push_summary(&mut out, "avg_mpl", cell.avg_mpl);
            out.push(',');
            push_summary(&mut out, "cpu_util", cell.cpu_util);
            out.push(',');
            push_summary(&mut out, "disk_util", cell.disk_util);
            out.push(',');
            push_summary(&mut out, "waiting_secs", cell.waiting);
            out.push(',');
            push_summary(&mut out, "execution_secs", cell.execution);
            out.push(',');
            push_summary(&mut out, "response_secs", cell.response);
            out.push(',');
            push_summary(&mut out, "avg_fluctuations", cell.avg_fluctuations);
            out.push_str(",\"windows\":[");
            for (j, w) in cell.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"t_secs\":{:?},\"replications\":{},\"served\":{},\
                     \"missed\":{},",
                    w.t_secs, w.replications, w.served, w.missed
                ));
                push_summary(&mut out, "miss_pct", w.miss_pct);
                out.push('}');
            }
            out.push(']');
            // Per-tenant aggregates: emitted only for multi-tenant cells,
            // so single-tenant figures keep their pre-v2 JSON shape.
            if !cell.tenants.is_empty() {
                out.push_str(",\"tenants\":[");
                for (j, t) in cell.tenants.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"quota_pages\":{},\"soft\":{},\
                         \"served\":{},\"missed\":{},",
                        t.name, t.quota_pages, t.soft, t.served, t.missed
                    ));
                    push_summary(&mut out, "miss_pct", t.miss_pct);
                    out.push(',');
                    push_summary(&mut out, "avg_mpl", t.avg_mpl);
                    out.push(',');
                    push_summary(&mut out, "quota_utilization", t.quota_utilization);
                    out.push(',');
                    push_summary(&mut out, "borrowed_pages", t.borrowed_pages);
                    out.push('}');
                }
                out.push(']');
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render the merged results for terminal output in the paper's
    /// layouts: one table with every Section 5 metric per cell (Figures
    /// 3–5, 7–11, 16–17 and Table 7), then each cell's window series when
    /// the figure plots one (Figures 12–14), then the per-class miss split
    /// of every multiclass cell without a tenant table (Figure 18).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let ci = |m: MetricSummary| m.ci90.map_or("-".to_string(), |h| format!("{h:.2}"));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} · {} seeds × {:.0} sim-secs (miss % ± 90% CI; times in seconds) ==",
            self.figure, self.config.seeds, self.config.secs
        );
        let _ = writeln!(
            out,
            "{:>10} {:>14} {:>8} {:>7} {:>6} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8}",
            "x",
            "policy",
            "miss %",
            "±ci90",
            "MPL",
            "cpu %",
            "disk %",
            "fluct/q",
            "wait s",
            "exec s",
            "resp s"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:>10.3} {:>14} {:>8.2} {:>7} {:>6.2} {:>6.1} {:>6.1} {:>7.2} {:>8.1} \
                 {:>8.1} {:>8.1}",
                c.x,
                c.policy,
                c.miss_pct.mean,
                ci(c.miss_pct),
                c.avg_mpl.mean,
                100.0 * c.cpu_util.mean,
                100.0 * c.disk_util.mean,
                c.avg_fluctuations.mean,
                c.waiting.mean,
                c.execution.mean,
                c.response.mean
            );
        }
        if let Some(window) = self.window_secs {
            for c in &self.cells {
                let _ = writeln!(
                    out,
                    "-- window series: x={:.3} policy={} (miss % per {window:.0} s window) --",
                    c.x, c.policy
                );
                let _ = writeln!(
                    out,
                    "{:>10} {:>8} {:>8} {:>8} {:>7}",
                    "t (s)", "served", "missed", "miss %", "±ci90"
                );
                for w in &c.windows {
                    let _ = writeln!(
                        out,
                        "{:>10.0} {:>8} {:>8} {:>8.2} {:>7}",
                        w.t_secs,
                        w.served,
                        w.missed,
                        w.miss_pct.mean,
                        ci(w.miss_pct)
                    );
                }
            }
        }
        let split: Vec<&MergedCell> = self
            .cells
            .iter()
            .filter(|c| c.classes.len() > 1 && c.tenants.is_empty())
            .collect();
        if !split.is_empty() {
            let _ = writeln!(out, "-- per-class miss split (miss % ± 90% CI) --");
            let _ = writeln!(
                out,
                "{:>10} {:>14} {:>8} {:>8} {:>8} {:>8} {:>7}",
                "x", "policy", "class", "served", "missed", "miss %", "±ci90"
            );
            for c in split {
                for k in &c.classes {
                    let _ = writeln!(
                        out,
                        "{:>10.3} {:>14} {:>8} {:>8} {:>8} {:>8.2} {:>7}",
                        c.x,
                        c.policy,
                        k.name,
                        k.served,
                        k.missed,
                        k.miss_pct.mean,
                        ci(k.miss_pct)
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each trace file's name and body, rendered through an in-memory
    /// writer.
    fn rendered(files: Vec<TraceFile<'_>>) -> Vec<(String, String)> {
        files
            .into_iter()
            .map(|f| {
                let mut body = Vec::new();
                f.write_to(&mut body).expect("writing to a Vec cannot fail");
                (
                    f.name,
                    String::from_utf8(body).expect("trace files are UTF-8"),
                )
            })
            .collect()
    }

    #[test]
    fn figure_spec_knows_all_figures() {
        for f in FIGURES {
            let spec = figure_spec(f).expect("known figure");
            assert!(!spec.cells.is_empty(), "{f} has cells");
        }
        assert!(figure_spec("fig99").is_err());
    }

    #[test]
    fn figure_cells_keep_their_labels() {
        let labels = |figure: &str| -> Vec<String> {
            let spec = figure_spec(figure).expect("known figure");
            spec.cells
                .iter()
                .map(|c| format!("{:?} {}", c.x, c.policy))
                .collect()
        };
        let mut faults = Vec::new();
        for x in ["0.0", "0.5", "1.0"] {
            for cell in ["abort/MinMax", "requeue/MinMax", "abort/PMM", "requeue/PMM"] {
                faults.push(format!("{x} {cell}"));
            }
        }
        assert_eq!(labels("faults"), faults);
        let mut scale = Vec::new();
        for x in ["10.0", "100.0", "1000.0"] {
            for a in crate::SCALE_POLICIES {
                scale.push(format!("{x} {a}"));
            }
        }
        assert_eq!(labels("scale"), scale);

        // Each cell's config carries what its label names.
        for cell in figure_spec("faults").expect("known figure").cells {
            let (mode, algorithm) = cell.policy.split_once('/').expect("mode/policy");
            assert_eq!(algorithm, cell.algorithm);
            let want = match mode {
                "abort" => DegradationMode::Abort,
                _ => DegradationMode::Requeue,
            };
            assert_eq!(cell.config.faults.mode, want, "{}", cell.policy);
            assert_eq!(cell.config.faults.events.is_empty(), cell.x == 0.0);
        }
        for cell in figure_spec("scale").expect("known figure").cells {
            assert_eq!(cell.policy, cell.algorithm);
            assert_eq!(cell.config.tenants.len() as f64, cell.x);
        }
    }

    #[test]
    fn perf_json_reports_sim_seconds_per_wall_second() {
        let cfg = DriverConfig {
            seeds: 1,
            secs: 10.0,
            ..DriverConfig::default()
        };
        let mut r = run_figure("fig12", cfg).expect("fig12 runs");
        r.cells.truncate(2);
        for (cell, (events, wall_secs)) in
            r.cells.iter_mut().zip([(300, 2.0), (100, 1.0)])
        {
            cell.events = events;
            cell.sim_secs = 600.0;
            cell.wall_secs = wall_secs;
        }
        assert_eq!(r.cells[0].sim_s_per_wall_s(), 300.0);
        // Fewer events over the same horizon read as faster, not slower.
        assert_eq!(r.cells[1].sim_s_per_wall_s(), 600.0);
        assert_eq!(r.cells[1].events_per_sec(), 100.0);
        assert_eq!(r.sim_s_per_wall_s(), 400.0);
        let json = perf_json(&DriverConfig::default(), &[r]);
        assert!(json.contains("\"sim_s_per_wall_s\":400.0,\"cells\""));
        assert!(json.contains("\"events_per_sec\":150.0,\"sim_s_per_wall_s\":300.0}"));
        assert!(json.contains("\"events_per_sec\":100.0,\"sim_s_per_wall_s\":600.0}"));
    }

    #[test]
    fn run_figure_validates_cells_before_spawning() {
        // Every shipped cell's config — degradation mode included —
        // passes validation with sane driver settings...
        for f in FIGURES.into_iter().chain(["crashtest"]) {
            for cell in figure_spec(f).expect("known figure").cells {
                let mut sim = cell.config;
                sim.duration_secs = 600.0;
                sim.validate().expect("shipped cells validate");
            }
        }
        // ...and a degenerate duration is rejected up front, not mid-run.
        let cfg = DriverConfig {
            seeds: 1,
            secs: 0.0,
            ..DriverConfig::default()
        };
        let err = run_figure("fig3", cfg).expect_err("zero duration rejected");
        assert!(err.contains("invalid config"), "got: {err}");
    }

    #[test]
    fn t_quantile_small_sample_widths() {
        assert!(
            t_quantile_90(0).is_nan(),
            "no interval from one replication"
        );
        assert!(
            (t_quantile_90(7) - 1.895).abs() < 1e-9,
            "default 8 seeds → 7 df"
        );
        assert!((t_quantile_90(30) - 1.697).abs() < 1e-9);
        // Cornish–Fisher tail: t_{0.95,40} ≈ 1.684, and large df → z.
        assert!((t_quantile_90(40) - 1.684).abs() < 2e-3);
        assert!((t_quantile_90(100_000) - 1.645).abs() < 1e-4);
        // Monotone non-increasing in df.
        for df in 1..100 {
            assert!(t_quantile_90(df) >= t_quantile_90(df + 1));
        }
    }

    #[test]
    fn replication_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..16).map(|r| replication_seed(1994, r)).collect();
        let b: Vec<u64> = (0..16).map(|r| replication_seed(1994, r)).collect();
        assert_eq!(a, b, "seed derivation must be stable");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "replication seeds must be distinct");
        assert_ne!(replication_seed(1, 0), replication_seed(2, 0));
    }

    #[test]
    fn merge_windows_handles_ragged_series() {
        let mk = |windows: Vec<(f64, u64, u64)>| RunReport {
            windows: windows
                .into_iter()
                .map(|(t, served, missed)| pmm_core::rtdbs::WindowPoint {
                    t_secs: t,
                    served,
                    missed,
                })
                .collect(),
            ..RunReport::default()
        };
        // Second replication lacks the final window.
        let reports = [
            mk(vec![(100.0, 10, 5), (200.0, 10, 0), (300.0, 4, 2)]),
            mk(vec![(100.0, 10, 0), (200.0, 10, 10)]),
        ];
        let merged = merge_windows(&reports);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].replications, 2);
        assert_eq!(merged[0].served, 20);
        assert_eq!(merged[0].missed, 5);
        assert!((merged[0].miss_pct.mean - 25.0).abs() < 1e-12);
        assert!(merged[0].miss_pct.ci90.is_some(), "two replications → CI");
        assert!((merged[1].miss_pct.mean - 50.0).abs() < 1e-12);
        assert_eq!(merged[2].replications, 1);
        assert!(merged[2].miss_pct.ci90.is_none(), "one replication → no CI");
        assert!(merge_windows(&[]).is_empty());
    }

    #[test]
    fn fig12_json_carries_merged_windows() {
        let cfg = DriverConfig {
            seeds: 2,
            threads: 2,
            secs: 600.0,
            master_seed: 9,
            ..DriverConfig::default()
        };
        let r = run_figure("fig12", cfg).expect("fig12 runs");
        assert!(
            r.cells.iter().all(|c| !c.windows.is_empty()),
            "every cell carries its windowed series"
        );
        let json = r.to_json();
        assert!(
            json.contains("\"windows\":[{\"t_secs\":"),
            "windows serialized: {json}"
        );
    }

    /// `run_figure_traced` with a sink that keeps every recording, in
    /// cell order.
    fn run_traced(figure: &str, cfg: DriverConfig) -> (FigureResult, Vec<CellTrace>) {
        let traces = std::sync::Mutex::new(Vec::new());
        let r = run_figure_traced(figure, cfg, |t| {
            traces.lock().expect("sink lock").push(t);
            Ok(())
        })
        .expect("figure runs");
        let mut traces = traces.into_inner().expect("sink lock");
        traces.sort_by_key(|t| t.cell);
        (r, traces)
    }

    #[test]
    fn a_failing_trace_sink_fails_the_figure() {
        let cfg = DriverConfig {
            seeds: 1,
            threads: 2,
            secs: 100.0,
            trace: obs::TraceKind::ALL,
            ..DriverConfig::default()
        };
        let err = run_figure_traced("fig12", cfg, |t| match t.cell {
            0 => Ok(()),
            c => Err(format!("cell {c} refused")),
        })
        .expect_err("a sink error fails the figure");
        assert_eq!(
            err, "cell 1 refused",
            "the lowest failing cell's error wins"
        );
    }

    #[test]
    fn pmm_decision_traces_are_recorded_on_request() {
        // Off by default: the merged JSON keeps dropping the Figure 15
        // series unless the caller opts in.
        assert_eq!(DriverConfig::default().trace, 0);
        let cfg = DriverConfig {
            seeds: 1,
            threads: 1,
            secs: 1_500.0,
            master_seed: 1994,
            trace: obs::TraceKind::PolicyDecision.bit(),
            ..DriverConfig::default()
        };
        let (r, traces) = run_traced("fig12", cfg.clone());
        assert_eq!(traces.len(), 3, "one recording per cell");
        assert!(
            traces
                .iter()
                .flat_map(|t| &t.records)
                .all(|rec| rec.event.kind() == obs::TraceKind::PolicyDecision),
            "the mask keeps only policy decisions"
        );
        let files: Vec<(String, String)> = traces
            .iter()
            .flat_map(|t| rendered(trace_files("fig12", cfg.trace, t)))
            .collect();
        assert_eq!(
            files.len(),
            1,
            "exactly the PMM cell produces decisions; static baselines trace \
             nothing"
        );
        assert_eq!(
            files[0].0, "TRACE_pmm_fig12_cell2.txt",
            "fig12's canonical cell order is Max, MinMax, PMM"
        );
        // The body is replication 0's `RunReport::trace` in the Figures
        // 6/15 layout.
        let spec = figure_spec("fig12").expect("fig12 exists");
        let cell = &spec.cells[2];
        assert_eq!(cell.policy, "PMM");
        let mut sim = cell.config.clone();
        sim.duration_secs = cfg.secs;
        sim.seed = replication_seed(cfg.master_seed, 0);
        let report = run_simulation(sim.clone(), make_policy_for(&sim, &cell.algorithm));
        assert!(!report.trace.is_empty(), "decision trace carries points");
        let mut want = format!(
            "# fig12 cell 2 (x={:?}, policy=PMM) — replication 0 PMM decision \
             trace: t_secs mode target_mpl\n",
            cell.x
        );
        for p in &report.trace {
            want.push_str(&format!(
                "{:?} {} {}\n",
                p.at.as_secs_f64(),
                p.mode,
                p.target_mpl.map_or("-".into(), |m| m.to_string())
            ));
        }
        assert_eq!(files[0].1, want);
        // The full trace projects the same file, and the recording is
        // metric-only: the merged cells are byte-identical to a run
        // without it.
        let full = DriverConfig {
            trace: obs::TraceKind::ALL,
            ..cfg.clone()
        };
        let (_, full) = run_traced("fig12", full);
        assert!(
            rendered(trace_files("fig12", obs::TraceKind::ALL, &full[2]))
                .contains(&files[0])
        );
        let (plain, none) = run_traced("fig12", DriverConfig { trace: 0, ..cfg });
        assert!(none.is_empty(), "nothing recorded, nothing handed over");
        assert_eq!(plain.to_json(), r.to_json());
    }

    #[test]
    fn structured_traces_and_metrics_ride_along() {
        let cfg = DriverConfig {
            seeds: 2,
            threads: 1,
            secs: 300.0,
            master_seed: 1994,
            trace: obs::TraceKind::ALL,
            metrics: true,
            profile: true,
        };
        let (r, traces) = run_traced("fig12", cfg.clone());
        assert_eq!(traces.len(), 3, "one structured trace per cell");
        assert!(traces.iter().all(|t| !t.records.is_empty()));
        for cell in &r.cells {
            assert!(
                cell.metrics
                    .as_ref()
                    .expect("one merged registry per cell")
                    .counters
                    .iter()
                    .any(|(n, v)| n == "engine.arrivals" && *v > 0),
                "merged registry counts arrivals"
            );
        }
        let prof = r.profile.as_ref().expect("profiling enabled");
        assert!(
            prof.sections
                .iter()
                .any(|s| s.name == "dispatch" && s.calls > 0),
            "dispatch section attributed"
        );
        let mjson = metrics_json(&r);
        assert!(mjson.contains("\"kind\": \"metrics\""));
        assert!(mjson.contains("\"engine.arrivals\""));
        assert_eq!(mjson.matches('{').count(), mjson.matches('}').count());
        // Observability is metric-only: the merged figure JSON is
        // unaffected, and everything stays empty when it is off.
        let off = DriverConfig {
            trace: 0,
            metrics: false,
            profile: false,
            ..cfg.clone()
        };
        let (plain, none) = run_traced("fig12", off);
        assert!(none.is_empty());
        assert!(plain.cells.iter().all(|c| c.metrics.is_none()));
        assert!(plain.profile.is_none());
        assert_eq!(plain.to_json(), r.to_json());
        let pjson = profile_json(&cfg, &[("fig12".to_string(), prof.clone())]);
        assert!(pjson.contains("\"kind\": \"profile\""));
        assert!(pjson.contains("\"name\":\"dispatch\""));
        assert_eq!(pjson.matches('{').count(), pjson.matches('}').count());
    }

    #[test]
    fn metrics_flag_collects_registries_without_tracing() {
        // The long-horizon configuration: `--metrics` alone produces the
        // same merged registries `--trace` would, with no record-level
        // trace buffered anywhere.
        assert!(!DriverConfig::default().metrics);
        let cfg = DriverConfig {
            seeds: 2,
            threads: 1,
            secs: 300.0,
            master_seed: 1994,
            metrics: true,
            ..DriverConfig::default()
        };
        let (r, traces) = run_traced("fig12", cfg.clone());
        assert!(traces.is_empty(), "no trace is recorded");
        assert!(
            r.cells.iter().all(|c| c.metrics.is_some()),
            "one merged registry per cell"
        );
        assert!(metrics_json(&r).contains("\"engine.arrivals\""));
        // The registries are byte-identical to a traced run's: tracing is
        // observation, not perturbation.
        let traced = run_figure(
            "fig12",
            DriverConfig {
                trace: obs::TraceKind::ALL,
                ..cfg.clone()
            },
        )
        .expect("traced rerun");
        assert_eq!(metrics_json(&r), metrics_json(&traced));
        // Metric-only, like every other observability knob: the merged
        // figure JSON is unaffected.
        let plain = run_figure(
            "fig12",
            DriverConfig {
                metrics: false,
                ..cfg
            },
        )
        .expect("plain rerun");
        assert!(plain.cells.iter().all(|c| c.metrics.is_none()));
        assert_eq!(plain.to_json(), r.to_json());
    }

    #[test]
    fn render_prints_table7_columns_and_the_per_class_split() {
        let cfg = DriverConfig {
            seeds: 1,
            threads: 1,
            secs: 300.0,
            master_seed: 1994,
            ..DriverConfig::default()
        };
        let r = run_figure("fig17", cfg.clone()).expect("fig17 runs");
        let text = r.render();
        for column in ["cpu %", "fluct/q", "wait s", "exec s", "resp s"] {
            assert!(text.contains(column), "column {column:?} missing:\n{text}");
        }
        assert!(text.contains("-- per-class miss split"), "{text}");
        // The split equals a hand merge of the replications' class outcomes.
        let spec = figure_spec("fig17").expect("known figure");
        let mut split_rows = 0;
        for (cell, merged) in spec.cells.iter().zip(&r.cells) {
            let reports: Vec<RunReport> = (0..cfg.seeds)
                .map(|rep| {
                    let mut sim = cell.config.clone();
                    sim.duration_secs = cfg.secs;
                    sim.seed = replication_seed(cfg.master_seed, rep);
                    let policy = make_policy_for(&sim, &cell.algorithm);
                    run_simulation(sim, policy)
                })
                .collect();
            let n = reports[0].classes.len();
            assert_eq!(merged.classes.len(), n);
            for (j, k) in merged.classes.iter().enumerate() {
                let served: u64 = reports.iter().map(|r| r.classes[j].served).sum();
                let missed: u64 = reports.iter().map(|r| r.classes[j].missed).sum();
                let mean = reports.iter().map(|r| r.classes[j].miss_pct()).sum::<f64>()
                    / reports.len() as f64;
                assert_eq!(k.name, reports[0].classes[j].name);
                assert_eq!((k.served, k.missed), (served, missed));
                assert!((k.miss_pct.mean - mean).abs() < 1e-12);
                let row = format!(
                    "{:>10.3} {:>14} {:>8} {:>8} {:>8} {:>8.2} {:>7}",
                    cell.x, cell.policy, k.name, served, missed, mean, "-"
                );
                // Single-class cells (Small rate 0) print no split rows.
                assert_eq!(text.lines().any(|l| l == row), n > 1, "{row}");
                split_rows += usize::from(n > 1);
            }
        }
        assert!(split_rows > 0, "fig17 has multiclass cells");
        // A single-class figure prints no class block.
        let fig3 = run_figure("fig3", cfg).expect("fig3 runs");
        assert!(!fig3.render().contains("per-class"));
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let cfg = DriverConfig {
            seeds: 2,
            threads: 1,
            secs: 150.0,
            master_seed: 7,
            ..DriverConfig::default()
        };
        let r = run_figure("fig11", cfg.clone()).expect("fig11 runs");
        let json = r.to_json();
        assert_eq!(json, run_figure("fig11", cfg).expect("rerun").to_json());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"figure\": \"fig11\""));
        assert!(json.contains("\"miss_pct\""));
        // Balanced braces ⇒ at least structurally JSON-shaped.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }
}
