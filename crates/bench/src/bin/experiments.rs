//! `experiments` — regenerate the paper's tables and figures.
//!
//! Runs the parallel multi-seed experiment driver: shards a figure's cells
//! across a thread pool, one independently seeded replication per
//! `--seeds`, merges the per-seed reports into batch-means confidence
//! intervals, prints them in the paper's layouts, and writes
//! machine-readable `BENCH_<figure>.json`. The merged output is
//! byte-identical for any `--threads` value.
//!
//! The printed table per figure carries every Section 5 metric — miss %,
//! MPL, CPU and disk utilization, memory fluctuations per query, and the
//! Table 7 wait/exec/response seconds — so one `--figure` covers Figures
//! 3–5, 7–11, 16–17 and Table 7. Figures with a time series (fig12) also
//! print each cell's window series (Figures 12–14), and multiclass cells
//! print their per-class miss split (Figure 18 is fig17's PMM rows). The
//! PMM decision traces of Figures 6 and 15 are `--trace=pmm` files.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- --figure fig3 --seeds 8 --threads 4
//! cargo run --release -p bench --bin experiments -- --figure all --smoke
//! ```
//!
//! Flags: `--figure
//! <fig3|fig8|fig11|fig12|fig16|fig17|burst|tenants|faults|all>`
//! (repeatable), `--seeds N` (default 8), `--threads N` (default: available
//! cores), `--secs S` (default 3600), `--master-seed S` (default 1994),
//! `--out DIR` (default `.`), `--smoke` (defaults-only: the seed and
//! sim-secs *defaults* become 1 and 300 — the CI smoke configuration —
//! but an explicit `--seeds`/`--secs` still wins, so a long-horizon smoke
//! like `--smoke --secs 36000` works), `--trace=<kinds>` (record
//! replication 0's trace of each cell, `<kinds>` a comma list over
//! `all|arrivals|pmm`, and write each projection whose kind was recorded:
//! `all` renders the structured sim-time trace as
//! `TRACE_obs_<figure>_cell<i>.txt` and exports cell 0 as Chrome
//! trace-event JSON `CHROME_<figure>_cell0.json` for chrome://tracing /
//! Perfetto; `arrivals` writes the inter-arrival gaps per cell and class as
//! `TRACE_<figure>_cell<i>_class<j>.txt`, replayable via
//! `workload::Trace::from_file` / `ArrivalSpec::Trace`; `pmm` writes the
//! PMM decision trace per adaptive cell as `TRACE_pmm_<figure>_cell<i>.txt`
//! — the Figure 15 series the merged JSON drops), `--trace` (bare: the
//! same as `--trace=all --metrics`), `--metrics` (collect and write the
//! seed-merged metrics registry as `BENCH_<figure>_metrics.json` — the
//! long-horizon configuration: registry memory stays O(counters) while
//! a trace buffers O(events) in memory until its cell is written),
//! `--profile` (attribute wall-clock time
//! per engine subsystem and write `BENCH_profile.json` — machine-dependent,
//! like `BENCH_perf.json`).
//!
//! Beyond the paper: `--figure burst` sweeps MMPP burst ratios at the
//! baseline's mean rate under the static policies and PMM;
//! `--figure tenants` sweeps multi-tenant quota splits under shared vs.
//! hard- vs. soft-partitioned memory and the per-tenant-adaptive
//! `PMM-tenant`, with per-tenant quota-utilization / borrow-volume
//! aggregates in each cell's `tenants` array. `fig12` cells carry the
//! merged per-window miss-ratio series (with 90% CIs across seeds) in
//! their `windows` array. `--figure faults` sweeps fault-plan intensity
//! (0 = fault-free control) × degradation policy; each cell is labelled
//! `"<mode>/<policy>"` with mode `abort` or `requeue`. The labels are
//! only printed: every cell carries its own config
//! (`bench::driver::CellSpec`), and nothing parses them. Every figure records and
//! projects its trace the same way, faults included: its rendered trace
//! and Chrome export carry the fault, retry and degradation records. A
//! replication that panics does not abort the sweep:
//! the surviving cells complete and the failed units are written to
//! `BENCH_<figure>_quarantine.json` with their cell, policy, replication
//! index, and seed.

use bench::driver::{
    metrics_json, perf_json, profile_json, quarantine_json, run_figure_traced,
    trace_files, CellTrace, DriverConfig, FigureResult, FIGURES,
};
use pmm_core::obs::{self, TraceKind};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Flags that take a value.
const VALUE_FLAGS: [&str; 6] = [
    "--figure",
    "--seeds",
    "--threads",
    "--secs",
    "--master-seed",
    "--out",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a flag's value; a present-but-unparsable value is an error, not a
/// silent fallback to the default.
fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for {flag}")),
    }
}

/// The kind mask of `--trace=<kinds>`: a comma list over
/// `all|arrivals|pmm`. An empty or unknown kind is an error.
fn trace_mask(kinds: &str) -> Result<u16, String> {
    let mut mask = 0;
    for kind in kinds.split(',') {
        mask |= match kind {
            "all" => TraceKind::ALL,
            "arrivals" => TraceKind::ArrivalGap.bit(),
            "pmm" => TraceKind::PolicyDecision.bit(),
            _ => {
                return Err(format!(
                    "invalid trace kind {kind:?} in --trace={kinds}; expected a \
                     comma list over all|arrivals|pmm"
                ))
            }
        };
    }
    Ok(mask)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_driver(args: &[String]) -> Result<(), String> {
    // Strict scan: collect `--figure` values, reject unknown flags and stray
    // positionals (a bare figure name would otherwise be silently dropped).
    let mut figures: Vec<String> = Vec::new();
    let mut trace = 0;
    let mut bare_trace = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--figure" {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => figures.push(v.clone()),
                _ => return Err("--figure requires a value".into()),
            }
            i += 2;
        } else if a == "--trace" {
            trace |= TraceKind::ALL;
            bare_trace = true;
            i += 1;
        } else if let Some(kinds) = a.strip_prefix("--trace=") {
            trace |= trace_mask(kinds)?;
            i += 1;
        } else if a == "--smoke" || a == "--metrics" || a == "--profile" {
            i += 1;
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            if args.get(i + 1).is_none() {
                return Err(format!("{a} requires a value"));
            }
            i += 2;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        } else {
            return Err(format!(
                "unexpected positional argument {a:?}; use `--figure {a}`"
            ));
        }
    }
    // No `--figure` (or an explicit `all`) means the full sweep.
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = FIGURES.iter().map(|f| (*f).to_string()).collect();
    }

    // `--smoke` only moves the *defaults*: an explicit `--seeds`/`--secs`
    // still wins, so a long-horizon smoke (`--smoke --secs 36000`) keeps the
    // smoke posture without forfeiting the horizon.
    let smoke = args.iter().any(|a| a == "--smoke");
    let cfg = DriverConfig {
        seeds: parse_flag(args, "--seeds", if smoke { 1 } else { 8 })?,
        threads: parse_flag(args, "--threads", default_threads())?,
        secs: parse_flag(args, "--secs", if smoke { 300.0 } else { 3_600.0 })?,
        master_seed: parse_flag(args, "--master-seed", 1994)?,
        trace,
        // A bare `--trace` is `--trace=all --metrics`.
        metrics: bare_trace || args.iter().any(|a| a == "--metrics"),
        profile: args.iter().any(|a| a == "--profile"),
    };
    if cfg.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if !(cfg.secs > 0.0 && cfg.secs.is_finite()) {
        return Err("--secs must be a positive number".into());
    }
    let out_dir = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| ".".into()));

    let mut results: Vec<FigureResult> = Vec::new();
    let mut profiles: Vec<(String, obs::ProfileReport)> = Vec::new();
    for figure in &figures {
        let started = std::time::Instant::now();
        // Each projection of replication 0's recorded trace — the rendered
        // structured trace and Chrome export, the arrival-gap streams, the
        // PMM decision series, as far as the recorded kinds allow — is
        // streamed to its file and the records dropped as soon as that
        // replication finishes, so no two cells' traces wait in memory
        // together and no file's body is ever held whole.
        let written = AtomicUsize::new(0);
        let write_trace = |trace: CellTrace| -> Result<(), String> {
            for file in trace_files(figure, cfg.trace, &trace) {
                let path = out_dir.join(&file.name);
                File::create(&path)
                    .and_then(|f| {
                        let mut w = BufWriter::new(f);
                        file.write_to(&mut w)?;
                        w.flush()
                    })
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                written.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        };
        let result = run_figure_traced(figure, cfg.clone(), write_trace)?;
        print!("{}", result.render());
        let path = out_dir.join(format!("BENCH_{figure}.json"));
        std::fs::write(&path, result.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "wrote {} ({} cells × {} seeds, {:.1}s wall on {} threads, \
             {:.0} sim-s/wall-s and {:.0} events/s per core)\n",
            path.display(),
            result.cells.len(),
            cfg.seeds,
            started.elapsed().as_secs_f64(),
            cfg.threads,
            result.sim_s_per_wall_s(),
            result.events_per_sec(),
        );
        let written = written.into_inner();
        if written > 0 {
            println!("wrote {written} trace file(s) to {}", out_dir.display());
        }
        if cfg.metrics {
            let metrics_path = out_dir.join(format!("BENCH_{figure}_metrics.json"));
            std::fs::write(&metrics_path, metrics_json(&result))
                .map_err(|e| format!("cannot write {}: {e}", metrics_path.display()))?;
            println!(
                "wrote {} (merged metrics registry; thread-count invariant)",
                metrics_path.display()
            );
        }
        // Quarantined replications: the sweep survived a panicking unit.
        // Keep the exit status green — the partial results are valid and
        // deterministic — but say so loudly and leave the evidence behind.
        let quarantined: usize = result.cells.iter().map(|c| c.quarantine.len()).sum();
        if quarantined > 0 {
            let q_path = out_dir.join(format!("BENCH_{figure}_quarantine.json"));
            std::fs::write(&q_path, quarantine_json(&result))
                .map_err(|e| format!("cannot write {}: {e}", q_path.display()))?;
            eprintln!(
                "warning: {quarantined} replication(s) of {figure} panicked and \
                 were quarantined; see {}",
                q_path.display()
            );
        }
        if let Some(p) = &result.profile {
            profiles.push((figure.clone(), p.clone()));
        }
        results.push(result);
    }
    // The perf trajectory is a separate artifact: BENCH_<figure>.json stays
    // byte-identical across machines and thread counts, BENCH_perf.json
    // deliberately is not.
    let perf_path = out_dir.join("BENCH_perf.json");
    std::fs::write(&perf_path, perf_json(&cfg, &results))
        .map_err(|e| format!("cannot write {}: {e}", perf_path.display()))?;
    println!(
        "wrote {} (perf trajectory; not determinism-pinned)",
        perf_path.display()
    );
    // The self-profile is wall-clock attribution per engine subsystem —
    // machine-dependent like the perf trajectory, and kept apart from it.
    if !profiles.is_empty() {
        let profile_path = out_dir.join("BENCH_profile.json");
        std::fs::write(&profile_path, profile_json(&cfg, &profiles))
            .map_err(|e| format!("cannot write {}: {e}", profile_path.display()))?;
        println!(
            "wrote {} (self-profile; not determinism-pinned)",
            profile_path.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_driver(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
