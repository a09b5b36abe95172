//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <paper-joins|tenants-1000>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the workload's replications untraced for `--seconds`
//! and reports the end-to-end metrics. `--trace 1` runs each replication
//! in four passes (untraced, traced, metrics twin, profiled) and reports
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;

use perfbench::{
    behaviour_digest, check_report, counter, rep_spans, workload, RepSpans, SharedLog,
    Span, SpanLog, Timed, Unit, Workload, DEFAULT_SEED,
};
use pmm_core::prelude::*;
use pmm_core::rtdbs::Simulator;

/// Set-ups timed per replication and round of the end-to-end pass (the
/// one whose simulator then runs included).
const SETUP_SAMPLES: usize = 25;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload_name = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload_name = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload_name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Observability and wrapping of one pass over a replication.
#[derive(Clone, Copy)]
struct Pass {
    metrics: bool,
    profile: bool,
    wrap: bool,
}

/// A replication that ran and passed its checks.
struct Rep {
    report: RunReport,
    spans: RepSpans,
    grants: u64,
}

/// Runs replications under `catch_unwind`, records their spans and keeps
/// the attempted / failed tally.
struct Runner {
    workload: &'static Workload,
    log: SharedLog,
    next_rep: u64,
    attempted: u64,
    failures: Vec<String>,
    /// Spans kept for writing out (the first traced round).
    kept: Vec<Span>,
}

impl Runner {
    fn new(workload: &'static Workload) -> Self {
        Runner {
            workload,
            log: Rc::new(RefCell::new(SpanLog::new())),
            next_rep: 0,
            attempted: 0,
            failures: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn build(&self, unit: Unit, pass: Pass, rep: u64) -> Simulator {
        let mut cfg = self.workload.config(unit.seed);
        cfg.obs.metrics = pass.metrics;
        cfg.obs.profile = pass.profile;
        let mut policy = bench::make_policy_for(&cfg, unit.policy);
        if pass.wrap {
            policy = Box::new(Timed::new(policy, Rc::clone(&self.log), rep));
        }
        Simulator::new(cfg, policy)
    }

    fn fail(&mut self, unit: Unit, what: String) {
        self.failures
            .push(format!("{} seed {}: {what}", unit.policy, unit.seed));
    }

    /// One replication: `extra_setups` timed set-ups first (built and
    /// dropped), then the set-up and run that count. Returns the set-up
    /// times and, if the replication passed its checks, its outputs.
    fn replicate(
        &mut self,
        unit: Unit,
        pass: Pass,
        extra_setups: usize,
        keep_spans: bool,
    ) -> (Vec<u64>, Option<Rep>) {
        let rep = self.next_rep;
        self.next_rep += 1;
        self.attempted += 1;
        let mark = self.log.borrow().spans.len();
        let grants_before = self.log.borrow().grants;
        let mut setups = Vec::with_capacity(extra_setups + 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..extra_setups {
                let t0 = self.log.borrow().now_ns();
                let sim = std::hint::black_box(self.build(unit, pass, rep));
                setups.push(self.log.borrow().now_ns() - t0);
                drop(sim);
            }
            let t0 = self.log.borrow().now_ns();
            let sim = self.build(unit, pass, rep);
            let t1 = self.log.borrow().now_ns();
            self.log.borrow_mut().record(rep, "setup", t0, t1);
            setups.push(t1 - t0);
            let report = sim.run();
            let t2 = self.log.borrow().now_ns();
            self.log.borrow_mut().record(rep, "run", t1, t2);
            report
        }));
        let mut log = self.log.borrow_mut();
        let spans = rep_spans(&log.spans[mark..], rep);
        if keep_spans {
            self.kept.extend_from_slice(&log.spans[mark..]);
        }
        log.spans.truncate(mark);
        let grants = log.grants - grants_before;
        drop(log);
        let checked = match outcome {
            Ok(report) => check_report(&report).and(spans).map(|spans| Rep {
                report,
                spans,
                grants,
            }),
            Err(payload) => Err(format!(
                "panicked: {}",
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            )),
        };
        match checked {
            Ok(rep) => (setups, Some(rep)),
            Err(e) => {
                self.fail(unit, e);
                (setups, None)
            }
        }
    }

    /// Count a replication as failed when its simulated outputs differ from
    /// the reference replication of the same unit.
    fn same_outputs(
        &mut self,
        unit: Unit,
        what: &str,
        reference: (u64, u64),
        rep: &Rep,
    ) -> bool {
        let got = (behaviour_digest(&rep.report), rep.report.events);
        if got == reference {
            return true;
        }
        self.fail(
            unit,
            format!("{what} (digest, events) {got:x?} differ from the untraced {reference:x?}"),
        );
        false
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Median of a non-empty sample; 0 for an empty one.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Rounds of the workload until the next one would overrun `seconds`
/// (at least one).
fn rounds(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let start = std::time::Instant::now();
    let mut n = 0;
    loop {
        let t0 = std::time::Instant::now();
        round(n);
        n += 1;
        if start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > seconds {
            return n;
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Deterministic outputs of one round, summed over its replications.
#[derive(Default)]
struct Outputs {
    served: u64,
    missed: u64,
    events: u64,
    sim_s: f64,
    digest: perfbench::Fnv,
}

impl Outputs {
    fn add(&mut self, r: &RunReport) {
        self.served += r.served;
        self.missed += r.missed;
        self.events += r.events;
        self.sim_s += r.sim_secs;
        self.digest.u64(behaviour_digest(r));
    }

    fn miss_pct(&self) -> f64 {
        100.0 * self.missed as f64 / self.served.max(1) as f64
    }

    fn print(&self, w: &Workload, units: &[Unit]) {
        println!(
            "{}: {} replications of {}; served {}, missed {}, events {}, sim {} s",
            w.name,
            units.len(),
            w.policies.join(", "),
            self.served,
            self.missed,
            self.events,
            self.sim_s
        );
        println!("behaviour digest: {:016x}", self.digest.0);
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(args: &Args, runner: &mut Runner) -> Vec<Metric> {
    let units = args.workload.units(args.seed);
    let pass = Pass {
        metrics: args.workload.metrics,
        profile: false,
        wrap: false,
    };
    let mut reference: Vec<Option<(u64, u64)>> = vec![None; units.len()];
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    // Per replication: its simulated seconds and the host seconds of every
    // round's run of it.
    let mut sim_s = vec![0.0; units.len()];
    let mut host_s: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut outputs = Outputs::default();
    let n = rounds(args.seconds, |round| {
        for (i, &unit) in units.iter().enumerate() {
            let (setup, rep) = runner.replicate(unit, pass, SETUP_SAMPLES - 1, false);
            setups[i].extend(setup.iter().map(|&ns| ns as f64 * 1e-9));
            let Some(rep) = rep else { continue };
            match reference[i] {
                None => {
                    reference[i] =
                        Some((behaviour_digest(&rep.report), rep.report.events));
                    sim_s[i] = rep.report.sim_secs;
                    outputs.add(&rep.report);
                }
                Some(r) => {
                    if !runner.same_outputs(unit, &format!("round {round}"), r, &rep) {
                        continue;
                    }
                }
            }
            host_s[i].push(rep.spans.run_ns as f64 * 1e-9);
        }
    });
    outputs.print(args.workload, &units);
    // Every round repeats the same replications, and host contention only
    // ever slows a run down, so each replication's fastest run is the
    // steadiest estimate of the engine's own speed. The rate over the
    // median runs is printed beside it.
    let rate = |pick: &dyn Fn(&[f64]) -> f64| {
        let host: f64 = host_s
            .iter()
            .filter(|h| !h.is_empty())
            .map(|h| pick(h))
            .sum();
        let sim: f64 = (0..units.len())
            .filter(|&i| !host_s[i].is_empty())
            .map(|i| sim_s[i])
            .sum();
        if host > 0.0 {
            sim / host
        } else {
            0.0
        }
    };
    let best = rate(&|h| h.iter().copied().fold(f64::INFINITY, f64::min));
    println!(
        "rounds: {n}; sim-s/host-s over each replication's fastest run {best}, over its median run {}",
        rate(&|h| median(h))
    );
    let rss = peak_rss_mb().expect("VmHWM readable from /proc/self/status");
    vec![
        ("sim_s_per_host_s", best, "sim-s/host-s"),
        ("setup_s", setups.iter().map(|s| median(s)).sum(), "s"),
        ("peak_rss_mb", rss, "MiB"),
        ("miss_pct", outputs.miss_pct(), "%"),
    ]
}

/// Per-round host-time totals of the traced run, one entry per round.
#[derive(Default)]
struct TraceRound {
    sim_s: f64,
    /// `run` host ns of the untraced, traced, metrics-twin and profiled passes.
    run_ns: [u64; 4],
    traced: RepSpans,
    /// pmm allocation time inside the profiled pass.
    profiled_alloc_ns: u64,
    /// Inclusive profiler sections of the profiled pass, seconds.
    sections: [f64; 4],
}

/// Deterministic per-layer outputs of the first traced round.
#[derive(Default)]
struct Layers {
    arrivals: u64,
    disk_requests: u64,
    cache_hits: u64,
    cpu_bursts: u64,
    reallocations: u64,
    grants: u64,
    alloc_calls: u64,
    feedback_calls: u64,
    disk_util: f64,
    cpu_util: f64,
    mpl: f64,
    wait_s: f64,
    response_s: f64,
    fluctuations: f64,
}

const UNTRACED: usize = 0;
const TRACED: usize = 1;
const TWIN: usize = 2;
const PROFILED: usize = 3;

fn per_layer(args: &Args, runner: &mut Runner) -> Vec<Metric> {
    let w = args.workload;
    let units = w.units(args.seed);
    let passes = [
        Pass {
            metrics: w.metrics,
            profile: false,
            wrap: false,
        },
        Pass {
            metrics: true,
            profile: false,
            wrap: true,
        },
        Pass {
            metrics: !w.metrics,
            profile: false,
            wrap: false,
        },
        Pass {
            metrics: w.metrics,
            profile: true,
            wrap: true,
        },
    ];
    let mut rounds_out: Vec<TraceRound> = Vec::new();
    let mut layers = Layers::default();
    let mut outputs = Outputs::default();
    let n = rounds(args.seconds, |round| {
        let mut tr = TraceRound::default();
        for &unit in &units {
            let mut reps: Vec<Rep> = Vec::with_capacity(passes.len());
            for (p, &pass) in passes.iter().enumerate() {
                let keep = round == 0 && p == TRACED;
                if let (_, Some(rep)) = runner.replicate(unit, pass, 0, keep) {
                    reps.push(rep);
                }
            }
            if reps.len() != passes.len() {
                continue;
            }
            let reference = (
                behaviour_digest(&reps[UNTRACED].report),
                reps[UNTRACED].report.events,
            );
            let names = [
                "untraced",
                "traced pass",
                "metrics-twin pass",
                "profiled pass",
            ];
            if !(1..passes.len())
                .all(|p| runner.same_outputs(unit, names[p], reference, &reps[p]))
            {
                continue;
            }
            let [u, t, _, p] = [&reps[0], &reps[1], &reps[2], &reps[3]];
            tr.sim_s += u.report.sim_secs;
            for (i, rep) in reps.iter().enumerate() {
                tr.run_ns[i] += rep.spans.run_ns;
            }
            let s = &t.spans;
            tr.traced.run_ns += s.run_ns;
            tr.traced.self_ns += s.self_ns;
            tr.traced.alloc_ns += s.alloc_ns;
            tr.traced.alloc_calls += s.alloc_calls;
            tr.traced.feedback_ns += s.feedback_ns;
            tr.traced.feedback_calls += s.feedback_calls;
            tr.profiled_alloc_ns += p.spans.alloc_ns;
            if let Some(profile) = &p.report.profile {
                for (dst, section) in tr.sections.iter_mut().zip(&profile.sections) {
                    *dst += section.wall_secs;
                }
            }
            if round == 0 {
                outputs.add(&u.report);
                let (ur, tr_) = (&u.report, &t.report);
                layers.arrivals += counter(tr_, "engine.arrivals");
                layers.disk_requests += counter(tr_, "disk.requests");
                layers.cache_hits += counter(tr_, "disk.cache_hits");
                layers.cpu_bursts += counter(tr_, "cpu.bursts");
                layers.reallocations += counter(tr_, "pmm.reallocations");
                layers.grants += t.grants;
                layers.alloc_calls += s.alloc_calls;
                layers.feedback_calls += s.feedback_calls;
                layers.disk_util += ur.disk_util;
                layers.cpu_util += ur.cpu_util;
                layers.mpl += ur.avg_mpl;
                layers.wait_s += ur.timings.waiting;
                layers.response_s += ur.timings.response;
                layers.fluctuations += ur.avg_fluctuations;
            }
        }
        rounds_out.push(tr);
    });
    outputs.print(w, &units);
    println!("rounds: {n} (4 passes each: untraced, traced, metrics twin, profiled)");

    let reps = units.len() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med = |f: &dyn Fn(&TraceRound) -> f64| {
        median(&rounds_out.iter().map(f).collect::<Vec<_>>())
    };
    let rate = |r: &TraceRound, pass: usize| ratio(r.sim_s, r.run_ns[pass] as f64 * 1e-9);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let (on, off) = if w.metrics {
        (UNTRACED, TWIN)
    } else {
        (TWIN, UNTRACED)
    };
    let served = outputs.served as f64;
    let l = &layers;
    vec![
        ("simkit.calendar.events", outputs.events as f64, "count"),
        (
            "simkit.calendar.host_ns_per_event",
            med(&|r| ratio(r.run_ns[UNTRACED] as f64, outputs.events as f64)),
            "ns",
        ),
        (
            "simkit.calendar.pop_share",
            med(&|r| ratio(r.sections[0], secs(r.run_ns[PROFILED]))),
            "ratio",
        ),
        ("workload.arrivals", l.arrivals as f64, "count"),
        ("storage.disk.requests", l.disk_requests as f64, "count"),
        (
            "storage.pool.hit_ratio",
            ratio(l.cache_hits as f64, l.disk_requests as f64),
            "ratio",
        ),
        ("storage.disk.util", l.disk_util / reps, "ratio"),
        (
            "storage.disk_start_share",
            med(&|r| ratio(r.sections[2], secs(r.run_ns[PROFILED]))),
            "ratio",
        ),
        (
            "exec.actions_per_query",
            ratio((l.cpu_bursts + l.disk_requests) as f64, served),
            "count",
        ),
        (
            "exec.fluctuations_per_query",
            l.fluctuations / reps,
            "count",
        ),
        ("rtdbs.cpu.util", l.cpu_util / reps, "ratio"),
        ("rtdbs.engine.mpl_avg", l.mpl / reps, "count"),
        ("rtdbs.engine.wait_s", l.wait_s / reps, "sim-s"),
        ("rtdbs.engine.response_s", l.response_s / reps, "sim-s"),
        (
            "rtdbs.engine.realloc_calls",
            l.reallocations as f64,
            "count",
        ),
        (
            "rtdbs.engine.realloc_share",
            med(&|r| ratio(r.sections[3], secs(r.run_ns[PROFILED]))),
            "ratio",
        ),
        (
            "rtdbs.engine.realloc_other_s",
            med(&|r| r.sections[3] - secs(r.profiled_alloc_ns)),
            "s",
        ),
        (
            "rtdbs.engine.dispatch_share",
            med(&|r| ratio(r.sections[1], secs(r.run_ns[PROFILED]))),
            "ratio",
        ),
        (
            "rtdbs.engine.run_self_s",
            med(&|r| secs(r.traced.self_ns)),
            "s",
        ),
        ("pmm.alloc_calls", l.alloc_calls as f64, "count"),
        ("pmm.alloc_s", med(&|r| secs(r.traced.alloc_ns)), "s"),
        (
            "pmm.alloc_ns_per_call",
            med(&|r| ratio(r.traced.alloc_ns as f64, r.traced.alloc_calls as f64)),
            "ns",
        ),
        (
            "pmm.grants_per_call",
            ratio(l.grants as f64, l.alloc_calls as f64),
            "count",
        ),
        ("pmm.feedback_calls", l.feedback_calls as f64, "count"),
        ("pmm.feedback_s", med(&|r| secs(r.traced.feedback_ns)), "s"),
        (
            "pmm.run_share",
            med(&|r| {
                ratio(
                    (r.traced.alloc_ns + r.traced.feedback_ns) as f64,
                    r.traced.run_ns as f64,
                )
            }),
            "ratio",
        ),
        (
            "obs.metrics_share",
            med(&|r| 1.0 - ratio(rate(r, on), rate(r, off))),
            "ratio",
        ),
        (
            "bench.untraced_sim_s_per_host_s",
            med(&|r| rate(r, UNTRACED)),
            "sim-s/host-s",
        ),
        (
            "bench.trace_overhead_pct",
            med(&|r| 100.0 * (1.0 - ratio(rate(r, TRACED), rate(r, on)))),
            "%",
        ),
        (
            "bench.profile_overhead_pct",
            med(&|r| 100.0 * (1.0 - ratio(rate(r, PROFILED), rate(r, UNTRACED)))),
            "%",
        ),
    ]
}

/// Write the kept spans, one per line, under the benchmark's `out/`
/// directory.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name, args.seed
    ));
    let mut text = String::from("rep\tname\tparent\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            s.rep,
            s.name,
            s.parent().unwrap_or("-"),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runner = Runner::new(args.workload);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        per_layer(&args, &mut runner)
    } else {
        end_to_end(&args, &mut runner)
    };
    if args.trace {
        match write_spans(&args, &runner.kept) {
            Ok(path) => {
                println!("spans: {} written to {}", runner.kept.len(), path.display())
            }
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let (attempted, failed) = (runner.attempted, runner.failed());
    println!(
        "failed_rep_ratio = {} ratio ({failed} of {attempted} replications)",
        failed as f64 / attempted.max(1) as f64
    );
    for failure in &runner.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
