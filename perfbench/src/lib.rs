//! The repository benchmark's building blocks: the two workloads, the
//! forwarding `MemoryPolicy` wrapper that records pmm spans, the span log,
//! the per-replication output checks and the behaviour digest.
//!
//! `main.rs` drives them; `tests/wrapper_equivalence.rs` pins the wrapper
//! to the unwrapped policy.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pmm_core::pmm::{
    AllocScratch, BatchStats, DirtySet, Grants, QueryDemand, SystemSnapshot, TracePoint,
};
use pmm_core::prelude::*;

/// Master seed when none is given, as in the experiment driver.
pub const DEFAULT_SEED: u64 = 1994;

/// One named benchmark workload: a config preset crossed with a policy set.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Policy short names, as accepted by `bench::make_policy_for`.
    pub policies: &'static [&'static str],
    /// Whether the metrics registry is on in the end-to-end pass.
    pub metrics: bool,
    preset: fn() -> SimConfig,
}

impl Workload {
    /// The fully built config of one replication (observability as in the
    /// end-to-end pass).
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut cfg = (self.preset)();
        cfg.seed = seed;
        cfg.obs.metrics = self.metrics;
        cfg
    }

    /// The replications of one round: one per policy, all on replication
    /// 0's seed, as the experiment driver derives it.
    pub fn units(&self, master_seed: u64) -> Vec<Unit> {
        let seed = bench::driver::replication_seed(master_seed, 0);
        self.policies
            .iter()
            .map(|&policy| Unit { policy, seed })
            .collect()
    }
}

/// One replication of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    /// Policy short name.
    pub policy: &'static str,
    /// Simulator seed.
    pub seed: u64,
}

fn paper_joins() -> SimConfig {
    let mut cfg = SimConfig::disk_contention(0.07);
    cfg.duration_secs = bench::PAPER_SECS;
    cfg
}

fn tenants_1000() -> SimConfig {
    SimConfig::scale(1000)
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper-joins",
        policies: &["Max", "MinMax", "PMM"],
        metrics: false,
        preset: paper_joins,
    },
    Workload {
        name: "tenants-1000",
        policies: &["Partitioned-soft", "PMM-tenant"],
        metrics: true,
        preset: tenants_1000,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One recorded interval of host time, in nanoseconds since the log's
/// origin. Spans of one replication share `rep`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Replication identifier, unique within one benchmark run.
    pub rep: u64,
    /// `setup`, `run`, `pmm.allocate` or `pmm.feedback`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span that caused this one: pmm calls are children of `run`;
    /// `setup` and `run` are roots of their replication.
    pub fn parent(&self) -> Option<&'static str> {
        self.name.starts_with("pmm.").then_some("run")
    }

    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by the benchmark and its policy wrappers.
pub struct SpanLog {
    origin: Instant,
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
    /// Grants written by wrapped allocation calls.
    pub grants: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            grants: 0,
        }
    }

    /// Host nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos())
            .expect("run shorter than 584 years")
    }

    /// Append a finished span.
    pub fn record(&mut self, rep: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            rep,
            name,
            start_ns,
            end_ns,
        });
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// A span log shared between the benchmark and one wrapped policy.
pub type SharedLog = Rc<RefCell<SpanLog>>;

/// Forwards every [`MemoryPolicy`] method to the wrapped policy, recording
/// allocation calls as `pmm.allocate` spans and feedback calls as
/// `pmm.feedback` spans. Capability queries forward too, so the engine
/// takes the same allocation and feedback paths as without the wrapper.
pub struct Timed {
    inner: Box<dyn MemoryPolicy>,
    log: SharedLog,
    rep: u64,
}

impl Timed {
    /// Wrap `inner`, recording into `log` under replication `rep`.
    pub fn new(inner: Box<dyn MemoryPolicy>, log: SharedLog, rep: u64) -> Self {
        Timed { inner, log, rep }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut dyn MemoryPolicy) -> T,
    ) -> T {
        let start = self.log.borrow().now_ns();
        let out = call(self.inner.as_mut());
        let mut log = self.log.borrow_mut();
        let end = log.now_ns();
        log.record(self.rep, name, start, end);
        out
    }

    /// Policies overwrite `out` with the call's whole grant list, so its
    /// length afterwards is what the call wrote.
    fn allocation(
        &mut self,
        out: &mut Grants,
        call: impl FnOnce(&mut dyn MemoryPolicy, &mut Grants),
    ) {
        self.span("pmm.allocate", |p| call(p, out));
        self.log.borrow_mut().grants += out.len() as u64;
    }
}

impl MemoryPolicy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        self.allocation(out, |p, out| p.allocate_into(snapshot, scratch, out));
    }

    fn allocate(&mut self, snapshot: &SystemSnapshot) -> Grants {
        let mut out = Grants::new();
        self.allocation(&mut out, |p, out| *out = p.allocate(snapshot));
        out
    }

    fn supports_dirty_allocation(&self) -> bool {
        self.inner.supports_dirty_allocation()
    }

    fn allocate_dirty_into(
        &mut self,
        total_memory: u32,
        groups: &[Vec<QueryDemand>],
        dirty: &mut DirtySet,
        out: &mut Grants,
    ) {
        self.allocation(out, |p, out| {
            p.allocate_dirty_into(total_memory, groups, dirty, out)
        });
    }

    fn on_batch(&mut self, stats: &BatchStats) {
        self.span("pmm.feedback", |p| p.on_batch(stats));
    }

    fn wants_tenant_feedback(&self) -> bool {
        self.inner.wants_tenant_feedback()
    }

    fn on_tenant_batch(&mut self, tenant: u32, stats: &BatchStats) {
        self.span("pmm.feedback", |p| p.on_tenant_batch(tenant, stats));
    }

    fn target_mpl(&self) -> Option<u32> {
        self.inner.target_mpl()
    }

    fn mode(&self) -> StrategyMode {
        self.inner.mode()
    }

    fn trace(&self) -> &[TracePoint] {
        self.inner.trace()
    }
}

/// One replication's span totals, in host nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepSpans {
    /// Duration of the `run` span.
    pub run_ns: u64,
    /// `run` minus its pmm children.
    pub self_ns: u64,
    /// Total of the `pmm.allocate` children.
    pub alloc_ns: u64,
    /// Number of `pmm.allocate` children.
    pub alloc_calls: u64,
    /// Total of the `pmm.feedback` children.
    pub feedback_ns: u64,
    /// Number of `pmm.feedback` children.
    pub feedback_calls: u64,
}

/// Sum replication `rep`'s spans, checking that it has exactly one `run`
/// span and that its pmm children lie inside it without overlapping, so
/// that self time plus child time is the `run` span.
///
/// # Errors
/// Describes the first violated nesting condition.
pub fn rep_spans(spans: &[Span], rep: u64) -> Result<RepSpans, String> {
    let mine = || spans.iter().filter(|s| s.rep == rep);
    let mut runs = mine().filter(|s| s.name == "run");
    let run = runs
        .next()
        .ok_or(format!("replication {rep} has no run span"))?;
    if runs.next().is_some() {
        return Err(format!("replication {rep} has two run spans"));
    }
    let mut out = RepSpans {
        run_ns: run.ns(),
        ..RepSpans::default()
    };
    let mut prev_end = run.start_ns;
    for child in mine().filter(|s| s.parent() == Some("run")) {
        if child.start_ns < prev_end || child.end_ns > run.end_ns {
            return Err(format!(
                "replication {rep}: {} span [{}, {}] escapes run [{}, {}] or overlaps a sibling",
                child.name, child.start_ns, child.end_ns, run.start_ns, run.end_ns
            ));
        }
        prev_end = child.end_ns;
        if child.name == "pmm.allocate" {
            out.alloc_ns += child.ns();
            out.alloc_calls += 1;
        } else {
            out.feedback_ns += child.ns();
            out.feedback_calls += 1;
        }
    }
    out.self_ns = out.run_ns - out.alloc_ns - out.feedback_ns;
    Ok(out)
}

/// Output checks of one replication: served and events non-zero, class
/// and tenant outcomes summing to the totals, utilizations in [0, 1].
///
/// # Errors
/// Describes the first failed check.
pub fn check_report(r: &RunReport) -> Result<(), String> {
    if r.served == 0 {
        return Err("served is 0".into());
    }
    if r.events == 0 {
        return Err("events is 0".into());
    }
    let sums = |it: &mut dyn Iterator<Item = (u64, u64)>| {
        it.fold((0, 0), |(s, m), (cs, cm)| (s + cs, m + cm))
    };
    let classes = sums(&mut r.classes.iter().map(|c| (c.served, c.missed)));
    if classes != (r.served, r.missed) {
        return Err(format!(
            "class outcomes sum to {classes:?}, totals are {:?}",
            (r.served, r.missed)
        ));
    }
    if !r.tenants.is_empty() {
        let tenants = sums(&mut r.tenants.iter().map(|t| (t.served, t.missed)));
        if tenants != (r.served, r.missed) {
            return Err(format!(
                "tenant outcomes sum to {tenants:?}, totals are {:?}",
                (r.served, r.missed)
            ));
        }
    }
    for (what, u) in [("cpu_util", r.cpu_util), ("disk_util", r.disk_util)] {
        if !(0.0..=1.0).contains(&u) {
            return Err(format!("{what} = {u} outside [0, 1]"));
        }
    }
    Ok(())
}

/// 64-bit FNV-1a over the behaviour fields of a report: outcomes per
/// class and tenant, MPL, utilizations, timings, fluctuations, windows and
/// the policy decision trace. `events` is left out: it is a perf counter
/// that a faster engine may legitimately lower.
pub fn behaviour_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::default();
    h.bytes(r.policy.as_bytes());
    h.u64(r.served);
    h.u64(r.missed);
    for c in &r.classes {
        h.bytes(c.name.as_bytes());
        h.u64(c.served);
        h.u64(c.missed);
    }
    for t in &r.tenants {
        h.u64(t.served);
        h.u64(t.missed);
        h.f64(t.avg_mpl);
        h.f64(t.quota_utilization);
        h.f64(t.borrowed_pages);
    }
    for v in [
        r.avg_mpl,
        r.cpu_util,
        r.disk_util,
        r.timings.waiting,
        r.timings.execution,
        r.timings.response,
        r.avg_fluctuations,
        r.sim_secs,
    ] {
        h.f64(v);
    }
    for w in &r.windows {
        h.f64(w.t_secs);
        h.u64(w.served);
        h.u64(w.missed);
    }
    for p in &r.trace {
        h.u64(p.at.0);
        h.bytes(format!("{:?}/{:?}", p.mode, p.target_mpl).as_bytes());
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold an integer into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float's exact bits into the hash.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// A counter of the run's metrics registry, 0 when the registry is off or
/// lacks it.
pub fn counter(r: &RunReport, name: &str) -> u64 {
    r.metrics
        .as_ref()
        .and_then(|m| m.counters.iter().find(|(n, _)| n == name))
        .map_or(0, |&(_, v)| v)
}
