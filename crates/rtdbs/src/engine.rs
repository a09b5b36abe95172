//! The integrated RTDBS simulator (Section 4, Figure 2): Source, Query
//! Manager, Buffer Manager, CPU Manager and Disk Manager wired together
//! around one event calendar.
//!
//! The flow of one query: the **Source** draws its operand relation(s),
//! slack ratio and arrival time — from the class's pluggable
//! [`workload::ArrivalProcess`] (Poisson by default, MMPP/deterministic/
//! trace for wider scenarios) — prices its stand-alone execution
//! (for the deadline `Deadline = Arrival + StandAlone × SlackRatio`) and
//! submits it. The **Buffer Manager** consults the configured
//! [`MemoryPolicy`] for admission and memory allocation; granted queries are
//! driven as operator state machines whose CPU bursts go to the preemptive
//! ED **CPU Manager** and whose page I/Os go to the per-disk ED+elevator
//! **Disk Manager** queues. Firm deadlines are enforced by an abort event:
//! at its deadline an unfinished query is killed, its resources reclaimed,
//! and it counts as missed (Section 3: in a firm RTDBS late queries are
//! worthless).
//!
//! Every `SampleSize` served queries the engine assembles a
//! [`pmm::BatchStats`] and feeds it to the policy — this is the feedback
//! loop PMM's adaptation lives on. Multi-tenant configs additionally keep
//! one *independent* batch window per tenant partition: when a policy opts
//! in ([`MemoryPolicy::wants_tenant_feedback`]), each tenant's window
//! closes on its own schedule and is routed to
//! [`MemoryPolicy::on_tenant_batch`] — the feedback path PMM v2's
//! per-tenant controllers (`pmm::TenantPmm`) adapt on. The engine also
//! aggregates per-tenant quota utilization and borrow volume into
//! [`RunReport::tenants`] for any policy.

use crate::config::{QueryType, SimConfig};
use crate::cpu::CpuManager;
use crate::faults::{DegradationMode, FaultSpec};
use crate::metrics::{
    ClassOutcome, RunReport, TenantOutcome, TimingTallies, WindowPoint,
};
use exec::{Action, ExternalSort, FileRef, HashJoin, Operator};
use obs::{
    CounterFamilyId, CounterId, DegradedAction, FaultClass, GaugeFamilyId, GaugeId,
    HistId, MetricsRegistry, MetricsReport, Profiler, Section, TraceEvent, TraceKind,
    Tracer,
};
use pmm::{
    AllocScratch, BatchStats, DirtySet, Grants, MemoryPolicy, QueryDemand, QueryId,
    SpareVecs, SystemSnapshot,
};
use simkit::calendar::EventHandle;
use simkit::metrics::{
    BatchMeans, Tally, TimeWeighted, TimeWeightedN, TimeWeightedRows, Utilization,
};
use simkit::{Calendar, Duration, Rng, SeedSequence, SimTime};
use stats::SampleSummary;
use std::collections::VecDeque;
use storage::{
    Access, DiskFarm, FileId, FileMeta, IoKind, Layout, RelationMeta, Service,
};
use workload::ArrivalProcess;

/// Calendar event payloads. `Arrival`, `Deadline`, `Fault` and `EndOfRun`
/// scale with classes and live queries and go in the timer lane; the
/// completion lane holds at most one `CpuDone`/`DiskDone`/`IoRetry` per device.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// Next arrival of a workload class.
    Arrival {
        /// Class index.
        class: usize,
    },
    /// The running CPU burst finished.
    CpuDone {
        /// Owning query.
        query: QueryId,
    },
    /// A disk completed its in-flight access.
    DiskDone {
        /// Disk index.
        disk: usize,
    },
    /// Firm-deadline expiry.
    Deadline {
        /// The query whose deadline passed.
        query: QueryId,
    },
    /// A scheduled fault-plan transition fires (degrade/outage/shock edge).
    Fault {
        /// Index into the simulator's precomputed transition list.
        index: usize,
    },
    /// A disk's retry backoff elapsed; the device tries the access again.
    IoRetry {
        /// Disk index.
        disk: usize,
    },
    /// End of the simulation.
    EndOfRun,
}

/// One edge of a [`FaultSpec`] window, precomputed at construction so the
/// event handler is a plain table lookup. The list is sorted by time with
/// plan order as the tie-break, so identical plans always fire identically.
#[derive(Clone, Copy, Debug)]
enum FaultTransition {
    Degrade { disk: u32, factor: f64 },
    DegradeEnd { disk: u32 },
    Outage { disk: u32 },
    OutageEnd { disk: u32 },
    Shock { fraction: f64 },
    ShockEnd,
}

/// What a live query is currently waiting on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Waiting {
    /// Nothing scheduled: parked or not yet admitted.
    Nothing,
    /// A CPU burst is in flight.
    Cpu,
    /// A disk access is queued or in flight.
    Disk,
}

/// Where a `drive` call sits in its event handler. Finishing a CPU burst
/// inline moves the clock past the handler's `now`, so only a call that
/// is the handler's last work may do it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Call {
    /// Nothing follows in the handler: an uncontended burst completes
    /// inline ([`CpuManager::run_inline`]).
    Tail,
    /// More work at `now` follows: every burst goes through the CPU queue.
    Mid,
}

/// Cached physical placement of one file a query touches: everything the
/// per-I/O hot path needs, resolved *once* — at arrival for the base
/// relations, at `CreateTemp` for temps — instead of through the layout's
/// hash map on every disk access.
#[derive(Clone, Copy, Debug)]
struct PlacedFile {
    file: FileId,
    disk: u32,
    start_cylinder: u32,
    pages: u32,
}

impl PlacedFile {
    fn new(file: FileId, meta: FileMeta) -> Self {
        PlacedFile {
            file,
            disk: meta.disk.0,
            start_cylinder: meta.start_cylinder,
            pages: meta.pages,
        }
    }
}

struct LiveQuery {
    id: QueryId,
    class: usize,
    tenant: u32,
    op: Box<dyn Operator>,
    arrival: SimTime,
    deadline: SimTime,
    granted: u32,
    first_admit: Option<SimTime>,
    waiting: Waiting,
    /// Where the operand relation(s) live (R, and S for joins).
    r_place: PlacedFile,
    s_place: Option<PlacedFile>,
    /// Live temp files by operator slot (operators use one slot today, so a
    /// linear scan beats any map).
    temps: Vec<(u32, PlacedFile)>,
    operand_ios: u32,
    /// The query's firm-deadline abort event, cancelled on completion so
    /// long runs do not carry dead deadline events in the calendar.
    deadline_handle: Option<EventHandle>,
}

impl LiveQuery {
    fn demand(&self) -> QueryDemand {
        QueryDemand {
            id: self.id,
            deadline: self.deadline,
            max_mem: self.op.max_memory(),
            min_mem: self.op.min_memory(),
            tenant: self.tenant,
        }
    }

    fn resolve(&self, file: FileRef) -> &PlacedFile {
        match file {
            FileRef::Base(f) => {
                if self.r_place.file == f {
                    &self.r_place
                } else {
                    match &self.s_place {
                        Some(s) if s.file == f => s,
                        _ => panic!("query accesses unknown base file {f:?}"),
                    }
                }
            }
            FileRef::Temp(slot) => self
                .temps
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, p)| p)
                .unwrap_or_else(|| panic!("unbound temp slot {slot}")),
        }
    }
}

/// Per-tenant tracking: run-level aggregates (quota utilization, borrow
/// volume, outcomes) plus — when the policy asks for per-tenant feedback —
/// an independent `SampleSize` batch window whose closure feeds
/// [`MemoryPolicy::on_tenant_batch`]. Pure bookkeeping: nothing here
/// consumes randomness or moves an event, so single-tenant runs (where the
/// vector is empty) are bit-identical to the pre-v2 engine.
struct TenantState {
    /// The tenant's quota in pages (its name and softness stay in the
    /// config's `TenantSpec`, read once by `finish_report`).
    quota: u32,
    // Run-level outcomes and time-weighted usage.
    served: u64,
    missed: u64,
    /// MPL, pages in use and pages borrowed beyond quota, on one clock.
    /// While the tenant holds memory its usage row (`row`) carries these
    /// and this copy is stale; it is written back when the row goes.
    usage: TimeWeightedN<3>,
    // Exact holder/page counts, maintained incrementally on every grant
    // diff (`apply_grant`) and departure instead of the seed's per-event
    // scan over the whole live table — `update_mpl` reads these. Integer
    // arithmetic keeps the values bit-identical to the scan.
    cur_holders: u32,
    cur_pages: u64,
    /// The tenant's row in the engine's usage rows: set exactly while
    /// `cur_holders > 0` as of the last `update_mpl`.
    row: Option<u32>,
    /// On the engine's touched list: the counters changed since the last
    /// `update_mpl`.
    touched: bool,
    // Per-tenant feedback batch window (maintained only when the policy
    // wants tenant feedback). `b_mpl` is parked here like `usage`.
    feedback: FeedbackWindow,
    b_mpl: TimeWeightedN<1>,
}

impl TenantState {
    /// The tenant a query bills, put on the touched list because its
    /// counters are about to change.
    fn billed<'a>(
        tenants: &'a mut [TenantState],
        touched: &mut Vec<u32>,
        tenant: u32,
    ) -> &'a mut TenantState {
        let t = &mut tenants[tenant as usize];
        if !t.touched {
            t.touched = true;
            touched.push(tenant);
        }
        t
    }

    /// The usage readings of the counters: MPL, pages in use, pages
    /// borrowed beyond quota.
    fn usage_now(&self) -> [f64; 3] {
        let pages = self.cur_pages as f64;
        [
            f64::from(self.cur_holders),
            pages,
            (pages - f64::from(self.quota)).max(0.0),
        ]
    }

    fn new(quota: u32, start: SimTime) -> Self {
        TenantState {
            quota,
            served: 0,
            missed: 0,
            usage: TimeWeightedN::new(start),
            cur_holders: 0,
            cur_pages: 0,
            row: None,
            touched: false,
            feedback: FeedbackWindow::default(),
            b_mpl: TimeWeightedN::new(start),
        }
    }
}

/// One `SampleSize` feedback window: the departures a policy learns from
/// (Section 3). The global batch and each tenant's batch keep one. The
/// window's MPL integral and the shared resources' busy clocks live
/// outside it and are read at [`FeedbackWindow::close`].
#[derive(Default)]
struct FeedbackWindow {
    served: u64,
    missed: u64,
    wait: Tally,
    slack: Tally,
    char_mem: Tally,
    char_ios: Tally,
    char_norm: Tally,
    /// The window overlapped a memory shock: close it without feeding the
    /// policy (shock-era samples would poison the learned batches).
    tainted: bool,
}

impl FeedbackWindow {
    /// Record one departure: its wait, its slack surplus (completed
    /// queries only) and its maximum memory, operand I/Os and normalized
    /// time constraint.
    fn record(&mut self, missed: bool, wait: f64, slack: Option<f64>, chars: [f64; 3]) {
        self.served += 1;
        if missed {
            self.missed += 1;
        }
        self.wait.record(wait);
        if let Some(slack) = slack {
            self.slack.record(slack);
        }
        let [mem, ios, norm] = chars;
        self.char_mem.record(mem);
        self.char_ios.record(ios);
        self.char_norm.record(norm);
    }

    /// The window's batch statistics. The window restarts empty; its taint
    /// flag is left to the caller.
    fn close(
        &mut self,
        now: SimTime,
        realized_mpl: f64,
        cpu_util: f64,
        disk_util: f64,
    ) -> BatchStats {
        let summary = |t: &Tally| SampleSummary::new(t.mean(), t.variance(), t.count());
        let stats = BatchStats {
            now,
            served: self.served,
            missed: self.missed,
            realized_mpl,
            cpu_util,
            disk_util,
            wait_time: summary(&self.wait),
            slack_surplus: summary(&self.slack),
            char_max_mem: summary(&self.char_mem),
            char_operand_ios: summary(&self.char_ios),
            char_norm_constraint: summary(&self.char_norm),
        };
        *self = FeedbackWindow {
            tainted: self.tainted,
            ..FeedbackWindow::default()
        };
        stats
    }
}

/// Sentinel in the id window marking a departed query.
const DEAD_SLOT: u32 = u32::MAX;

/// The live-query table: a slab of reusable slots plus a sliding dense
/// index from `QueryId` to slot.
///
/// The seed engine kept `BTreeMap<QueryId, LiveQuery>` and did a full
/// remove + insert round-trip (moving the boxed operator through the tree)
/// every time `drive()` advanced a query — on *every* CPU and disk
/// completion. Here queries stay put in their slot for their whole life;
/// events resolve `id → slot` through `slot_of`, a `VecDeque<u32>` window
/// over the contiguous id space (ids are assigned sequentially, so the
/// window is dense: index `id - base`, front advanced past departed ids).
/// Lookups are two array probes — no tree walk, no hashing — and the slab
/// index doubles as the key of the dense grant map in `reallocate`.
///
/// The table also maintains `ed`: the live queries in Earliest-Deadline
/// order (`(deadline, id)`, the policies' exact sort key), updated
/// incrementally on insert/remove only — deadlines are fixed at arrival, so
/// nothing else can reorder it. `reallocate` feeds the policy snapshot in
/// this order, which turns the per-event ED re-sort inside the allocators
/// into an `is_sorted` verification pass (see `AllocScratch::ed_order`).
struct QueryTable {
    slots: Vec<Option<LiveQuery>>,
    free: Vec<u32>,
    slot_of: VecDeque<u32>,
    base: u64,
    /// Live queries in `(deadline, id)` order, with their slab slot.
    ed: Vec<(SimTime, QueryId, u32)>,
}

impl QueryTable {
    fn new() -> Self {
        QueryTable {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: VecDeque::new(),
            base: 0,
            ed: Vec::new(),
        }
    }

    /// Insert the next arrival. Ids must arrive in sequence — the engine
    /// allocates them from a counter, which keeps the index dense.
    fn insert(&mut self, q: LiveQuery) -> u32 {
        debug_assert_eq!(
            q.id.0,
            self.base + self.slot_of.len() as u64,
            "query ids must be sequential"
        );
        let ed_key = (q.deadline, q.id);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(q);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slot count fits u32");
                self.slots.push(Some(q));
                s
            }
        };
        self.slot_of.push_back(slot);
        let at = self.ed.partition_point(|&(d, id, _)| (d, id) < ed_key);
        self.ed.insert(at, (ed_key.0, ed_key.1, slot));
        slot
    }

    /// Slot of a live query, or `None` if it departed (or never existed).
    fn slot_of(&self, id: QueryId) -> Option<u32> {
        let idx = id.0.checked_sub(self.base)?;
        match self.slot_of.get(idx as usize) {
            Some(&s) if s != DEAD_SLOT => Some(s),
            _ => None,
        }
    }

    fn get_mut(&mut self, id: QueryId) -> Option<&mut LiveQuery> {
        let slot = self.slot_of(id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Direct slab access for a slot known to be occupied.
    fn slot_mut(&mut self, slot: u32) -> &mut LiveQuery {
        self.slots[slot as usize]
            .as_mut()
            .expect("slot holds a live query")
    }

    fn remove(&mut self, id: QueryId) -> Option<LiveQuery> {
        let slot = self.slot_of(id)?;
        let idx = (id.0 - self.base) as usize;
        self.slot_of[idx] = DEAD_SLOT;
        // Slide the window past departed ids at the front.
        while self.slot_of.front() == Some(&DEAD_SLOT) {
            self.slot_of.pop_front();
            self.base += 1;
        }
        let q = self.slots[slot as usize].take();
        self.free.push(slot);
        if let Some(q) = &q {
            let key = (q.deadline, q.id);
            let at = self.ed.partition_point(|&(d, i, _)| (d, i) < key);
            debug_assert!(self.ed[at].1 == id, "ED index out of sync");
            self.ed.remove(at);
        }
        q
    }

    /// Upper bound on slot indices ever handed out (the dense grant map is
    /// sized to this).
    fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live queries with their slots, in slot order. Callers needing a
    /// deterministic order sort by an id-bearing key themselves.
    fn iter_with_slots(&self) -> impl Iterator<Item = (u32, &LiveQuery)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|q| (i as u32, q)))
    }

    /// Live queries in `(deadline, id)` order with their slab slots.
    fn ed_order(&self) -> &[(SimTime, QueryId, u32)] {
        &self.ed
    }

    /// Shared slab access for a slot known to be occupied.
    fn slot_ref(&self, slot: u32) -> &LiveQuery {
        self.slots[slot as usize]
            .as_ref()
            .expect("slot holds a live query")
    }
}

/// Response-time histogram buckets (seconds): fixed so every replication
/// of every cell produces mergeable, byte-identical bucket layouts.
const RESPONSE_BUCKETS: &[f64] =
    &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0];

/// The engine's metrics instruments, pre-registered so every update on the
/// hot path is a plain array index. Counter registration order fixes the
/// windowed-delta column order in `MetricsReport` (naming convention:
/// `<subsystem>.<noun>`, see the README "Observability" section).
struct ObsMetrics {
    reg: MetricsRegistry,
    arrivals: CounterId,
    served: CounterId,
    missed: CounterId,
    reallocations: CounterId,
    batches: CounterId,
    cpu_bursts: CounterId,
    io_requests: CounterId,
    cache_hits: CounterId,
    faults_injected: CounterId,
    faults_io_retries: CounterId,
    faults_aborts: CounterId,
    faults_requeues: CounterId,
    faults_shock_victims: CounterId,
    faults_batches_segmented: CounterId,
    mpl: GaugeId,
    response: HistId,
    // Per-tenant label families (multi-tenant configs only). Families
    // live outside the windowed-delta columns, so registering them never
    // perturbs the established window layout of single-tenant runs.
    tenant_served: Option<CounterFamilyId>,
    tenant_missed: Option<CounterFamilyId>,
    tenant_mpl: Option<GaugeFamilyId>,
}

impl ObsMetrics {
    /// Close a metrics window at `t_secs`. The outcome counters mirror the
    /// engine's counts and are written just before, so each window's
    /// delta is the departures inside it.
    fn roll(&mut self, t_secs: f64, served: u64, missed: u64) {
        self.reg.set_counter(self.served, served);
        self.reg.set_counter(self.missed, missed);
        self.reg.roll(t_secs);
    }

    /// Freeze the registry, first writing the instruments that mirror
    /// engine state: the outcome counters, the MPL gauge and the
    /// per-tenant outcome and MPL cells (written once, here).
    fn report(
        &mut self,
        served: u64,
        missed: u64,
        holders: u32,
        tenants: &[TenantState],
    ) -> MetricsReport {
        self.reg.set_counter(self.served, served);
        self.reg.set_counter(self.missed, missed);
        self.reg.set_gauge(self.mpl, f64::from(holders));
        for (ti, t) in tenants.iter().enumerate() {
            if let Some(id) = self.tenant_served {
                self.reg.inc_cell(id, ti, t.served);
            }
            if let Some(id) = self.tenant_missed {
                self.reg.inc_cell(id, ti, t.missed);
            }
            if let Some(id) = self.tenant_mpl {
                self.reg.set_gauge_cell(id, ti, f64::from(t.cur_holders));
            }
        }
        self.reg.report()
    }

    fn new(tenant_count: usize) -> Self {
        let mut reg = MetricsRegistry::new();
        let arrivals = reg.counter("engine.arrivals");
        let served = reg.counter("engine.served");
        let missed = reg.counter("engine.missed");
        let reallocations = reg.counter("pmm.reallocations");
        let batches = reg.counter("pmm.batches");
        let cpu_bursts = reg.counter("cpu.bursts");
        let io_requests = reg.counter("disk.requests");
        let cache_hits = reg.counter("disk.cache_hits");
        // Fault instrumentation registers after the seed counters so the
        // established windowed-delta column order is preserved.
        let faults_injected = reg.counter("faults.injected");
        let faults_io_retries = reg.counter("faults.io_retries");
        let faults_aborts = reg.counter("faults.aborts");
        let faults_requeues = reg.counter("faults.requeues");
        let faults_shock_victims = reg.counter("faults.shock_victims");
        let faults_batches_segmented = reg.counter("faults.batches_segmented");
        let mpl = reg.gauge("engine.mpl");
        let response = reg.histogram("engine.response_secs", RESPONSE_BUCKETS);
        // Registered last: single-tenant registries stay exactly as before.
        let multi = tenant_count > 0;
        let tenant_served =
            multi.then(|| reg.counter_family("engine.tenant.served", tenant_count));
        let tenant_missed =
            multi.then(|| reg.counter_family("engine.tenant.missed", tenant_count));
        let tenant_mpl =
            multi.then(|| reg.gauge_family("engine.tenant.mpl", tenant_count));
        ObsMetrics {
            reg,
            arrivals,
            served,
            missed,
            reallocations,
            batches,
            cpu_bursts,
            io_requests,
            cache_hits,
            faults_injected,
            faults_io_retries,
            faults_aborts,
            faults_requeues,
            faults_shock_victims,
            faults_batches_segmented,
            mpl,
            response,
            tenant_served,
            tenant_missed,
            tenant_mpl,
        }
    }
}

/// The simulator. Construct with [`Simulator::new`], execute with
/// [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    cal: Calendar<Event>,
    layout: Layout,
    disks: DiskFarm,
    disk_inflight: Vec<Option<QueryId>>,
    disk_util: Vec<Utilization>,
    cpu: CpuManager,
    policy: Box<dyn MemoryPolicy>,
    live: QueryTable,
    next_id: u64,
    // Steady-state-allocation-free reallocation: the snapshot demand vec,
    // the policy's sort scratch, the grant list, the dense grant map keyed
    // by slab slot, and the diff list are all reused across calls.
    snapshot: SystemSnapshot,
    alloc_scratch: AllocScratch,
    policy_grants: Grants,
    grant_by_slot: Vec<u32>,
    diffs: Vec<(QueryId, u32, u32)>,
    // Incremental dirty-set allocation (policies opting in via
    // `supports_dirty_allocation`, multi-tenant configs only): live demands
    // bucketed per partition, each slot's index inside its bucket (for O(1)
    // swap-removal), and the set of partitions whose demand changed since
    // the last allocation event. Reallocation cost then scales with churn,
    // not population. A bucket holds heap only while its partition has live
    // demand: an emptied one parks its buffer in `spare_groups` for the
    // next partition that needs one.
    use_dirty: bool,
    demand_groups: Vec<Vec<QueryDemand>>,
    spare_groups: SpareVecs<QueryDemand>,
    group_pos: Vec<u32>,
    dirty: DirtySet,
    /// Live queries holding memory (granted > 0), maintained on grant
    /// diffs; the single-tenant `update_mpl` reading.
    holders: u32,
    arrivals: Vec<ArrivalProcess>,
    rng_arrival: Vec<Rng>,
    rng_pick: Vec<Rng>,
    rng_slack: Vec<Rng>,
    standalone_cache: storage::FastMap<(FileId, Option<FileId>), Duration>,
    // Run-level metrics.
    served: u64,
    missed: u64,
    /// Per-class counts; the names stay in the config until
    /// `finish_report` moves them in.
    class_outcomes: Vec<ClassOutcome>,
    timings: TimingTallies,
    /// The MPL over the run and over the global feedback window, on one
    /// clock.
    mpl: TimeWeighted,
    miss_series: BatchMeans,
    windows: Vec<WindowPoint>,
    window_start: SimTime,
    window_served: u64,
    window_missed: u64,
    // The global (SampleSize) feedback window; its MPL integral is
    // `mpl`'s window.
    feedback: FeedbackWindow,
    // Per-tenant tracking (empty for single-tenant configs) and whether
    // per-tenant feedback batches are routed to the policy.
    tenants: Vec<TenantState>,
    tenant_feedback: bool,
    /// Usage integrals of the tenants holding memory, one row each on
    /// the clock of the last `update_mpl` (see there), with the tenant of
    /// each row; `b_mpl_rows` mirrors `usage_rows` row for row when
    /// per-tenant feedback is on and stays empty otherwise.
    usage_rows: TimeWeightedRows<3>,
    b_mpl_rows: TimeWeightedRows<1>,
    row_tenant: Vec<u32>,
    /// Indices of the tenants whose `touched` flag is set.
    touched: Vec<u32>,
    // Observability: the single recording path (arrival gaps, the query
    // lifecycle, policy decisions all flow through this tracer), the
    // pre-registered metrics instruments, and the wall-clock profiler.
    tracer: Tracer,
    obs_metrics: Option<Box<ObsMetrics>>,
    profiler: Profiler,
    /// Policy trace points already forwarded into the obs trace.
    policy_trace_seen: usize,
    // Re-entrancy guard for reallocation.
    reallocating: bool,
    realloc_pending: bool,
    // Fault plan: precomputed window edges (empty plans schedule nothing —
    // the dark path cannot move an event), the memory ceiling the policy
    // sees (shrunk by an active shock), and whether a shock is active (new
    // feedback windows start tainted while it is).
    fault_events: Vec<(SimTime, FaultTransition)>,
    effective_memory: u32,
    shock_active: bool,
    end: SimTime,
}

impl Simulator {
    /// Build a simulator for `cfg` driven by `policy`.
    ///
    /// # Panics
    /// Panics with `invalid SimConfig: <reason>` when
    /// [`SimConfig::validate`] rejects `cfg`.
    pub fn new(cfg: SimConfig, policy: Box<dyn MemoryPolicy>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let seeds = SeedSequence::new(cfg.seed);
        let mut layout_rng = seeds.stream("layout");
        let layout = Layout::build(
            cfg.resources.geometry,
            cfg.resources.num_disks,
            &cfg.database,
            &mut layout_rng,
        );
        let start = SimTime::ZERO;
        let disks = DiskFarm::new(
            cfg.resources.num_disks,
            cfg.resources.geometry,
            cfg.resources.exec.block_pages,
        );
        let n_disks = cfg.resources.num_disks as usize;
        // Expand the fault plan into window edges up front. Stable sort by
        // time keeps plan order as the tie-break, so the firing sequence is
        // a pure function of the plan.
        let mut fault_events: Vec<(SimTime, FaultTransition)> = Vec::new();
        for ev in &cfg.faults.events {
            let (s, e) = ev.window();
            let (w_start, w_end) = (SimTime::from_secs_f64(s), SimTime::from_secs_f64(e));
            match *ev {
                FaultSpec::DiskDegrade { disk, factor, .. } => {
                    fault_events
                        .push((w_start, FaultTransition::Degrade { disk, factor }));
                    fault_events.push((w_end, FaultTransition::DegradeEnd { disk }));
                }
                FaultSpec::DiskOutage { disk, .. } => {
                    fault_events.push((w_start, FaultTransition::Outage { disk }));
                    fault_events.push((w_end, FaultTransition::OutageEnd { disk }));
                }
                FaultSpec::MemoryShock { fraction, .. } => {
                    fault_events.push((w_start, FaultTransition::Shock { fraction }));
                    fault_events.push((w_end, FaultTransition::ShockEnd));
                }
            }
        }
        fault_events.sort_by_key(|&(t, _)| t);
        let n_classes = cfg.classes.len();
        let end = SimTime::from_secs_f64(cfg.duration_secs);
        let tenants: Vec<TenantState> = cfg
            .tenants
            .iter()
            .map(|t| TenantState::new(t.quota_pages, start))
            .collect();
        let tenant_feedback = !tenants.is_empty() && policy.wants_tenant_feedback();
        let use_dirty = !tenants.is_empty() && policy.supports_dirty_allocation();
        let tracer = Tracer::with_mask(cfg.obs.trace);
        let obs_metrics = cfg
            .obs
            .metrics
            .then(|| Box::new(ObsMetrics::new(tenants.len())));
        let profiler = Profiler::new(cfg.obs.profile);
        Simulator {
            cal: Calendar::new(),
            layout,
            disks,
            disk_inflight: vec![None; n_disks],
            disk_util: vec![Utilization::new(start); n_disks],
            cpu: CpuManager::new(cfg.resources.cpu_mips, start),
            policy,
            live: QueryTable::new(),
            next_id: 0,
            snapshot: SystemSnapshot {
                now: start,
                total_memory: cfg.resources.memory_pages,
                queries: Vec::new(),
            },
            alloc_scratch: AllocScratch::default(),
            policy_grants: Grants::new(),
            grant_by_slot: Vec::new(),
            diffs: Vec::new(),
            use_dirty,
            demand_groups: if use_dirty {
                vec![Vec::new(); tenants.len()]
            } else {
                Vec::new()
            },
            spare_groups: SpareVecs::default(),
            group_pos: Vec::new(),
            dirty: DirtySet::new(tenants.len()),
            holders: 0,
            arrivals: cfg.classes.iter().map(|c| c.arrival.build()).collect(),
            rng_arrival: (0..n_classes)
                .map(|i| seeds.substream("arrival", i as u64))
                .collect(),
            rng_pick: (0..n_classes)
                .map(|i| seeds.substream("pick", i as u64))
                .collect(),
            rng_slack: (0..n_classes)
                .map(|i| seeds.substream("slack", i as u64))
                .collect(),
            standalone_cache: storage::FastMap::default(),
            served: 0,
            missed: 0,
            class_outcomes: vec![ClassOutcome::default(); n_classes],
            timings: TimingTallies::default(),
            mpl: TimeWeighted::new(start, 0.0),
            miss_series: BatchMeans::new(100),
            windows: Vec::new(),
            window_start: start,
            window_served: 0,
            window_missed: 0,
            feedback: FeedbackWindow::default(),
            tenants,
            tenant_feedback,
            usage_rows: TimeWeightedRows::new(start),
            b_mpl_rows: TimeWeightedRows::new(start),
            row_tenant: Vec::new(),
            touched: Vec::new(),
            tracer,
            obs_metrics,
            profiler,
            policy_trace_seen: 0,
            reallocating: false,
            realloc_pending: false,
            fault_events,
            effective_memory: cfg.resources.memory_pages,
            shock_active: false,
            end,
            cfg,
        }
    }

    /// Execute the run to completion and report.
    pub fn run(mut self) -> RunReport {
        self.run_to_horizon();
        self.finish_report()
    }

    /// Dispatch events until the end of the run, leaving the final state
    /// for `finish_report`.
    fn run_to_horizon(&mut self) {
        for class in 0..self.cfg.classes.len() {
            self.schedule_next_arrival(class, SimTime::ZERO);
        }
        // Fault windows are fixed points of the plan, scheduled once here.
        // An empty plan schedules nothing: the calendar, the RNG streams and
        // every report byte stay identical to a fault-free engine.
        for i in 0..self.fault_events.len() {
            let at = self.fault_events[i].0;
            if at < self.end {
                self.cal.schedule_timer(at, Event::Fault { index: i });
            }
        }
        self.cal.schedule_timer(self.end, Event::EndOfRun);
        loop {
            let t0 = self.profiler.begin();
            let popped = self.cal.pop();
            // The pop's end is the dispatch's start: one clock read.
            let t0 = self.profiler.end(Section::CalendarPop, t0);
            let Some((t, event)) = popped else { break };
            if matches!(event, Event::EndOfRun) {
                break;
            }
            match event {
                Event::EndOfRun => {}
                Event::Arrival { class } => self.on_arrival(t, class),
                Event::CpuDone { query } => self.on_cpu_done(t, query),
                Event::DiskDone { disk } => self.on_disk_done(t, disk),
                Event::Deadline { query } => self.on_deadline(t, query),
                Event::Fault { index } => self.on_fault(t, index),
                Event::IoRetry { disk } => self.on_io_retry(t, disk),
            }
            self.profiler.end(Section::Dispatch, t0);
        }
    }

    // ----- Source -------------------------------------------------------

    fn schedule_next_arrival(&mut self, class: usize, now: SimTime) {
        // The arrival process draws from this class's independent RNG
        // stream; a dead process (zero rate, exhausted trace) ends the
        // class's arrival sequence.
        let Some(gap) =
            self.arrivals[class].next_interarrival(&mut self.rng_arrival[class])
        else {
            return;
        };
        // Microsecond ticks round-trip exactly through f64 at any realistic
        // horizon, so a recorded trace replays bit-for-bit. Emitted before
        // the horizon check (like the pre-obs recorder): replay consumes
        // the final past-horizon gap too.
        if !self.tracer.is_off() {
            self.tracer.emit(
                now,
                TraceEvent::ArrivalGap {
                    class: class as u32,
                    gap_secs: gap.as_secs_f64(),
                },
            );
        }
        let at = now + gap;
        if at < self.end {
            self.cal.schedule_timer(at, Event::Arrival { class });
        }
    }

    fn on_arrival(&mut self, now: SimTime, class: usize) {
        self.schedule_next_arrival(class, now);
        let active =
            self.cfg
                .schedule
                .is_active(now.as_secs_f64(), class, self.cfg.classes.len());
        if !active {
            return;
        }
        // Copy out the three small fields the arrival path needs; the spec
        // itself (name string, arrival process) stays put — the seed engine
        // cloned the whole `WorkloadClass` per arrival.
        let spec = &self.cfg.classes[class];
        let query_type = spec.query_type;
        let slack_range = spec.slack_range;
        let tenant = spec.tenant as u32;
        let exec_cfg = self.cfg.resources.exec;
        let (op, r_meta, s_meta): (
            Box<dyn Operator>,
            RelationMeta,
            Option<RelationMeta>,
        ) = match query_type {
            QueryType::HashJoin { groups } => {
                let a = self
                    .layout
                    .random_relation(groups.0, &mut self.rng_pick[class]);
                let b = self
                    .layout
                    .random_relation(groups.1, &mut self.rng_pick[class]);
                // The smaller relation builds (inner R), the larger probes.
                let (r, s) = if a.pages <= b.pages { (a, b) } else { (b, a) };
                (
                    Box::new(HashJoin::new(exec_cfg, r.file, r.pages, s.file, s.pages)),
                    r,
                    Some(s),
                )
            }
            QueryType::ExternalSort { group } => {
                let r = self
                    .layout
                    .random_relation(group, &mut self.rng_pick[class]);
                (
                    Box::new(ExternalSort::new(exec_cfg, r.file, r.pages)),
                    r,
                    None,
                )
            }
        };
        let standalone = self.standalone_of(&query_type, r_meta, s_meta);
        let slack = self.rng_slack[class].uniform(slack_range.0, slack_range.1);
        let deadline = now + standalone.scale(slack);
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let operand_ios = exec::hashjoin::operand_read_ios(
            &exec_cfg,
            r_meta.pages,
            s_meta.map_or(0, |m| m.pages),
        );
        let query = LiveQuery {
            id,
            class,
            tenant,
            op,
            arrival: now,
            deadline,
            granted: 0,
            first_admit: None,
            waiting: Waiting::Nothing,
            r_place: PlacedFile::new(r_meta.file, self.layout.meta(r_meta.file)),
            s_place: s_meta.map(|m| PlacedFile::new(m.file, self.layout.meta(m.file))),
            temps: Vec::new(),
            operand_ios: operand_ios.max(1),
            deadline_handle: None,
        };
        let slot = self.live.insert(query);
        if self.use_dirty {
            self.group_insert(slot);
        }
        if self.cfg.firm_deadlines {
            let handle = self
                .cal
                .schedule_timer(deadline, Event::Deadline { query: id });
            self.live.slot_mut(slot).deadline_handle = Some(handle);
        }
        self.tracer.emit(
            now,
            TraceEvent::Arrival {
                query: id.0,
                class: class as u32,
            },
        );
        if let Some(m) = &mut self.obs_metrics {
            m.reg.inc(m.arrivals, 1);
        }
        self.reallocate(now);
    }

    /// Stand-alone execution time for deadline assignment, cached per
    /// operand pair (the database has finitely many relations, so this
    /// cache converges quickly).
    fn standalone_of(
        &mut self,
        qt: &QueryType,
        r: RelationMeta,
        s: Option<RelationMeta>,
    ) -> Duration {
        let key = (r.file, s.map(|m| m.file));
        if let Some(&d) = self.standalone_cache.get(&key) {
            return d;
        }
        let exec_cfg = self.cfg.resources.exec;
        let mut op: Box<dyn Operator> = match qt {
            QueryType::HashJoin { .. } => {
                let s = s.expect("join has an outer relation");
                Box::new(HashJoin::new(exec_cfg, r.file, r.pages, s.file, s.pages))
            }
            QueryType::ExternalSort { .. } => {
                Box::new(ExternalSort::new(exec_cfg, r.file, r.pages))
            }
        };
        op.set_allocation(op.max_memory());
        let layout = &self.layout;
        let geometry = self.cfg.resources.geometry;
        let mut placement = |file: FileRef| match file {
            FileRef::Base(f) => {
                let meta = layout.meta(f);
                (meta.disk, meta.start_cylinder)
            }
            // Max-memory execution performs no temp I/O; this arm only
            // matters for hypothetical constrained estimates.
            FileRef::Temp(_) => (r.disk, geometry.num_cylinders / 6),
        };
        // Priced on the run's disk geometry, so deadlines keep the paper's
        // slack *ratios* to the execution times the engine's disks produce.
        let d = exec::standalone_time(
            op.as_mut(),
            &geometry,
            &mut placement,
            self.cfg.resources.cpu_mips,
        );
        self.standalone_cache.insert(key, d);
        d
    }

    // ----- Buffer manager / policy glue ----------------------------------

    /// Recompute allocations through the policy and apply the differences.
    /// Allocation-free in steady state: every buffer involved — the
    /// snapshot's demand vec, the policy's sort scratch, the grant list,
    /// the dense slot-keyed grant map, and the diff list — is reused.
    fn reallocate(&mut self, now: SimTime) {
        if self.reallocating {
            self.realloc_pending = true;
            return;
        }
        self.reallocating = true;
        let t0 = self.profiler.begin();
        loop {
            self.realloc_pending = false;
            if let Some(m) = &mut self.obs_metrics {
                m.reg.inc(m.reallocations, 1);
            }
            self.diffs.clear();
            if self.use_dirty {
                // Incremental path: the policy sees only the partitions
                // whose demand (or strategy) changed and re-emits grants for
                // those; everything else carries over bit-for-bit, so the
                // diff list is proportional to churn, not population.
                self.policy.allocate_dirty_into(
                    self.effective_memory,
                    &self.demand_groups,
                    &mut self.dirty,
                    &mut self.policy_grants,
                );
                // Clear *before* applying: departures triggered by a grant
                // change (a completion cascading into `kill_query`) must
                // re-mark their partitions for the pending re-run.
                self.dirty.clear();
                for &(id, new) in &self.policy_grants {
                    let slot = self.live.slot_of(id).expect("granted query is live");
                    let old = self.live.slot_ref(slot).granted;
                    if new != old {
                        self.diffs.push((id, old, new));
                    }
                }
            } else {
                self.snapshot.now = now;
                // The policy budgets against the *effective* memory: an
                // active memory shock shrinks the ceiling without touching
                // the config.
                self.snapshot.total_memory = self.effective_memory;
                self.snapshot.queries.clear();
                // The incrementally-maintained ED order stands in for the
                // policies' per-event re-sort: the snapshot arrives
                // pre-sorted by their exact `(deadline, id)` key, so
                // `ed_order` inside the allocators verifies instead of
                // sorting. (The allocators still sort arbitrary input —
                // standalone policy users are unaffected.)
                for &(_, _, slot) in self.live.ed_order() {
                    self.snapshot
                        .queries
                        .push(self.live.slot_ref(slot).demand());
                }
                self.policy.allocate_into(
                    &self.snapshot,
                    &mut self.alloc_scratch,
                    &mut self.policy_grants,
                );
                // Dense grant map keyed by slab slot (absent = 0 pages).
                self.grant_by_slot.clear();
                self.grant_by_slot.resize(self.live.slot_capacity(), 0);
                for &(id, pages) in &self.policy_grants {
                    let slot = self.live.slot_of(id).expect("granted query is live");
                    self.grant_by_slot[slot as usize] = pages;
                }
                for (slot, q) in self.live.iter_with_slots() {
                    let new = self.grant_by_slot[slot as usize];
                    if new != q.granted {
                        self.diffs.push((q.id, q.granted, new));
                    }
                }
            }
            // Apply shrinking grants before growing ones so the growth is
            // backed by freed pages. The id tie-break reproduces the seed
            // behavior exactly: a stable sort over id-ordered input.
            self.diffs
                .sort_unstable_by_key(|&(id, old, new)| (new > old, new, id));
            for i in 0..self.diffs.len() {
                let (id, _, new) = self.diffs[i];
                self.apply_grant(now, id, new);
            }
            self.update_mpl(now);
            if !self.realloc_pending {
                break;
            }
        }
        self.profiler.end(Section::Reallocate, t0);
        self.reallocating = false;
    }

    fn apply_grant(&mut self, now: SimTime, id: QueryId, new: u32) {
        let Some(q) = self.live.get_mut(id) else {
            return;
        };
        q.op.set_allocation(new);
        let old = q.granted;
        q.granted = new;
        // Holder/page counters ride the diff (see `update_mpl`): exact
        // integer deltas, so the readings match the seed's full scan
        // bit-for-bit.
        if !self.tenants.is_empty() {
            let t = TenantState::billed(&mut self.tenants, &mut self.touched, q.tenant);
            t.cur_pages = t.cur_pages + u64::from(new) - u64::from(old);
            if old == 0 && new > 0 {
                t.cur_holders += 1;
            } else if old > 0 && new == 0 {
                t.cur_holders -= 1;
            }
        }
        if old == 0 && new > 0 {
            self.holders += 1;
        } else if old > 0 && new == 0 {
            self.holders -= 1;
        }
        let mut admitted_wait = None;
        if new > 0 && q.first_admit.is_none() {
            q.first_admit = Some(now);
            admitted_wait = Some(now.since(q.arrival));
        }
        let should_drive =
            q.waiting == Waiting::Nothing && (new > 0 || q.first_admit.is_some());
        if !self.tracer.is_off() {
            self.tracer.emit(
                now,
                TraceEvent::GrantChanged {
                    query: id.0,
                    pages: new,
                },
            );
            if let Some(wait) = admitted_wait {
                self.tracer
                    .emit(now, TraceEvent::Admitted { query: id.0, wait });
            }
        }
        if should_drive {
            self.drive(now, id, Call::Mid);
        }
    }

    /// Bucket a fresh arrival's demand into its partition's group and mark
    /// the partition dirty (incremental allocation path only).
    fn group_insert(&mut self, slot: u32) {
        let d = self.live.slot_ref(slot).demand();
        let g = d.tenant as usize;
        if self.group_pos.len() <= slot as usize {
            self.group_pos.resize(slot as usize + 1, 0);
        }
        let group = &mut self.demand_groups[g];
        self.spare_groups.take(group);
        self.group_pos[slot as usize] = group.len() as u32;
        group.push(d);
        self.dirty.mark(g);
    }

    /// Bookkeeping when a query leaves the live table (completion or kill):
    /// release its holder/page counts and — on the incremental allocation
    /// path — swap its demand out of the partition bucket, marking the
    /// partition dirty for the next allocation event.
    fn on_departed(&mut self, slot: u32, q: &LiveQuery) {
        if q.granted > 0 {
            self.holders -= 1;
            if !self.tenants.is_empty() {
                let t =
                    TenantState::billed(&mut self.tenants, &mut self.touched, q.tenant);
                t.cur_pages -= u64::from(q.granted);
                t.cur_holders -= 1;
            }
        }
        if self.use_dirty {
            let g = q.tenant as usize;
            let pos = self.group_pos[slot as usize] as usize;
            let group = &mut self.demand_groups[g];
            group.swap_remove(pos);
            if let Some(moved) = group.get(pos) {
                let ms = self.live.slot_of(moved.id).expect("moved demand is live");
                self.group_pos[ms as usize] = pos as u32;
            } else if group.is_empty() {
                self.spare_groups.give(group);
            }
            self.dirty.mark(g);
        }
    }

    fn update_mpl(&mut self, now: SimTime) {
        // The holder/page counters are maintained incrementally on every
        // grant diff and departure (`apply_grant`, `on_departed`), so the
        // global MPL is `self.holders`: every holder bills one tenant
        // (out-of-range indices clamp), and all-integer deltas keep the
        // readings bit-identical to the seed's scan over the live table.
        if !self.tenants.is_empty() {
            self.update_tenant_usage(now);
        }
        let holders = f64::from(self.holders);
        self.mpl.set(now, holders);
    }

    /// Fold the per-tenant usage readings (MPL, pages in use, pages
    /// borrowed beyond quota, and the feedback batch's MPL) into their
    /// time integrals, as if every tenant were set at every call.
    ///
    /// A tenant that holds nothing reads 0, and setting it would add
    /// `0.0 × dt` — nothing, to the bit — so only tenants holding memory
    /// are integrated. They sit in dense rows on one shared clock, the
    /// instant of the last call: each was set then, so one `advance`
    /// converts `now − clock` to seconds once and adds to every row the
    /// `v × dt` its own clock would. Only the tenants whose counters
    /// changed since (the touched list, filled by `TenantState::billed`)
    /// are re-read: a tenant gets a row when it starts holding memory
    /// and hands its integrals back to `TenantState` when it stops.
    ///
    /// `b_mpl` restarts with each closed feedback batch
    /// (`finish_tenant_batch`), in between two calls: that row then
    /// integrates from the batch boundary at the next `advance`, not from
    /// the shared clock (`TimeWeightedRows::close_window`).
    fn update_tenant_usage(&mut self, now: SimTime) {
        let feedback = self.tenant_feedback;
        self.usage_rows.advance(now);
        self.b_mpl_rows.advance(now);
        for i in 0..self.touched.len() {
            let ti = self.touched[i] as usize;
            let t = &mut self.tenants[ti];
            t.touched = false;
            let usage = t.usage_now();
            let mpl = usage[0];
            match t.row {
                Some(row) => {
                    let row = row as usize;
                    self.usage_rows.set(row, usage);
                    if feedback {
                        self.b_mpl_rows.set(row, [mpl]);
                    }
                    if t.cur_holders == 0 {
                        t.usage = self.usage_rows.remove(row);
                        if feedback {
                            t.b_mpl = self.b_mpl_rows.remove(row);
                        }
                        t.row = None;
                        self.row_tenant.swap_remove(row);
                        if let Some(&moved) = self.row_tenant.get(row) {
                            self.tenants[moved as usize].row = Some(row as u32);
                        }
                    }
                }
                None if t.cur_holders > 0 => {
                    t.row = Some(self.row_tenant.len() as u32);
                    self.usage_rows.insert(t.usage, usage);
                    if feedback {
                        self.b_mpl_rows.insert(t.b_mpl, [mpl]);
                    }
                    self.row_tenant.push(ti as u32);
                }
                None => {}
            }
        }
        self.touched.clear();
        #[cfg(debug_assertions)]
        self.check_usage_rows();
    }

    /// Rows are exactly the tenants holding memory, each row reads its
    /// tenant's counters, and the rows' MPLs sum to the global MPL. Every
    /// holder bills one tenant, so `self.holders` is the sum over all
    /// tenants: the rows reaching it proves no tenant outside them holds.
    #[cfg(debug_assertions)]
    fn check_usage_rows(&self) {
        assert_eq!(self.usage_rows.len(), self.row_tenant.len());
        let feedback_rows = if self.tenant_feedback {
            self.row_tenant.len()
        } else {
            0
        };
        assert_eq!(self.b_mpl_rows.len(), feedback_rows);
        let mut mpl = 0.0;
        for (row, &ti) in self.row_tenant.iter().enumerate() {
            let t = &self.tenants[ti as usize];
            assert_eq!(t.row, Some(row as u32), "tenant {ti} row");
            assert!(t.cur_holders > 0, "idle tenant {ti} kept its row");
            let usage = t.usage_now();
            assert_eq!(self.usage_rows.current(row), usage, "tenant {ti}");
            if self.tenant_feedback {
                assert_eq!(self.b_mpl_rows.current(row), [usage[0]]);
            }
            mpl += usage[0];
        }
        assert_eq!(
            mpl,
            f64::from(self.holders),
            "a tenant holding memory has no usage row"
        );
    }

    // ----- Query manager --------------------------------------------------

    /// Advance a query until it blocks on a resource, parks, or finishes:
    /// step its operator, perform metadata actions (temp files) inline, and
    /// hand the first timed action (CPU burst, I/O) to its resource, whose
    /// completion event calls back here. Allocation changes land between
    /// steps (`apply_grant`), so the operator always adapts from its
    /// current state. In [`Call::Tail`] position a burst nothing can
    /// interrupt completes inline and stepping continues at its end.
    fn drive(&mut self, mut now: SimTime, id: QueryId, call: Call) {
        let Some(slot) = self.live.slot_of(id) else {
            return;
        };
        for _ in 0..10_000_000u64 {
            let q = self.live.slot_mut(slot);
            match q.op.step() {
                Action::Cpu(instr) => {
                    let deadline = q.deadline;
                    self.tracer.emit(
                        now,
                        TraceEvent::CpuBurst {
                            query: id.0,
                            instructions: instr,
                        },
                    );
                    if let Some(m) = &mut self.obs_metrics {
                        m.reg.inc(m.cpu_bursts, 1);
                    }
                    let inlined = match call {
                        Call::Tail => self.cpu.run_inline(now, instr, &mut self.cal),
                        Call::Mid => None,
                    };
                    if let Some(end) = inlined {
                        now = end;
                        continue;
                    }
                    self.live.slot_mut(slot).waiting = Waiting::Cpu;
                    self.cpu.submit(now, id, deadline, instr, &mut self.cal);
                    return;
                }
                Action::Io(req) => {
                    q.waiting = Waiting::Disk;
                    let deadline = q.deadline;
                    let place = *q.resolve(req.file);
                    let cylinder = self.cfg.resources.geometry.cylinder_of(
                        place.start_cylinder,
                        req.first_page % place.pages.max(1),
                    );
                    let access = Access {
                        owner: id.0,
                        file: place.file,
                        first_page: req.first_page,
                        pages: req.pages,
                        kind: req.kind,
                        prefetch: req.prefetch,
                        cylinder,
                    };
                    let d = place.disk as usize;
                    self.disks.disk_mut(d).enqueue(deadline, access);
                    self.pump_disk(now, d);
                    return;
                }
                Action::CreateTemp { slot: temp, pages } => {
                    let file = self.layout.create_temp(pages);
                    let place = PlacedFile::new(file, self.layout.meta(file));
                    let temps = &mut self.live.slot_mut(slot).temps;
                    match temps.iter_mut().find(|(s, _)| *s == temp) {
                        Some(entry) => entry.1 = place,
                        None => temps.push((temp, place)),
                    }
                }
                Action::DropTemp { slot: temp } => {
                    let temps = &mut self.live.slot_mut(slot).temps;
                    if let Some(at) = temps.iter().position(|(s, _)| *s == temp) {
                        let (_, place) = temps.swap_remove(at);
                        self.disks
                            .disk_mut(place.disk as usize)
                            .invalidate(place.file);
                        self.layout.drop_temp(place.file);
                    }
                }
                Action::Parked => {
                    q.waiting = Waiting::Nothing;
                    return;
                }
                Action::Finished => {
                    let q = self.live.remove(id).expect("finished query is live");
                    self.on_departed(slot, &q);
                    self.complete(now, q);
                    return;
                }
            }
        }
        panic!("query {id:?} did not block or finish — runaway operator");
    }

    fn on_cpu_done(&mut self, now: SimTime, query: QueryId) {
        self.cpu.on_done(now, query, &mut self.cal);
        if let Some(q) = self.live.get_mut(query) {
            debug_assert_eq!(q.waiting, Waiting::Cpu);
            q.waiting = Waiting::Nothing;
            self.drive(now, query, Call::Tail);
        }
    }

    fn on_disk_done(&mut self, now: SimTime, disk: usize) {
        self.disks.disk_mut(disk).finish();
        self.disk_util[disk].end_busy(now);
        let owner = self.disk_inflight[disk].take();
        self.pump_disk(now, disk);
        if let Some(id) = owner {
            if let Some(q) = self.live.get_mut(id) {
                q.waiting = Waiting::Nothing;
                self.drive(now, id, Call::Tail);
            }
        }
    }

    fn pump_disk(&mut self, now: SimTime, disk: usize) {
        // A loop rather than a single start: exhausted retries resolve their
        // owner (abort or requeue) and then the *next* queued access gets
        // its chance immediately — the disk must not sit idle behind a dead
        // request.
        loop {
            let t0 = self.profiler.begin();
            let started = self.disks.start(disk);
            self.profiler.end(Section::DiskStart, t0);
            let Some((access, service)) = started else {
                return;
            };
            match service {
                Service::Faulted { attempt, backoff } => {
                    // Outage: the device holds the request and retries after
                    // a capped exponential backoff priced in sim time. The
                    // disk blocks (no new starts) but accrues no busy time.
                    self.tracer.emit(
                        now,
                        TraceEvent::IoRetry {
                            query: access.owner,
                            disk: disk as u32,
                            attempt,
                            backoff,
                        },
                    );
                    if let Some(m) = &mut self.obs_metrics {
                        m.reg.inc(m.faults_io_retries, 1);
                    }
                    self.cal.schedule(now + backoff, Event::IoRetry { disk });
                    return;
                }
                Service::FaultExhausted => {
                    // Retry budget spent: the I/O surfaces as a hard error
                    // and the plan's degradation mode decides.
                    let owner = QueryId(access.owner);
                    let Some(q) = self.live.get_mut(owner) else {
                        continue; // owner already departed; drop the access
                    };
                    let class = q.class;
                    let deadline = q.deadline;
                    match self.cfg.faults.mode {
                        DegradationMode::Abort => {
                            self.emit_degraded(
                                now,
                                owner,
                                class,
                                DegradedAction::Aborted,
                            );
                            if let Some(m) = &mut self.obs_metrics {
                                m.reg.inc(m.faults_aborts, 1);
                            }
                            self.kill_query(now, owner);
                        }
                        DegradationMode::Requeue => {
                            self.emit_degraded(
                                now,
                                owner,
                                class,
                                DegradedAction::Requeued,
                            );
                            if let Some(m) = &mut self.obs_metrics {
                                m.reg.inc(m.faults_requeues, 1);
                            }
                            self.disks.disk_mut(disk).enqueue(deadline, access);
                        }
                    }
                    continue;
                }
                Service::CacheHit | Service::Media { .. } => {}
            }
            self.disk_inflight[disk] = Some(QueryId(access.owner));
            if !self.tracer.is_off() || self.obs_metrics.is_some() {
                let (cache_hit, svc) = match service {
                    Service::CacheHit => (true, Duration::ZERO),
                    Service::Media { time, .. } => (false, time),
                    _ => unreachable!("fault services handled above"),
                };
                self.tracer.emit(
                    now,
                    TraceEvent::Io {
                        query: access.owner,
                        disk: disk as u32,
                        pages: access.pages,
                        write: access.kind == IoKind::Write,
                        cache_hit,
                        service: svc,
                    },
                );
                if let Some(m) = &mut self.obs_metrics {
                    m.reg.inc(m.io_requests, 1);
                    if cache_hit {
                        m.reg.inc(m.cache_hits, 1);
                    }
                }
            }
            match service {
                Service::CacheHit => {
                    // Satisfied from the prefetch cache: completes now.
                    self.cal.schedule(now, Event::DiskDone { disk });
                }
                Service::Media { time, .. } => {
                    self.disk_util[disk].begin_busy(now);
                    self.cal.schedule(now + time, Event::DiskDone { disk });
                }
                _ => unreachable!("fault services handled above"),
            }
            return;
        }
    }

    fn on_deadline(&mut self, now: SimTime, query: QueryId) {
        // This deadline event is the one firing — forget its handle so the
        // shared kill path does not cancel an already-popped event.
        if let Some(q) = self.live.get_mut(query) {
            q.deadline_handle = None;
        }
        self.kill_query(now, query);
    }

    /// Abort one live query and reclaim everything it holds. Shared between
    /// the firm-deadline path and fault degradation (exhausted I/O retries,
    /// memory-shock victims under the abort mode); either way the query
    /// departs counted as missed.
    fn kill_query(&mut self, now: SimTime, query: QueryId) {
        let Some(slot) = self.live.slot_of(query) else {
            return; // completed (or already killed) first
        };
        let q = self.live.remove(query).expect("slot implies a live query");
        self.on_departed(slot, &q);
        if let Some(handle) = q.deadline_handle {
            self.cal.cancel(handle);
        }
        self.cpu.cancel(now, query, &mut self.cal);
        for d in 0..self.disks.len() {
            self.disks.disk_mut(d).cancel_queued(|a| a.owner == query.0);
        }
        // In-flight disk access (if any) completes harmlessly: its owner is
        // gone and `on_disk_done` routes nowhere.
        for &(_, place) in q.temps.iter() {
            self.disks
                .disk_mut(place.disk as usize)
                .invalidate(place.file);
            self.layout.drop_temp(place.file);
        }
        self.record_served(now, &q, true);
        self.reallocate(now);
    }

    // ----- Fault plan ----------------------------------------------------

    fn on_fault(&mut self, now: SimTime, index: usize) {
        let transition = self.fault_events[index].1;
        if let Some(m) = &mut self.obs_metrics {
            m.reg.inc(m.faults_injected, 1);
        }
        match transition {
            FaultTransition::Degrade { disk, factor } => {
                self.disks.disk_mut(disk as usize).set_degrade(factor);
                self.emit_fault(now, FaultClass::DiskDegrade, Some(disk), true, factor);
            }
            FaultTransition::DegradeEnd { disk } => {
                self.disks.disk_mut(disk as usize).set_degrade(1.0);
                self.emit_fault(now, FaultClass::DiskDegrade, Some(disk), false, 1.0);
            }
            FaultTransition::Outage { disk } => {
                self.disks.disk_mut(disk as usize).set_outage(true);
                self.emit_fault(now, FaultClass::DiskOutage, Some(disk), true, 0.0);
            }
            FaultTransition::OutageEnd { disk } => {
                self.disks.disk_mut(disk as usize).set_outage(false);
                self.emit_fault(now, FaultClass::DiskOutage, Some(disk), false, 0.0);
                // Defensive restart; normally a pending backoff drains the
                // queue when its retry event fires.
                self.pump_disk(now, disk as usize);
            }
            FaultTransition::Shock { fraction } => {
                let total = self.cfg.resources.memory_pages;
                self.effective_memory =
                    ((f64::from(total) * fraction).floor() as u32).max(1);
                self.shock_active = true;
                self.taint_batches();
                self.emit_fault(now, FaultClass::MemoryShock, None, true, fraction);
                self.reallocate(now);
                self.shock_victims(now);
            }
            FaultTransition::ShockEnd => {
                self.effective_memory = self.cfg.resources.memory_pages;
                self.shock_active = false;
                self.taint_batches();
                self.emit_fault(now, FaultClass::MemoryShock, None, false, 1.0);
                self.reallocate(now);
            }
        }
    }

    fn on_io_retry(&mut self, now: SimTime, disk: usize) {
        // The backoff elapsed: unblock the device and try again (the held
        // access goes first; a deadline abort may have dropped it, in which
        // case the queue head is next).
        self.disks.disk_mut(disk).retry_elapsed();
        self.pump_disk(now, disk);
    }

    /// Deadline-aware degradation after a shock shrank memory: queries that
    /// had been admitted but lost their whole grant are victims. The abort
    /// mode kills them (counted missed, resources reclaimed) so survivors
    /// keep their deadlines; the requeue mode suspends them in place to
    /// resume when memory returns.
    fn shock_victims(&mut self, now: SimTime) {
        let mut victims: Vec<(QueryId, usize)> = self
            .live
            .iter_with_slots()
            .filter(|(_, q)| q.first_admit.is_some() && q.granted == 0)
            .map(|(_, q)| (q.id, q.class))
            .collect();
        victims.sort_unstable_by_key(|&(id, _)| id);
        for (id, class) in victims {
            if let Some(m) = &mut self.obs_metrics {
                m.reg.inc(m.faults_shock_victims, 1);
            }
            match self.cfg.faults.mode {
                DegradationMode::Abort => {
                    self.emit_degraded(now, id, class, DegradedAction::Aborted);
                    if let Some(m) = &mut self.obs_metrics {
                        m.reg.inc(m.faults_aborts, 1);
                    }
                    self.kill_query(now, id);
                }
                DegradationMode::Requeue => {
                    self.emit_degraded(now, id, class, DegradedAction::Suspended);
                }
            }
        }
    }

    /// Mark every open feedback window as overlapping a shock. Called on
    /// both shock edges: a window straddling either edge mixes pre- and
    /// in-shock samples and must not reach the policy.
    fn taint_batches(&mut self) {
        self.feedback.tainted = true;
        for t in &mut self.tenants {
            t.feedback.tainted = true;
        }
    }

    fn emit_fault(
        &mut self,
        now: SimTime,
        fault: FaultClass,
        disk: Option<u32>,
        active: bool,
        factor: f64,
    ) {
        self.tracer.emit(
            now,
            TraceEvent::FaultInjected {
                fault,
                disk,
                active,
                factor,
            },
        );
    }

    fn emit_degraded(
        &mut self,
        now: SimTime,
        id: QueryId,
        class: usize,
        action: DegradedAction,
    ) {
        self.tracer.emit(
            now,
            TraceEvent::Degraded {
                query: id.0,
                class: class as u32,
                action,
            },
        );
    }

    fn complete(&mut self, now: SimTime, q: LiveQuery) {
        // The deadline abort is moot now; drop it from the calendar instead
        // of letting it fire as a dead event.
        if let Some(handle) = q.deadline_handle {
            self.cal.cancel(handle);
        }
        // Operators drop their temps themselves; clean any leftovers.
        for &(_, place) in q.temps.iter() {
            self.disks
                .disk_mut(place.disk as usize)
                .invalidate(place.file);
            self.layout.drop_temp(place.file);
        }
        let missed_soft = !self.cfg.firm_deadlines && now > q.deadline;
        self.record_served(now, &q, missed_soft);
        self.reallocate(now);
    }

    /// Common bookkeeping when a query leaves the system (completion or
    /// firm miss).
    fn record_served(&mut self, now: SimTime, q: &LiveQuery, missed: bool) {
        self.tracer.emit(
            now,
            TraceEvent::Completed {
                query: q.id.0,
                class: q.class as u32,
                missed,
            },
        );
        if let Some(m) = &mut self.obs_metrics {
            m.reg
                .observe(m.response, now.since(q.arrival).as_secs_f64());
        }
        self.served += 1;
        self.window_served += 1;
        self.class_outcomes[q.class].served += 1;
        if missed {
            self.missed += 1;
            self.window_missed += 1;
            self.class_outcomes[q.class].missed += 1;
        }
        self.miss_series.record(if missed { 1.0 } else { 0.0 });

        let wait = q
            .first_admit
            .map_or(now.since(q.arrival), |t| t.since(q.arrival))
            .as_secs_f64();
        let constraint = q.deadline.since(q.arrival).as_secs_f64();
        let mut slack = None;
        if let Some(admit) = q.first_admit {
            let exec = now.since(admit).as_secs_f64();
            if !missed {
                // Table 7 reports completed queries.
                self.timings.waiting.record(wait);
                self.timings.execution.record(exec);
                self.timings.response.record(wait + exec);
                // Condition-4 evidence only from completed queries: aborted
                // executions are truncated and would bias the surplus.
                slack = Some(constraint - exec);
            }
        }
        self.timings.fluctuations.record(q.op.fluctuations() as f64);
        let chars = [
            q.op.max_memory() as f64,
            q.operand_ios as f64,
            constraint / q.operand_ios as f64,
        ];
        self.feedback.record(missed, wait, slack, chars);

        // Per-tenant outcomes and, when the policy wants them, the
        // tenant's own feedback window.
        let mut full_tenant_batch = None;
        if !self.tenants.is_empty() {
            let ti = q.tenant as usize;
            let t = &mut self.tenants[ti];
            t.served += 1;
            if missed {
                t.missed += 1;
            }
            if self.tenant_feedback {
                t.feedback.record(missed, wait, slack, chars);
                if t.feedback.served >= u64::from(self.cfg.sample_size) {
                    full_tenant_batch = Some(ti);
                }
            }
        }

        self.roll_windows(now);
        // Tenant batches close BEFORE the global batch: `finish_batch`
        // resets the shared CPU/disk utilization windows, and when both
        // windows fill on the same departure (certain whenever one tenant
        // carries all the traffic) the tenant's stats must read the
        // utilization accumulated over the sample — not a just-reset
        // zero-span window.
        if let Some(ti) = full_tenant_batch {
            self.finish_tenant_batch(now, ti);
        }
        if self.feedback.served >= u64::from(self.cfg.sample_size) {
            self.finish_batch(now);
        }
    }

    fn roll_windows(&mut self, now: SimTime) {
        let window = Duration::from_secs_f64(self.cfg.window_secs);
        while now >= self.window_start + window {
            let t_secs = (self.window_start + window).as_secs_f64();
            self.windows.push(WindowPoint {
                t_secs,
                served: self.window_served,
                missed: self.window_missed,
            });
            // Metrics snapshots roll on exactly the fig12 boundaries.
            if let Some(m) = &mut self.obs_metrics {
                m.roll(t_secs, self.served, self.missed);
            }
            self.window_start += window;
            self.window_served = 0;
            self.window_missed = 0;
        }
    }

    fn finish_batch(&mut self, now: SimTime) {
        if let Some(stats) = self.close_feedback(now, None) {
            self.policy.on_batch(&stats);
            self.tracer.emit(
                now,
                TraceEvent::BatchClosed {
                    served: stats.served,
                    missed: stats.missed,
                },
            );
            self.emit_policy_decisions();
            if let Some(m) = &mut self.obs_metrics {
                m.reg.inc(m.batches, 1);
            }
        }
        // Restart the window's MPL integral and busy clocks.
        self.mpl.reset_window(now);
        self.cpu.util.reset_window(now);
        for u in &mut self.disk_util {
            u.reset_window(now);
        }
        // The policy may have changed its mind — re-run allocation.
        self.reallocate(now);
    }

    /// Close one tenant's feedback batch and hand it to the policy's
    /// per-tenant controller.
    fn finish_tenant_batch(&mut self, now: SimTime, ti: usize) {
        let Some(stats) = self.close_feedback(now, Some(ti)) else {
            return;
        };
        self.policy.on_tenant_batch(ti as u32, &stats);
        self.emit_policy_decisions();
        // The tenant's controller may have changed its strategy.
        self.reallocate(now);
    }

    /// Close the global feedback window (`tenant` is `None`) or one
    /// tenant's. Utilization comes from the shared CPU and disk busy
    /// clocks over the current global window: shared resources have no
    /// per-tenant utilization. A window that overlapped a memory shock is
    /// segmented out — closed and counted but never returned — and the
    /// next window starts tainted while a shock is still active.
    fn close_feedback(
        &mut self,
        now: SimTime,
        tenant: Option<usize>,
    ) -> Option<BatchStats> {
        let cpu_util = self.cpu.util.window_fraction(now);
        let disk_util = self
            .disk_util
            .iter()
            .map(|u| u.window_fraction(now))
            .sum::<f64>()
            / self.disk_util.len() as f64;
        let (window, realized_mpl) = match tenant {
            None => (&mut self.feedback, self.mpl.window_mean(now)),
            Some(ti) => {
                let t = &mut self.tenants[ti];
                // Closing the window restarts it at `now`.
                let [mpl] = match t.row {
                    Some(row) => self.b_mpl_rows.close_window(row as usize, now),
                    None => t.b_mpl.close_window(now),
                };
                (&mut t.feedback, mpl)
            }
        };
        let stats = window.close(now, realized_mpl, cpu_util, disk_util);
        if !std::mem::replace(&mut window.tainted, self.shock_active) {
            return Some(stats);
        }
        if let Some(m) = &mut self.obs_metrics {
            m.reg.inc(m.faults_batches_segmented, 1);
        }
        None
    }

    /// Forward policy trace points recorded since the last check into the
    /// obs trace, each stamped with its own decision time.
    fn emit_policy_decisions(&mut self) {
        if !self.tracer.wants(TraceKind::PolicyDecision) {
            return;
        }
        let points = self.policy.trace();
        for p in &points[self.policy_trace_seen.min(points.len())..] {
            self.tracer.emit(
                p.at,
                TraceEvent::PolicyDecision {
                    mode: p.mode,
                    target_mpl: p.target_mpl,
                },
            );
        }
        self.policy_trace_seen = points.len();
    }

    fn finish_report(mut self) -> RunReport {
        let now = self.end;
        self.roll_windows(now);
        if self.window_served > 0 {
            self.windows.push(WindowPoint {
                t_secs: now.as_secs_f64(),
                served: self.window_served,
                missed: self.window_missed,
            });
            if let Some(m) = &mut self.obs_metrics {
                m.roll(now.as_secs_f64(), self.served, self.missed);
            }
        }
        // Catch policy decisions recorded since the last batch boundary.
        self.emit_policy_decisions();
        let obs_trace = self.tracer.take_records();
        let metrics = self
            .obs_metrics
            .as_mut()
            .map(|m| m.report(self.served, self.missed, self.holders, &self.tenants));
        let profile = self.profiler.report();
        let disk_util = self.disk_util.iter().map(|u| u.fraction(now)).sum::<f64>()
            / self.disk_util.len().max(1) as f64;
        for (row, &ti) in self.row_tenant.iter().enumerate() {
            self.tenants[ti as usize].usage = self.usage_rows.get(row);
        }
        // The run owns its config, so the reports take the names from it
        // rather than copying them.
        let mut classes = self.class_outcomes;
        for (outcome, class) in classes.iter_mut().zip(&mut self.cfg.classes) {
            outcome.name = std::mem::take(&mut class.name);
        }
        let tenant_outcomes: Vec<TenantOutcome> = self
            .tenants
            .iter_mut()
            .zip(&mut self.cfg.tenants)
            .map(|(t, spec)| {
                let [avg_mpl, used, borrowed_pages] = t.usage.means(now);
                TenantOutcome {
                    name: std::mem::take(&mut spec.name),
                    quota_pages: t.quota,
                    soft: spec.soft,
                    served: t.served,
                    missed: t.missed,
                    avg_mpl,
                    quota_utilization: if t.quota > 0 {
                        used / f64::from(t.quota)
                    } else {
                        0.0
                    },
                    borrowed_pages,
                }
            })
            .collect();
        RunReport {
            policy: self.policy.name(),
            served: self.served,
            missed: self.missed,
            classes,
            tenants: tenant_outcomes,
            avg_mpl: self.mpl.mean(now),
            cpu_util: self.cpu.util.fraction(now),
            disk_util,
            timings: self.timings.summarize(),
            avg_fluctuations: self.timings.fluctuations.mean(),
            windows: self.windows,
            trace: self.policy.trace().to_vec(),
            miss_ci_half_width: self.miss_series.half_width(1.645),
            sim_secs: now.as_secs_f64(),
            events: self.cal.events_dispatched(),
            obs_trace,
            metrics,
            profile,
        }
    }
}

/// Convenience: build and run in one call.
pub fn run_simulation(cfg: SimConfig, policy: Box<dyn MemoryPolicy>) -> RunReport {
    Simulator::new(cfg, policy).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm::{MaxPolicy, MinMaxPolicy, Pmm};

    /// A short, light-load baseline: enough queries to exercise every code
    /// path but quick enough for unit tests.
    fn quick_cfg(rate: f64, secs: f64) -> SimConfig {
        let mut cfg = SimConfig::baseline(rate);
        cfg.duration_secs = secs;
        cfg.window_secs = secs / 4.0;
        cfg
    }

    #[test]
    fn light_load_completes_queries_with_low_misses() {
        let report = run_simulation(
            quick_cfg(0.02, 3_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        assert!(report.served >= 30, "served {}", report.served);
        assert!(
            report.miss_pct() < 15.0,
            "light load should rarely miss: {}%",
            report.miss_pct()
        );
        assert!(report.timings.execution > 0.0);
        assert!(report.cpu_util > 0.0 && report.cpu_util < 1.0);
        assert!(report.disk_util > 0.0 && report.disk_util < 1.0);
    }

    #[test]
    fn max_policy_realizes_tiny_mpl() {
        let report = run_simulation(quick_cfg(0.05, 3_000.0), Box::new(MaxPolicy));
        assert!(
            report.avg_mpl < 2.5,
            "Max admits at most ~2 baseline queries, got MPL {}",
            report.avg_mpl
        );
    }

    #[test]
    fn minmax_mpl_exceeds_max_under_load() {
        let max = run_simulation(quick_cfg(0.06, 3_000.0), Box::new(MaxPolicy));
        let minmax = run_simulation(
            quick_cfg(0.06, 3_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        assert!(
            minmax.avg_mpl > max.avg_mpl,
            "MinMax {} vs Max {}",
            minmax.avg_mpl,
            max.avg_mpl
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_simulation(
            quick_cfg(0.05, 2_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        let b = run_simulation(
            quick_cfg(0.05, 2_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        assert_eq!(a.served, b.served);
        assert_eq!(a.missed, b.missed);
        assert_eq!(a.avg_mpl, b.avg_mpl);
        assert_eq!(a.cpu_util, b.cpu_util);
    }

    #[test]
    fn different_seed_changes_the_run() {
        let a = run_simulation(
            quick_cfg(0.05, 2_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        let mut cfg = quick_cfg(0.05, 2_000.0);
        cfg.seed = 777;
        let b = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert_ne!(
            (a.served, a.cpu_util),
            (b.served, b.cpu_util),
            "different seeds should differ"
        );
    }

    #[test]
    fn pmm_runs_and_traces() {
        let report =
            run_simulation(quick_cfg(0.06, 4_000.0), Box::new(Pmm::with_defaults()));
        assert_eq!(report.policy, "PMM");
        assert!(report.served > 50);
    }

    #[test]
    fn sorts_workload_runs() {
        let mut cfg = SimConfig::sorts(0.05);
        cfg.duration_secs = 2_000.0;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert!(report.served > 20, "served {}", report.served);
    }

    #[test]
    fn firm_aborts_bound_response_times() {
        // Overload: with firm deadlines every query leaves by its deadline,
        // so response ≤ constraint ≤ 7.5 × standalone.
        let report = run_simulation(quick_cfg(0.10, 2_000.0), Box::new(MaxPolicy));
        assert!(report.missed > 0, "overload must miss deadlines");
        assert!(report.served > 0);
    }

    #[test]
    fn soft_deadline_ablation_still_counts_misses() {
        let mut cfg = quick_cfg(0.08, 2_000.0);
        cfg.firm_deadlines = false;
        let report = run_simulation(cfg, Box::new(MaxPolicy));
        assert!(report.missed > 0, "late completions count as missed");
    }

    #[test]
    fn windows_cover_the_run() {
        let report = run_simulation(
            quick_cfg(0.05, 2_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        assert!(report.windows.len() >= 4);
        let total: u64 = report.windows.iter().map(|w| w.served).sum();
        assert_eq!(total, report.served);
    }

    #[test]
    fn poisson_workload_path_matches_seed_arrival_stream() {
        // The pre-`workload` engine drew `exponential(rate)` straight from
        // `substream("arrival", class)`. The config → ArrivalSpec →
        // ArrivalProcess path must reproduce that sequence bit-for-bit for
        // the same master seed, so the refactor cannot move a single event.
        let cfg = SimConfig::baseline(0.06);
        let seeds = SeedSequence::new(cfg.seed);
        let mut raw = seeds.substream("arrival", 0);
        let mut rng = seeds.substream("arrival", 0);
        let mut process = cfg.classes[0].arrival.build();
        let mut t_raw = SimTime::ZERO;
        let mut t_proc = SimTime::ZERO;
        for _ in 0..50_000 {
            t_raw += Duration::from_secs_f64(raw.exponential(0.06));
            t_proc += process.next_interarrival(&mut rng).expect("live");
            assert_eq!(t_proc, t_raw, "arrival instants must be identical");
        }
    }

    #[test]
    fn bursty_workload_runs_and_misses_more_than_poisson() {
        let mut smooth = SimConfig::bursty(1.0);
        smooth.duration_secs = 4_000.0;
        let mut burst = SimConfig::bursty(16.0);
        burst.duration_secs = 4_000.0;
        let a = run_simulation(smooth, Box::new(MinMaxPolicy::unlimited()));
        let b = run_simulation(burst, Box::new(MinMaxPolicy::unlimited()));
        assert!(a.served > 50 && b.served > 50);
        // Same mean rate, but the clustered arrivals overload transiently.
        assert!(
            b.miss_pct() >= a.miss_pct(),
            "bursty {}% vs poisson {}%",
            b.miss_pct(),
            a.miss_pct()
        );
    }

    #[test]
    fn multi_tenant_partitions_serve_both_tenants() {
        use pmm::{PartitionSpec, PartitionedPolicy};
        let mut cfg = SimConfig::multi_tenant(0.5);
        cfg.duration_secs = 3_000.0;
        let parts = cfg
            .tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect();
        let report = run_simulation(cfg, Box::new(PartitionedPolicy::new(parts)));
        assert_eq!(report.policy, "Partitioned");
        assert_eq!(report.classes.len(), 2);
        assert!(
            report.classes.iter().all(|c| c.served > 10),
            "both tenants make progress: {:?}",
            report.classes
        );
    }

    #[test]
    fn multi_tenant_report_carries_quota_and_borrow_aggregates() {
        use pmm::{PartitionSpec, PartitionedPolicy};
        let mut cfg = SimConfig::multi_tenant(0.5);
        cfg.duration_secs = 3_000.0;
        let parts: Vec<PartitionSpec> = cfg
            .tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect();
        let report = run_simulation(cfg.clone(), Box::new(PartitionedPolicy::new(parts)));
        assert_eq!(report.tenants.len(), 2);
        let total_served: u64 = report.tenants.iter().map(|t| t.served).sum();
        assert_eq!(total_served, report.served, "every query bills a tenant");
        for t in &report.tenants {
            assert!(t.quota_pages > 0);
            assert!(
                t.quota_utilization > 0.0 && t.quota_utilization <= 1.0,
                "hard quota utilization in (0,1]: {}",
                t.quota_utilization
            );
            assert_eq!(
                t.borrowed_pages, 0.0,
                "hard quotas never borrow: {}",
                t.borrowed_pages
            );
            assert!(t.avg_mpl > 0.0);
        }
        // Single-tenant runs keep the vector empty.
        let single = run_simulation(quick_cfg(0.05, 1_000.0), Box::new(MaxPolicy));
        assert!(single.tenants.is_empty());
    }

    #[test]
    fn unlisted_tenants_hold_nothing_and_read_zero() {
        use pmm::{PartitionSpec, TenantPmm};
        let mut cfg = SimConfig::scale(50);
        cfg.duration_secs = 300.0;
        cfg.obs.metrics = true;
        let parts = cfg
            .tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect();
        let mut sim = Simulator::new(cfg, Box::new(TenantPmm::new(parts)));
        sim.run_to_horizon();
        // Every grant diff and departure is followed by a reallocation,
        // which ends in `update_mpl`: nothing is left touched, and the rows
        // are exactly the tenants holding memory.
        assert!(sim.touched.is_empty() && sim.tenants.iter().all(|t| !t.touched));
        let mut rows = sim.row_tenant.clone();
        rows.sort_unstable();
        let holding: Vec<u32> = (0..sim.tenants.len() as u32)
            .filter(|&ti| sim.tenants[ti as usize].cur_holders > 0)
            .collect();
        assert_eq!(rows, holding, "one row per tenant holding memory");
        assert_eq!(
            sim.b_mpl_rows.len(),
            rows.len(),
            "feedback rows mirror usage rows"
        );
        assert!(
            sim.tenants.iter().any(|t| t.row.is_none() && t.served > 0),
            "some tenant went idle → holding → idle and left the rows"
        );
        for (ti, t) in sim
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.row.is_none())
        {
            assert_eq!((t.cur_holders, t.cur_pages), (0, 0), "tenant {ti}");
            assert_eq!(t.usage.current(), [0.0; 3], "tenant {ti} usage");
            assert_eq!(t.b_mpl.current(), [0.0], "tenant {ti} b_mpl");
        }
    }

    #[test]
    fn tenant_pmm_adapts_per_partition() {
        use pmm::{PartitionSpec, TenantPmm};
        let mut cfg = SimConfig::multi_tenant(0.5);
        cfg.duration_secs = 6_000.0;
        let parts: Vec<PartitionSpec> = cfg
            .tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect();
        let report = run_simulation(cfg, Box::new(TenantPmm::new(parts)));
        assert_eq!(report.policy, "PMM-tenant");
        assert_eq!(report.tenants.len(), 2);
        assert!(
            report.tenants.iter().all(|t| t.served > 10),
            "both tenants make progress under per-tenant PMM: {:?}",
            report.tenants
        );
        // The memory-bound analytics partition must have produced at least
        // one per-tenant controller decision (switch or projection).
        assert!(
            !report.trace.is_empty(),
            "per-tenant feedback reached the controllers"
        );
    }

    #[test]
    fn tenant_batch_closes_before_the_global_window_resets() {
        use pmm::{StrategyMode, TracePoint};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Records every global and per-tenant batch.
        #[derive(Default)]
        struct Batches {
            global: Vec<BatchStats>,
            tenant: Vec<BatchStats>,
        }
        struct BatchProbe {
            inner: MinMaxPolicy,
            batches: Rc<RefCell<Batches>>,
        }
        impl MemoryPolicy for BatchProbe {
            fn name(&self) -> String {
                "BatchProbe".into()
            }
            fn allocate_into(
                &mut self,
                snapshot: &pmm::SystemSnapshot,
                scratch: &mut pmm::AllocScratch,
                out: &mut pmm::Grants,
            ) {
                self.inner.allocate_into(snapshot, scratch, out);
            }
            fn wants_tenant_feedback(&self) -> bool {
                true
            }
            fn on_batch(&mut self, stats: &BatchStats) {
                self.batches.borrow_mut().global.push(stats.clone());
            }
            fn on_tenant_batch(&mut self, _tenant: u32, stats: &BatchStats) {
                self.batches.borrow_mut().tenant.push(stats.clone());
            }
            fn mode(&self) -> StrategyMode {
                StrategyMode::MinMax
            }
            fn trace(&self) -> &[TracePoint] {
                &[]
            }
        }

        // All traffic on tenant 0: its batch window fills in lockstep with
        // the global one, so every tenant batch closes on the same
        // departure as a global batch — the worst case for the shared
        // utilization windows.
        let mut cfg = SimConfig::multi_tenant(0.5);
        cfg.classes[1].arrival = workload::ArrivalSpec::poisson(0.0);
        cfg.duration_secs = 6_000.0;
        let batches = Rc::new(RefCell::new(Batches::default()));
        let probe = BatchProbe {
            inner: MinMaxPolicy::unlimited(),
            batches: Rc::clone(&batches),
        };
        run_simulation(cfg, Box::new(probe));
        let batches = batches.borrow();
        let readings: Vec<f64> = batches.tenant.iter().map(|b| b.disk_util).collect();
        assert!(readings.len() >= 3, "several tenant batches: {readings:?}");
        assert!(
            readings.iter().all(|&u| u > 0.0),
            "tenant batches must carry the sample's utilization, not a \
             just-reset window: {readings:?}"
        );
        // The two windows saw the same departures over the same span, so
        // the shared close path hands the policy the same batch twice. The
        // MPL integrals are separate collectors and may round apart.
        assert_eq!(batches.tenant.len(), batches.global.len());
        for (t, g) in batches.tenant.iter().zip(&batches.global) {
            assert_eq!(t.now, g.now);
            assert_eq!((t.served, t.missed), (g.served, g.missed));
            assert_eq!(t.wait_time, g.wait_time);
            assert_eq!(t.slack_surplus, g.slack_surplus);
            assert_eq!(t.char_max_mem, g.char_max_mem);
            assert_eq!(t.char_operand_ios, g.char_operand_ios);
            assert_eq!(t.char_norm_constraint, g.char_norm_constraint);
            assert_eq!(t.cpu_util.to_bits(), g.cpu_util.to_bits());
            assert_eq!(t.disk_util.to_bits(), g.disk_util.to_bits());
            let scale = g.realized_mpl.abs().max(f64::MIN_POSITIVE);
            assert!(
                (t.realized_mpl - g.realized_mpl).abs() <= 1e-9 * scale,
                "realized MPL {} vs {}",
                t.realized_mpl,
                g.realized_mpl
            );
        }
    }

    #[test]
    fn recorded_arrivals_replay_bit_for_bit() {
        let plain = quick_cfg(0.05, 2_000.0);
        let mut cfg = plain.clone();
        cfg.obs.trace = TraceKind::ArrivalGap.bit();
        let recorded = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert!(
            recorded
                .obs_trace
                .iter()
                .all(|r| r.event.kind() == TraceKind::ArrivalGap),
            "the mask keeps only arrival gaps"
        );
        let per_class = crate::metrics::arrival_gaps(&recorded.obs_trace, 1);
        assert_eq!(per_class.len(), 1, "one class recorded");
        let gaps = per_class[0].clone();
        assert!(!gaps.is_empty());
        assert_eq!(gaps.len(), recorded.obs_trace.len());
        // Recording must not change the simulation itself.
        let baseline = run_simulation(plain.clone(), Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(baseline.served, recorded.served);
        assert_eq!(baseline.avg_mpl, recorded.avg_mpl);
        assert!(baseline.obs_trace.is_empty());
        // Replaying the recorded gaps as a trace reproduces the run.
        let mut replay_cfg = plain;
        replay_cfg.classes[0].arrival = workload::ArrivalSpec::Trace {
            gaps,
            repeat: false,
        };
        let replay = run_simulation(replay_cfg, Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(replay.served, recorded.served);
        assert_eq!(replay.missed, recorded.missed);
        assert_eq!(replay.avg_mpl, recorded.avg_mpl);
        assert_eq!(replay.cpu_util, recorded.cpu_util);
    }

    #[test]
    fn trace_arrivals_replay_exactly() {
        let mut cfg = SimConfig::baseline(0.05);
        cfg.classes[0].arrival = workload::ArrivalSpec::Trace {
            gaps: vec![100.0; 12],
            repeat: false,
        };
        cfg.duration_secs = 10_000.0;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        // 12 gaps of 100 s land at t = 100..=1200 — every one served, then
        // the class goes quiet for the rest of the run.
        assert_eq!(report.served, 12);
    }

    #[test]
    fn empty_fault_plan_leaves_the_run_untouched() {
        use crate::faults::FaultPlan;
        let base = run_simulation(
            quick_cfg(0.05, 2_000.0),
            Box::new(MinMaxPolicy::unlimited()),
        );
        let mut cfg = quick_cfg(0.05, 2_000.0);
        cfg.faults = FaultPlan::default();
        let dark = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(base.served, dark.served);
        assert_eq!(base.missed, dark.missed);
        assert_eq!(base.avg_mpl, dark.avg_mpl);
        assert_eq!(base.cpu_util, dark.cpu_util);
        assert_eq!(base.events, dark.events, "not one event moves");
    }

    #[test]
    fn fault_storm_is_deterministic_and_perturbs_the_run() {
        let mk = || {
            let mut cfg = SimConfig::faulty(1.0);
            cfg.duration_secs = 2_000.0;
            cfg
        };
        let a = run_simulation(mk(), Box::new(MinMaxPolicy::unlimited()));
        let b = run_simulation(mk(), Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(a.served, b.served);
        assert_eq!(a.missed, b.missed);
        assert_eq!(a.avg_mpl, b.avg_mpl);
        assert_eq!(a.cpu_util, b.cpu_util);
        let mut clean_cfg = SimConfig::baseline(0.06);
        clean_cfg.duration_secs = 2_000.0;
        let clean = run_simulation(clean_cfg, Box::new(MinMaxPolicy::unlimited()));
        assert!(a.served > 0);
        assert_ne!(
            (a.missed, a.cpu_util),
            (clean.missed, clean.cpu_util),
            "the storm must perturb the run"
        );
    }

    #[test]
    fn fault_transitions_reach_the_trace() {
        let mut cfg = SimConfig::faulty(1.0);
        cfg.duration_secs = 400.0;
        cfg.obs.trace = TraceKind::ALL;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        let faults = report
            .obs_trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::FaultInjected { .. }))
            .count();
        // Four scheduled faults, two window edges each.
        assert_eq!(faults, 8, "every transition traces exactly once");
    }

    #[test]
    fn outage_across_all_disks_forces_retries() {
        use crate::faults::{FaultPlan, FaultSpec};
        let mut cfg = quick_cfg(0.08, 800.0);
        cfg.obs.trace = TraceKind::ALL;
        let mut plan = FaultPlan::default();
        for d in 0..cfg.resources.num_disks {
            plan.events.push(FaultSpec::DiskOutage {
                disk: d,
                start_secs: 100.0,
                end_secs: 200.0,
            });
        }
        cfg.faults = plan;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        let retries = report
            .obs_trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::IoRetry { .. }))
            .count();
        assert!(retries > 0, "a 100 s total outage must force backoffs");
        assert!(report.served > 0, "the system recovers after the window");
    }

    #[test]
    fn outage_backoff_books_no_disk_busy_time() {
        // Every disk is unreachable for the whole run: accesses only ever
        // wait out backoffs, which must not count as disk busy time.
        use crate::faults::{FaultPlan, FaultSpec};
        let mut cfg = quick_cfg(0.08, 400.0);
        let mut plan = FaultPlan::default();
        for d in 0..cfg.resources.num_disks {
            plan.events.push(FaultSpec::DiskOutage {
                disk: d,
                start_secs: 0.0,
                end_secs: 400.0,
            });
        }
        cfg.faults = plan;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(report.disk_util, 0.0);
        assert!(report.cpu_util > 0.0, "queries still ran their CPU bursts");
    }

    #[test]
    fn shock_victims_follow_the_class_degradation_mode() {
        use crate::faults::{DegradationMode, FaultPlan, FaultSpec};
        use obs::DegradedAction;
        let run = |mode| {
            let mut cfg = quick_cfg(0.10, 800.0);
            cfg.obs.trace = TraceKind::ALL;
            cfg.faults = FaultPlan {
                events: vec![FaultSpec::MemoryShock {
                    start_secs: 100.0,
                    end_secs: 500.0,
                    fraction: 0.02,
                }],
                mode,
            };
            run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()))
        };
        let count = |report: &RunReport, want: DegradedAction| {
            report
                .obs_trace
                .iter()
                .filter(
                    |r| matches!(r.event, TraceEvent::Degraded { action, .. } if action == want),
                )
                .count()
        };
        let abort = run(DegradationMode::Abort);
        assert!(
            count(&abort, DegradedAction::Aborted) > 0,
            "a severe shock under abort mode kills admitted victims"
        );
        let requeue = run(DegradationMode::Requeue);
        assert!(
            count(&requeue, DegradedAction::Suspended) > 0,
            "a severe shock under requeue mode suspends victims"
        );
        assert_eq!(
            count(&requeue, DegradedAction::Aborted),
            0,
            "requeue mode never fault-aborts"
        );
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn new_rejects_a_class_billing_an_undeclared_tenant() {
        let mut cfg = SimConfig::multi_tenant(0.5);
        cfg.classes[0].tenant = cfg.tenants.len();
        Simulator::new(cfg, Box::new(MinMaxPolicy::unlimited()));
    }

    #[test]
    fn multiclass_reports_both_classes() {
        let mut cfg = SimConfig::multiclass(0.3);
        cfg.duration_secs = 1_500.0;
        let report = run_simulation(cfg, Box::new(MinMaxPolicy::unlimited()));
        assert_eq!(report.classes.len(), 2);
        assert!(report.classes.iter().all(|c| c.served > 0));
    }
}
