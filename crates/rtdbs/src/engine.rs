//! The integrated RTDBS simulator (Section 4, Figure 2): Source, Query
//! Manager, Buffer Manager, CPU Manager and Disk Manager around one event
//! calendar. Each component's state has one private owner, and the event
//! handlers of [`Simulator`] call its methods instead of reading its fields.
//!
//! * **Source** (`source::Source`): per-class arrivals, operand relation(s)
//!   and slack ratio, priced into the firm deadline
//!   `Deadline = Arrival + StandAlone × SlackRatio`.
//! * **Query Manager** (`QueryTable` and the handlers here): drives each
//!   admitted query's operator state machine, and kills a query still
//!   running at its firm deadline, counted as missed (Section 3).
//! * **Buffer Manager**: `realloc::Realloc` asks the [`MemoryPolicy`] for
//!   grants and hands back the sorted grant changes; `ledger::TenantLedger`
//!   counts who holds memory, per tenant and in total, with its time
//!   integrals; `crate::faults::FaultState` sets the memory ceiling a shock
//!   shrinks.
//! * **CPU Manager** (`crate::cpu::CpuManager`): preemptive ED.
//! * **Disk Manager**: the `storage` farm's per-disk ED+elevator queues,
//!   with each disk's in-flight owner and busy clock.
//!
//! `accounting::RunAccounting` keeps what the run reports and closes a
//! [`pmm::BatchStats`] every `SampleSize` departures: the feedback loop PMM
//! adapts on. The ledger closes one batch per tenant when the policy opts
//! in ([`MemoryPolicy::wants_tenant_feedback`]) and, for any policy, sums
//! the per-tenant figures of [`RunReport::tenants`].

mod accounting;
mod ledger;
mod realloc;
mod source;

use crate::config::SimConfig;
use crate::cpu::CpuManager;
use crate::faults::{DegradationMode, FaultSpec, FaultState};
use crate::metrics::RunReport;
use accounting::RunAccounting;
use exec::{Action, FileRef, Operator};
use ledger::TenantLedger;
use obs::{
    CounterFamilyId, CounterId, DegradedAction, GaugeFamilyId, GaugeId, HistId,
    MetricsRegistry, Profiler, Section, TraceEvent, TraceKind, Tracer,
};
use pmm::{MemoryPolicy, QueryDemand, QueryId};
use realloc::Realloc;
use simkit::calendar::EventHandle;
use simkit::metrics::Utilization;
use simkit::{Calendar, Duration, SeedSequence, SimTime};
use source::Source;
use std::collections::VecDeque;
use storage::{Access, DiskFarm, FileId, FileMeta, IoKind, Layout, Service};

/// Calendar event payloads. `Arrival`, `Deadline`, `Fault` and `EndOfRun`
/// scale with classes and live queries and go in the timer lane; the
/// completion lane holds at most one `CpuDone`/`DiskDone`/`IoRetry` per device.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// Next arrival of class `class`.
    Arrival { class: usize },
    /// `query`'s running CPU burst finished.
    CpuDone { query: QueryId },
    /// Disk `disk` completed its in-flight access.
    DiskDone { disk: usize },
    /// `query`'s firm deadline passed.
    Deadline { query: QueryId },
    /// Edge `index` of the fault plan fires (degrade/outage/shock).
    Fault { index: usize },
    /// Disk `disk`'s retry backoff elapsed; it tries the access again.
    IoRetry { disk: usize },
    /// End of the simulation.
    EndOfRun,
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
            FileRef::Base(f) if self.r_place.file == f => &self.r_place,
            FileRef::Base(f) => match &self.s_place {
                Some(s) if s.file == f => s,
                _ => panic!("query accesses unknown base file {f:?}"),
            },
            FileRef::Temp(slot) => self
                .temps
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, p)| p)
                .unwrap_or_else(|| panic!("unbound temp slot {slot}")),
        }
    }
}

/// Sentinel in the id window marking a departed query.
const DEAD_SLOT: u32 = u32::MAX;

/// The live-query table: a slab of reusable slots plus a sliding dense
/// index from `QueryId` to slot. A query stays in its slot for its whole
/// life. Ids are assigned sequentially, so `slot_of` is a dense
/// `VecDeque<u32>` window over the id space (index `id - base`, front
/// advanced past departed ids) and a lookup is two array probes. The slot
/// doubles as the key of `Realloc`'s dense grant map.
///
/// `ed` keeps the live queries in Earliest-Deadline order (`(deadline,
/// id)`, the policies' exact sort key), updated on insert and remove only:
/// deadlines are fixed at arrival. `Realloc` feeds the policy snapshot in
/// this order, so the allocators' ED sort is an `is_sorted` check.
#[derive(Default)]
struct QueryTable {
    slots: Vec<Option<LiveQuery>>,
    free: Vec<u32>,
    slot_of: VecDeque<u32>,
    base: u64,
    /// Live queries in `(deadline, id)` order, with their slab slot.
    ed: Vec<(SimTime, QueryId, u32)>,
}

impl QueryTable {
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

    /// Remove a live query, returning the slot it held.
    fn remove(&mut self, id: QueryId) -> Option<(u32, LiveQuery)> {
        let slot = self.slot_of(id)?;
        let idx = (id.0 - self.base) as usize;
        self.slot_of[idx] = DEAD_SLOT;
        // Slide the window past departed ids at the front.
        while self.slot_of.front() == Some(&DEAD_SLOT) {
            self.slot_of.pop_front();
            self.base += 1;
        }
        let q = self.slots[slot as usize]
            .take()
            .expect("slot holds a live query");
        self.free.push(slot);
        let key = (q.deadline, q.id);
        let at = self.ed.partition_point(|&(d, i, _)| (d, i) < key);
        debug_assert!(self.ed[at].1 == id, "ED index out of sync");
        self.ed.remove(at);
        Some((slot, q))
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
    /// Per-tenant served, missed and MPL label families (multi-tenant
    /// configs only). Families live outside the windowed-delta columns, so
    /// registering them never perturbs the established window layout of
    /// single-tenant runs.
    tenant: Option<(CounterFamilyId, CounterFamilyId, GaugeFamilyId)>,
}

impl ObsMetrics {
    /// Mirror the engine's outcome counts into their counters: before each
    /// window roll (so a window's delta is its departures) and at report.
    fn roll_counts(&mut self, served: u64, missed: u64) {
        self.reg.set_counter(self.served, served);
        self.reg.set_counter(self.missed, missed);
    }

    fn new(tenants: usize) -> Self {
        let mut reg = MetricsRegistry::new();
        let mut counter = |name| reg.counter(name);
        // Fields register in the order written. Fault instrumentation
        // registers after the seed counters and the tenant families last,
        // so the established windowed-delta columns and single-tenant
        // registries stay exactly as before.
        ObsMetrics {
            arrivals: counter("engine.arrivals"),
            served: counter("engine.served"),
            missed: counter("engine.missed"),
            reallocations: counter("pmm.reallocations"),
            batches: counter("pmm.batches"),
            cpu_bursts: counter("cpu.bursts"),
            io_requests: counter("disk.requests"),
            cache_hits: counter("disk.cache_hits"),
            faults_injected: counter("faults.injected"),
            faults_io_retries: counter("faults.io_retries"),
            faults_aborts: counter("faults.aborts"),
            faults_requeues: counter("faults.requeues"),
            faults_shock_victims: counter("faults.shock_victims"),
            faults_batches_segmented: counter("faults.batches_segmented"),
            mpl: reg.gauge("engine.mpl"),
            response: reg.histogram("engine.response_secs", RESPONSE_BUCKETS),
            tenant: (tenants > 0).then(|| {
                (
                    reg.counter_family("engine.tenant.served", tenants),
                    reg.counter_family("engine.tenant.missed", tenants),
                    reg.gauge_family("engine.tenant.mpl", tenants),
                )
            }),
            reg,
        }
    }
}

/// The simulator. Construct with [`Simulator::new`], execute with
/// [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    cal: Calendar<Event>,
    layout: Layout,
    // Disk Manager: the farm, the owner of each disk's in-flight access,
    // and each disk's busy clock.
    disks: DiskFarm,
    disk_inflight: Vec<Option<QueryId>>,
    disk_util: Vec<Utilization>,
    cpu: CpuManager,
    policy: Box<dyn MemoryPolicy>,
    live: QueryTable,
    source: Source,
    realloc: Realloc,
    ledger: TenantLedger,
    acct: RunAccounting,
    faults: FaultState,
    // Observability: the single recording path (arrival gaps, the query
    // lifecycle, policy decisions all flow through this tracer), the
    // pre-registered metrics instruments, and the wall-clock profiler.
    tracer: Tracer,
    obs_metrics: Option<Box<ObsMetrics>>,
    profiler: Profiler,
    /// Policy trace points already forwarded into the obs trace.
    policy_trace_seen: usize,
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
        let res = &cfg.resources;
        let layout = Layout::build(
            res.geometry,
            res.num_disks,
            &cfg.database,
            &mut seeds.stream("layout"),
        );
        let n_disks = res.num_disks as usize;
        let tenants = cfg.tenants.len();
        Simulator {
            cal: Calendar::new(),
            layout,
            disks: DiskFarm::new(res.num_disks, res.geometry, res.exec.block_pages),
            disk_inflight: vec![None; n_disks],
            disk_util: vec![Utilization::new(SimTime::ZERO); n_disks],
            cpu: CpuManager::new(res.cpu_mips, SimTime::ZERO),
            live: QueryTable::default(),
            source: Source::new(&cfg.classes, &seeds),
            realloc: Realloc::new(tenants, policy.as_ref()),
            ledger: TenantLedger::new(&cfg.tenants, policy.wants_tenant_feedback()),
            acct: RunAccounting::new(cfg.classes.len(), cfg.window_secs),
            faults: FaultState::new(&cfg.faults, res.memory_pages),
            policy,
            tracer: Tracer::with_mask(cfg.obs.trace),
            obs_metrics: cfg.obs.metrics.then(|| Box::new(ObsMetrics::new(tenants))),
            profiler: Profiler::new(cfg.obs.profile),
            policy_trace_seen: 0,
            end: SimTime::from_secs_f64(cfg.duration_secs),
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
        for (index, at) in self.faults.edge_times().enumerate() {
            if at < self.end {
                self.cal.schedule_timer(at, Event::Fault { index });
            }
        }
        self.cal.schedule_timer(self.end, Event::EndOfRun);
        loop {
            let t0 = self.profiler.begin();
            let popped = self.cal.pop();
            // The pop's end is the dispatch's start: one clock read.
            let t0 = self.profiler.end(Section::CalendarPop, t0);
            let Some((t, event)) = popped else { break };
            match event {
                Event::EndOfRun => break,
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
        let Some(gap) = self.source.next_gap(class) else {
            return;
        };
        // Microsecond ticks round-trip exactly through f64 at any realistic
        // horizon, so a recorded trace replays bit-for-bit. Emitted before
        // the horizon check: replay consumes the final past-horizon gap too.
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
        let classes = self.cfg.classes.len();
        if !self
            .cfg
            .schedule
            .is_active(now.as_secs_f64(), class, classes)
        {
            return;
        }
        let query = self.source.query(now, class, &self.cfg, &self.layout);
        let (id, deadline) = (query.id, query.deadline);
        let slot = self.live.insert(query);
        self.realloc.arrived(slot, &self.live);
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
        self.bump(|m| m.arrivals);
        self.reallocate(now);
    }

    // ----- Buffer manager / policy glue ----------------------------------

    /// Recompute allocations through the policy and apply the differences,
    /// again while a departure during a pass asks for another one.
    fn reallocate(&mut self, now: SimTime) {
        if !self.realloc.enter() {
            return;
        }
        let t0 = self.profiler.begin();
        loop {
            self.bump(|m| m.reallocations);
            let memory = self.faults.memory();
            let n = self
                .realloc
                .pass(now, memory, self.policy.as_mut(), &self.live);
            for i in 0..n {
                let (id, new) = self.realloc.diff(i);
                self.apply_grant(now, id, new);
            }
            let holders = self.ledger.settle(now);
            self.acct.set_mpl(now, holders);
            if !self.realloc.rerun() {
                break;
            }
        }
        self.profiler.end(Section::Reallocate, t0);
    }

    fn apply_grant(&mut self, now: SimTime, id: QueryId, new: u32) {
        let Some(q) = self.live.get_mut(id) else {
            return;
        };
        q.op.set_allocation(new);
        self.ledger.regrant(q.tenant, q.granted, new);
        q.granted = new;
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
                    self.bump(|m| m.cpu_bursts);
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
                        self.drop_temp(place);
                    }
                }
                Action::Parked => {
                    q.waiting = Waiting::Nothing;
                    return;
                }
                Action::Finished => {
                    let q = self.retire(id).expect("finished query is live");
                    let missed = !self.cfg.firm_deadlines && now > q.deadline;
                    self.depart(now, q, missed);
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
            let (cache_hit, time) = match service {
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
                    self.bump(|m| m.faults_io_retries);
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
                    let (class, deadline) = (q.class, q.deadline);
                    let action =
                        self.degrade(now, owner, class, DegradedAction::Requeued);
                    if action == DegradedAction::Requeued {
                        self.disks.disk_mut(disk).enqueue(deadline, access);
                    }
                    continue;
                }
                // Satisfied from the prefetch cache: completes now.
                Service::CacheHit => (true, Duration::ZERO),
                Service::Media { time, .. } => (false, time),
            };
            self.disk_inflight[disk] = Some(QueryId(access.owner));
            if !cache_hit {
                self.disk_util[disk].begin_busy(now);
            }
            self.cal.schedule(now + time, Event::DiskDone { disk });
            if !self.tracer.is_off() || self.obs_metrics.is_some() {
                self.tracer.emit(
                    now,
                    TraceEvent::Io {
                        query: access.owner,
                        disk: disk as u32,
                        pages: access.pages,
                        write: access.kind == IoKind::Write,
                        cache_hit,
                        service: time,
                    },
                );
                self.bump(|m| m.io_requests);
                if cache_hit {
                    self.bump(|m| m.cache_hits);
                }
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

    /// Abort one live query, reclaim everything it holds and count it
    /// missed: at its firm deadline, or as a fault victim under the abort
    /// mode (exhausted I/O retries, memory-shock victims).
    fn kill_query(&mut self, now: SimTime, query: QueryId) {
        let Some(q) = self.retire(query) else {
            return; // completed (or already killed) first
        };
        self.cpu.cancel(now, query, &mut self.cal);
        for d in 0..self.disks.len() {
            self.disks.disk_mut(d).cancel_queued(|a| a.owner == query.0);
        }
        // In-flight disk access (if any) completes harmlessly: its owner is
        // gone and `on_disk_done` routes nowhere.
        self.depart(now, q, true);
    }

    /// Take a query out of the live table (completion or kill): release
    /// its memory and demand, and cancel its deadline abort so long runs
    /// do not carry dead deadline events in the calendar.
    fn retire(&mut self, id: QueryId) -> Option<LiveQuery> {
        let (slot, q) = self.live.remove(id)?;
        self.ledger.regrant(q.tenant, q.granted, 0);
        self.realloc.departed(slot, q.tenant, &self.live);
        if let Some(handle) = q.deadline_handle {
            self.cal.cancel(handle);
        }
        Some(q)
    }

    /// The last of a retired query: drop the temps its operator left,
    /// count it, and reallocate its memory.
    fn depart(&mut self, now: SimTime, q: LiveQuery, missed: bool) {
        for &(_, place) in &q.temps {
            self.drop_temp(place);
        }
        self.record_served(now, &q, missed);
        self.reallocate(now);
    }

    /// Delete a temp file and the disk cache pages it held.
    fn drop_temp(&mut self, place: PlacedFile) {
        self.disks
            .disk_mut(place.disk as usize)
            .invalidate(place.file);
        self.layout.drop_temp(place.file);
    }

    // ----- Fault plan ----------------------------------------------------

    fn on_fault(&mut self, now: SimTime, index: usize) {
        let (fault, active, trace) = self.faults.fire(index);
        self.bump(|m| m.faults_injected);
        self.tracer.emit(now, trace);
        match fault {
            FaultSpec::DiskDegrade { disk, factor, .. } => {
                let factor = if active { factor } else { 1.0 };
                self.disks.disk_mut(disk as usize).set_degrade(factor);
            }
            FaultSpec::DiskOutage { disk, .. } => {
                self.disks.disk_mut(disk as usize).set_outage(active);
                // Defensive restart; normally a pending backoff drains the
                // queue when its retry event fires.
                if !active {
                    self.pump_disk(now, disk as usize);
                }
            }
            // A window straddling either shock edge mixes pre- and in-shock
            // samples and must not reach the policy.
            FaultSpec::MemoryShock { .. } => {
                self.acct.taint();
                self.ledger.taint();
                self.reallocate(now);
                if active {
                    self.shock_victims(now);
                }
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
            self.bump(|m| m.faults_shock_victims);
            self.degrade(now, id, class, DegradedAction::Suspended);
        }
    }

    /// Degrade a fault victim by the plan's mode, and trace, count and
    /// return the action: the abort mode kills it, the requeue mode takes
    /// `keep` (the caller re-queues a failed I/O; a shock victim waits).
    fn degrade(
        &mut self,
        now: SimTime,
        id: QueryId,
        class: usize,
        keep: DegradedAction,
    ) -> DegradedAction {
        let action = match self.cfg.faults.mode {
            DegradationMode::Abort => DegradedAction::Aborted,
            DegradationMode::Requeue => keep,
        };
        self.tracer.emit(
            now,
            TraceEvent::Degraded {
                query: id.0,
                class: class as u32,
                action,
            },
        );
        match action {
            DegradedAction::Aborted => self.bump(|m| m.faults_aborts),
            DegradedAction::Requeued => self.bump(|m| m.faults_requeues),
            DegradedAction::Suspended => {}
        }
        if action == DegradedAction::Aborted {
            self.kill_query(now, id);
        }
        action
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
        let sample = self.acct.record(now, q, missed);
        let sample_size = self.cfg.sample_size;
        let full_tenant_batch = self.ledger.record(q.tenant, &sample, sample_size);
        self.acct.roll_windows(now, self.obs_metrics.as_deref_mut());
        // Tenant batches close BEFORE the global batch: `finish_batch`
        // resets the shared CPU/disk utilization windows, and when both
        // windows fill on the same departure (certain whenever one tenant
        // carries all the traffic) the tenant's stats must read the
        // utilization accumulated over the sample — not a just-reset
        // zero-span window.
        if let Some(ti) = full_tenant_batch {
            self.finish_batch(now, Some(ti));
        }
        if self.acct.batch_full(sample_size) {
            self.finish_batch(now, None);
        }
    }

    /// Close the global feedback batch (`tenant` is `None`) or one
    /// tenant's and hand it to the policy, whose strategy may change, so
    /// allocation re-runs. Utilization comes from the shared CPU and disk
    /// busy clocks over the current global window: shared resources have
    /// no per-tenant utilization. A batch that overlapped a memory shock is
    /// segmented out: counted, never handed over.
    fn finish_batch(&mut self, now: SimTime, tenant: Option<usize>) {
        let cpu_util = self.cpu.util.window_fraction(now);
        let disk_util = mean(&self.disk_util, |u| u.window_fraction(now));
        let shock = self.faults.shock_active();
        let stats = match tenant {
            None => self.acct.close_batch(now, cpu_util, disk_util, shock),
            Some(ti) => self.ledger.close_batch(ti, now, cpu_util, disk_util, shock),
        };
        match (&stats, tenant) {
            (None, _) => self.bump(|m| m.faults_batches_segmented),
            (Some(stats), Some(ti)) => self.policy.on_tenant_batch(ti as u32, stats),
            (Some(stats), None) => {
                self.policy.on_batch(stats);
                let (served, missed) = (stats.served, stats.missed);
                self.tracer
                    .emit(now, TraceEvent::BatchClosed { served, missed });
                self.bump(|m| m.batches);
            }
        }
        if stats.is_some() {
            self.emit_policy_decisions();
        }
        if tenant.is_none() {
            // Restart the window's busy clocks.
            self.cpu.util.reset_window(now);
            for u in &mut self.disk_util {
                u.reset_window(now);
            }
        } else if stats.is_none() {
            return; // no tenant controller heard anything
        }
        self.reallocate(now);
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

    /// Count one in the metrics counter `counter` picks (metrics on only).
    fn bump(&mut self, counter: impl FnOnce(&ObsMetrics) -> CounterId) {
        if let Some(m) = &mut self.obs_metrics {
            let id = counter(m);
            m.reg.inc(id, 1);
        }
    }

    fn finish_report(mut self) -> RunReport {
        let now = self.end;
        // Catch policy decisions recorded since the last batch boundary.
        self.emit_policy_decisions();
        let mut metrics = self.obs_metrics.take();
        let report = self
            .acct
            .report(now, &mut self.cfg.classes, metrics.as_deref_mut());
        // Freeze the registry after writing the instruments that mirror
        // engine state: the outcome counters and the ledger's MPL cells.
        let metrics = metrics.map(|mut m| {
            m.roll_counts(report.served, report.missed);
            self.ledger.write_metrics(&mut m);
            m.reg.report()
        });
        RunReport {
            policy: self.policy.name(),
            tenants: self.ledger.outcomes(now, &mut self.cfg.tenants),
            cpu_util: self.cpu.util.fraction(now),
            disk_util: mean(&self.disk_util, |u| u.fraction(now)),
            trace: self.policy.trace().to_vec(),
            events: self.cal.events_dispatched(),
            obs_trace: self.tracer.take_records(),
            metrics,
            profile: self.profiler.report(),
            ..report
        }
    }
}

/// The mean over the disks of one utilization reading.
fn mean(disks: &[Utilization], reading: impl Fn(&Utilization) -> f64) -> f64 {
    disks.iter().map(reading).sum::<f64>() / disks.len() as f64
}

/// Convenience: build and run in one call.
pub fn run_simulation(cfg: SimConfig, policy: Box<dyn MemoryPolicy>) -> RunReport {
    Simulator::new(cfg, policy).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm::{BatchStats, MaxPolicy, MinMaxPolicy, Pmm};

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
