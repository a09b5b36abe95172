//! The Source (Figure 2): per-class arrival streams, operand selection and
//! firm-deadline assignment. It owns every random stream a query's
//! creation draws from, so nothing else can perturb them.

use super::{LiveQuery, PlacedFile, Waiting};
use crate::config::{QueryType, ResourceConfig, SimConfig, WorkloadClass};
use exec::{ExecConfig, ExternalSort, FileRef, HashJoin, Operator};
use pmm::QueryId;
use simkit::{Duration, Rng, SeedSequence, SimTime};
use storage::{FileId, Layout, RelationMeta};
use workload::ArrivalProcess;

pub(super) struct Source {
    arrivals: Vec<ArrivalProcess>,
    rng_arrival: Vec<Rng>,
    rng_pick: Vec<Rng>,
    rng_slack: Vec<Rng>,
    next_id: u64,
    /// Stand-alone execution time per operand pair (the database has
    /// finitely many relations, so this cache converges quickly).
    standalone_cache: storage::FastMap<(FileId, Option<FileId>), Duration>,
}

/// The operator of a query over `r` — joined with `s` when there is one
/// (`r` builds, `s` probes), sorted otherwise.
fn operator(
    exec: ExecConfig,
    r: RelationMeta,
    s: Option<RelationMeta>,
) -> Box<dyn Operator> {
    match s {
        Some(s) => Box::new(HashJoin::new(exec, r.file, r.pages, s.file, s.pages)),
        None => Box::new(ExternalSort::new(exec, r.file, r.pages)),
    }
}

impl Source {
    pub(super) fn new(classes: &[WorkloadClass], seeds: &SeedSequence) -> Self {
        let streams = |label: &str| -> Vec<Rng> {
            (0..classes.len())
                .map(|i| seeds.substream(label, i as u64))
                .collect()
        };
        Source {
            arrivals: classes.iter().map(|c| c.arrival.build()).collect(),
            rng_arrival: streams("arrival"),
            rng_pick: streams("pick"),
            rng_slack: streams("slack"),
            next_id: 0,
            standalone_cache: storage::FastMap::default(),
        }
    }

    /// The gap to `class`'s next arrival, drawn from its own stream; `None`
    /// once the process is dead (zero rate, exhausted trace).
    pub(super) fn next_gap(&mut self, class: usize) -> Option<Duration> {
        self.arrivals[class].next_interarrival(&mut self.rng_arrival[class])
    }

    /// Create the query arriving in `class` at `now`: draw its operand
    /// relation(s), then its slack ratio, and set
    /// `Deadline = Arrival + StandAlone × SlackRatio`.
    pub(super) fn query(
        &mut self,
        now: SimTime,
        class: usize,
        cfg: &SimConfig,
        layout: &Layout,
    ) -> LiveQuery {
        let spec = &cfg.classes[class];
        let rng = &mut self.rng_pick[class];
        let (r, s) = match spec.query_type {
            QueryType::HashJoin { groups } => {
                let a = layout.random_relation(groups.0, rng);
                let b = layout.random_relation(groups.1, rng);
                // The smaller relation builds (inner R), the larger probes.
                let (r, s) = if a.pages <= b.pages { (a, b) } else { (b, a) };
                (r, Some(s))
            }
            QueryType::ExternalSort { group } => {
                (layout.random_relation(group, rng), None)
            }
        };
        let exec = cfg.resources.exec;
        let op = operator(exec, r, s);
        let standalone = self.standalone_of(r, s, &cfg.resources, layout);
        let (lo, hi) = spec.slack_range;
        let slack = self.rng_slack[class].uniform(lo, hi);
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let operand_ios =
            exec::hashjoin::operand_read_ios(&exec, r.pages, s.map_or(0, |m| m.pages));
        LiveQuery {
            id,
            class,
            tenant: spec.tenant as u32,
            op,
            arrival: now,
            deadline: now + standalone.scale(slack),
            granted: 0,
            first_admit: None,
            waiting: Waiting::Nothing,
            r_place: PlacedFile::new(r.file, layout.meta(r.file)),
            s_place: s.map(|m| PlacedFile::new(m.file, layout.meta(m.file))),
            temps: Vec::new(),
            operand_ios: operand_ios.max(1),
            deadline_handle: None,
        }
    }

    /// Stand-alone (maximum-memory) execution time of the query over `r`
    /// and `s`, priced on the run's disk geometry so deadlines keep the
    /// paper's slack *ratios* to the execution times the engine's disks
    /// produce.
    fn standalone_of(
        &mut self,
        r: RelationMeta,
        s: Option<RelationMeta>,
        res: &ResourceConfig,
        layout: &Layout,
    ) -> Duration {
        let key = (r.file, s.map(|m| m.file));
        if let Some(&d) = self.standalone_cache.get(&key) {
            return d;
        }
        let mut op = operator(res.exec, r, s);
        op.set_allocation(op.max_memory());
        let geometry = res.geometry;
        let mut placement = |file: FileRef| match file {
            FileRef::Base(f) => {
                let meta = layout.meta(f);
                (meta.disk, meta.start_cylinder)
            }
            // Max-memory execution performs no temp I/O; this arm only
            // matters for hypothetical constrained estimates.
            FileRef::Temp(_) => (r.disk, geometry.num_cylinders / 6),
        };
        let d =
            exec::standalone_time(op.as_mut(), &geometry, &mut placement, res.cpu_mips);
        self.standalone_cache.insert(key, d);
        d
    }
}
