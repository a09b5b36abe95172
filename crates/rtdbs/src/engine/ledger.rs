//! The tenant ledger: who holds memory, per tenant and in total, and the
//! time integrals of those holdings. Holder and page counts ride every
//! grant change and departure ([`TenantLedger::regrant`]) in exact integer
//! deltas. Per tenant it also keeps the run's outcomes and — when the
//! policy asks for per-tenant feedback — an independent `SampleSize` batch
//! window, closed for `MemoryPolicy::on_tenant_batch`.

use super::accounting::{FeedbackWindow, Sample};
use super::ObsMetrics;
use crate::config::TenantSpec;
use crate::metrics::TenantOutcome;
use pmm::BatchStats;
use simkit::metrics::{TimeWeightedN, TimeWeightedRows};
use simkit::SimTime;

struct TenantState {
    /// The tenant's quota in pages (its name and softness stay in the
    /// config's `TenantSpec`, read once by `outcomes`).
    quota: u32,
    // Run-level outcomes and time-weighted usage.
    served: u64,
    missed: u64,
    /// MPL, pages in use and pages borrowed beyond quota, on one clock.
    /// While the tenant holds memory its usage row (`row`) carries these
    /// and this copy is stale; it is written back when the row goes.
    usage: TimeWeightedN<3>,
    cur_holders: u32,
    cur_pages: u64,
    /// The tenant's row in the usage rows: set exactly while
    /// `cur_holders > 0` as of the last `settle`.
    row: Option<u32>,
    /// On the touched list: the counters changed since the last `settle`.
    touched: bool,
    // Per-tenant feedback batch window (maintained only when the policy
    // wants tenant feedback). `b_mpl` is parked here like `usage`.
    feedback: FeedbackWindow,
    b_mpl: TimeWeightedN<1>,
}

impl TenantState {
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
}

pub(super) struct TenantLedger {
    /// Live queries holding memory (granted > 0): the global MPL.
    holders: u32,
    /// One per declared tenant; empty for single-tenant configs.
    tenants: Vec<TenantState>,
    /// Whether per-tenant feedback batches are routed to the policy.
    tenant_feedback: bool,
    /// Usage integrals of the tenants holding memory, one row each on the
    /// clock of the last `settle` (see there), with the tenant of each
    /// row; `b_mpl_rows` mirrors `usage_rows` row for row when per-tenant
    /// feedback is on and stays empty otherwise.
    usage_rows: TimeWeightedRows<3>,
    b_mpl_rows: TimeWeightedRows<1>,
    row_tenant: Vec<u32>,
    /// Indices of the tenants whose `touched` flag is set.
    touched: Vec<u32>,
}

impl TenantLedger {
    /// A ledger over `tenants`; `feedback` routes per-tenant batches to
    /// the policy.
    pub(super) fn new(tenants: &[TenantSpec], feedback: bool) -> Self {
        let start = SimTime::ZERO;
        TenantLedger {
            holders: 0,
            tenants: tenants
                .iter()
                .map(|t| TenantState {
                    quota: t.quota_pages,
                    served: 0,
                    missed: 0,
                    usage: TimeWeightedN::new(start),
                    cur_holders: 0,
                    cur_pages: 0,
                    row: None,
                    touched: false,
                    feedback: FeedbackWindow::default(),
                    b_mpl: TimeWeightedN::new(start),
                })
                .collect(),
            tenant_feedback: !tenants.is_empty() && feedback,
            usage_rows: TimeWeightedRows::new(start),
            b_mpl_rows: TimeWeightedRows::new(start),
            row_tenant: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// A query billed to `tenant` goes from `old` to `new` pages; a
    /// departure is `new = 0`. Every holder bills one tenant.
    pub(super) fn regrant(&mut self, tenant: u32, old: u32, new: u32) {
        if old == new {
            return;
        }
        let (was, is) = (u32::from(old > 0), u32::from(new > 0));
        self.holders = self.holders + is - was;
        if let Some(t) = self.tenants.get_mut(tenant as usize) {
            t.cur_pages = t.cur_pages + u64::from(new) - u64::from(old);
            t.cur_holders = t.cur_holders + is - was;
            if !t.touched {
                t.touched = true;
                self.touched.push(tenant);
            }
        }
    }

    /// Fold the per-tenant usage readings (MPL, pages in use, pages
    /// borrowed beyond quota, and the feedback batch's MPL) into their
    /// time integrals, as if every tenant were set at every call, and
    /// return the global MPL.
    ///
    /// A tenant holding nothing reads 0 and would add `0.0 × dt` — nothing,
    /// to the bit — so only tenants holding memory are integrated, in dense
    /// rows on one shared clock: the instant of the last call, when each
    /// was set. One `advance` adds to every row the `v × dt` its own clock
    /// would, and only the tenants whose counters changed since (the
    /// touched list `regrant` fills) are re-read. A tenant gets a row when
    /// it starts holding memory and hands its integrals back to its
    /// `TenantState` when it stops.
    ///
    /// `b_mpl` restarts with each feedback batch `close_batch` closes
    /// between two calls: that row integrates from the batch boundary at
    /// the next `advance` (`TimeWeightedRows::close_window`).
    pub(super) fn settle(&mut self, now: SimTime) -> u32 {
        if self.tenants.is_empty() {
            return self.holders;
        }
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
        self.holders
    }

    /// Rows are exactly the tenants holding memory, each row reads its
    /// tenant's counters, and the rows' MPLs sum to the global MPL. Every
    /// holder bills one tenant, so `holders` is the sum over all tenants:
    /// the rows reaching it proves no tenant outside them holds.
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

    /// Count a departure billed to `tenant` and, when the policy wants
    /// tenant feedback, add it to the tenant's batch; returns the tenant
    /// when that batch now holds `sample_size` departures.
    pub(super) fn record(
        &mut self,
        tenant: u32,
        sample: &Sample,
        sample_size: u32,
    ) -> Option<usize> {
        let ti = tenant as usize;
        let t = self.tenants.get_mut(ti)?;
        t.served += 1;
        if sample.missed {
            t.missed += 1;
        }
        if !self.tenant_feedback {
            return None;
        }
        (t.feedback.record(sample) >= u64::from(sample_size)).then_some(ti)
    }

    /// Close tenant `ti`'s feedback batch (see `FeedbackWindow::close`);
    /// its MPL integral restarts at `now`.
    pub(super) fn close_batch(
        &mut self,
        ti: usize,
        now: SimTime,
        cpu_util: f64,
        disk_util: f64,
        shock_active: bool,
    ) -> Option<BatchStats> {
        let t = &mut self.tenants[ti];
        let [mpl] = match t.row {
            Some(row) => self.b_mpl_rows.close_window(row as usize, now),
            None => t.b_mpl.close_window(now),
        };
        t.feedback
            .close(now, mpl, cpu_util, disk_util, shock_active)
    }

    /// Mark every tenant's open feedback batch as overlapping a shock.
    pub(super) fn taint(&mut self) {
        for t in &mut self.tenants {
            t.feedback.taint();
        }
    }

    /// Write the MPL gauge and, in multi-tenant registries, the per-tenant
    /// outcome and MPL cells.
    pub(super) fn write_metrics(&self, m: &mut ObsMetrics) {
        m.reg.set_gauge(m.mpl, f64::from(self.holders));
        let Some((served, missed, mpl)) = m.tenant else {
            return;
        };
        for (ti, t) in self.tenants.iter().enumerate() {
            m.reg.inc_cell(served, ti, t.served);
            m.reg.inc_cell(missed, ti, t.missed);
            m.reg.set_gauge_cell(mpl, ti, f64::from(t.cur_holders));
        }
    }

    /// The per-tenant outcomes at the end of the run, `now`. The run owns
    /// its config, so they take the names from `specs` rather than copying
    /// them.
    pub(super) fn outcomes(
        &mut self,
        now: SimTime,
        specs: &mut [TenantSpec],
    ) -> Vec<TenantOutcome> {
        for (row, &ti) in self.row_tenant.iter().enumerate() {
            self.tenants[ti as usize].usage = self.usage_rows.get(row);
        }
        self.tenants
            .iter_mut()
            .zip(specs)
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
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use simkit::Rng;

    /// The reference: every tenant's counters recounted from the live
    /// grants, and one `TimeWeightedN` per tenant set at every settle.
    struct Reference {
        quotas: Vec<u32>,
        usage: Vec<TimeWeightedN<3>>,
        b_mpl: Vec<TimeWeightedN<1>>,
    }

    impl Reference {
        fn readings(&self, grants: &[(u32, u32)], ti: usize) -> [f64; 3] {
            let mine = grants.iter().filter(|&&(t, g)| t as usize == ti && g > 0);
            let holders = mine.clone().count() as f64;
            let pages = mine.map(|&(_, g)| u64::from(g)).sum::<u64>() as f64;
            let borrowed = (pages - f64::from(self.quotas[ti])).max(0.0);
            [holders, pages, borrowed]
        }
    }

    fn bits<const N: usize>(v: [f64; N]) -> [u64; N] {
        v.map(f64::to_bits)
    }

    /// Random grant changes, departures, settles and tenant-batch closes
    /// against the reference, bit for bit, with and without per-tenant
    /// feedback.
    #[test]
    fn ledger_matches_one_collector_per_tenant() {
        for (seed, feedback) in [(1, true), (2, false), (3, true), (4, false)] {
            let quotas = [12, 0, 30, 5, 8];
            let mut specs: Vec<TenantSpec> = quotas
                .iter()
                .enumerate()
                .map(|(i, &q)| TenantSpec::soft(format!("t{i}"), q))
                .collect();
            let mut ledger = TenantLedger::new(&specs, feedback);
            let mut reference = Reference {
                quotas: quotas.to_vec(),
                usage: vec![TimeWeightedN::new(SimTime::ZERO); quotas.len()],
                b_mpl: vec![TimeWeightedN::new(SimTime::ZERO); quotas.len()],
            };
            let mut rng = Rng::new(seed);
            // Live queries as (tenant, grant).
            let mut grants: Vec<(u32, u32)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut holding = vec![false; quotas.len()];
            let (mut joins, mut leaves, mut closes) = (0, 0, 0);
            for _ in 0..4_000 {
                match rng.below(10) {
                    0..=1 => grants.push((rng.index(quotas.len()) as u32, 0)),
                    2 if !grants.is_empty() => {
                        let at = rng.index(grants.len());
                        let q = &mut grants[at];
                        let new = if rng.below(3) == 0 {
                            0
                        } else {
                            rng.below(20) as u32
                        };
                        ledger.regrant(q.0, q.1, new);
                        q.1 = new;
                    }
                    3..=5 if !grants.is_empty() => {
                        let (t, g) = grants.swap_remove(rng.index(grants.len()));
                        ledger.regrant(t, g, 0);
                    }
                    6..=7 => {
                        now = SimTime(now.0 + rng.below(3) * rng.below(1_000_000));
                        let holders = ledger.settle(now);
                        let live = grants.iter().filter(|&&(_, g)| g > 0).count();
                        assert_eq!(holders as usize, live);
                        for (ti, held) in holding.iter_mut().enumerate() {
                            let usage = reference.readings(&grants, ti);
                            reference.usage[ti].set(now, usage);
                            reference.b_mpl[ti].set(now, [usage[0]]);
                            let is = usage[0] > 0.0;
                            joins += usize::from(is && !*held);
                            leaves += usize::from(!is && *held);
                            *held = is;
                        }
                    }
                    8 if feedback => {
                        // A batch closes between settles, at or after the
                        // last one.
                        now = SimTime(now.0 + rng.below(1_000_000));
                        let ti = rng.index(quotas.len());
                        let stats = ledger
                            .close_batch(ti, now, 0.5, 0.25, false)
                            .expect("no shock, no taint");
                        let [want] = reference.b_mpl[ti].close_window(now);
                        assert_eq!(stats.realized_mpl.to_bits(), want.to_bits());
                        closes += 1;
                    }
                    _ => {}
                }
            }
            assert!(
                joins > 50 && leaves > 50,
                "rows joined {joins}, left {leaves}"
            );
            assert!(!feedback || closes > 100, "{closes} batches closed");
            now = SimTime(now.0 + 1_000_000);
            let outcomes = ledger.outcomes(now, &mut specs);
            for (ti, o) in outcomes.iter().enumerate() {
                let [mpl, used, borrowed] = reference.usage[ti].means(now);
                let quota = f64::from(quotas[ti]);
                let utilization = if quotas[ti] > 0 { used / quota } else { 0.0 };
                assert_eq!(
                    bits([o.avg_mpl, o.quota_utilization, o.borrowed_pages]),
                    bits([mpl, utilization, borrowed]),
                    "seed {seed} tenant {ti}"
                );
                assert_eq!(o.name, format!("t{ti}"));
            }
        }
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
        let ledger = &sim.ledger;
        // Every grant diff and departure is followed by a reallocation,
        // which ends in `settle`: nothing is left touched, and the rows
        // are exactly the tenants holding memory.
        assert!(ledger.touched.is_empty() && ledger.tenants.iter().all(|t| !t.touched));
        let mut rows = ledger.row_tenant.clone();
        rows.sort_unstable();
        let holding: Vec<u32> = (0..ledger.tenants.len() as u32)
            .filter(|&ti| ledger.tenants[ti as usize].cur_holders > 0)
            .collect();
        assert_eq!(rows, holding, "one row per tenant holding memory");
        assert_eq!(
            ledger.b_mpl_rows.len(),
            rows.len(),
            "feedback rows mirror usage rows"
        );
        assert!(
            ledger
                .tenants
                .iter()
                .any(|t| t.row.is_none() && t.served > 0),
            "some tenant went idle → holding → idle and left the rows"
        );
        for (ti, t) in ledger
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
}
