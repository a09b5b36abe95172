//! Metrics registry: named counters, gauges, and fixed-bucket histograms
//! with windowed counter-delta snapshots.
//!
//! Instruments are registered once up front and addressed by typed index
//! handles ([`CounterId`], [`GaugeId`], [`HistId`]) so the hot path is an
//! array index, never a name lookup. `roll(t_secs)` snapshots per-counter
//! deltas at the same window boundaries the engine uses for the fig12
//! series, making the windowed metrics mergeable across seeds with the
//! driver's existing ragged-tolerant window machinery.

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Handle to a registered counter family (one label dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterFamilyId(usize);

/// Handle to a registered gauge family (one label dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeFamilyId(usize);

#[derive(Clone, Debug)]
struct Counter {
    name: &'static str,
    value: u64,
}

#[derive(Clone, Debug)]
struct Gauge {
    name: &'static str,
    value: f64,
}

#[derive(Clone, Debug)]
struct Hist {
    name: &'static str,
    bounds: &'static [f64],
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
}

/// A counter with one label dimension of fixed cardinality (e.g. one cell
/// per tenant). Storage is a dense array — label values are the indices
/// `0..n`, so a 10³-tenant registry is one allocation, not 10³ name-keyed
/// instruments, and updates stay a plain array index.
#[derive(Clone, Debug)]
struct CounterFamily {
    name: &'static str,
    values: Vec<u64>,
}

/// A gauge family: the [`CounterFamily`] shape for last-value readings.
#[derive(Clone, Debug)]
struct GaugeFamily {
    name: &'static str,
    values: Vec<f64>,
}

/// One windowed snapshot: per-counter deltas since the previous roll,
/// in counter registration order.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsWindow {
    /// Window end, seconds of virtual time.
    pub t_secs: f64,
    /// Counter deltas over the window, registration order.
    pub deltas: Vec<u64>,
}

/// The live registry. Register instruments first, then update by handle.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<Hist>,
    counter_families: Vec<CounterFamily>,
    gauge_families: Vec<GaugeFamily>,
    windows: Vec<MetricsWindow>,
    last: Vec<u64>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register a counter. Names follow `<subsystem>.<noun>` (see README).
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.counters.push(Counter { name, value: 0 });
        self.last.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        self.gauges.push(Gauge { name, value: 0.0 });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a fixed-bucket histogram; `bounds` are inclusive upper
    /// bucket bounds, strictly increasing, with an implicit overflow
    /// bucket appended.
    pub fn histogram(&mut self, name: &'static str, bounds: &'static [f64]) -> HistId {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        self.hists.push(Hist {
            name,
            bounds,
            counts: vec![0; bounds.len() + 1],
        });
        HistId(self.hists.len() - 1)
    }

    /// Register a counter family with `labels` dense label cells. Families
    /// do not participate in windowed delta snapshots, so registering one
    /// never changes the established window column order.
    pub fn counter_family(
        &mut self,
        name: &'static str,
        labels: usize,
    ) -> CounterFamilyId {
        self.counter_families.push(CounterFamily {
            name,
            values: vec![0; labels],
        });
        CounterFamilyId(self.counter_families.len() - 1)
    }

    /// Register a gauge family with `labels` dense label cells.
    pub fn gauge_family(&mut self, name: &'static str, labels: usize) -> GaugeFamilyId {
        self.gauge_families.push(GaugeFamily {
            name,
            values: vec![0.0; labels],
        });
        GaugeFamilyId(self.gauge_families.len() - 1)
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Add `by` to label cell `label` of a counter family.
    #[inline]
    pub fn inc_cell(&mut self, id: CounterFamilyId, label: usize, by: u64) {
        self.counter_families[id.0].values[label] += by;
    }

    /// Set label cell `label` of a gauge family to its latest value.
    #[inline]
    pub fn set_gauge_cell(&mut self, id: GaugeFamilyId, label: usize, value: f64) {
        self.gauge_families[id.0].values[label] = value;
    }

    /// Set a counter that mirrors a count kept elsewhere. Counts only
    /// grow, so window deltas stay what incrementing would give.
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        debug_assert!(value >= self.counters[id.0].value, "counters only grow");
        self.counters[id.0].value = value;
    }

    /// Set a gauge to its latest observed value.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: f64) {
        let h = &mut self.hists[id.0];
        let idx = h
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(h.bounds.len());
        h.counts[idx] += 1;
    }

    /// Close a window ending at `t_secs`: snapshot per-counter deltas
    /// since the previous roll.
    pub fn roll(&mut self, t_secs: f64) {
        let deltas = self
            .counters
            .iter()
            .zip(self.last.iter_mut())
            .map(|(c, last)| {
                let d = c.value - *last;
                *last = c.value;
                d
            })
            .collect();
        self.windows.push(MetricsWindow { t_secs, deltas });
    }

    /// Freeze into an owned report for the run's `RunReport`.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: self
                .counters
                .iter()
                .map(|c| (c.name.to_string(), c.value))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| (g.name.to_string(), g.value))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|h| HistReport {
                    name: h.name.to_string(),
                    bounds: h.bounds.to_vec(),
                    counts: h.counts.clone(),
                })
                .collect(),
            counter_families: self
                .counter_families
                .iter()
                .map(|f| (f.name.to_string(), f.values.clone()))
                .collect(),
            gauge_families: self
                .gauge_families
                .iter()
                .map(|f| (f.name.to_string(), f.values.clone()))
                .collect(),
            windows: self.windows.clone(),
        }
    }
}

/// A frozen histogram for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct HistReport {
    /// Instrument name.
    pub name: String,
    /// Inclusive upper bucket bounds.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts (last = overflow).
    pub counts: Vec<u64>,
}

/// Frozen end-of-run metrics, carried on `RunReport` and merged across
/// seeds by the driver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// `(name, total)` per counter, registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, last value)` per gauge, registration order.
    pub gauges: Vec<(String, f64)>,
    /// Frozen histograms, registration order.
    pub hists: Vec<HistReport>,
    /// `(name, per-label totals)` per counter family, registration order.
    /// Empty unless the run registered labelled instruments (multi-tenant
    /// configs), so single-tenant metrics output is unchanged.
    pub counter_families: Vec<(String, Vec<u64>)>,
    /// `(name, per-label last values)` per gauge family.
    pub gauge_families: Vec<(String, Vec<f64>)>,
    /// Windowed counter-delta snapshots, chronological.
    pub windows: Vec<MetricsWindow>,
}

impl MetricsReport {
    /// Merge reports from several replications of the same cell: counters
    /// and histogram bucket counts are summed, gauges averaged in input
    /// order, and windows index-merged (ragged tails tolerated, like the
    /// driver's fig12 window merge). Instrument sets must match — they do
    /// by construction, since every replication registers identically.
    pub fn merge(reports: &[&MetricsReport]) -> MetricsReport {
        let Some(first) = reports.first() else {
            return MetricsReport::default();
        };
        let mut out = (*first).clone();
        for r in &reports[1..] {
            for (dst, src) in out.counters.iter_mut().zip(r.counters.iter()) {
                debug_assert_eq!(dst.0, src.0);
                dst.1 += src.1;
            }
            for (dst, src) in out.gauges.iter_mut().zip(r.gauges.iter()) {
                dst.1 += src.1;
            }
            for (dst, src) in out.hists.iter_mut().zip(r.hists.iter()) {
                for (c, s) in dst.counts.iter_mut().zip(src.counts.iter()) {
                    *c += *s;
                }
            }
            for (dst, src) in out.counter_families.iter_mut().zip(&r.counter_families) {
                debug_assert_eq!(dst.0, src.0);
                for (c, s) in dst.1.iter_mut().zip(src.1.iter()) {
                    *c += *s;
                }
            }
            for (dst, src) in out.gauge_families.iter_mut().zip(&r.gauge_families) {
                for (c, s) in dst.1.iter_mut().zip(src.1.iter()) {
                    *c += *s;
                }
            }
            for (wi, w) in r.windows.iter().enumerate() {
                if wi < out.windows.len() {
                    for (d, s) in out.windows[wi].deltas.iter_mut().zip(w.deltas.iter()) {
                        *d += *s;
                    }
                } else {
                    out.windows.push(w.clone());
                }
            }
        }
        let n = reports.len() as f64;
        for g in &mut out.gauges {
            g.1 /= n;
        }
        for f in &mut out.gauge_families {
            for v in &mut f.1 {
                *v /= n;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_windows_roll_deltas() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("engine.arrivals");
        let s = reg.counter("engine.served");
        reg.inc(a, 3);
        reg.roll(100.0);
        reg.inc(a, 2);
        reg.inc(s, 5);
        reg.roll(200.0);
        let rep = reg.report();
        assert_eq!(
            rep.counters,
            vec![
                ("engine.arrivals".to_string(), 5),
                ("engine.served".to_string(), 5)
            ]
        );
        assert_eq!(rep.windows.len(), 2);
        assert_eq!(rep.windows[0].deltas, vec![3, 0]);
        assert_eq!(rep.windows[1].deltas, vec![2, 5]);
    }

    #[test]
    fn histogram_buckets_including_overflow() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("engine.response_secs", &[1.0, 10.0]);
        for v in [0.5, 1.0, 5.0, 100.0] {
            reg.observe(h, v);
        }
        let rep = reg.report();
        assert_eq!(rep.hists[0].counts, vec![2, 1, 1]);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("engine.mpl");
        reg.set_gauge(g, 4.0);
        reg.set_gauge(g, 7.5);
        assert_eq!(reg.report().gauges, vec![("engine.mpl".to_string(), 7.5)]);
    }

    #[test]
    fn merge_sums_counters_and_averages_gauges() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("x.count");
        let g = a.gauge("x.gauge");
        let h = a.histogram("x.hist", &[1.0]);
        a.inc(c, 2);
        a.set_gauge(g, 1.0);
        a.observe(h, 0.5);
        a.roll(10.0);
        let mut b = a.clone();
        b.inc(c, 3);
        b.set_gauge(g, 3.0);
        b.observe(h, 2.0);
        b.roll(20.0);
        let (ra, rb) = (a.report(), b.report());
        let merged = MetricsReport::merge(&[&ra, &rb]);
        assert_eq!(merged.counters[0].1, 2 + 5);
        assert_eq!(merged.gauges[0].1, 2.0);
        assert_eq!(merged.hists[0].counts, vec![2, 1]);
        assert_eq!(merged.windows.len(), 2);
        assert_eq!(merged.windows[0].deltas, vec![2 + 2]);
        assert_eq!(merged.windows[1].deltas, vec![3]);
    }

    #[test]
    fn a_mirrored_counter_rolls_the_deltas_increments_would() {
        let mut inc = MetricsRegistry::new();
        let mut set = MetricsRegistry::new();
        let (a, b) = (inc.counter("engine.served"), set.counter("engine.served"));
        let mut total = 0;
        for (t, by) in [(100.0, 3), (200.0, 0), (300.0, 4)] {
            inc.inc(a, by);
            total += by;
            set.set_counter(b, total);
            inc.roll(t);
            set.roll(t);
        }
        assert_eq!(inc.report(), set.report());
    }

    #[test]
    fn merge_of_empty_is_default() {
        assert_eq!(MetricsReport::merge(&[]), MetricsReport::default());
    }

    #[test]
    fn families_store_densely_and_merge_per_label() {
        let mut reg = MetricsRegistry::new();
        let served = reg.counter_family("engine.tenant.served", 3);
        let mpl = reg.gauge_family("engine.tenant.mpl", 3);
        reg.inc_cell(served, 0, 2);
        reg.inc_cell(served, 2, 5);
        reg.set_gauge_cell(mpl, 1, 4.0);
        let a = reg.report();
        assert_eq!(
            a.counter_families,
            vec![("engine.tenant.served".to_string(), vec![2, 0, 5])]
        );
        assert_eq!(
            a.gauge_families,
            vec![("engine.tenant.mpl".to_string(), vec![0.0, 4.0, 0.0])]
        );
        let mut reg_b = MetricsRegistry::new();
        let served_b = reg_b.counter_family("engine.tenant.served", 3);
        let mpl_b = reg_b.gauge_family("engine.tenant.mpl", 3);
        reg_b.inc_cell(served_b, 0, 1);
        reg_b.set_gauge_cell(mpl_b, 1, 2.0);
        let b = reg_b.report();
        let merged = MetricsReport::merge(&[&a, &b]);
        assert_eq!(merged.counter_families[0].1, vec![3, 0, 5]);
        assert_eq!(merged.gauge_families[0].1, vec![0.0, 3.0, 0.0]);
    }

    #[test]
    fn families_never_perturb_windowed_deltas() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("engine.arrivals");
        let f = reg.counter_family("engine.tenant.served", 2);
        reg.inc(c, 1);
        reg.inc_cell(f, 1, 9);
        reg.roll(100.0);
        let rep = reg.report();
        assert_eq!(
            rep.windows[0].deltas,
            vec![1],
            "window columns stay plain-counter only"
        );
    }
}
