//! Statistics collectors for simulation output analysis.
//!
//! * [`Tally`] — running mean / variance over discrete observations
//!   (Welford's algorithm), e.g. per-query response times.
//! * [`TimeWeighted`] — time-integrated average of a piecewise-constant
//!   signal, e.g. multiprogramming level, over the run and over a
//!   restartable window.
//!   [`TimeWeightedN`] integrates `N` signals that change together on one
//!   clock.
//! * [`TimeWeightedRows`] — many [`TimeWeightedN`]s that are all set at the
//!   same instants, stored column by column on one shared clock, so moving
//!   them all forward is one dense loop (the engine's per-tenant usage).
//! * [`Utilization`] — busy-time tracker for a serially used resource.
//! * [`BatchMeans`] — the batch-means confidence-interval method the paper
//!   cites \[Sarg76\] for its 90% miss-ratio intervals.

use crate::time::{Duration, SimTime};

/// Running mean and variance of discrete observations (Welford).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Merge another tally into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
    }

    /// Reset to empty.
    pub fn reset(&mut self) {
        *self = Tally::default();
    }
}

/// Time-weighted average of a piecewise-constant signal such as the MPL,
/// read over the whole run and over a restartable window (the engine's
/// feedback batch) from one clock, the way [`Utilization`] serves both of
/// its fractions.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; each `set`
/// converts `now − last_update` to seconds once and adds `signal × dt` to
/// both integrals. [`reset_window`](Self::reset_window) folds the open
/// interval in and zeroes only the window. The readings are bit for bit
/// those of a run collector and a window collector kept apart, provided
/// every window reset is followed by a `set` at the same instant (the
/// engine's batch close is: it reallocates, which sets the MPL).
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    value: f64,
    last_update: SimTime,
    start: SimTime,
    integral: f64,
    window_start: SimTime,
    window_integral: f64,
}

impl TimeWeighted {
    /// Start tracking at time `start` with initial signal value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_update: start,
            start,
            integral: 0.0,
            window_start: start,
            window_integral: 0.0,
        }
    }

    /// Record that the signal takes value `v` from `now` onward.
    pub fn set(&mut self, now: SimTime, v: f64) {
        let area = self.value * now.since(self.last_update).as_secs_f64();
        self.integral += area;
        self.window_integral += area;
        self.value = v;
        self.last_update = now;
    }

    /// Adjust the signal by `delta` (e.g. +1 on admission, −1 on departure).
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.set(now, self.value + delta);
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Mean of `integral` (up to the last `set`) plus the open interval,
    /// over `[from, now]`; the current value for an empty span.
    fn mean_since(&self, from: SimTime, integral: f64, now: SimTime) -> f64 {
        let span = now.since(from).as_secs_f64();
        if span <= 0.0 {
            return self.value;
        }
        (integral + self.value * now.since(self.last_update).as_secs_f64()) / span
    }

    /// Time-weighted mean over the run, `[start, now]`.
    pub fn mean(&self, now: SimTime) -> f64 {
        self.mean_since(self.start, self.integral, now)
    }

    /// Time-weighted mean over the current window, `[window_start, now]`.
    pub fn window_mean(&self, now: SimTime) -> f64 {
        self.mean_since(self.window_start, self.window_integral, now)
    }

    /// Restart the window at `now`, keeping the current value and the run
    /// integral.
    pub fn reset_window(&mut self, now: SimTime) {
        self.set(now, self.value);
        self.window_integral = 0.0;
        self.window_start = now;
    }
}

/// `N` time-weighted signals that always change together, integrated on one
/// clock: each `set` converts `now − last_update` to seconds once and adds
/// `v_i × dt` to every integral — bit-for-bit the sums of `N` separate
/// [`TimeWeighted`]s set at the same instants.
#[derive(Clone, Copy, Debug)]
pub struct TimeWeightedN<const N: usize> {
    values: [f64; N],
    integrals: [f64; N],
    last_update: SimTime,
    origin: SimTime,
}

impl<const N: usize> TimeWeightedN<N> {
    /// Start tracking at time `start` with every signal at 0.
    pub fn new(start: SimTime) -> Self {
        TimeWeightedN {
            values: [0.0; N],
            integrals: [0.0; N],
            last_update: start,
            origin: start,
        }
    }

    /// Record that the signals take `values` from `now` onward.
    pub fn set(&mut self, now: SimTime, values: [f64; N]) {
        let dt = now.since(self.last_update).as_secs_f64();
        for (acc, v) in self.integrals.iter_mut().zip(self.values) {
            *acc += v * dt;
        }
        self.values = values;
        self.last_update = now;
    }

    /// Current instantaneous values.
    pub fn current(&self) -> [f64; N] {
        self.values
    }

    /// The integrals `∫ v_i dt` since the window origin, up to the last
    /// `set`.
    pub fn integrals(&self) -> [f64; N] {
        self.integrals
    }

    /// Time-weighted means over `[origin, now]`.
    pub fn means(&mut self, now: SimTime) -> [f64; N] {
        self.set(now, self.values);
        let span = now.since(self.origin).as_secs_f64();
        if span <= 0.0 {
            self.values
        } else {
            self.integrals.map(|i| i / span)
        }
    }

    /// Restart the averaging window at `now`, keeping the current values.
    pub fn reset_window(&mut self, now: SimTime) {
        self.set(now, self.values);
        self.integrals = [0.0; N];
        self.origin = now;
    }

    /// Close the window at `now` — its means, as [`means`](Self::means) —
    /// and start the next one there ([`reset_window`](Self::reset_window)).
    pub fn close_window(&mut self, now: SimTime) -> [f64; N] {
        let means = self.means(now);
        self.reset_window(now);
        means
    }
}

/// Rows of [`TimeWeightedN`] collectors that are all set at the same
/// instants, kept on one shared clock and stored column by column.
///
/// [`advance`](Self::advance) converts `now − clock` to seconds once and
/// adds `v × dt` to every row's integrals in one dense loop per column.
/// Each row gains bit-for-bit what its own [`TimeWeightedN::set`] would
/// add: a collector set at every instant the others are set has the same
/// `last_update`, hence the same `dt`. Rows join ([`insert`](Self::insert))
/// and leave ([`remove`](Self::remove), a swap-remove) as standalone
/// collectors, and [`set`](Self::set) replaces a row's values between
/// advances.
///
/// A row may close its averaging window between two advances
/// ([`close_window`](Self::close_window)). It then sits on a clock of its
/// own, the restart instant, until the next `advance` integrates it from
/// there instead of from the shared clock.
#[derive(Clone, Debug)]
pub struct TimeWeightedRows<const N: usize> {
    /// `values[i][row]`: signal `i` of `row`.
    values: [Vec<f64>; N],
    integrals: [Vec<f64>; N],
    origins: Vec<SimTime>,
    clock: SimTime,
    /// Rows whose window restarted after `clock`, with the restart
    /// instant. Their integrals stay zero until the next advance.
    restarted: Vec<(usize, SimTime)>,
}

impl<const N: usize> TimeWeightedRows<N> {
    /// No rows, with the shared clock at `start`.
    pub fn new(start: SimTime) -> Self {
        TimeWeightedRows {
            values: [(); N].map(|_| Vec::new()),
            integrals: [(); N].map(|_| Vec::new()),
            origins: Vec::new(),
            clock: start,
            restarted: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Integrate every row's current values up to `now`: the shared
    /// `dt` for rows on the shared clock, `now − restart` for restarted
    /// rows, which then rejoin the shared clock.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.clock).as_secs_f64();
        for (vals, ints) in self.values.iter().zip(&mut self.integrals) {
            for (acc, &v) in ints.iter_mut().zip(vals) {
                *acc += v * dt;
            }
        }
        // A restarted row's window opened at its restart with zero
        // integrals: redo it from there.
        for (row, since) in self.restarted.drain(..) {
            let dt = now.since(since).as_secs_f64();
            for (vals, ints) in self.values.iter().zip(&mut self.integrals) {
                ints[row] = 0.0;
                ints[row] += vals[row] * dt;
            }
        }
        self.clock = now;
    }

    /// Add `tw` as a new row taking `values` at the shared clock (`tw` is
    /// `set` there first, exactly as if it had been set with the other
    /// rows). Returns its row index, which is the old [`len`](Self::len).
    pub fn insert(&mut self, mut tw: TimeWeightedN<N>, values: [f64; N]) -> usize {
        debug_assert!(tw.last_update <= self.clock, "row joins from the future");
        tw.set(self.clock, values);
        for i in 0..N {
            self.values[i].push(tw.values[i]);
            self.integrals[i].push(tw.integrals[i]);
        }
        self.origins.push(tw.origin);
        self.origins.len() - 1
    }

    /// Take `row` out as a standalone collector on its own clock. The last
    /// row moves into its place.
    pub fn remove(&mut self, row: usize) -> TimeWeightedN<N> {
        let tw = self.get(row);
        for i in 0..N {
            self.values[i].swap_remove(row);
            self.integrals[i].swap_remove(row);
        }
        self.origins.swap_remove(row);
        let moved = self.origins.len();
        self.restarted.retain(|&(r, _)| r != row);
        for (r, _) in &mut self.restarted {
            if *r == moved {
                *r = row;
            }
        }
        tw
    }

    /// A copy of `row` as a standalone collector on its own clock.
    pub fn get(&self, row: usize) -> TimeWeightedN<N> {
        TimeWeightedN {
            values: std::array::from_fn(|i| self.values[i][row]),
            integrals: std::array::from_fn(|i| self.integrals[i][row]),
            last_update: self.row_clock(row),
            origin: self.origins[row],
        }
    }

    /// `row` takes `values` from its clock onward: the shared clock, or
    /// its window restart if that came later.
    pub fn set(&mut self, row: usize, values: [f64; N]) {
        for (col, v) in self.values.iter_mut().zip(values) {
            col[row] = v;
        }
    }

    /// `row`'s current values.
    pub fn current(&self, row: usize) -> [f64; N] {
        std::array::from_fn(|i| self.values[i][row])
    }

    /// Close `row`'s window at `now` (no earlier than its clock) and start
    /// the next one there: [`TimeWeightedN::close_window`] on the row.
    pub fn close_window(&mut self, row: usize, now: SimTime) -> [f64; N] {
        let mut tw = self.get(row);
        let means = tw.close_window(now);
        for i in 0..N {
            self.integrals[i][row] = tw.integrals[i];
        }
        self.origins[row] = tw.origin;
        match self.restarted.iter_mut().find(|(r, _)| *r == row) {
            Some((_, since)) => *since = now,
            None => self.restarted.push((row, now)),
        }
        means
    }

    fn row_clock(&self, row: usize) -> SimTime {
        self.restarted
            .iter()
            .find(|&&(r, _)| r == row)
            .map_or(self.clock, |&(_, since)| since)
    }
}

/// Busy-fraction tracker for a resource that serves one request at a time
/// (the CPU, or one disk), over the whole run and over a window restarted
/// by [`Utilization::reset_window`] (the engine's feedback batch).
///
/// One busy clock serves both readings: the window's busy time is the
/// total at `now` minus the total at the window start. Both are integer
/// ticks, so each fraction is bit-identical to a separate collector's.
#[derive(Clone, Debug)]
pub struct Utilization {
    /// Busy time of the intervals closed so far.
    busy: Duration,
    busy_since: Option<SimTime>,
    start: SimTime,
    window_start: SimTime,
    /// Total busy time at `window_start`, the open interval included.
    window_busy: Duration,
}

impl Utilization {
    /// Start tracking at `start`, idle.
    pub fn new(start: SimTime) -> Self {
        Utilization {
            busy: Duration::ZERO,
            busy_since: None,
            start,
            window_start: start,
            window_busy: Duration::ZERO,
        }
    }

    /// Mark the resource busy from `now`. No-op if already busy.
    pub fn begin_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Mark the resource idle from `now`. No-op if already idle.
    pub fn end_busy(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy += now.since(since);
        }
    }

    /// Total busy time at `now`, the open interval included.
    fn busy_at(&self, now: SimTime) -> Duration {
        match self.busy_since {
            Some(since) => self.busy + now.since(since),
            None => self.busy,
        }
    }

    fn fraction_since(&self, from: SimTime, busy: Duration, now: SimTime) -> f64 {
        let span = now.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (busy.as_secs_f64() / span).min(1.0)
    }

    /// Busy fraction over the run so far, in `[0, 1]`.
    pub fn fraction(&self, now: SimTime) -> f64 {
        self.fraction_since(self.start, self.busy_at(now), now)
    }

    /// Busy fraction over the current window, in `[0, 1]`.
    pub fn window_fraction(&self, now: SimTime) -> f64 {
        let busy = self.busy_at(now) - self.window_busy;
        self.fraction_since(self.window_start, busy, now)
    }

    /// Restart the measurement window at `now` (busy state carries over).
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_busy = self.busy_at(now);
    }
}

/// Batch-means confidence intervals \[Sarg76\].
///
/// Observations are grouped into fixed-size batches; batch averages are
/// approximately independent, so a t-style interval over batch means is a
/// valid interval for the steady-state mean.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_n: u64,
    batch_means: Vec<f64>,
}

impl BatchMeans {
    /// Collector with the given batch size (observations per batch).
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_n: 0,
            batch_means: Vec::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.current_sum += x;
        self.current_n += 1;
        if self.current_n == self.batch_size {
            self.batch_means
                .push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_n = 0;
        }
    }

    /// Number of completed batches.
    pub fn batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Grand mean over completed batches (0.0 if none).
    pub fn mean(&self) -> f64 {
        if self.batch_means.is_empty() {
            return 0.0;
        }
        self.batch_means.iter().sum::<f64>() / self.batch_means.len() as f64
    }

    /// Half-width of an approximate confidence interval at `z` standard
    /// normal quantiles (e.g. `z = 1.645` for 90%). Returns `None` with
    /// fewer than two completed batches.
    pub fn half_width(&self, z: f64) -> Option<f64> {
        let k = self.batch_means.len();
        if k < 2 {
            return None;
        }
        let mean = self.mean();
        let var = self
            .batch_means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (k - 1) as f64;
        Some(z * (var / k as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 4 * 8/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.count(), 8);
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
    }

    #[test]
    fn tally_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..20] {
            a.record(x);
        }
        for &x in &xs[20..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mpl() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(10), 1.0); // MPL 0 for 10 s
        tw.add(SimTime::from_secs(20), 1.0); // MPL 1 for 10 s
        tw.add(SimTime::from_secs(30), -2.0); // MPL 2 for 10 s
                                              // signal: 0,1,2 over equal spans then 0
        let mean = tw.mean(SimTime::from_secs(30));
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_window_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 4.0);
        tw.reset_window(SimTime::from_secs(100));
        let mean = tw.window_mean(SimTime::from_secs(200));
        assert!((mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_n_matches_separate_signals_bit_for_bit() {
        let start = SimTime(1_234);
        let mut one = TimeWeightedN::<3>::new(start);
        let mut sep = [0; 3].map(|_| TimeWeighted::new(start, 0.0));
        let mut x = 0x9E37_79B9u64;
        for step in 1..=500u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(step);
            let now = SimTime(1_234 + step * 7_919 + x % 3_001);
            let v = [
                (x % 17) as f64,
                (x % 1_000) as f64 * 0.37,
                (x % 5) as f64 - 2.0,
            ];
            one.set(now, v);
            for (tw, v) in sep.iter_mut().zip(v) {
                tw.set(now, v);
            }
            assert_eq!(one.current(), sep.each_ref().map(TimeWeighted::current));
        }
        let end = SimTime(10_000_000);
        let means = sep.each_mut().map(|tw| tw.mean(end).to_bits());
        assert_eq!(one.means(end).map(f64::to_bits), means);
    }

    /// Bit-for-bit equality of two collectors, clocks included.
    fn assert_same<const N: usize>(a: &TimeWeightedN<N>, b: &TimeWeightedN<N>) {
        assert_eq!(a.values.map(f64::to_bits), b.values.map(f64::to_bits));
        assert_eq!(a.integrals.map(f64::to_bits), b.integrals.map(f64::to_bits));
        assert_eq!((a.last_update, a.origin), (b.last_update, b.origin));
    }

    #[test]
    fn rows_relist_a_collector_whose_clock_is_behind_the_shared_clock() {
        let s = SimTime::from_secs;
        let mut rows = TimeWeightedRows::<2>::new(SimTime::ZERO);
        let mut a = TimeWeightedN::<2>::new(SimTime::ZERO);
        let ra = rows.insert(a, [1.0, 0.25]);
        a.set(SimTime::ZERO, [1.0, 0.25]);
        // `b` was last set at 7 s, back to zero, and left alone since.
        let mut b = TimeWeightedN::<2>::new(SimTime::ZERO);
        b.set(s(3), [4.0, 2.0]);
        b.set(s(7), [0.0, 0.0]);
        let parked = b;
        for (k, t) in [11, 19, 23].map(s).into_iter().enumerate() {
            rows.advance(t);
            let v = [k as f64 + 0.5, 3.0];
            rows.set(ra, v);
            a.set(t, v);
        }
        // Re-listed at the shared clock (23 s): its own set there adds
        // `0 × (23 − 7)`, exactly what joining adds.
        let rb = rows.insert(parked, [2.0, 9.0]);
        b.set(s(23), [2.0, 9.0]);
        assert_same(&rows.get(rb), &b);
        for t in [29, 31].map(s) {
            rows.advance(t);
            a.set(t, a.current());
            b.set(t, b.current());
        }
        assert_same(&rows.get(ra), &a);
        assert_same(&rows.get(rb), &b);
        let end = s(40);
        let means = rows.get(rb).means(end).map(f64::to_bits);
        assert_eq!(means, b.means(end).map(f64::to_bits));
    }

    #[test]
    fn rows_window_reset_between_two_advances() {
        let s = SimTime::from_secs;
        let mut rows = TimeWeightedRows::<1>::new(SimTime::ZERO);
        let mut x = TimeWeightedN::<1>::new(SimTime::ZERO);
        let mut yref = x;
        let rx = rows.insert(x, [3.0]);
        x.set(SimTime::ZERO, [3.0]);
        let ry = rows.insert(yref, [5.0]);
        yref.set(SimTime::ZERO, [5.0]);
        rows.advance(s(10));
        x.set(s(10), x.current());
        yref.set(s(10), yref.current());
        // Two closes between advances: the second integrates from the
        // first, and the next advance integrates from the second.
        for r in [SimTime(13_000_001), SimTime(17_333_337)] {
            let got = rows.close_window(rx, r).map(f64::to_bits);
            assert_eq!(got, x.close_window(r).map(f64::to_bits));
            assert_same(&rows.get(rx), &x);
        }
        rows.set(rx, [7.0]);
        x.set(SimTime(17_333_337), [7.0]);
        rows.advance(s(20));
        x.set(s(20), x.current());
        yref.set(s(20), yref.current());
        assert_same(&rows.get(rx), &x);
        assert_same(&rows.get(ry), &yref);
        // Back on the shared clock afterwards.
        rows.advance(s(26));
        x.set(s(26), x.current());
        assert_same(&rows.get(rx), &x);
        let end = s(30);
        let means = rows.get(rx).means(end).map(f64::to_bits);
        assert_eq!(means, x.means(end).map(f64::to_bits));
    }

    #[test]
    fn rows_swap_remove_last_and_middle_row() {
        let s = SimTime::from_secs;
        let mut rows = TimeWeightedRows::<2>::new(SimTime::ZERO);
        let mut refs: Vec<TimeWeightedN<2>> = Vec::new();
        for k in 0..4 {
            let v = [k as f64 + 1.0, 0.1 * k as f64];
            let mut tw = TimeWeightedN::new(SimTime::ZERO);
            assert_eq!(rows.insert(tw, v), k);
            tw.set(SimTime::ZERO, v);
            refs.push(tw);
        }
        rows.advance(s(5));
        refs.iter_mut().for_each(|tw| tw.set(s(5), tw.current()));
        // The last row leaves: nothing moves.
        assert_same(&rows.remove(3), &refs[3]);
        assert_eq!(rows.len(), 3);
        for (row, tw) in refs[..3].iter().enumerate() {
            assert_same(&rows.get(row), tw);
        }
        // Row 2 restarts its window, then middle row 1 leaves: row 2 moves
        // into slot 1 and keeps its restart clock.
        let r = s(7);
        rows.close_window(2, r);
        refs[2].close_window(r);
        assert_same(&rows.remove(1), &refs[1]);
        assert_eq!(rows.len(), 2);
        assert_same(&rows.get(1), &refs[2]);
        rows.advance(s(9));
        for k in [0, 2] {
            let v = refs[k].current();
            refs[k].set(s(9), v);
        }
        assert_same(&rows.get(0), &refs[0]);
        assert_same(&rows.get(1), &refs[2]);
        // Removing a restarted row hands back its own clock.
        rows.close_window(0, s(10));
        refs[0].close_window(s(10));
        assert_same(&rows.remove(0), &refs[0]);
        assert_same(&rows.get(0), &refs[2]);
    }

    #[test]
    fn utilization_half_busy() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.begin_busy(SimTime::ZERO);
        u.end_busy(SimTime::from_secs(5));
        let f = u.fraction(SimTime::from_secs(10));
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_open_interval_counts() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.begin_busy(SimTime::from_secs(2));
        // still busy at query time
        let f = u.fraction(SimTime::from_secs(4));
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_reset_keeps_busy_state() {
        let mut u = Utilization::new(SimTime::ZERO);
        u.begin_busy(SimTime::ZERO);
        u.reset_window(SimTime::from_secs(10));
        u.end_busy(SimTime::from_secs(15));
        let f = u.window_fraction(SimTime::from_secs(20));
        assert!((f - 0.5).abs() < 1e-9);
        // The run reading ignores the window.
        let f = u.fraction(SimTime::from_secs(20));
        assert!((f - 0.75).abs() < 1e-9);
    }

    #[test]
    fn batch_means_interval_shrinks() {
        let mut bm = BatchMeans::new(10);
        // Deterministic alternating signal with mean 0.5.
        for i in 0..1000 {
            bm.record(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert_eq!(bm.batches(), 100);
        assert!((bm.mean() - 0.5).abs() < 1e-9);
        let hw = bm.half_width(1.645).unwrap();
        assert!(hw < 0.01, "half width {hw}");
    }

    #[test]
    fn batch_means_needs_two_batches() {
        let mut bm = BatchMeans::new(100);
        for _ in 0..150 {
            bm.record(1.0);
        }
        assert_eq!(bm.batches(), 1);
        assert!(bm.half_width(1.645).is_none());
    }
}
