//! Statistics collectors for simulation output analysis.
//!
//! * [`Tally`] — running mean / variance over discrete observations
//!   (Welford's algorithm), e.g. per-query response times.
//! * [`TimeWeighted`] — time-integrated average of a piecewise-constant
//!   signal, e.g. multiprogramming level or resource utilization.
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

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
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

/// Time-weighted average of a piecewise-constant signal such as the MPL.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the collector
/// integrates `signal × dt` between updates. It is the one-signal
/// [`TimeWeightedN`].
#[derive(Clone, Debug)]
pub struct TimeWeighted(TimeWeightedN<1>);

impl TimeWeighted {
    /// Start tracking at time `start` with initial signal value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        let mut tw = TimeWeightedN::new(start);
        tw.values = [initial];
        TimeWeighted(tw)
    }

    /// Record that the signal takes value `v` from `now` onward.
    pub fn set(&mut self, now: SimTime, v: f64) {
        self.0.set(now, [v]);
    }

    /// Adjust the signal by `delta` (e.g. +1 on admission, −1 on departure).
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.set(now, self.current() + delta);
    }

    /// Current instantaneous value.
    pub fn current(&self) -> f64 {
        self.0.values[0]
    }

    /// Time-weighted mean over `[origin, now]`.
    pub fn mean(&mut self, now: SimTime) -> f64 {
        self.0.means(now)[0]
    }

    /// Restart the averaging window at `now`, keeping the current value.
    pub fn reset_window(&mut self, now: SimTime) {
        self.0.set(now, self.0.values);
        self.0.integrals = [0.0];
        self.0.origin = now;
    }
}

/// `N` time-weighted signals that always change together, integrated on one
/// clock: each `set` converts `now − last_update` to seconds once and adds
/// `v_i × dt` to every integral — bit-for-bit the sums of `N` separate
/// [`TimeWeighted`]s set at the same instants.
#[derive(Clone, Debug)]
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
}

/// Busy-fraction tracker for a resource that serves one request at a time
/// (the CPU, or one disk).
#[derive(Clone, Debug)]
pub struct Utilization {
    busy: Duration,
    busy_since: Option<SimTime>,
    window_start: SimTime,
}

impl Utilization {
    /// Start tracking at `start`, idle.
    pub fn new(start: SimTime) -> Self {
        Utilization {
            busy: Duration::ZERO,
            busy_since: None,
            window_start: start,
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

    /// Busy fraction over the current window, in `[0, 1]`.
    pub fn fraction(&self, now: SimTime) -> f64 {
        let span = now.since(self.window_start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let mut busy = self.busy;
        if let Some(since) = self.busy_since {
            busy += now.since(since);
        }
        (busy.as_secs_f64() / span).min(1.0)
    }

    /// Restart the measurement window at `now` (busy state carries over).
    pub fn reset_window(&mut self, now: SimTime) {
        self.busy = Duration::ZERO;
        self.window_start = now;
        if self.busy_since.is_some() {
            self.busy_since = Some(now);
        }
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
        let mean = tw.mean(SimTime::from_secs(200));
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
        let f = u.fraction(SimTime::from_secs(20));
        assert!((f - 1.0).abs() < 1e-9);
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
