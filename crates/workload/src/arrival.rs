//! Pluggable arrival processes.
//!
//! The paper's Source draws Poisson inter-arrival times; the [`ArrivalProcess`]
//! trait generalizes that to any point process that can be sampled one gap at
//! a time from a caller-owned [`Rng`]. The engine owns one independent
//! `SeedSequence` substream per workload class and threads it through
//! [`ArrivalProcess::next_interarrival`], so every process is deterministic
//! under the master seed and — crucially — [`Poisson`] consumes randomness
//! exactly like the pre-`workload` engine did (one `Rng::exponential` call
//! per arrival), making the refactor bit-for-bit reproducible.
//!
//! Implementations:
//!
//! * [`Poisson`] — the paper's memoryless arrivals.
//! * [`Mmpp`] — a 2-state Markov-modulated Poisson process for bursty
//!   traffic: the arrival rate jumps between a low and a high value at
//!   exponentially distributed epochs.
//! * [`Trace`] — replay of a recorded gap sequence, optionally cycled.

use simkit::{Duration, Rng};

/// A stochastic (or recorded) arrival point process.
///
/// `next_interarrival` returns the gap to the *next* arrival, or `None` when
/// the process emits no further arrivals (zero-rate class, exhausted trace).
/// All randomness comes from the caller's `rng`, so processes themselves stay
/// cheap to construct and trivially deterministic.
pub trait ArrivalProcess: Send {
    /// Sample the gap to the next arrival.
    fn next_interarrival(&mut self, rng: &mut Rng) -> Option<Duration>;

    /// Long-run mean arrival rate in arrivals/second (0 for a dead process).
    fn mean_rate(&self) -> f64;
}

/// The paper's Poisson process: i.i.d. exponential gaps with rate λ.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// A Poisson process with rate λ arrivals/second.
    pub fn new(rate: f64) -> Self {
        Poisson { rate }
    }
}

impl ArrivalProcess for Poisson {
    fn next_interarrival(&mut self, rng: &mut Rng) -> Option<Duration> {
        // Guard before sampling: a zero-rate (or nonsensical infinite-rate)
        // class must not consume randomness — the zero-rate early return
        // matches the seed engine's, and an infinite rate would emit
        // zero-length gaps forever, freezing the event calendar.
        if self.rate <= 0.0 || !self.rate.is_finite() {
            return None;
        }
        Some(Duration::from_secs_f64(rng.exponential(self.rate)))
    }

    fn mean_rate(&self) -> f64 {
        self.rate.max(0.0)
    }
}

/// 2-state Markov-modulated Poisson process: bursty arrivals.
///
/// The process holds a hidden CTMC state `s ∈ {0, 1}`; while in state `s`
/// arrivals are Poisson with rate `rates[s]`, and the state flips after an
/// exponential sojourn with rate `switch[s]`. Gaps are sampled by competing
/// exponentials (arrival vs. state flip), so one gap may span several state
/// changes. The process starts in state 0 deterministically.
///
/// Long-run mean rate: with stationary probabilities
/// `π₀ = switch[1] / (switch[0] + switch[1])` (and `π₁ = 1 − π₀`), the
/// average arrival rate is `π₀·rates[0] + π₁·rates[1]`.
#[derive(Clone, Copy, Debug)]
pub struct Mmpp {
    rates: [f64; 2],
    switch: [f64; 2],
    state: usize,
}

impl Mmpp {
    /// An MMPP with per-state arrival `rates` and state-exit `switch` rates.
    pub fn new(rates: [f64; 2], switch: [f64; 2]) -> Self {
        Mmpp {
            rates,
            switch,
            state: 0,
        }
    }

    /// The MMPP with the given long-run `mean_rate` whose high state is
    /// `burst_ratio` times as fast as its low state, symmetric switching
    /// with mean sojourn `sojourn_secs` per state. `burst_ratio = 1`
    /// degenerates to Poisson-distributed gaps.
    pub fn bursty(mean_rate: f64, burst_ratio: f64, sojourn_secs: f64) -> Self {
        let ratio = burst_ratio.max(1.0);
        // π₀ = π₁ = ½ ⇒ mean = (λ_low + λ_high)/2 = λ_low (1 + ratio)/2.
        let low = 2.0 * mean_rate / (1.0 + ratio);
        let s = 1.0 / sojourn_secs.max(f64::MIN_POSITIVE);
        Mmpp::new([low, low * ratio], [s, s])
    }
}

impl ArrivalProcess for Mmpp {
    fn next_interarrival(&mut self, rng: &mut Rng) -> Option<Duration> {
        let mut gap = 0.0;
        loop {
            let lambda = self.rates[self.state].max(0.0);
            let sigma = self.switch[self.state].max(0.0);
            let total = lambda + sigma;
            if total <= 0.0 || !total.is_finite() {
                // Absorbing dead state (no arrival and no way out), or an
                // infinite rate that would stall virtual time.
                return None;
            }
            gap += rng.exponential(total);
            // Competing exponentials: the event is an arrival with
            // probability λ / (λ + σ), otherwise a state flip.
            if rng.next_f64() * total < lambda {
                return Some(Duration::from_secs_f64(gap));
            }
            self.state ^= 1;
        }
    }

    fn mean_rate(&self) -> f64 {
        let exit = [self.switch[0].max(0.0), self.switch[1].max(0.0)];
        let denom = exit[0] + exit[1];
        if denom <= 0.0 {
            // No switching: stuck in the start state forever.
            return self.rates[self.state].max(0.0);
        }
        let pi0 = exit[1] / denom;
        pi0 * self.rates[0].max(0.0) + (1.0 - pi0) * self.rates[1].max(0.0)
    }
}

/// Replay of a recorded inter-arrival trace.
///
/// Gaps are simulated seconds. With `repeat`, the trace cycles forever;
/// without it, the process dies after the last recorded gap.
#[derive(Clone, Debug)]
pub struct Trace {
    gaps: Vec<f64>,
    next: usize,
    repeat: bool,
}

impl Trace {
    /// Replay `gaps` (seconds); non-finite or negative entries are dropped.
    /// Zero gaps (simultaneous recorded arrivals) are legal in a finite
    /// trace, but a *repeating* trace must advance time each cycle — an
    /// all-zero repeating trace would freeze the event calendar, so it is
    /// treated as dead (no gaps).
    pub fn from_gaps(gaps: Vec<f64>, repeat: bool) -> Self {
        let mut gaps: Vec<f64> = gaps
            .into_iter()
            .filter(|g| g.is_finite() && *g >= 0.0)
            .collect();
        if repeat && gaps.iter().sum::<f64>() <= 0.0 {
            gaps.clear();
        }
        Trace {
            gaps,
            next: 0,
            repeat,
        }
    }

    /// Load a trace from a whitespace-separated text file of gap values;
    /// lines starting with `#` are comments.
    ///
    /// # Errors
    /// Propagates I/O errors; unparsable tokens are an `InvalidData` error.
    pub fn from_file(path: &std::path::Path, repeat: bool) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut gaps = Vec::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("");
            for tok in line.split_whitespace() {
                let g: f64 = tok.parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad gap value {tok:?} in {}", path.display()),
                    )
                })?;
                gaps.push(g);
            }
        }
        Ok(Trace::from_gaps(gaps, repeat))
    }

    /// Number of (valid) gaps in the trace.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// True when the trace holds no gaps at all.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }
}

impl ArrivalProcess for Trace {
    fn next_interarrival(&mut self, _rng: &mut Rng) -> Option<Duration> {
        if self.gaps.is_empty() {
            return None;
        }
        if self.next >= self.gaps.len() {
            if !self.repeat {
                return None;
            }
            self.next = 0;
        }
        let gap = self.gaps[self.next];
        self.next += 1;
        Some(Duration::from_secs_f64(gap))
    }

    fn mean_rate(&self) -> f64 {
        let sum: f64 = self.gaps.iter().sum();
        if sum <= 0.0 {
            0.0
        } else {
            self.gaps.len() as f64 / sum
        }
    }
}

/// Declarative arrival-process configuration: the `Clone`-able description
/// that lives in a workload class, from which the engine builds one process
/// instance per run.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson with rate λ — the paper's model.
    Poisson {
        /// Arrival rate in queries/second.
        rate: f64,
    },
    /// 2-state MMPP (bursty traffic).
    Mmpp {
        /// Arrival rate while in state 0 / state 1.
        rates: [f64; 2],
        /// Exit rate out of state 0 / state 1 (1 ÷ mean sojourn seconds).
        switch: [f64; 2],
    },
    /// Replay of a recorded gap sequence (seconds).
    Trace {
        /// The gaps to replay.
        gaps: Vec<f64>,
        /// Cycle the trace instead of stopping at its end.
        repeat: bool,
    },
}

impl ArrivalSpec {
    /// Poisson shorthand — the overwhelmingly common case.
    pub fn poisson(rate: f64) -> Self {
        ArrivalSpec::Poisson { rate }
    }

    /// Bursty MMPP shorthand: see [`Mmpp::bursty`].
    pub fn bursty(mean_rate: f64, burst_ratio: f64, sojourn_secs: f64) -> Self {
        let m = Mmpp::bursty(mean_rate, burst_ratio, sojourn_secs);
        ArrivalSpec::Mmpp {
            rates: m.rates,
            switch: m.switch,
        }
    }

    /// Instantiate the process this spec describes.
    pub fn build(&self) -> Box<dyn ArrivalProcess> {
        match self {
            ArrivalSpec::Poisson { rate } => Box::new(Poisson::new(*rate)),
            ArrivalSpec::Mmpp { rates, switch } => Box::new(Mmpp::new(*rates, *switch)),
            ArrivalSpec::Trace { gaps, repeat } => {
                Box::new(Trace::from_gaps(gaps.clone(), *repeat))
            }
        }
    }

    /// Long-run mean arrival rate of the described process (closed form —
    /// no process is instantiated).
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalSpec::Poisson { rate } => Poisson::new(*rate).mean_rate(),
            ArrivalSpec::Mmpp { rates, switch } => Mmpp::new(*rates, *switch).mean_rate(),
            ArrivalSpec::Trace { gaps, .. } => {
                let (count, sum) = gaps
                    .iter()
                    .filter(|g| g.is_finite() && **g >= 0.0)
                    .fold((0u64, 0.0), |(c, s), g| (c + 1, s + g));
                if sum <= 0.0 {
                    0.0
                } else {
                    count as f64 / sum
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SeedSequence;

    #[test]
    fn poisson_consumes_rng_exactly_like_the_seed_engine() {
        // The pre-`workload` engine sampled `rng.exponential(rate)` per
        // arrival from `substream("arrival", class)`. The Poisson process
        // must be bit-for-bit identical on the same stream.
        let seeds = SeedSequence::new(1994);
        let mut direct = seeds.substream("arrival", 0);
        let mut through = seeds.substream("arrival", 0);
        let mut p = Poisson::new(0.06);
        for _ in 0..10_000 {
            let want = Duration::from_secs_f64(direct.exponential(0.06));
            let got = p.next_interarrival(&mut through).expect("live process");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_rate_poisson_emits_nothing_and_consumes_nothing() {
        let mut rng = Rng::new(7);
        let before = rng.clone().next_u64();
        assert!(Poisson::new(0.0).next_interarrival(&mut rng).is_none());
        assert!(Poisson::new(-1.0).next_interarrival(&mut rng).is_none());
        assert_eq!(rng.next_u64(), before, "no randomness consumed");
    }

    #[test]
    fn mmpp_mean_rate_closed_form() {
        let m = Mmpp::new([0.02, 0.20], [1.0 / 300.0, 1.0 / 100.0]);
        // π₀ = (1/100) / (1/300 + 1/100) = 0.75.
        let want = 0.75 * 0.02 + 0.25 * 0.20;
        assert!((m.mean_rate() - want).abs() < 1e-12);
        // Symmetric switching: mean of the two rates.
        let s = Mmpp::bursty(0.06, 4.0, 600.0);
        assert!((s.mean_rate() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn mmpp_without_switching_is_stuck_in_state_zero() {
        let m = Mmpp::new([0.05, 5.0], [0.0, 0.0]);
        assert!((m.mean_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mmpp_dead_state_terminates() {
        let mut m = Mmpp::new([0.0, 0.0], [0.0, 0.0]);
        assert!(m.next_interarrival(&mut Rng::new(1)).is_none());
    }

    #[test]
    fn deterministic_gaps_are_constant() {
        // Periodic arrivals are a one-gap trace, cycled.
        let mut d = Trace::from_gaps(vec![4.0], true);
        let mut rng = Rng::new(3);
        for _ in 0..5 {
            assert_eq!(d.next_interarrival(&mut rng), Some(Duration::from_secs(4)));
        }
        assert_eq!(d.mean_rate(), 0.25);
    }

    #[test]
    fn trace_replays_then_stops_or_cycles() {
        let mut rng = Rng::new(1);
        let mut once = Trace::from_gaps(vec![1.0, 2.0], false);
        assert_eq!(
            once.next_interarrival(&mut rng),
            Some(Duration::from_secs(1))
        );
        assert_eq!(
            once.next_interarrival(&mut rng),
            Some(Duration::from_secs(2))
        );
        assert!(once.next_interarrival(&mut rng).is_none());

        let mut cyc = Trace::from_gaps(vec![1.0, 2.0], true);
        for _ in 0..3 {
            assert_eq!(
                cyc.next_interarrival(&mut rng),
                Some(Duration::from_secs(1))
            );
            assert_eq!(
                cyc.next_interarrival(&mut rng),
                Some(Duration::from_secs(2))
            );
        }
        // Mean rate = 2 gaps / 3 seconds.
        assert!((cyc.mean_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_drops_invalid_gaps() {
        let t = Trace::from_gaps(vec![1.0, f64::NAN, -3.0, 2.0], false);
        assert_eq!(t.len(), 2);
        assert!(Trace::from_gaps(vec![], true).is_empty());
    }

    #[test]
    fn degenerate_processes_cannot_freeze_virtual_time() {
        let mut rng = Rng::new(9);
        // All-zero repeating trace would emit 0-gaps forever: dead instead.
        let mut t = Trace::from_gaps(vec![0.0, 0.0], true);
        assert!(t.next_interarrival(&mut rng).is_none());
        // A finite trace may contain zero gaps (simultaneous arrivals).
        let mut f = Trace::from_gaps(vec![0.0, 1.0], false);
        assert_eq!(f.next_interarrival(&mut rng), Some(Duration::ZERO));
        // Infinite rates would also pin arrivals to one instant.
        assert!(Poisson::new(f64::INFINITY)
            .next_interarrival(&mut rng)
            .is_none());
        assert!(Mmpp::new([f64::INFINITY, 1.0], [1.0, 1.0])
            .next_interarrival(&mut rng)
            .is_none());
    }

    #[test]
    fn trace_from_file_parses_and_rejects() {
        let dir = std::env::temp_dir();
        let path = dir.join("workload_trace_test.txt");
        std::fs::write(&path, "# recorded gaps\n0.5 1.5\n2.5 # tail comment\n")
            .expect("write temp trace");
        let t = Trace::from_file(&path, false).expect("parse");
        assert_eq!(t.len(), 3);
        std::fs::write(&path, "0.5 bogus\n").expect("write temp trace");
        assert!(Trace::from_file(&path, false).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spec_builds_matching_processes() {
        let mut rng_a = Rng::new(11);
        let mut rng_b = Rng::new(11);
        let mut from_spec = ArrivalSpec::poisson(0.1).build();
        let mut direct = Poisson::new(0.1);
        for _ in 0..100 {
            assert_eq!(
                from_spec.next_interarrival(&mut rng_a),
                direct.next_interarrival(&mut rng_b)
            );
        }
        assert!((ArrivalSpec::bursty(0.06, 9.0, 600.0).mean_rate() - 0.06).abs() < 1e-12);
        assert_eq!(ArrivalSpec::poisson(0.05).mean_rate(), 0.05);
    }

    #[test]
    fn spec_mean_rate_matches_built_process() {
        // The closed-form spec rate must agree with the instantiated
        // process, including the trace filter for invalid gaps.
        for spec in [
            ArrivalSpec::poisson(0.07),
            ArrivalSpec::bursty(0.05, 12.0, 300.0),
            ArrivalSpec::Trace {
                gaps: vec![1.0, f64::NAN, 2.0, -1.0],
                repeat: true,
            },
        ] {
            assert_eq!(spec.mean_rate(), spec.build().mean_rate(), "{spec:?}");
        }
    }
}
