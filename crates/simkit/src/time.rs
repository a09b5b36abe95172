//! Virtual time for the simulation.
//!
//! Time is a fixed-point count of **microseconds** since simulation start.
//! Fixed point (rather than `f64`) keeps the event calendar total-ordered and
//! makes runs bit-reproducible regardless of summation order.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of microsecond ticks per simulated second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "inactive" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole simulated seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    ///
    /// Negative inputs clamp to zero; the simulation has no notion of time
    /// before its epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_ticks(secs))
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole simulated seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * TICKS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest tick.
    pub fn from_secs_f64(secs: f64) -> Self {
        Duration(secs_to_ticks(secs))
    }

    /// Construct from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration(secs_to_ticks(ms / 1e3))
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Scale the span by a non-negative factor, rounding to the nearest tick.
    pub fn scale(self, factor: f64) -> Duration {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

fn secs_to_ticks(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * TICKS_PER_SEC as f64).round() as u64
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = Duration::from_millis_f64(16.7);
        let t2 = t + d;
        assert_eq!(t2.0, 10_016_700);
        assert_eq!(t2 - t, d);
        // Saturating subtraction: earlier.since(later) == 0.
        assert_eq!(t.since(t2), Duration::ZERO);
    }

    #[test]
    fn duration_scale_rounds() {
        let d = Duration(10);
        assert_eq!(d.scale(0.25), Duration(3)); // 2.5 rounds to 3 (round half up)
        assert_eq!(d.scale(2.0), Duration(20));
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime(5);
        let b = SimTime(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn millis_constructor() {
        assert_eq!(Duration::from_millis_f64(16.7).0, 16_700);
        assert_eq!(Duration::from_millis_f64(0.617).0, 617);
    }
}
