//! Wall-clock self-profiling of engine subsystems.
//!
//! A [`Profiler`] attributes *real* (not virtual) time to a small fixed set
//! of [`Section`]s. Disabled, `begin` returns `None` and `end` is a single
//! branch — the engine pays nothing unless `--profile` is passed.
//! Attribution is inclusive: `Section::Reallocate` covers everything the
//! allocation pass triggers, including any `Section::DiskStart` work
//! nested inside it, so section totals can overlap.

use std::time::Instant;

/// The profiled engine subsystems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// `Calendar::pop` — extracting the next event.
    CalendarPop = 0,
    /// Event dispatch — everything a popped event triggers (inclusive).
    Dispatch = 1,
    /// `Disk::start` — picking and pricing the next disk request.
    DiskStart = 2,
    /// `reallocate()` — snapshot, policy call, and grant application
    /// (inclusive).
    Reallocate = 3,
}

/// Section names, indexed by `Section as usize`.
pub const SECTION_NAMES: [&str; 4] =
    ["calendar_pop", "dispatch", "disk_start", "reallocate"];

/// Accumulates wall-clock time and call counts per section.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    enabled: bool,
    nanos: [u64; 4],
    counts: [u64; 4],
}

impl Profiler {
    /// A profiler that is free when `enabled` is false.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            ..Profiler::default()
        }
    }

    /// True when timing is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a section. Returns `None` (no clock read) when
    /// disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Stop timing: attribute the elapsed wall time to `section`. Returns
    /// the clock read that ended it, so a section that starts right here
    /// can begin from it without a second read (`None` when disabled).
    #[inline]
    pub fn end(&mut self, section: Section, t0: Option<Instant>) -> Option<Instant> {
        let t0 = t0?;
        let t1 = Instant::now();
        let i = section as usize;
        self.nanos[i] += t1.duration_since(t0).as_nanos() as u64;
        self.counts[i] += 1;
        Some(t1)
    }

    /// Freeze into a report; `None` when profiling was disabled.
    pub fn report(&self) -> Option<ProfileReport> {
        if !self.enabled {
            return None;
        }
        Some(ProfileReport {
            sections: (0..SECTION_NAMES.len())
                .map(|i| SectionStats {
                    name: SECTION_NAMES[i].to_string(),
                    wall_secs: self.nanos[i] as f64 * 1e-9,
                    calls: self.counts[i],
                })
                .collect(),
        })
    }
}

/// Wall-clock totals for one section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SectionStats {
    /// Section name (see [`SECTION_NAMES`]).
    pub name: String,
    /// Total wall-clock seconds attributed (inclusive).
    pub wall_secs: f64,
    /// Number of timed calls.
    pub calls: u64,
}

/// Per-run profile carried on `RunReport`; wall-clock and therefore
/// machine-dependent — never byte-diffed by determinism tests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// One entry per [`Section`], fixed order.
    pub sections: Vec<SectionStats>,
}

impl ProfileReport {
    /// Sum another report into this one (for cross-replication
    /// aggregation in the driver).
    pub fn absorb(&mut self, other: &ProfileReport) {
        if self.sections.is_empty() {
            self.sections = other.sections.clone();
            return;
        }
        for (dst, src) in self.sections.iter_mut().zip(other.sections.iter()) {
            debug_assert_eq!(dst.name, src.name);
            dst.wall_secs += src.wall_secs;
            dst.calls += src.calls;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reports_none_and_skips_clock() {
        let mut p = Profiler::new(false);
        let t0 = p.begin();
        assert!(t0.is_none());
        assert!(p.end(Section::Dispatch, t0).is_none());
        assert!(p.report().is_none());
    }

    #[test]
    fn enabled_profiler_attributes_time_and_counts() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            let t0 = p.begin();
            p.end(Section::CalendarPop, t0);
        }
        let rep = p.report().unwrap();
        assert_eq!(rep.sections.len(), 4);
        assert_eq!(rep.sections[0].name, "calendar_pop");
        assert_eq!(rep.sections[0].calls, 3);
        assert_eq!(rep.sections[1].calls, 0);
    }

    #[test]
    fn end_hands_its_clock_read_to_the_next_section() {
        let mut p = Profiler::new(true);
        let t0 = p.begin();
        let t1 = p.end(Section::CalendarPop, t0);
        assert!(t1 >= t0);
        p.end(Section::Dispatch, t1);
        let rep = p.report().unwrap();
        assert_eq!((rep.sections[0].calls, rep.sections[1].calls), (1, 1));
    }

    #[test]
    fn absorb_sums_sections() {
        let mut p = Profiler::new(true);
        let t0 = p.begin();
        p.end(Section::Reallocate, t0);
        let one = p.report().unwrap();
        let mut total = ProfileReport::default();
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.sections[3].calls, 2);
    }
}
