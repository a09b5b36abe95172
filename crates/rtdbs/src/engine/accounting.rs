//! Run accounting: the outcome counts, timings and series a run reports,
//! and the global `SampleSize` feedback window the policy learns from.

use super::{LiveQuery, ObsMetrics};
use crate::config::WorkloadClass;
use crate::metrics::{ClassOutcome, RunReport, Timings, WindowPoint};
use pmm::BatchStats;
use simkit::metrics::{BatchMeans, Tally, TimeWeighted};
use simkit::{Duration, SimTime};
use stats::SampleSummary;

/// What a departure tells a feedback window: whether it missed, its wait,
/// its slack surplus (completed queries only) and its maximum memory,
/// operand I/Os and normalized time constraint.
pub(super) struct Sample {
    pub(super) missed: bool,
    wait: f64,
    slack: Option<f64>,
    chars: [f64; 3],
}

/// One `SampleSize` feedback window: the departures a policy learns from
/// (Section 3). The global batch and each tenant's batch keep one. The
/// window's MPL integral and the shared resources' busy clocks live
/// outside it and are read at [`FeedbackWindow::close`].
#[derive(Default)]
pub(super) struct FeedbackWindow {
    served: u64,
    missed: u64,
    wait: Tally,
    slack: Tally,
    /// Maximum memory, operand I/Os and normalized time constraint.
    chars: [Tally; 3],
    /// The window overlapped a memory shock: close it without feeding the
    /// policy (shock-era samples would poison the learned batches).
    tainted: bool,
}

impl FeedbackWindow {
    /// Add one departure; returns the departures the window now holds.
    pub(super) fn record(&mut self, s: &Sample) -> u64 {
        self.served += 1;
        if s.missed {
            self.missed += 1;
        }
        self.wait.record(s.wait);
        if let Some(slack) = s.slack {
            self.slack.record(slack);
        }
        for (tally, x) in self.chars.iter_mut().zip(s.chars) {
            tally.record(x);
        }
        self.served
    }

    pub(super) fn taint(&mut self) {
        self.tainted = true;
    }

    /// Close the window and restart it empty. A window that overlapped a
    /// memory shock is segmented out — closed but never returned — and the
    /// next window starts tainted while a shock is still active.
    pub(super) fn close(
        &mut self,
        now: SimTime,
        realized_mpl: f64,
        cpu_util: f64,
        disk_util: f64,
        shock_active: bool,
    ) -> Option<BatchStats> {
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
            char_max_mem: summary(&self.chars[0]),
            char_operand_ios: summary(&self.chars[1]),
            char_norm_constraint: summary(&self.chars[2]),
        };
        let tainted = self.tainted;
        *self = FeedbackWindow {
            tainted: shock_active,
            ..FeedbackWindow::default()
        };
        (!tainted).then_some(stats)
    }
}

pub(super) struct RunAccounting {
    served: u64,
    missed: u64,
    /// Per-class counts; the names stay in the config until `report`
    /// moves them in.
    class_outcomes: Vec<ClassOutcome>,
    // Table 7's timings of completed queries, and every departure's
    // allocation changes.
    waiting: Tally,
    execution: Tally,
    response: Tally,
    fluctuations: Tally,
    /// The MPL over the run and over the global feedback window, on one
    /// clock.
    mpl: TimeWeighted,
    miss_series: BatchMeans,
    /// The fig12 miss-ratio series: closed windows, and the open one.
    windows: Vec<WindowPoint>,
    window: Duration,
    window_start: SimTime,
    window_served: u64,
    window_missed: u64,
    /// The global feedback window; its MPL integral is `mpl`'s window.
    feedback: FeedbackWindow,
}

impl RunAccounting {
    pub(super) fn new(classes: usize, window_secs: f64) -> Self {
        RunAccounting {
            served: 0,
            missed: 0,
            class_outcomes: vec![ClassOutcome::default(); classes],
            waiting: Tally::new(),
            execution: Tally::new(),
            response: Tally::new(),
            fluctuations: Tally::new(),
            mpl: TimeWeighted::new(SimTime::ZERO, 0.0),
            miss_series: BatchMeans::new(100),
            windows: Vec::new(),
            window: Duration::from_secs_f64(window_secs),
            window_start: SimTime::ZERO,
            window_served: 0,
            window_missed: 0,
            feedback: FeedbackWindow::default(),
        }
    }

    pub(super) fn set_mpl(&mut self, now: SimTime, holders: u32) {
        self.mpl.set(now, f64::from(holders));
    }

    /// Count `q` leaving at `now` and add it to the global feedback
    /// window; returns what it tells a tenant's window.
    pub(super) fn record(&mut self, now: SimTime, q: &LiveQuery, missed: bool) -> Sample {
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
                self.waiting.record(wait);
                self.execution.record(exec);
                self.response.record(wait + exec);
                // Condition-4 evidence only from completed queries: aborted
                // executions are truncated and would bias the surplus.
                slack = Some(constraint - exec);
            }
        }
        self.fluctuations.record(q.op.fluctuations() as f64);
        let sample = Sample {
            missed,
            wait,
            slack,
            chars: [
                q.op.max_memory() as f64,
                q.operand_ios as f64,
                constraint / q.operand_ios as f64,
            ],
        };
        self.feedback.record(&sample);
        sample
    }

    /// Close every fig12 window that ended by `now`.
    pub(super) fn roll_windows(
        &mut self,
        now: SimTime,
        mut metrics: Option<&mut ObsMetrics>,
    ) {
        while now >= self.window_start + self.window {
            self.window_start += self.window;
            self.close_window(self.window_start, metrics.as_deref_mut());
        }
    }

    /// Close the window ending at `t`. Metrics snapshots roll on exactly
    /// these boundaries, with the outcome counters mirroring the counts
    /// just before, so each snapshot's delta is the departures inside it.
    fn close_window(&mut self, t: SimTime, metrics: Option<&mut ObsMetrics>) {
        let t_secs = t.as_secs_f64();
        self.windows.push(WindowPoint {
            t_secs,
            served: self.window_served,
            missed: self.window_missed,
        });
        if let Some(m) = metrics {
            m.roll_counts(self.served, self.missed);
            m.reg.roll(t_secs);
        }
        self.window_served = 0;
        self.window_missed = 0;
    }

    pub(super) fn batch_full(&self, sample_size: u32) -> bool {
        self.feedback.served >= u64::from(sample_size)
    }

    /// Close the global feedback window (see `FeedbackWindow::close`); its
    /// MPL integral restarts at `now`.
    pub(super) fn close_batch(
        &mut self,
        now: SimTime,
        cpu_util: f64,
        disk_util: f64,
        shock_active: bool,
    ) -> Option<BatchStats> {
        let mpl = self.mpl.window_mean(now);
        self.mpl.reset_window(now);
        self.feedback
            .close(now, mpl, cpu_util, disk_util, shock_active)
    }

    pub(super) fn taint(&mut self) {
        self.feedback.taint();
    }

    /// The run's figures at its end, `now`, after closing the last,
    /// partial window. Everything the accounting does not own is left
    /// empty for the engine to fill; the class names move in from
    /// `classes`.
    pub(super) fn report(
        mut self,
        now: SimTime,
        classes: &mut [WorkloadClass],
        mut metrics: Option<&mut ObsMetrics>,
    ) -> RunReport {
        self.roll_windows(now, metrics.as_deref_mut());
        if self.window_served > 0 {
            self.close_window(now, metrics);
        }
        for (outcome, class) in self.class_outcomes.iter_mut().zip(classes) {
            outcome.name = std::mem::take(&mut class.name);
        }
        RunReport {
            policy: String::new(),
            served: self.served,
            missed: self.missed,
            classes: self.class_outcomes,
            tenants: Vec::new(),
            avg_mpl: self.mpl.mean(now),
            cpu_util: 0.0,
            disk_util: 0.0,
            timings: Timings {
                waiting: self.waiting.mean(),
                execution: self.execution.mean(),
                response: self.response.mean(),
            },
            avg_fluctuations: self.fluctuations.mean(),
            windows: self.windows,
            trace: Vec::new(),
            miss_ci_half_width: self.miss_series.half_width(1.645),
            sim_secs: now.as_secs_f64(),
            events: 0,
            obs_trace: Vec::new(),
            metrics: None,
            profile: None,
        }
    }
}
