//! Types shared between the memory policies and the simulator.

use simkit::SimTime;
use stats::SampleSummary;

/// Identifies one query for the lifetime of a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// What a policy needs to know about one live query.
#[derive(Clone, Copy, Debug)]
pub struct QueryDemand {
    /// The query.
    pub id: QueryId,
    /// Its deadline — the ED priority (earlier = more urgent).
    pub deadline: SimTime,
    /// Maximum useful memory in pages (one-pass execution).
    pub max_mem: u32,
    /// Minimum memory in pages required to execute at all.
    pub min_mem: u32,
    /// The memory partition the query bills against (0 when the workload is
    /// single-tenant; ignored by the non-partitioned policies).
    pub tenant: u32,
}

/// Snapshot of the memory situation handed to a policy when allocations
/// must be (re)computed.
#[derive(Clone, Debug)]
pub struct SystemSnapshot {
    /// Current virtual time.
    pub now: SimTime,
    /// Total buffer pool size `M` in pages.
    pub total_memory: u32,
    /// Every live query — admitted and waiting alike. Order is arbitrary;
    /// policies sort by deadline themselves.
    pub queries: Vec<QueryDemand>,
}

pub use obs::StrategyMode;

/// Feedback handed to adaptive policies after every `SampleSize` query
/// completions (Section 3: PMM re-evaluates its decisions at this
/// frequency).
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Virtual time of the batch boundary.
    pub now: SimTime,
    /// Queries served in this batch (completions + firm-deadline misses).
    pub served: u64,
    /// How many of them missed their deadline.
    pub missed: u64,
    /// Time-weighted average MPL realized during the batch.
    pub realized_mpl: f64,
    /// CPU utilization during the batch.
    pub cpu_util: f64,
    /// Mean disk utilization during the batch.
    pub disk_util: f64,
    /// Admission waiting times (seconds) of the batch's queries.
    pub wait_time: SampleSummary,
    /// `time_constraint − execution_time` (seconds) per query; a positive
    /// mean means MinMax's longer executions are likely feasible
    /// (condition 4 of Section 3.2).
    pub slack_surplus: SampleSummary,
    /// Workload characteristic 1: maximum memory demand (pages).
    pub char_max_mem: SampleSummary,
    /// Workload characteristic 2: I/Os to read operand relations.
    pub char_operand_ios: SampleSummary,
    /// Workload characteristic 3: normalized time constraint
    /// (constraint ÷ operand I/Os).
    pub char_norm_constraint: SampleSummary,
}

impl BatchStats {
    /// Miss ratio of the batch in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.missed as f64 / self.served as f64
        }
    }

    /// Utilization of the most heavily loaded resource (Section 3.1.2).
    pub fn bottleneck_util(&self) -> f64 {
        self.cpu_util.max(self.disk_util)
    }
}

/// One point of a policy's decision trace (Figures 6 and 15).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// When the decision was taken.
    pub at: SimTime,
    /// Mode in force after the decision.
    pub mode: StrategyMode,
    /// Target MPL after the decision (`None` in Max mode, which does not
    /// limit the MPL).
    pub target_mpl: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(served: u64, missed: u64) -> BatchStats {
        BatchStats {
            now: SimTime::ZERO,
            served,
            missed,
            realized_mpl: 1.0,
            cpu_util: 0.2,
            disk_util: 0.5,
            wait_time: SampleSummary::default(),
            slack_surplus: SampleSummary::default(),
            char_max_mem: SampleSummary::default(),
            char_operand_ios: SampleSummary::default(),
            char_norm_constraint: SampleSummary::default(),
        }
    }

    #[test]
    fn miss_ratio_basic() {
        assert_eq!(batch(30, 6).miss_ratio(), 0.2);
        assert_eq!(batch(0, 0).miss_ratio(), 0.0);
    }

    #[test]
    fn bottleneck_is_max_resource() {
        let b = batch(30, 0);
        assert_eq!(b.bottleneck_util(), 0.5);
    }

    #[test]
    fn mode_display() {
        assert_eq!(StrategyMode::Max.to_string(), "Max");
        assert_eq!(StrategyMode::MinMax.to_string(), "MinMax");
    }
}
