//! Stand-alone execution-time estimation.
//!
//! Deadlines are assigned as
//! `Deadline = Arrival + StandAlone × SlackRatio` (Section 4.1), where the
//! stand-alone time is "the time it would take to execute alone in the
//! system with its maximum memory allocation, i.e., without experiencing any
//! contention from other queries."
//!
//! We compute it by *driving the actual operator state machine* through a
//! private cost model: CPU bursts cost `instructions / MIPS`, and each I/O
//! pays the disk's service time on an otherwise idle disk (each disk's head
//! tracks the query's own accesses). Because the query runs with its
//! maximum allocation it performs no temp I/O, but the executor handles
//! temp placement anyway so tests can estimate constrained executions too.
//!
//! The query alternates CPU and I/O (it is single-threaded), so the
//! stand-alone time is the plain sum of both components — exactly how the
//! query would behave in the empty simulated system.

use crate::op::{Action, FileRef, Operator};
use simkit::Duration;
use std::collections::HashMap;
use storage::{DiskGeometry, DiskId, ServiceTable};

/// Estimate the stand-alone execution time of `op` at its current
/// allocation on disks of `geometry` (callers wanting the paper's
/// definition grant the maximum allocation first). `placement` resolves an
/// operator-visible file to its `(disk, start_cylinder)`.
///
/// Each disk the query touches gets a head parked where the query's first
/// access on it lands (no initial-seek charge), and every access is priced
/// through one [`ServiceTable`], as a disk farm's are.
///
/// # Panics
/// Panics if the operator parks (stand-alone execution never suspends) or
/// fails to finish within a very generous step bound.
pub fn standalone_time(
    op: &mut dyn Operator,
    geometry: &DiskGeometry,
    placement: &mut impl FnMut(FileRef) -> (DiskId, u32),
    cpu_mips: f64,
) -> Duration {
    assert!(cpu_mips > 0.0, "MIPS rating must be positive");
    let mut total = Duration::ZERO;
    let mut heads: HashMap<DiskId, u32> = HashMap::new();
    let mut table = ServiceTable::new();
    for _ in 0..50_000_000u64 {
        match op.step() {
            Action::Cpu(instr) => {
                total += Duration::from_secs_f64(instr as f64 / (cpu_mips * 1e6));
            }
            Action::Io(io) => {
                let (disk, start_cyl) = placement(io.file);
                let cyl = geometry.cylinder_of(start_cyl, io.first_page);
                let head = heads.entry(disk).or_insert(cyl);
                let distance = head.abs_diff(cyl);
                *head = cyl;
                total += table.access_time(geometry, distance, io.pages.max(1));
            }
            // Temp files are metadata-only: `placement` resolves them.
            Action::CreateTemp { .. } | Action::DropTemp { .. } => {}
            Action::Parked => panic!("stand-alone execution cannot park"),
            Action::Finished => return total,
        }
    }
    panic!("operator did not finish during stand-alone estimation");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashjoin::HashJoin;
    use crate::op::ExecConfig;
    use crate::sort::ExternalSort;
    use storage::FileId;

    fn flat_placement() -> impl FnMut(FileRef) -> (DiskId, u32) {
        |file| match file {
            FileRef::Base(FileId::Relation(n)) => (DiskId(n % 4), 700),
            FileRef::Base(FileId::Temp(_)) => (DiskId(0), 100),
            FileRef::Temp(_) => (DiskId(0), 1250),
        }
    }

    #[test]
    fn join_standalone_magnitude_matches_paper() {
        // Baseline Table 7: Max-mode execution times average ~40 s for joins
        // with ‖R‖∈[600,1800], ‖S‖∈[3000,9000]. The mid-sized join
        // (1200, 6000) alone should land in the same ballpark.
        let cfg = ExecConfig::default();
        let mut op =
            HashJoin::new(cfg, FileId::Relation(0), 1200, FileId::Relation(1), 6000);
        op.set_allocation(op.max_memory());
        let t = standalone_time(
            &mut op,
            &DiskGeometry::default(),
            &mut flat_placement(),
            40.0,
        )
        .as_secs_f64();
        assert!((10.0..60.0).contains(&t), "stand-alone join time {t} s");
    }

    #[test]
    fn bigger_relations_take_longer() {
        let cfg = ExecConfig::default();
        let mut small =
            HashJoin::new(cfg, FileId::Relation(0), 600, FileId::Relation(1), 3000);
        small.set_allocation(small.max_memory());
        let mut large =
            HashJoin::new(cfg, FileId::Relation(0), 1800, FileId::Relation(1), 9000);
        large.set_allocation(large.max_memory());
        let g = DiskGeometry::default();
        let ts = standalone_time(&mut small, &g, &mut flat_placement(), 40.0);
        let tl = standalone_time(&mut large, &g, &mut flat_placement(), 40.0);
        assert!(tl.as_secs_f64() > 2.0 * ts.as_secs_f64());
    }

    #[test]
    fn sort_standalone_is_cheaper_than_join() {
        // Section 5.5: a sort reads a 1200-page relation, a join 7200 pages.
        let cfg = ExecConfig::default();
        let g = DiskGeometry::default();
        let mut sort = ExternalSort::new(cfg, FileId::Relation(0), 1200);
        sort.set_allocation(sort.max_memory());
        let t_sort = standalone_time(&mut sort, &g, &mut flat_placement(), 40.0);
        let mut join =
            HashJoin::new(cfg, FileId::Relation(0), 1200, FileId::Relation(1), 6000);
        join.set_allocation(join.max_memory());
        let t_join = standalone_time(&mut join, &g, &mut flat_placement(), 40.0);
        assert!(t_sort < t_join);
    }

    #[test]
    fn faster_cpu_is_never_slower() {
        let cfg = ExecConfig::default();
        let g = DiskGeometry::default();
        let mut a = ExternalSort::new(cfg, FileId::Relation(0), 600);
        a.set_allocation(600);
        let slow = standalone_time(&mut a, &g, &mut flat_placement(), 10.0);
        let mut b = ExternalSort::new(cfg, FileId::Relation(0), 600);
        b.set_allocation(600);
        let fast = standalone_time(&mut b, &g, &mut flat_placement(), 400.0);
        assert!(fast < slow);
    }

    #[test]
    fn cylinder_park_charges_no_seek() {
        // A disk's head parks where the query's first access on it lands,
        // so the same sort costs the same wherever its relation starts.
        let g = DiskGeometry::default();
        let sort_at = |cylinder: u32| {
            let mut sort =
                ExternalSort::new(ExecConfig::default(), FileId::Relation(0), 1200);
            sort.set_allocation(sort.max_memory());
            standalone_time(&mut sort, &g, &mut |_| (DiskId(0), cylinder), 40.0)
        };
        assert_eq!(sort_at(0), sort_at(900), "parked head must not seek");
    }

    #[test]
    fn constrained_execution_takes_longer_than_max() {
        let cfg = ExecConfig::default();
        let g = DiskGeometry::default();
        let mut max =
            HashJoin::new(cfg, FileId::Relation(0), 600, FileId::Relation(1), 3000);
        max.set_allocation(max.max_memory());
        let t_max = standalone_time(&mut max, &g, &mut flat_placement(), 40.0);
        let mut min =
            HashJoin::new(cfg, FileId::Relation(0), 600, FileId::Relation(1), 3000);
        min.set_allocation(min.min_memory());
        let t_min = standalone_time(&mut min, &g, &mut flat_placement(), 40.0);
        assert!(
            t_min.as_secs_f64() > 1.5 * t_max.as_secs_f64(),
            "two-pass {t_min:?} vs one-pass {t_max:?}"
        );
    }
}
