//! The operator protocol: memory-adaptive query operators as pure state
//! machines.
//!
//! Operators (hash joins, external sorts) are modelled as state machines
//! that emit [`Action`]s — CPU bursts, page-range I/Os, temp-file
//! management — one per [`Operator::step`]. The simulator performs the
//! returned action (which takes simulated time) and calls `step` again when
//! it completes; the engine, the standalone estimator and the unit tests
//! all drive operators this one way.
//!
//! Memory allocation changes arrive asynchronously through
//! [`Operator::set_allocation`] between steps; the operator must adapt
//! (contract or expand, per \[Pang93a, Pang93b\]).
//!
//! Keeping the operators pure (no clock, no queues, no references into the
//! simulator) makes them unit-testable in isolation: the tests drive them
//! with a trivial executor and check I/O-volume invariants.

use storage::{FileId, IoKind};

/// CPU instruction costs from Table 4 of the paper.
pub mod cost {
    /// Start an I/O operation.
    pub const START_IO: u64 = 1_000;
    /// Initiate a sort or join.
    pub const INIT_OP: u64 = 40_000;
    /// Terminate a sort or join.
    pub const TERMINATE_OP: u64 = 10_000;
    /// Hash a tuple and insert it into a hash table.
    pub const HASH_INSERT: u64 = 100;
    /// Hash a tuple and probe the hash table.
    pub const HASH_PROBE: u64 = 200;
    /// Hash a tuple and copy it to an output buffer.
    pub const HASH_COPY: u64 = 100;
    /// Copy a tuple to an output buffer (sorting).
    pub const SORT_COPY: u64 = 64;
    /// Compare two keys.
    pub const KEY_COMPARE: u64 = 50;
}

/// Static execution-model parameters shared by all operators.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Tuples per page. With 8 KB pages and 200-byte tuples: 40.
    pub tuples_per_page: u32,
    /// Pages fetched per sequential blocked I/O (`BlockSize`, Table 3).
    pub block_pages: u32,
    /// Hash-table space overhead (`F` of \[Shap86\]); 1.1 matches the
    /// paper's baseline numbers (max demand ≈ 1321 pages for ‖R‖ = 1200).
    pub fudge_factor: f64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            tuples_per_page: 40,
            block_pages: 6,
            fudge_factor: 1.1,
        }
    }
}

/// A file as seen from inside an operator: either a base relation (known
/// globally) or one of the operator's own temporary files, addressed by a
/// small slot number. The simulator maps slots to real [`FileId`]s when it
/// performs [`Action::CreateTemp`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FileRef {
    /// A base relation.
    Base(FileId),
    /// Temp slot `n` of this operator.
    Temp(u32),
}

/// A page-range I/O request emitted by an operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoRequest {
    /// Target file.
    pub file: FileRef,
    /// First page (file-relative).
    pub first_page: u32,
    /// Number of pages (≥ 1).
    pub pages: u32,
    /// Read or write.
    pub kind: IoKind,
    /// Sequential prefetch eligible? False only for merge-phase reads
    /// (Section 4.2).
    pub prefetch: bool,
}

/// One unit of work emitted by an operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Burn CPU for this many instructions.
    Cpu(u64),
    /// Perform a disk access.
    Io(IoRequest),
    /// Allocate a temp file of the given size and bind it to `slot`.
    /// Metadata-only: consumes no simulated time.
    CreateTemp {
        /// Operator-local slot to bind.
        slot: u32,
        /// Capacity in pages.
        pages: u32,
    },
    /// Release the temp file bound to `slot`. Metadata-only.
    DropTemp {
        /// Slot to release.
        slot: u32,
    },
    /// The operator holds no memory and cannot advance until it is
    /// re-granted at least its minimum allocation.
    Parked,
    /// Execution complete; the simulator should release all resources.
    Finished,
}

/// A memory-adaptive operator.
pub trait Operator {
    /// Maximum useful memory (pages): enough to run in one pass.
    fn max_memory(&self) -> u32;
    /// Minimum memory (pages) required to make progress at all.
    fn min_memory(&self) -> u32;
    /// Current allocation (pages).
    fn allocation(&self) -> u32;
    /// Change the allocation. `pages` must be 0 (suspend) or ≥
    /// `min_memory()`; the operator adapts its strategy (contracting
    /// partitions, splitting merge steps, ...) on the next `step`.
    fn set_allocation(&mut self, pages: u32);
    /// Produce the next action. Must be called again only after the
    /// previous action completed.
    fn step(&mut self) -> Action;
    /// How many times the allocation changed mid-execution (Figure 7).
    fn fluctuations(&self) -> u32;
    /// Pages of operand relation(s) this operator reads (workload-change
    /// characteristic 2 is derived from this).
    fn operand_pages(&self) -> u32;
}

/// Number of blocked I/Os needed to sequentially read `pages` pages.
pub fn blocks_for(pages: u32, block: u32) -> u32 {
    pages.div_ceil(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(12, 6), 2);
        assert_eq!(blocks_for(13, 6), 3);
        assert_eq!(blocks_for(1, 6), 1);
        assert_eq!(blocks_for(0, 6), 0);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = ExecConfig::default();
        assert_eq!(c.block_pages, 6);
        assert!((c.fudge_factor - 1.1).abs() < 1e-12);
    }
}
