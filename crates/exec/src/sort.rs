//! Memory-adaptive external sorting \[Pang93b\].
//!
//! The algorithm has the usual two phases:
//!
//! 1. **Run formation** — replacement selection over a heap of
//!    `W − 1` workspace pages (one page is the I/O buffer) turns the operand
//!    relation into sorted runs of expected length `2·(W − 1)` pages; with
//!    `W ≥ ‖R‖` the relation is sorted entirely in memory and no temp I/O
//!    occurs at all (the *maximum* memory demand of a sort is its relation
//!    size, Section 3.2; the *minimum* is 3 pages).
//! 2. **Merging** — repeatedly merge up to `W − 1` runs into one until a
//!    single run remains; the final merge streams its output to the
//!    consumer, so it does not write. Merge-phase reads are single-page and
//!    non-prefetching (Section 4.2 exempts the merge phase from the disk
//!    cache's block prefetch).
//!
//! Memory adaptivity (the \[Pang93b\] contribution): the merge fan-in is
//! recomputed at every merge step, so extra buffers *combine* steps;
//! a reduction mid-step *splits* it — output produced so far becomes a run
//! of its own and the unread source remainders return to the run list.
//! Setting the allocation to zero parks the operator at the next page
//! boundary after flushing buffered output.

use crate::op::{cost, Action, ExecConfig, FileRef, IoRequest, Operator};
use storage::{FileId, IoKind};

/// Temp slot holding the sorted runs.
const RUN_SLOT: u32 = 0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    Init,
    /// Decide in-memory vs external after the initial grant.
    Dispatch,
    /// Read everything, sort in memory, stream output.
    InMemoryScan,
    CreateRuns,
    RunFormation,
    Merge,
    Terminate,
    DropRuns,
    Done,
}

/// One in-progress merge step.
#[derive(Debug, PartialEq)]
struct MergeStep {
    /// `(start_page, remaining_pages)` of each source run in the temp file.
    sources: Vec<(u32, u32)>,
    /// Which source the next read comes from (round-robin).
    next_source: usize,
    /// Pages written to the output run so far.
    out_written: u32,
    /// Buffered output pages not yet written.
    out_accum: u32,
    /// Start page of the output run.
    out_start: u32,
    /// Final merge: stream output, no writes.
    is_final: bool,
    /// Fan-in when the step started (for CPU costing).
    fan: u32,
    /// CPU per merged page at this step's fan-in — fixed for the step's
    /// lifetime, so it is derived once here instead of per read.
    cpu_per_page: u64,
}

/// The memory-adaptive external sort operator.
pub struct ExternalSort {
    cfg: ExecConfig,
    file: FileId,
    r_pages: u32,
    alloc: u32,
    state: State,
    pending_cpu: u64,
    /// Progress of the run-formation scan.
    scan_pos: u32,
    /// Pages read but not yet emitted to the current run.
    form_accum: u32,
    /// Length of the run currently being produced.
    current_run: u32,
    /// Completed runs: `(start_page, pages)` in the temp file.
    runs: Vec<(u32, u32)>,
    /// Append position in the temp file.
    temp_write_pos: u32,
    merge: Option<MergeStep>,
    /// Set when an allocation change invalidates the in-flight merge step.
    split_requested: bool,
    fluctuations: u32,
    started: bool,
    /// Cached [`ExternalSort::formation_cpu_per_page`]: a function of the
    /// workspace only, re-derived on `set_allocation` instead of per block.
    formation_cpu: u64,
}

impl ExternalSort {
    /// Sort of the `r_pages`-page relation `file`.
    ///
    /// # Panics
    /// Panics on an empty relation.
    pub fn new(cfg: ExecConfig, file: FileId, r_pages: u32) -> Self {
        assert!(r_pages > 0, "cannot sort an empty relation");
        let mut sort = ExternalSort {
            cfg,
            file,
            r_pages,
            alloc: 0,
            state: State::Init,
            pending_cpu: 0,
            scan_pos: 0,
            form_accum: 0,
            current_run: 0,
            runs: Vec::new(),
            temp_write_pos: 0,
            merge: None,
            split_requested: false,
            fluctuations: 0,
            started: false,
            formation_cpu: 0,
        };
        sort.formation_cpu = sort.formation_cpu_per_page();
        sort
    }

    /// Maximum memory demand: the relation size (Section 3.2).
    pub fn max_memory_for(r_pages: u32) -> u32 {
        r_pages
    }

    /// Minimum memory demand: three pages (two merge inputs + one output).
    pub fn min_memory_for() -> u32 {
        3
    }

    /// Workspace pages available to the heap / merge inputs (one page is
    /// reserved as the output buffer).
    fn workspace(&self) -> u32 {
        self.alloc.saturating_sub(1).max(2)
    }

    /// Expected replacement-selection run length: twice the heap size.
    fn target_run_len(&self) -> u32 {
        2 * self.workspace()
    }

    /// CPU cost per input page during run formation: each tuple is copied
    /// once and sifts through a heap of `workspace × tuples_per_page`
    /// entries.
    fn formation_cpu_per_page(&self) -> u64 {
        let heap_tuples =
            (self.workspace() as u64 * self.cfg.tuples_per_page as u64).max(2);
        let log = 64 - heap_tuples.leading_zeros() as u64;
        self.cfg.tuples_per_page as u64 * (cost::SORT_COPY + cost::KEY_COMPARE * log)
    }

    /// CPU per page merged with fan-in `fan`.
    fn merge_cpu_per_page(&self, fan: u32) -> u64 {
        let log = (32 - (fan.max(2) - 1).leading_zeros()) as u64;
        self.cfg.tuples_per_page as u64 * (cost::SORT_COPY + cost::KEY_COMPARE * log)
    }

    fn temp_capacity(&self) -> u32 {
        2 * self.r_pages + 2 * self.cfg.block_pages
    }

    /// Append `pages` to the temp file at the current write position.
    fn temp_write(&mut self, pages: u32) -> Action {
        let first = self.temp_write_pos % self.temp_capacity();
        self.temp_write_pos = self.temp_write_pos.wrapping_add(pages);
        self.pending_cpu += cost::START_IO;
        Action::Io(IoRequest {
            file: FileRef::Temp(RUN_SLOT),
            first_page: first,
            pages,
            kind: IoKind::Write,
            prefetch: true,
        })
    }

    /// Abort the in-flight merge step after an allocation change: output so
    /// far becomes a run, unread source remainders go back on the run list.
    fn split_step(&mut self) {
        let Some(step) = self.merge.take() else {
            return;
        };
        for &(start, remaining) in &step.sources {
            if remaining > 0 {
                self.runs.push((start, remaining));
            }
        }
        let produced = step.out_written + step.out_accum;
        if produced > 0 && !step.is_final {
            self.runs.push((step.out_start, produced));
        }
        // A split final merge has streamed `produced` pages to the consumer
        // already; only the remainder still needs merging.
    }

    /// Begin the next merge step given the current allocation.
    fn begin_merge_step(&mut self) {
        debug_assert!(self.merge.is_none());
        let fan = self.workspace().min(self.runs.len() as u32).max(2);
        let take = (fan as usize).min(self.runs.len());
        let sources: Vec<(u32, u32)> = self.runs.drain(..take).collect();
        let is_final = self.runs.is_empty();
        self.merge = Some(MergeStep {
            sources,
            next_source: 0,
            out_written: 0,
            out_accum: 0,
            out_start: self.temp_write_pos % self.temp_capacity(),
            is_final,
            fan,
            cpu_per_page: self.merge_cpu_per_page(fan),
        });
    }
}

impl Operator for ExternalSort {
    fn max_memory(&self) -> u32 {
        Self::max_memory_for(self.r_pages)
    }

    fn min_memory(&self) -> u32 {
        Self::min_memory_for()
    }

    fn allocation(&self) -> u32 {
        self.alloc
    }

    fn set_allocation(&mut self, pages: u32) {
        assert!(
            pages == 0 || pages >= self.min_memory(),
            "allocation {pages} below the sort minimum 3"
        );
        if pages == self.alloc {
            return;
        }
        if self.started {
            self.fluctuations += 1;
        }
        let shrank = pages < self.alloc;
        self.alloc = pages;
        if self.state == State::Merge {
            if let Some(step) = &self.merge {
                // Split only when the step no longer fits (or on suspension);
                // growth is exploited at the next step (combining).
                let needed =
                    step.sources.iter().filter(|&&(_, r)| r > 0).count() as u32 + 1;
                if pages == 0 || (shrank && self.alloc < needed) {
                    self.split_requested = true;
                }
            }
        }
        self.formation_cpu = self.formation_cpu_per_page();
    }

    fn step(&mut self) -> Action {
        if self.pending_cpu > 0 {
            return Action::Cpu(std::mem::take(&mut self.pending_cpu));
        }
        if self.split_requested {
            self.split_requested = false;
            self.split_step();
        }
        if self.alloc == 0 {
            // Flush buffered output before parking.
            if self.form_accum > 0 {
                let pages = self.form_accum;
                self.form_accum = 0;
                self.current_run += pages;
                return self.temp_write(pages);
            }
            return Action::Parked;
        }
        match self.state {
            State::Init => {
                self.started = true;
                self.state = State::Dispatch;
                Action::Cpu(cost::INIT_OP)
            }
            State::Dispatch => {
                if self.alloc >= self.r_pages {
                    self.state = State::InMemoryScan;
                    self.scan_pos = 0;
                } else {
                    self.state = State::CreateRuns;
                }
                self.step()
            }
            State::InMemoryScan => {
                if self.scan_pos >= self.r_pages {
                    // Final in-memory sort: n·log2(n) compares + output copy.
                    let n = self.r_pages as u64 * self.cfg.tuples_per_page as u64;
                    let log = (64 - n.leading_zeros() as u64).max(1);
                    self.pending_cpu += n * (cost::KEY_COMPARE * log + cost::SORT_COPY);
                    self.state = State::Terminate;
                    return self.step();
                }
                let pages = self.cfg.block_pages.min(self.r_pages - self.scan_pos);
                let first = self.scan_pos;
                self.scan_pos += pages;
                self.pending_cpu += cost::START_IO;
                Action::Io(IoRequest {
                    file: FileRef::Base(self.file),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::CreateRuns => {
                self.state = State::RunFormation;
                self.scan_pos = 0;
                self.current_run = 0;
                Action::CreateTemp {
                    slot: RUN_SLOT,
                    pages: self.temp_capacity(),
                }
            }
            State::RunFormation => {
                // Write buffered output first (keeps read/write alternating).
                if self.form_accum >= self.cfg.block_pages
                    || (self.scan_pos >= self.r_pages && self.form_accum > 0)
                {
                    let pages = self.form_accum.min(self.cfg.block_pages);
                    self.form_accum -= pages;
                    self.current_run += pages;
                    // Advances temp_write_pos.
                    let action = self.temp_write(pages);
                    // Close the run when it reaches its target length or the
                    // input is exhausted. The run occupies the `current_run`
                    // pages ending at the new write position.
                    if self.current_run >= self.target_run_len()
                        || (self.scan_pos >= self.r_pages && self.form_accum == 0)
                    {
                        let begin = self.temp_write_pos.wrapping_sub(self.current_run)
                            % self.temp_capacity();
                        self.runs.push((begin, self.current_run));
                        self.current_run = 0;
                    }
                    return action;
                }
                if self.scan_pos >= self.r_pages {
                    debug_assert_eq!(self.form_accum, 0);
                    self.state = State::Merge;
                    return self.step();
                }
                let pages = self.cfg.block_pages.min(self.r_pages - self.scan_pos);
                let first = self.scan_pos;
                self.scan_pos += pages;
                self.form_accum += pages;
                self.pending_cpu += pages as u64 * self.formation_cpu + cost::START_IO;
                Action::Io(IoRequest {
                    file: FileRef::Base(self.file),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::Merge => {
                if self.merge.is_none() {
                    if self.runs.len() <= 1 {
                        // Single run: the "merge" is a stream-through; the
                        // paper's final merge reads it once to produce output.
                        if let Some((start, len)) = self.runs.pop() {
                            self.merge = Some(MergeStep {
                                sources: vec![(start, len)],
                                next_source: 0,
                                out_written: 0,
                                out_accum: 0,
                                out_start: 0,
                                is_final: true,
                                fan: 2,
                                cpu_per_page: self.merge_cpu_per_page(2),
                            });
                        } else {
                            self.state = State::Terminate;
                            return self.step();
                        }
                    } else {
                        self.begin_merge_step();
                    }
                }
                let step = self.merge.as_mut().expect("step exists");
                // Flush output blocks for non-final merges.
                if !step.is_final && step.out_accum >= self.cfg.block_pages {
                    let pages = self.cfg.block_pages;
                    step.out_accum -= pages;
                    step.out_written += pages;
                    return self.temp_write(pages);
                }
                // Next single-page read, round-robin over live sources.
                let live = step.sources.iter().any(|&(_, r)| r > 0);
                if live {
                    let n = step.sources.len();
                    let mut idx = step.next_source % n;
                    while step.sources[idx].1 == 0 {
                        idx = (idx + 1) % n;
                    }
                    step.next_source = (idx + 1) % n;
                    let (start, remaining) = step.sources[idx];
                    step.sources[idx] = (start + 1, remaining - 1);
                    step.out_accum += 1;
                    let cpu = step.cpu_per_page;
                    self.pending_cpu += cpu + cost::START_IO;
                    return Action::Io(IoRequest {
                        file: FileRef::Temp(RUN_SLOT),
                        first_page: start % self.temp_capacity(),
                        pages: 1,
                        kind: IoKind::Read,
                        // Section 4.2: no block prefetch during merges.
                        prefetch: false,
                    });
                }
                // Sources drained: flush the tail and close the step.
                if !step.is_final && step.out_accum > 0 {
                    let pages = step.out_accum;
                    step.out_accum = 0;
                    step.out_written += pages;
                    return self.temp_write(pages);
                }
                let finished = self.merge.take().expect("step exists");
                if !finished.is_final {
                    self.runs.push((finished.out_start, finished.out_written));
                    self.step()
                } else {
                    self.state = State::Terminate;
                    self.step()
                }
            }
            State::Terminate => {
                self.state = if self.runs.is_empty() && self.temp_write_pos == 0 {
                    State::Done
                } else {
                    State::DropRuns
                };
                Action::Cpu(cost::TERMINATE_OP)
            }
            State::DropRuns => {
                self.state = State::Done;
                Action::DropTemp { slot: RUN_SLOT }
            }
            State::Done => Action::Finished,
        }
    }

    fn fluctuations(&self) -> u32 {
        self.fluctuations
    }

    fn operand_pages(&self) -> u32 {
        self.r_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort(r: u32) -> ExternalSort {
        ExternalSort::new(ExecConfig::default(), FileId::Relation(0), r)
    }

    struct Totals {
        base_reads: u32,
        temp_reads: u32,
        temp_writes: u32,
        cpu: u64,
        single_page_reads: u32,
        prefetch_temp_reads: u32,
    }

    fn run_fixed(op: &mut ExternalSort, alloc: u32) -> Totals {
        op.set_allocation(alloc);
        let mut t = Totals {
            base_reads: 0,
            temp_reads: 0,
            temp_writes: 0,
            cpu: 0,
            single_page_reads: 0,
            prefetch_temp_reads: 0,
        };
        for _ in 0..10_000_000 {
            match op.step() {
                Action::Cpu(n) => t.cpu += n,
                Action::Io(io) => match (io.file, io.kind) {
                    (FileRef::Base(_), IoKind::Read) => t.base_reads += io.pages,
                    (FileRef::Temp(_), IoKind::Read) => {
                        t.temp_reads += io.pages;
                        if io.pages == 1 {
                            t.single_page_reads += 1;
                        }
                        if io.prefetch {
                            t.prefetch_temp_reads += 1;
                        }
                    }
                    (FileRef::Temp(_), IoKind::Write) => t.temp_writes += io.pages,
                    other => panic!("unexpected io {other:?}"),
                },
                Action::CreateTemp { .. } | Action::DropTemp { .. } => {}
                Action::Parked => panic!("parked with non-zero allocation"),
                Action::Finished => return t,
            }
        }
        panic!("sort did not terminate");
    }

    #[test]
    fn memory_bounds() {
        let op = sort(1200);
        assert_eq!(op.max_memory(), 1200);
        assert_eq!(op.min_memory(), 3);
    }

    #[test]
    fn in_memory_sort_does_no_temp_io() {
        let mut op = sort(600);
        let t = run_fixed(&mut op, 600);
        assert_eq!(t.base_reads, 600);
        assert_eq!(t.temp_reads, 0);
        assert_eq!(t.temp_writes, 0);
        assert!(t.cpu > 0);
    }

    #[test]
    fn two_pass_sort_with_half_memory() {
        // W = 100 → runs of ~198 pages → 7 runs; fan-in 99 merges them in
        // one final pass: write 1200, read 1200.
        let mut op = sort(1200);
        let t = run_fixed(&mut op, 100);
        assert_eq!(t.base_reads, 1200);
        assert_eq!(t.temp_writes, 1200, "every page written once");
        assert_eq!(t.temp_reads, 1200, "every page read once in final merge");
    }

    #[test]
    fn merge_reads_are_single_page_non_prefetch() {
        let mut op = sort(600);
        let t = run_fixed(&mut op, 50);
        assert_eq!(t.single_page_reads, t.temp_reads, "merge reads are 1-page");
        assert_eq!(t.prefetch_temp_reads, 0, "merge phase never prefetches");
    }

    #[test]
    fn minimum_memory_needs_many_passes() {
        // W = 3 → heap 2 pages → runs of 4 → 30 runs for 120 pages; fan-in 2
        // → ~5 merge levels: temp traffic is several times the relation.
        let mut op = sort(120);
        let t = run_fixed(&mut op, 3);
        assert_eq!(t.base_reads, 120);
        assert!(
            t.temp_reads >= 3 * 120,
            "multi-pass merging must re-read: {}",
            t.temp_reads
        );
        // Formation writes 120 pages; every non-final merge step writes what
        // it reads and the final step (120 pages in) writes nothing, so the
        // write total equals the read total exactly.
        assert_eq!(t.temp_writes, t.temp_reads);
    }

    #[test]
    fn more_memory_is_never_more_io() {
        let totals: Vec<u32> = [3, 10, 50, 200, 1200]
            .iter()
            .map(|&w| {
                let mut op = sort(1200);
                let t = run_fixed(&mut op, w);
                t.temp_reads + t.temp_writes
            })
            .collect();
        for w in totals.windows(2) {
            assert!(w[1] <= w[0], "I/O must shrink with memory: {totals:?}");
        }
    }

    #[test]
    fn run_lengths_track_workspace() {
        let mut op = sort(1000);
        op.set_allocation(26); // W−1 = 25 → runs of 50
                               // Drive until the merge phase starts, then inspect run lengths.
        while op.state != State::Merge {
            let a = op.step();
            assert_ne!(a, Action::Finished);
        }
        // The first merge step may already have claimed some runs as its
        // sources; count both.
        let mut lens: Vec<u32> = op.runs.iter().map(|&(_, l)| l).collect();
        if let Some(step) = &op.merge {
            lens.extend(step.sources.iter().map(|&(_, l)| l));
        }
        assert!(!lens.is_empty());
        let max_run = *lens.iter().max().unwrap();
        // Runs close at block granularity, so they may overshoot the 2×heap
        // target by up to block−1 pages.
        assert!(max_run <= 50 + 5, "run of {max_run} pages exceeds 2×heap");
        // The first merge read may already have consumed a page or two of
        // its sources by the time we observe the state.
        let total: u32 = lens.iter().sum();
        assert!(
            (995..=1000).contains(&total),
            "runs must cover the relation: {total}"
        );
    }

    #[test]
    fn growth_mid_merge_combines_future_steps() {
        // Tiny memory creates many runs; granting more memory mid-merge must
        // reduce remaining I/O versus staying small.
        let io_with_boost = {
            let mut op = sort(600);
            op.set_allocation(4);
            // Form all runs.
            while op.state != State::Merge {
                op.step();
            }
            op.set_allocation(600); // combine: huge fan-in
            let mut io = 0u32;
            loop {
                match op.step() {
                    Action::Io(r) => io += r.pages,
                    Action::Finished => break,
                    _ => {}
                }
            }
            io
        };
        let io_without = {
            let mut op = sort(600);
            op.set_allocation(4);
            while op.state != State::Merge {
                op.step();
            }
            let mut io = 0u32;
            loop {
                match op.step() {
                    Action::Io(r) => io += r.pages,
                    Action::Finished => break,
                    _ => {}
                }
            }
            io
        };
        assert!(
            io_with_boost < io_without / 2,
            "boost {io_with_boost} vs {io_without}"
        );
    }

    #[test]
    fn shrink_mid_merge_splits_step() {
        let mut op = sort(600);
        op.set_allocation(100);
        while op.state != State::Merge {
            op.step();
        }
        // Enter the merge and do a few reads.
        for _ in 0..20 {
            op.step();
        }
        op.set_allocation(3); // force a split
        let mut finished = false;
        for _ in 0..10_000_000 {
            if op.step() == Action::Finished {
                finished = true;
                break;
            }
        }
        assert!(finished, "sort must complete after a split");
    }

    #[test]
    fn suspension_and_resume() {
        let mut op = sort(600);
        op.set_allocation(50);
        for _ in 0..30 {
            op.step();
        }
        op.set_allocation(0);
        let mut parked = false;
        for _ in 0..100 {
            if op.step() == Action::Parked {
                parked = true;
                break;
            }
        }
        assert!(parked);
        op.set_allocation(50);
        let mut finished = false;
        for _ in 0..1_000_000 {
            if op.step() == Action::Finished {
                finished = true;
                break;
            }
        }
        assert!(finished);
    }

    #[test]
    fn single_block_relation() {
        let mut op = sort(4);
        let t = run_fixed(&mut op, 4);
        assert_eq!(t.base_reads, 4);
        assert_eq!(t.temp_writes, 0);
    }
}
