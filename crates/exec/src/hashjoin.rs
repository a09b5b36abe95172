//! Partially Preemptible Hash Join (PPHJ) with late contraction, expansion,
//! and priority spooling \[Pang93a\] — as an I/O- and CPU-accurate execution
//! model.
//!
//! PPHJ splits both relations into `B ≈ √(F·‖R‖)` partitions. At any moment
//! `E` of them are *expanded* (hash tables in memory) and `B − E` are
//! *contracted* (spooled to a temp file). The join:
//!
//! 1. **Build scan** — reads R in blocks; tuples of expanded partitions are
//!    inserted into in-memory hash tables, tuples of contracted partitions
//!    are spooled (blocked writes).
//! 2. **Probe scan** — reads S in blocks; tuples hashing to expanded
//!    partitions probe and produce output immediately; the rest are spooled.
//! 3. **Second pass** — for spilled data: re-read the spilled R pages
//!    (building one partition at a time, which is why the minimum memory is
//!    `√(F·‖R‖)` + one I/O buffer), then re-read and probe the spilled S
//!    pages.
//!
//! Memory adaptivity: when the allocation shrinks, expanded partitions are
//! *contracted* — their current contents are spooled out ("priority
//! spooling") and their future tuples go to the spill file. When the
//! allocation grows during the probe scan, contracted partitions are
//! *expanded back*: their spilled R pages are read in and rebuilt so that
//! the remaining S tuples can be joined directly ("late expansion"). Setting
//! the allocation to zero parks the operator after flushing, which is how
//! admission-control suspension is realized.
//!
//! Accounting is aggregate: we track total spilled pages rather than
//! per-partition lists. Totals (and therefore all I/O and CPU volumes) match
//! the per-partition computation exactly for uniform partitions; only the
//! interleaving of second-pass requests differs, which is irrelevant to the
//! queueing model.

use crate::op::{blocks_for, cost, Action, ExecConfig, FileRef, IoRequest, Operator};
use storage::{FileId, IoKind};

/// Spill temp-file slot used by the join.
const SPILL_SLOT: u32 = 0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Init,
    CreateSpill,
    BuildScan,
    BuildFlush,
    ProbeScan,
    ProbeFlush,
    SecondBuild,
    SecondProbe,
    Terminate,
    DropSpill,
    Done,
}

/// The PPHJ operator. See the module docs for the execution model.
pub struct HashJoin {
    cfg: ExecConfig,
    r_file: FileId,
    s_file: FileId,
    r_pages: u32,
    s_pages: u32,
    /// Number of partitions, `B = max(1, ⌊√(F·‖R‖)⌋)`.
    partitions: u32,
    /// `F·‖R‖` — total in-memory hash table volume when fully expanded.
    fr: f64,
    alloc: u32,
    expanded: u32,
    state: State,
    /// CPU instructions owed before the next I/O is issued.
    pending_cpu: u64,
    /// Hash-table pages awaiting spool-out after a contraction.
    pending_contract: f64,
    /// Spilled R pages read back in during a late expansion.
    pending_expand_read: f64,
    /// Buffered spill output of the current scan (written in blocks).
    spill_accum: f64,
    /// Total R / S pages resident in the spill file.
    spilled_r: f64,
    spilled_s: f64,
    /// Progress of the current sequential scan, in pages.
    scan_pos: u32,
    /// Append position in the spill temp file.
    temp_write_pos: u32,
    /// Read position within the spill file during the second pass.
    second_read: f64,
    fluctuations: u32,
    started: bool,
    /// Cached [`HashJoin::contracted_fraction`]: changes only with
    /// `expanded`, i.e. on `set_allocation`, so it is derived there rather
    /// than per step.
    frac_con: f64,
    /// Cached probe-scan CPU for one full block at the current contraction
    /// level (the partial tail block is still computed directly, with the
    /// identical expression).
    probe_cpu_block: u64,
}

impl HashJoin {
    /// A join of `r` (inner/build, `r_pages`) with `s` (outer/probe,
    /// `s_pages`).
    ///
    /// # Panics
    /// Panics if either relation is empty.
    pub fn new(
        cfg: ExecConfig,
        r_file: FileId,
        r_pages: u32,
        s_file: FileId,
        s_pages: u32,
    ) -> Self {
        assert!(r_pages > 0 && s_pages > 0, "relations must be non-empty");
        let fr = cfg.fudge_factor * r_pages as f64;
        let partitions = (fr.sqrt().floor() as u32).max(1);
        let mut join = HashJoin {
            cfg,
            r_file,
            s_file,
            r_pages,
            s_pages,
            partitions,
            fr,
            alloc: 0,
            expanded: 0,
            state: State::Init,
            pending_cpu: 0,
            pending_contract: 0.0,
            pending_expand_read: 0.0,
            spill_accum: 0.0,
            spilled_r: 0.0,
            spilled_s: 0.0,
            scan_pos: 0,
            temp_write_pos: 0,
            second_read: 0.0,
            fluctuations: 0,
            started: false,
            frac_con: 1.0,
            probe_cpu_block: 0,
        };
        join.refresh_cost_caches();
        join
    }

    /// Maximum memory demand: `F·‖R‖` plus one I/O buffer (Section 3.2).
    pub fn max_memory_for(cfg: &ExecConfig, r_pages: u32) -> u32 {
        (cfg.fudge_factor * r_pages as f64).ceil() as u32 + 1
    }

    /// Minimum memory demand: `√(F·‖R‖)` plus one I/O buffer.
    pub fn min_memory_for(cfg: &ExecConfig, r_pages: u32) -> u32 {
        ((cfg.fudge_factor * r_pages as f64).sqrt().floor() as u32).max(1) + 1
    }

    /// How many partitions can be expanded with `alloc` pages: the expanded
    /// hash tables (`E·fr/B` pages) plus one spool output buffer per
    /// contracted partition plus one input buffer must fit.
    fn expanded_for(&self, alloc: u32) -> u32 {
        if alloc == 0 {
            return 0;
        }
        if alloc >= self.max_memory() {
            return self.partitions;
        }
        let b = self.partitions as f64;
        let per_part = self.fr / b;
        if per_part <= 1.0 {
            return self.partitions;
        }
        let e = (alloc as f64 - 1.0 - b) / (per_part - 1.0);
        (e.floor().max(0.0) as u32).min(self.partitions)
    }

    /// Fraction of tuples hashing to contracted partitions.
    fn contracted_fraction(&self) -> f64 {
        (self.partitions - self.expanded) as f64 / self.partitions as f64
    }

    /// Probe-scan CPU for a `pages`-page block at the current contraction
    /// level: hits probe and copy, spills only copy.
    fn probe_cpu_for(&self, pages: u32) -> u64 {
        let tuples = pages as f64 * self.cfg.tuples_per_page as f64;
        let frac_con = self.frac_con;
        let cpu = tuples
            * ((1.0 - frac_con) * (cost::HASH_PROBE + cost::HASH_COPY) as f64
                + frac_con * cost::HASH_COPY as f64);
        cpu as u64
    }

    /// Re-derive the cached scan costs. Called from `new` and
    /// `set_allocation` only — the scan steps read the cached values.
    fn refresh_cost_caches(&mut self) {
        self.frac_con = self.contracted_fraction();
        self.probe_cpu_block = self.probe_cpu_for(self.cfg.block_pages);
    }

    /// Fraction of the build input consumed so far (sizes the in-memory
    /// hash-table content during the build scan).
    fn build_fraction(&self) -> f64 {
        match self.state {
            State::Init | State::CreateSpill => 0.0,
            State::BuildScan | State::BuildFlush => {
                self.scan_pos as f64 / self.r_pages as f64
            }
            _ => 1.0,
        }
    }

    /// Append `pages` to the spill file, returning the write request.
    fn spill_write(&mut self, pages: u32) -> Action {
        let first = self.temp_write_pos % self.spill_capacity();
        self.temp_write_pos = self.temp_write_pos.wrapping_add(pages);
        self.pending_cpu += cost::START_IO;
        Action::Io(IoRequest {
            file: FileRef::Temp(SPILL_SLOT),
            first_page: first,
            pages,
            kind: IoKind::Write,
            prefetch: true,
        })
    }

    fn spill_capacity(&self) -> u32 {
        2 * (self.r_pages + self.s_pages)
    }

    /// Drain owed CPU / contraction spools / expansion reads; `None` means
    /// nothing is owed and the main state machine may proceed.
    fn drain_pending(&mut self) -> Option<Action> {
        if self.pending_cpu > 0 {
            return Some(Action::Cpu(std::mem::take(&mut self.pending_cpu)));
        }
        if self.pending_contract >= 1.0 {
            let pages = (self.pending_contract.floor() as u32).min(self.cfg.block_pages);
            self.pending_contract -= pages as f64;
            if self.pending_contract < 1.0 {
                self.pending_contract = 0.0; // flush the fractional tail
            }
            return Some(self.spill_write(pages));
        }
        if self.pending_expand_read >= 1.0 {
            let pages =
                (self.pending_expand_read.floor() as u32).min(self.cfg.block_pages);
            self.pending_expand_read -= pages as f64;
            if self.pending_expand_read < 1.0 {
                self.pending_expand_read = 0.0;
            }
            // Rebuild the hash table for the pages read back.
            self.pending_cpu +=
                pages as u64 * self.cfg.tuples_per_page as u64 * cost::HASH_INSERT
                    + cost::START_IO;
            let first = (self.second_read as u32) % self.spill_capacity();
            self.second_read += pages as f64;
            return Some(Action::Io(IoRequest {
                file: FileRef::Temp(SPILL_SLOT),
                first_page: first,
                pages,
                kind: IoKind::Read,
                prefetch: true,
            }));
        }
        None
    }
}

impl Operator for HashJoin {
    fn max_memory(&self) -> u32 {
        Self::max_memory_for(&self.cfg, self.r_pages)
    }

    fn min_memory(&self) -> u32 {
        Self::min_memory_for(&self.cfg, self.r_pages)
    }

    fn allocation(&self) -> u32 {
        self.alloc
    }

    fn set_allocation(&mut self, pages: u32) {
        assert!(
            pages == 0 || pages >= self.min_memory(),
            "allocation {pages} below the minimum {}",
            self.min_memory()
        );
        if pages == self.alloc {
            return;
        }
        if self.started {
            self.fluctuations += 1;
        }
        self.alloc = pages;
        let old_e = self.expanded;
        let new_e = self.expanded_for(pages);
        if new_e < old_e {
            // Contraction: spool the current contents of the demoted
            // partitions ("late contraction" writes them only now, not at
            // admission time). Contents are raw R pages; the fudge factor
            // inflates only the in-memory footprint.
            let per_part =
                self.r_pages as f64 / self.partitions as f64 * self.build_fraction();
            let dump = (old_e - new_e) as f64 * per_part;
            self.pending_contract += dump;
            self.spilled_r += dump;
        } else if new_e > old_e && self.state == State::ProbeScan {
            // Late expansion: read the spilled pages of the promoted
            // partitions back in so remaining S tuples join directly.
            let contracted = self.partitions - old_e;
            if contracted > 0 && self.spilled_r > 0.0 {
                let per_part = self.spilled_r / contracted as f64;
                let back = (new_e - old_e) as f64 * per_part;
                self.pending_expand_read += back;
                self.spilled_r -= back;
            }
        }
        self.expanded = new_e;
        self.refresh_cost_caches();
    }

    fn step(&mut self) -> Action {
        if let Some(action) = self.drain_pending() {
            return action;
        }
        if self.alloc == 0 {
            return Action::Parked;
        }
        match self.state {
            State::Init => {
                self.started = true;
                self.state = State::CreateSpill;
                Action::Cpu(cost::INIT_OP)
            }
            State::CreateSpill => {
                self.state = State::BuildScan;
                self.scan_pos = 0;
                Action::CreateTemp {
                    slot: SPILL_SLOT,
                    pages: self.spill_capacity(),
                }
            }
            State::BuildScan => {
                if self.spill_accum >= self.cfg.block_pages as f64 {
                    let pages = self.cfg.block_pages;
                    self.spill_accum -= pages as f64;
                    self.spilled_r += pages as f64;
                    return self.spill_write(pages);
                }
                if self.scan_pos >= self.r_pages {
                    self.state = State::BuildFlush;
                    return self.step();
                }
                let pages = self.cfg.block_pages.min(self.r_pages - self.scan_pos);
                let first = self.scan_pos;
                self.scan_pos += pages;
                let tuples = pages as u64 * self.cfg.tuples_per_page as u64;
                self.pending_cpu += tuples * cost::HASH_INSERT + cost::START_IO;
                self.spill_accum += pages as f64 * self.frac_con;
                Action::Io(IoRequest {
                    file: FileRef::Base(self.r_file),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::BuildFlush => {
                if self.spill_accum >= 1.0 {
                    let pages =
                        (self.spill_accum.ceil() as u32).min(self.cfg.block_pages);
                    self.spill_accum = (self.spill_accum - pages as f64).max(0.0);
                    self.spilled_r += pages as f64;
                    return self.spill_write(pages);
                }
                self.spill_accum = 0.0;
                self.state = State::ProbeScan;
                self.scan_pos = 0;
                self.step()
            }
            State::ProbeScan => {
                if self.spill_accum >= self.cfg.block_pages as f64 {
                    let pages = self.cfg.block_pages;
                    self.spill_accum -= pages as f64;
                    self.spilled_s += pages as f64;
                    return self.spill_write(pages);
                }
                if self.scan_pos >= self.s_pages {
                    self.state = State::ProbeFlush;
                    return self.step();
                }
                let pages = self.cfg.block_pages.min(self.s_pages - self.scan_pos);
                let first = self.scan_pos;
                self.scan_pos += pages;
                let cpu = if pages == self.cfg.block_pages {
                    self.probe_cpu_block
                } else {
                    self.probe_cpu_for(pages)
                };
                self.pending_cpu += cpu + cost::START_IO;
                self.spill_accum += pages as f64 * self.frac_con;
                Action::Io(IoRequest {
                    file: FileRef::Base(self.s_file),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::ProbeFlush => {
                if self.spill_accum >= 1.0 {
                    let pages =
                        (self.spill_accum.ceil() as u32).min(self.cfg.block_pages);
                    self.spill_accum = (self.spill_accum - pages as f64).max(0.0);
                    self.spilled_s += pages as f64;
                    return self.spill_write(pages);
                }
                self.spill_accum = 0.0;
                self.second_read = 0.0;
                self.state = State::SecondBuild;
                self.step()
            }
            State::SecondBuild => {
                if self.spilled_r < 1.0 {
                    self.spilled_r = 0.0;
                    self.state = State::SecondProbe;
                    return self.step();
                }
                let pages = (self.spilled_r.floor() as u32)
                    .min(self.cfg.block_pages)
                    .max(1);
                self.spilled_r = (self.spilled_r - pages as f64).max(0.0);
                let first = (self.second_read as u32) % self.spill_capacity();
                self.second_read += pages as f64;
                let tuples = pages as u64 * self.cfg.tuples_per_page as u64;
                self.pending_cpu += tuples * cost::HASH_INSERT + cost::START_IO;
                Action::Io(IoRequest {
                    file: FileRef::Temp(SPILL_SLOT),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::SecondProbe => {
                if self.spilled_s < 1.0 {
                    self.spilled_s = 0.0;
                    self.state = State::Terminate;
                    return self.step();
                }
                let pages = (self.spilled_s.floor() as u32)
                    .min(self.cfg.block_pages)
                    .max(1);
                self.spilled_s = (self.spilled_s - pages as f64).max(0.0);
                let first = (self.second_read as u32) % self.spill_capacity();
                self.second_read += pages as f64;
                let tuples = pages as u64 * self.cfg.tuples_per_page as u64;
                self.pending_cpu +=
                    tuples * (cost::HASH_PROBE + cost::HASH_COPY) + cost::START_IO;
                Action::Io(IoRequest {
                    file: FileRef::Temp(SPILL_SLOT),
                    first_page: first,
                    pages,
                    kind: IoKind::Read,
                    prefetch: true,
                })
            }
            State::Terminate => {
                self.state = State::DropSpill;
                Action::Cpu(cost::TERMINATE_OP)
            }
            State::DropSpill => {
                self.state = State::Done;
                Action::DropTemp { slot: SPILL_SLOT }
            }
            State::Done => Action::Finished,
        }
    }

    fn fluctuations(&self) -> u32 {
        self.fluctuations
    }

    fn operand_pages(&self) -> u32 {
        self.r_pages + self.s_pages
    }
}

/// Number of blocked I/Os needed to read the operands once (workload
/// characteristic 2 of Section 3.3).
pub fn operand_read_ios(cfg: &ExecConfig, r_pages: u32, s_pages: u32) -> u32 {
    blocks_for(r_pages, cfg.block_pages) + blocks_for(s_pages, cfg.block_pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(r: u32, s: u32) -> HashJoin {
        HashJoin::new(
            ExecConfig::default(),
            FileId::Relation(0),
            r,
            FileId::Relation(1),
            s,
        )
    }

    /// Drive the operator to completion with a fixed allocation, returning
    /// (base reads, temp reads, temp writes, cpu instructions).
    fn run_fixed(op: &mut HashJoin, alloc: u32) -> (u32, u32, u32, u64) {
        op.set_allocation(alloc);
        let mut base_reads = 0;
        let mut temp_reads = 0;
        let mut temp_writes = 0;
        let mut cpu = 0u64;
        for _ in 0..1_000_000 {
            match op.step() {
                Action::Cpu(n) => cpu += n,
                Action::Io(io) => match (io.file, io.kind) {
                    (FileRef::Base(_), IoKind::Read) => base_reads += io.pages,
                    (FileRef::Temp(_), IoKind::Read) => temp_reads += io.pages,
                    (FileRef::Temp(_), IoKind::Write) => temp_writes += io.pages,
                    (FileRef::Base(_), IoKind::Write) => {
                        panic!("joins never write relations")
                    }
                },
                Action::CreateTemp { .. } | Action::DropTemp { .. } => {}
                Action::Parked => panic!("parked with non-zero allocation"),
                Action::Finished => return (base_reads, temp_reads, temp_writes, cpu),
            }
        }
        panic!("join did not terminate");
    }

    #[test]
    fn memory_bounds_match_paper_baseline() {
        // ‖R‖ = 1200 → max ≈ 1321, min = 37 (Section 5.1).
        let cfg = ExecConfig::default();
        assert_eq!(HashJoin::max_memory_for(&cfg, 1200), 1321);
        assert_eq!(HashJoin::min_memory_for(&cfg, 1200), 37);
    }

    #[test]
    fn max_memory_join_spills_nothing() {
        let mut op = join(600, 3000);
        let max = op.max_memory();
        let (base, tr, tw, cpu) = run_fixed(&mut op, max);
        assert_eq!(base, 3600, "reads each operand exactly once");
        assert_eq!(tr, 0);
        assert_eq!(tw, 0);
        assert!(cpu > 0);
    }

    #[test]
    fn min_memory_join_spills_everything() {
        let (r, s) = (600, 3000);
        let mut op = join(r, s);
        let min = op.min_memory();
        let (base, tr, tw, _) = run_fixed(&mut op, min);
        assert_eq!(base, r + s);
        // Two-pass (Grace-style) join: all of R and S written and re-read,
        // within block-rounding slack.
        let expect = r + s;
        assert!(
            (tw as i64 - expect as i64).unsigned_abs() <= 12,
            "writes {tw} vs {expect}"
        );
        assert!(
            (tr as i64 - tw as i64).unsigned_abs() <= 12,
            "reads {tr} vs writes {tw}"
        );
    }

    #[test]
    fn intermediate_allocation_spills_partially() {
        let (r, s) = (600, 3000);
        let mut op = join(r, s);
        let mid = (op.min_memory() + op.max_memory()) / 2;
        let (_, tr, tw, _) = run_fixed(&mut op, mid);
        assert!(tw > 0, "mid allocation must spill something");
        assert!(
            (tw as f64) < 0.8 * (r + s) as f64,
            "mid allocation must spill less than everything: {tw}"
        );
        assert!((tr as i64 - tw as i64).unsigned_abs() <= 12);
    }

    #[test]
    fn more_memory_means_less_io() {
        let totals: Vec<u32> = [37, 200, 600, 1321]
            .iter()
            .map(|&alloc| {
                let mut op = join(1200, 6000);
                let (_, tr, tw, _) = run_fixed(&mut op, alloc);
                tr + tw
            })
            .collect();
        for w in totals.windows(2) {
            assert!(
                w[1] <= w[0],
                "I/O must not increase with memory: {totals:?}"
            );
        }
        assert!(totals[0] > totals[3]);
    }

    #[test]
    fn cpu_cost_scales_with_relation_sizes() {
        let mut small = join(100, 500);
        let a = small.max_memory();
        let (_, _, _, cpu_small) = run_fixed(&mut small, a);
        let mut big = join(200, 1000);
        let a = big.max_memory();
        let (_, _, _, cpu_big) = run_fixed(&mut big, a);
        assert!(cpu_big > cpu_small);
        // Per Table 4 at max memory: init + term + R·tpp·100 + S·tpp·300 +
        // I/O starts. Check the big join's total against the closed form.
        let tpp = 40u64;
        let expected = 40_000
            + 10_000
            + 200 * tpp * 100
            + 1000 * tpp * 300
            + ((200 + 1000 + 5) / 6) as u64 * 1000;
        let ratio = cpu_big as f64 / expected as f64;
        assert!((0.95..1.05).contains(&ratio), "cpu {cpu_big} vs {expected}");
    }

    #[test]
    fn contraction_mid_build_spools_and_costs_io() {
        let mut op = join(1200, 6000);
        op.set_allocation(op.max_memory());
        // Read half the build input.
        let mut read = 0;
        while read < 600 {
            match op.step() {
                Action::Io(io) if matches!(io.file, FileRef::Base(_)) => read += io.pages,
                Action::Finished => panic!("premature finish"),
                _ => {}
            }
        }
        // Contract to the minimum: the in-memory half of R must spool out.
        op.set_allocation(op.min_memory());
        let mut spool_writes = 0;
        loop {
            match op.step() {
                Action::Io(io)
                    if matches!(io.file, FileRef::Temp(_))
                        && io.kind == IoKind::Write =>
                {
                    spool_writes += io.pages
                }
                Action::Finished => break,
                _ => {}
            }
        }
        // Roughly: 600 pages dumped + the other 600 spilled during the rest
        // of the build + all 6000 of S.
        assert!(
            (6800..=7600).contains(&spool_writes),
            "spool writes {spool_writes}"
        );
        assert_eq!(op.fluctuations(), 1);
    }

    #[test]
    fn late_expansion_reads_back_spilled_build_pages() {
        let mut op = join(1200, 6000);
        op.set_allocation(op.min_memory()); // everything contracted
                                            // Finish build, start probing.
        let mut s_read = 0;
        while s_read < 600 {
            match op.step() {
                Action::Io(io) if io.file == FileRef::Base(FileId::Relation(1)) => {
                    s_read += io.pages
                }
                Action::Finished => panic!("premature finish"),
                _ => {}
            }
        }
        // Grant the maximum: spilled R pages must be read back (expansion).
        op.set_allocation(op.max_memory());
        let mut expand_reads = 0.0;
        let mut finished = false;
        let mut steps = 0;
        while !finished {
            steps += 1;
            assert!(steps < 100_000);
            match op.step() {
                Action::Io(io)
                    if matches!(io.file, FileRef::Temp(_)) && io.kind == IoKind::Read =>
                {
                    expand_reads += io.pages as f64;
                }
                Action::Finished => finished = true,
                _ => {}
            }
        }
        // All ~1200 spilled R pages come back (expansion + second pass);
        // after expansion the remaining 5400 S pages join directly.
        assert!(
            (1100.0..=1900.0).contains(&expand_reads),
            "expansion reads {expand_reads}"
        );
    }

    #[test]
    fn suspension_parks_after_flush_and_resumes() {
        let mut op = join(600, 3000);
        op.set_allocation(op.max_memory());
        let mut read = 0;
        while read < 300 {
            match op.step() {
                Action::Io(io) if matches!(io.file, FileRef::Base(_)) => read += io.pages,
                _ => {}
            }
        }
        op.set_allocation(0);
        // Drain flush work, then we must park.
        let mut parked = false;
        for _ in 0..10_000 {
            match op.step() {
                Action::Parked => {
                    parked = true;
                    break;
                }
                Action::Finished => panic!("cannot finish while suspended"),
                _ => {}
            }
        }
        assert!(parked, "operator must park once flushed");
        // Resume and run to completion.
        op.set_allocation(op.min_memory());
        let mut done = false;
        for _ in 0..1_000_000 {
            if op.step() == Action::Finished {
                done = true;
                break;
            }
        }
        assert!(done);
        // Two mid-execution changes: suspend, resume (the initial grant
        // happened before execution started and does not count).
        assert_eq!(op.fluctuations(), 2);
    }

    #[test]
    fn io_requests_are_block_sized() {
        let mut op = join(1201, 6001); // non-multiples of the block size
        op.set_allocation(op.min_memory());
        loop {
            match op.step() {
                Action::Io(io) => {
                    assert!(io.pages >= 1 && io.pages <= 6, "bad block {io:?}");
                }
                Action::Finished => break,
                _ => {}
            }
        }
    }

    #[test]
    fn operand_read_ios_counts_blocks() {
        let cfg = ExecConfig::default();
        assert_eq!(operand_read_ios(&cfg, 1200, 6000), 200 + 1000);
        assert_eq!(operand_read_ios(&cfg, 1201, 6000), 201 + 1000);
    }

    #[test]
    fn allocation_below_min_is_rejected() {
        let mut op = join(1200, 6000);
        let min = op.min_memory();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            op.set_allocation(min - 1);
        }));
        assert!(result.is_err());
    }
}
