//! Action-stream pins carried over from the retired run-length protocol.
//!
//! Operators used to have two drive protocols: [`Operator::step`] and a
//! run-length protocol that planned up to 64 actions per call and, when an
//! allocation change interrupted a partially consumed plan, rolled the
//! operator back to a checkpoint and replayed the consumed prefix. This
//! file held the two action-stream identical under arbitrary allocation
//! schedules — suspensions, contractions and expansions landing at any
//! action offset. The run-length protocol is gone; `step` is the one
//! protocol.
//!
//! Before it was deleted, every case below was driven through the
//! run-length protocol and its action stream and final fluctuation count
//! were recorded as digests under `tests/golden/`. The tests now drive the
//! same cases through `step` and require the same digests, so the
//! comparison still spans the two protocols, now against the recording.
//!
//! Re-bless after an *intentional* operator change:
//! `UPDATE_GOLDEN=1 cargo test -q -p exec --test run_protocol_model`

use exec::{Action, ExecConfig, ExternalSort, HashJoin, Operator};
use std::fmt::Write as _;
use std::path::PathBuf;
use storage::FileId;

/// Hard cap on driven actions so a regression cannot hang the test.
const MAX_ACTIONS: usize = 2_000_000;

/// One schedule entry: consume `gap` actions, then set the allocation
/// selected by `sel` (0 = suspend, 1 = min, 2/3 = intermediate, 4 = max).
type Schedule = Vec<(usize, u8)>;

fn pick_alloc(sel: u8, min: u32, max: u32) -> u32 {
    match sel % 5 {
        0 => 0,
        1 => min,
        2 => min + (max - min) / 3,
        3 => min + 2 * (max - min) / 3,
        _ => max,
    }
}

/// Drive `op` through `schedule` to completion, returning its action
/// stream and final fluctuation count.
fn drive<O: Operator>(op: &mut O, schedule: &Schedule) -> (Vec<Action>, u32) {
    let min = op.min_memory();
    let max = op.max_memory();
    op.set_allocation(max);
    let mut out = Vec::new();
    // A parked operator stops being driven until the entry's allocation
    // change lands, exactly like the engine's `Waiting::Nothing` state.
    'sched: for &(gap, sel) in schedule {
        for _ in 0..gap {
            let a = op.step();
            out.push(a);
            match a {
                Action::Finished => break 'sched,
                Action::Parked => break,
                _ => {}
            }
        }
        op.set_allocation(pick_alloc(sel, min, max));
    }
    if out.last() != Some(&Action::Finished) {
        if op.allocation() == 0 {
            op.set_allocation(min);
        }
        loop {
            let a = op.step();
            out.push(a);
            assert_ne!(a, Action::Parked, "parked with a non-zero allocation");
            if a == Action::Finished {
                break;
            }
            assert!(out.len() < MAX_ACTIONS, "operator did not terminate");
        }
    }
    (out, op.fluctuations())
}

/// Drive `op` through `schedule` and append the case's digest line.
fn record<O: Operator>(out: &mut String, label: &str, mut op: O, schedule: &Schedule) {
    let (actions, fluctuations) = drive(&mut op, schedule);
    // 64-bit FNV-1a over the actions' exact `Debug` rendering.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for a in &actions {
        line.clear();
        let _ = writeln!(line, "{a:?}");
        for &b in line.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let _ = writeln!(
        out,
        "{label}: actions={} fluctuations={fluctuations} fnv={hash:016x}",
        actions.len()
    );
}

/// Compare `actual` against `tests/golden/<file>`, or overwrite it when
/// `UPDATE_GOLDEN` is set.
fn check_golden(file: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let path = dir.join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden directory");
        std::fs::write(&path, actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {} ({e})", path.display()));
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "action stream {i} deviates from {}", path.display());
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "case count differs from {}",
        path.display()
    );
}

/// SplitMix64: a fixed, self-contained case generator, so the recorded
/// case list never depends on another crate's random stream.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// 1–11 entries, gaps below 200 actions, any allocation selector.
    fn schedule(&mut self) -> Schedule {
        let len = 1 + self.below(11);
        (0..len)
            .map(|_| (self.below(200) as usize, self.below(255) as u8))
            .collect()
    }
}

fn join(r_pages: u32, s_pages: u32) -> HashJoin {
    HashJoin::new(
        ExecConfig::default(),
        FileId::Relation(0),
        r_pages,
        FileId::Relation(1),
        s_pages,
    )
}

fn sort(r_pages: u32) -> ExternalSort {
    ExternalSort::new(ExecConfig::default(), FileId::Relation(0), r_pages)
}

#[test]
fn hash_join_run_protocol_matches_step_protocol() {
    let mut rng = SplitMix(1994);
    let mut out = String::new();
    for case in 0..24 {
        let r_pages = 40 + rng.below(360) as u32;
        let s_pages = r_pages * (1 + rng.below(5) as u32);
        let schedule = rng.schedule();
        let label = format!("case {case} r={r_pages} s={s_pages} schedule={schedule:?}");
        record(&mut out, &label, join(r_pages, s_pages), &schedule);
    }
    check_golden("hash_join_streams.txt", &out);
}

#[test]
fn external_sort_run_protocol_matches_step_protocol() {
    let mut rng = SplitMix(1995);
    let mut out = String::new();
    for case in 0..24 {
        let r_pages = 24 + rng.below(276) as u32;
        // Start from a drawn allocation: at its maximum a sort runs in
        // memory and finishes before most schedules' first change lands.
        let mut schedule = vec![(0, rng.below(255) as u8)];
        schedule.extend(rng.schedule());
        let label = format!("case {case} r={r_pages} schedule={schedule:?}");
        record(&mut out, &label, sort(r_pages), &schedule);
    }
    check_golden("external_sort_streams.txt", &out);
}

/// Directed case: interruptions at every offset of the first few planned
/// batches of a small join — where the run-length protocol's checkpoint
/// replay had its off-by-one risks.
#[test]
fn every_interruption_offset_replays_exactly() {
    let mut out = String::new();
    for offset in 0usize..140 {
        let schedule: Schedule = vec![(offset, 2), (37, 3), (11, 0), (5, 4)];
        record(
            &mut out,
            &format!("offset {offset}"),
            join(60, 180),
            &schedule,
        );
    }
    check_golden("interruption_offsets.txt", &out);
}

/// Directed case: a sort suspended mid-merge and resumed (exercises the
/// merge-step split on suspension). The intermediate start forms two runs
/// of the 120 pages; the merge begins about 85 actions in.
#[test]
fn sort_suspend_resume_mid_merge_matches() {
    let mut out = String::new();
    for offset in [0usize, 3, 17, 40, 90, 150, 260] {
        let schedule: Schedule = vec![(0, 2), (120 + offset, 0), (9, 4)];
        record(&mut out, &format!("offset {offset}"), sort(120), &schedule);
    }
    check_golden("sort_suspend_resume.txt", &out);
}
