//! Model test for the disk queue's one pop path.
//!
//! [`DiskQueue::pop`] is a single argmin over a packed rank. This test
//! holds it to a naive reference written straight from Section 4.2 ("ED
//! across priorities, elevator within"), not from that rank: take the most
//! urgent deadline level; within it, the nearest cylinder on the side the
//! head is sweeping towards (the head's own cylinder counts on either
//! side); if that side is empty, reverse the sweep; among equal cylinders,
//! first come first served. Long random mixes of `push`, `pop` and
//! `discard_where` must pop the same tag at every step.

use simkit::SimTime;
use storage::{DiskQueue, QueuedRequest};

/// The reference queue: requests in arrival order, scanned naively.
struct Section42Model {
    /// `(deadline, cylinder, tag)` in arrival order.
    reqs: Vec<(u64, u32, u32)>,
    ascending: bool,
}

impl Section42Model {
    fn new() -> Self {
        Section42Model {
            reqs: Vec::new(),
            ascending: true,
        }
    }

    fn push(&mut self, deadline: u64, cylinder: u32, tag: u32) {
        self.reqs.push((deadline, cylinder, tag));
    }

    fn pop(&mut self, head: u32) -> Option<(u32, u32)> {
        let level = self.reqs.iter().map(|r| r.0).min()?;
        let on_side = |cylinder: u32, ascending: bool| {
            if ascending {
                cylinder >= head
            } else {
                cylinder <= head
            }
        };
        if !self
            .reqs
            .iter()
            .any(|r| r.0 == level && on_side(r.1, self.ascending))
        {
            self.ascending = !self.ascending;
        }
        let mut best: Option<usize> = None;
        for (i, r) in self.reqs.iter().enumerate() {
            if r.0 != level || !on_side(r.1, self.ascending) {
                continue;
            }
            // Strictly nearer only: among equal distances the earlier
            // arrival (lower index) stays the pick.
            if best.is_none_or(|b| r.1.abs_diff(head) < self.reqs[b].1.abs_diff(head)) {
                best = Some(i);
            }
        }
        let (_, cylinder, tag) = self.reqs.remove(best.expect("the level is non-empty"));
        Some((cylinder, tag))
    }

    fn discard_where(&mut self, remove: impl Fn(u32) -> bool) -> usize {
        let before = self.reqs.len();
        self.reqs.retain(|r| !remove(r.2));
        before - self.reqs.len()
    }
}

/// Drive the queue and the model through one pseudo-random op tape and
/// compare every popped tag, every discard count and the depth after
/// every operation. `levels` deadline levels and `cylinders` cylinders
/// shape the ties: few of each make big elevator groups and same-cylinder
/// FIFO runs.
fn equivalence_run(ops: u32, levels: u64, cylinders: u32, seed: u64) {
    let mut queue = DiskQueue::new();
    let mut model = Section42Model::new();
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut head = cylinders / 2;
    let (mut pops, mut reversals, mut deepest) = (0u32, 0u32, 0usize);
    for tag in 0..ops {
        match next() % 16 {
            // Pushes slightly outnumber pops, so depth wanders upward and
            // back instead of sitting at 0 or 1.
            0..=7 => {
                let deadline = 100 + next() % levels;
                let cylinder = next() as u32 % cylinders;
                queue.push(QueuedRequest {
                    deadline: SimTime(deadline),
                    cylinder,
                    tag,
                });
                model.push(deadline, cylinder, tag);
            }
            8..=14 => {
                let was_ascending = model.ascending;
                let got = queue.pop(head).map(|r| (r.cylinder, r.tag));
                let want = model.pop(head);
                assert_eq!(got, want, "pop diverged at op {tag} (head {head})");
                if let Some((cylinder, _)) = got {
                    pops += 1;
                    reversals += u32::from(model.ascending != was_ascending);
                    // Usually the head follows the access; now and then
                    // it stays put, as after a prefetch-cache hit.
                    if next() % 4 != 0 {
                        head = cylinder;
                    }
                }
            }
            _ => {
                let (modulus, residue) = (2 + next() as u32 % 5, next() as u32 % 2);
                let got = queue.discard_where(|&t| t % modulus == residue);
                let want = model.discard_where(|t| t % modulus == residue);
                assert_eq!(got, want, "discard diverged at op {tag}");
            }
        }
        assert_eq!(queue.len(), model.reqs.len(), "depth diverged at op {tag}");
        deepest = deepest.max(queue.len());
    }
    while let Some(want) = model.pop(head) {
        let got = queue.pop(head).map(|r| (r.cylinder, r.tag));
        assert_eq!(got, Some(want), "drain diverged");
        head = want.0;
    }
    assert!(queue.pop(head).is_none());
    assert!(pops > ops / 4, "degenerate sequence: {pops} pops");
    assert!(
        deepest >= 16,
        "degenerate sequence: depth never passed {deepest}"
    );
    assert!(
        reversals > 0,
        "degenerate sequence: the sweep never reversed"
    );
}

/// Few deadline levels and cylinders: ties at every rank component.
#[test]
fn ties_everywhere() {
    equivalence_run(20_000, 3, 8, 0x2545_F491_4F6C_DD1D);
}

/// The paper's 1 000-cylinder disk with a handful of deadline levels.
#[test]
fn paper_cylinders() {
    equivalence_run(20_000, 8, 1_000, 0x9E37_79B9);
}

/// Every request its own level: the pick is pure ED.
#[test]
fn distinct_deadlines() {
    equivalence_run(5_000, 1 << 40, 1_000, 7);
}
