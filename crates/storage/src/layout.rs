//! On-disk layout: relations, temporary files, and their placement.
//!
//! Section 4.1: "all relations assigned to the same disk are randomly placed
//! on its middle cylinders; temporary files are allotted either the inner or
//! the outer cylinders." We reproduce that policy: the middle third of each
//! disk holds relations, and temp files alternate between the inner and
//! outer thirds.

use crate::geometry::DiskGeometry;
use simkit::Rng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher for the [`Layout`] file maps and the
/// engine's standalone-time cache: their keys are small fixed-width
/// integers (file ids, group numbers), where SipHash's per-probe cost buys
/// nothing. Only used where iteration order is never observed (pure point
/// lookups), so swapping the hasher cannot move a simulated event.
#[derive(Default)]
pub struct FastHasher(u64);

/// Knuth's multiplicative constant (golden-ratio based).
const FAST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FAST_SEED);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FAST_SEED);
    }

    fn finish(&self) -> u64 {
        // Final avalanche so low bits (the map's bucket index) mix.
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(FAST_SEED);
        h ^ (h >> 29)
    }
}

/// `HashMap` with [`FastHasher`], for order-insensitive point lookups.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Identifies one disk in the farm.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DiskId(pub u32);

/// Identifies a database relation or a temporary file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FileId {
    /// A base relation, permanently resident.
    Relation(u32),
    /// A temporary (spool / run) file owned by one query.
    Temp(u64),
}

/// Location and size of one file.
#[derive(Clone, Copy, Debug)]
pub struct FileMeta {
    /// Disk holding the file (files never span disks in this model).
    pub disk: DiskId,
    /// First cylinder of the (contiguous, cylinder-aligned) extent.
    pub start_cylinder: u32,
    /// Length in pages.
    pub pages: u32,
}

/// Metadata of one base relation.
#[derive(Clone, Copy, Debug)]
pub struct RelationMeta {
    /// The relation's file id.
    pub file: FileId,
    /// Which relation group (Section 4.1) it belongs to.
    pub group: u32,
    /// Size in pages.
    pub pages: u32,
    /// Disk it lives on.
    pub disk: DiskId,
}

/// One relation group from the database model (Table 2).
#[derive(Clone, Copy, Debug)]
pub struct RelationGroupSpec {
    /// `RelPerDisk_i` — number of relations per disk in this group.
    pub relations_per_disk: u32,
    /// `SizeRange_i` — inclusive size range in pages; the
    /// `relations_per_disk` relations take sizes at equal intervals across
    /// this range.
    pub size_range: (u32, u32),
}

impl RelationGroupSpec {
    /// The sizes of the relations in this group on each disk, spaced at
    /// equal intervals across `size_range` (e.g. `[100, 200]` with 5
    /// relations gives 100, 125, 150, 175, 200 — the paper's own example).
    pub fn sizes(&self) -> Vec<u32> {
        let n = self.relations_per_disk;
        let (lo, hi) = self.size_range;
        assert!(lo <= hi, "size range is inverted");
        assert!(n > 0, "a group must have at least one relation per disk");
        if n == 1 {
            return vec![lo];
        }
        (0..n)
            .map(|i| {
                let frac = i as f64 / (n - 1) as f64;
                (lo as f64 + frac * (hi - lo) as f64).round() as u32
            })
            .collect()
    }
}

/// The complete database layout plus a temp-file allocator.
pub struct Layout {
    geometry: DiskGeometry,
    num_disks: u32,
    files: FastMap<FileId, FileMeta>,
    relations: Vec<RelationMeta>,
    by_group: FastMap<u32, Vec<usize>>,
    next_temp: u64,
    temp_toggle: bool,
    next_temp_disk: u32,
}

impl Layout {
    /// Build the database described by `groups` across `num_disks` disks.
    ///
    /// Relations of each group are created on **every** disk with sizes at
    /// equal intervals across the group's range, then placed at random
    /// cylinders within the middle third of their disk (`rng` drives the
    /// placement only; sizes are deterministic).
    pub fn build(
        geometry: DiskGeometry,
        num_disks: u32,
        groups: &[RelationGroupSpec],
        rng: &mut Rng,
    ) -> Self {
        assert!(num_disks > 0, "need at least one disk");
        let mut layout = Layout {
            geometry,
            num_disks,
            files: FastMap::default(),
            relations: Vec::new(),
            by_group: FastMap::default(),
            next_temp: 0,
            temp_toggle: false,
            next_temp_disk: 0,
        };
        let middle_lo = geometry.num_cylinders / 3;
        let middle_hi = 2 * geometry.num_cylinders / 3;
        let mut next_rel_id = 0u32;
        for (gi, group) in groups.iter().enumerate() {
            for disk in 0..num_disks {
                for pages in group.sizes() {
                    let span = geometry.cylinders_for(pages);
                    let max_start = middle_hi.saturating_sub(span).max(middle_lo);
                    let start = if max_start > middle_lo {
                        middle_lo + rng.below((max_start - middle_lo) as u64) as u32
                    } else {
                        middle_lo
                    };
                    let file = FileId::Relation(next_rel_id);
                    next_rel_id += 1;
                    layout.files.insert(
                        file,
                        FileMeta {
                            disk: DiskId(disk),
                            start_cylinder: start,
                            pages,
                        },
                    );
                    let idx = layout.relations.len();
                    layout.relations.push(RelationMeta {
                        file,
                        group: gi as u32,
                        pages,
                        disk: DiskId(disk),
                    });
                    layout.by_group.entry(gi as u32).or_default().push(idx);
                }
            }
        }
        layout
    }

    /// The geometry this layout was built for.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// Number of disks in the farm.
    pub fn num_disks(&self) -> u32 {
        self.num_disks
    }

    /// All relations, in creation order.
    pub fn relations(&self) -> &[RelationMeta] {
        &self.relations
    }

    /// The relations belonging to `group`.
    pub fn relations_in_group(&self, group: u32) -> &[usize] {
        self.by_group.get(&group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Pick a uniformly random relation from `group`.
    ///
    /// # Panics
    /// Panics if the group is empty or unknown.
    pub fn random_relation(&self, group: u32, rng: &mut Rng) -> RelationMeta {
        let members = self.relations_in_group(group);
        assert!(!members.is_empty(), "relation group {group} is empty");
        self.relations[members[rng.index(members.len())]]
    }

    /// Location of `file`.
    ///
    /// # Panics
    /// Panics if the file does not exist (use after `drop_temp`).
    pub fn meta(&self, file: FileId) -> FileMeta {
        *self
            .files
            .get(&file)
            .unwrap_or_else(|| panic!("unknown file {file:?}"))
    }

    /// Allocate a temporary file of `pages` pages.
    ///
    /// Temp files round-robin across disks and alternate between the inner
    /// and the outer cylinder regions, per Section 4.1.
    pub fn create_temp(&mut self, pages: u32) -> FileId {
        let disk = DiskId(self.next_temp_disk);
        self.next_temp_disk = (self.next_temp_disk + 1) % self.num_disks;
        let inner = self.temp_toggle;
        self.temp_toggle = !self.temp_toggle;
        let start = if inner {
            // Inner third, near cylinder 0.
            self.geometry.num_cylinders / 6
        } else {
            // Outer third.
            5 * self.geometry.num_cylinders / 6
        };
        let id = FileId::Temp(self.next_temp);
        self.next_temp += 1;
        self.files.insert(
            id,
            FileMeta {
                disk,
                start_cylinder: start,
                pages,
            },
        );
        id
    }

    /// Release a temporary file. Dropping an already-dropped temp is an
    /// error; dropping a base relation is forbidden.
    pub fn drop_temp(&mut self, file: FileId) {
        match file {
            FileId::Temp(_) => {
                let removed = self.files.remove(&file);
                assert!(removed.is_some(), "double drop of {file:?}");
            }
            FileId::Relation(_) => panic!("cannot drop a base relation"),
        }
    }

    /// Number of live files (relations + outstanding temps).
    pub fn live_files(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_layout(num_disks: u32) -> (Layout, Rng) {
        let mut rng = Rng::new(42);
        let layout = Layout::build(
            DiskGeometry::default(),
            num_disks,
            &[
                RelationGroupSpec {
                    relations_per_disk: 3,
                    size_range: (600, 1800),
                },
                RelationGroupSpec {
                    relations_per_disk: 5,
                    size_range: (100, 200),
                },
            ],
            &mut rng,
        );
        (layout, rng)
    }

    #[test]
    fn group_sizes_at_equal_intervals() {
        // Paper example: RelPerDisk = 5, SizeRange = [100, 200]
        let g = RelationGroupSpec {
            relations_per_disk: 5,
            size_range: (100, 200),
        };
        assert_eq!(g.sizes(), vec![100, 125, 150, 175, 200]);
        let single = RelationGroupSpec {
            relations_per_disk: 1,
            size_range: (50, 150),
        };
        assert_eq!(single.sizes(), vec![50]);
    }

    #[test]
    fn builds_relations_per_disk_per_group() {
        let (layout, _) = test_layout(10);
        // (3 + 5) relations per disk × 10 disks.
        assert_eq!(layout.relations().len(), 80);
        assert_eq!(layout.relations_in_group(0).len(), 30);
        assert_eq!(layout.relations_in_group(1).len(), 50);
    }

    #[test]
    fn relations_placed_on_middle_cylinders() {
        let (layout, _) = test_layout(4);
        let g = layout.geometry();
        for rel in layout.relations() {
            let meta = layout.meta(rel.file);
            let end = meta.start_cylinder + g.cylinders_for(meta.pages);
            assert!(meta.start_cylinder >= g.num_cylinders / 3, "start too low");
            assert!(end <= 2 * g.num_cylinders / 3 + g.cylinders_for(meta.pages));
        }
    }

    #[test]
    fn temp_files_alternate_inner_outer() {
        let (mut layout, _) = test_layout(2);
        let t1 = layout.create_temp(100);
        let t2 = layout.create_temp(100);
        let c1 = layout.meta(t1).start_cylinder;
        let c2 = layout.meta(t2).start_cylinder;
        let mid_lo = layout.geometry().num_cylinders / 3;
        let mid_hi = 2 * layout.geometry().num_cylinders / 3;
        assert!(c1 < mid_lo || c1 >= mid_hi, "temp on middle cylinders");
        assert!(c2 < mid_lo || c2 >= mid_hi, "temp on middle cylinders");
        assert_ne!(c1, c2, "temps should alternate regions");
    }

    #[test]
    fn temp_files_round_robin_disks() {
        let (mut layout, _) = test_layout(3);
        let disks: Vec<u32> = (0..6)
            .map(|_| {
                let t = layout.create_temp(10);
                layout.meta(t).disk.0
            })
            .collect();
        assert_eq!(disks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn drop_temp_releases() {
        let (mut layout, _) = test_layout(1);
        let before = layout.live_files();
        let t = layout.create_temp(10);
        assert_eq!(layout.live_files(), before + 1);
        layout.drop_temp(t);
        assert_eq!(layout.live_files(), before);
    }

    #[test]
    #[should_panic(expected = "double drop")]
    fn double_drop_panics() {
        let (mut layout, _) = test_layout(1);
        let t = layout.create_temp(10);
        layout.drop_temp(t);
        layout.drop_temp(t);
    }

    #[test]
    #[should_panic(expected = "cannot drop a base relation")]
    fn dropping_relation_panics() {
        let (mut layout, _) = test_layout(1);
        let file = layout.relations()[0].file;
        layout.drop_temp(file);
    }

    #[test]
    fn random_relation_comes_from_group() {
        let (layout, mut rng) = test_layout(2);
        for _ in 0..100 {
            let rel = layout.random_relation(1, &mut rng);
            assert_eq!(rel.group, 1);
            assert!((100..=200).contains(&rel.pages));
        }
    }

    #[test]
    fn placement_is_seed_deterministic() {
        let build = |seed| {
            let mut rng = Rng::new(seed);
            let l = Layout::build(
                DiskGeometry::default(),
                4,
                &[RelationGroupSpec {
                    relations_per_disk: 3,
                    size_range: (600, 1800),
                }],
                &mut rng,
            );
            l.relations()
                .iter()
                .map(|r| (r.file, l.meta(r.file).start_cylinder))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
