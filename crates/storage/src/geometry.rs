//! Disk geometry and the service-time model of Section 4.2.
//!
//! `DiskAccess = Seek + RotateDelay + Transfer`, with
//! `Seek(n) = SeekFactor · √n` as in \[Bitt88\]. Defaults follow Table 3:
//! 1500 cylinders of 90 pages each, 16.7 ms rotation, 8 KB pages. The scan
//! of Table 3 garbles the seek factor; we use 0.617 ms (the value in the
//! companion papers). `PagesPerTrack` is not in the table at all — we assume
//! 15 tracks per cylinder (6 pages, i.e. ~49 KB, per track — typical of the
//! era's drives), giving a per-page transfer time of `16.7 ms / 6 ≈ 2.8 ms`
//! and, with it, stand-alone join times of the magnitude Table 7 reports.

use simkit::Duration;

/// Physical parameters of one disk (Table 3 defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskGeometry {
    /// Number of cylinders (`NumCylinders`, default 1500).
    pub num_cylinders: u32,
    /// Pages per cylinder (`CylinderSize`, default 90).
    pub pages_per_cylinder: u32,
    /// Pages per track (default 6; see module docs).
    pub pages_per_track: u32,
    /// Seek factor in milliseconds (default 0.617).
    pub seek_factor_ms: f64,
    /// Full-rotation time in milliseconds (`RotationTime`, default 16.7).
    pub rotation_ms: f64,
    /// Page size in bytes (`PageSize`, default 8192).
    pub page_bytes: u32,
    /// Size of the per-disk prefetch cache in bytes (default 256 KB).
    pub cache_bytes: u32,
}

impl Default for DiskGeometry {
    fn default() -> Self {
        DiskGeometry {
            num_cylinders: 1500,
            pages_per_cylinder: 90,
            pages_per_track: 6,
            seek_factor_ms: 0.617,
            rotation_ms: 16.7,
            page_bytes: 8192,
            cache_bytes: 256 * 1024,
        }
    }
}

impl DiskGeometry {
    /// Capacity of the prefetch cache in pages (0 when `page_bytes` is 0 —
    /// config validation rejects that rather than dividing by zero).
    pub fn cache_pages(&self) -> u32 {
        self.cache_bytes.checked_div(self.page_bytes).unwrap_or(0)
    }

    /// Seek time across `n` cylinders: `SeekFactor · √n`; zero when the head
    /// is already on-cylinder.
    pub fn seek_time(&self, cylinders: u32) -> Duration {
        if cylinders == 0 {
            Duration::ZERO
        } else {
            Duration::from_millis_f64(self.seek_factor_ms * (cylinders as f64).sqrt())
        }
    }

    /// Expected rotational delay: half a rotation. Deterministic (expected
    /// value) so that runs are reproducible.
    pub fn rotational_delay(&self) -> Duration {
        Duration::from_millis_f64(self.rotation_ms / 2.0)
    }

    /// Media transfer time for `pages` contiguous pages.
    pub fn transfer_time(&self, pages: u32) -> Duration {
        Duration::from_millis_f64(
            self.rotation_ms * pages as f64 / self.pages_per_track as f64,
        )
    }

    /// Full service time for one access: seek across `cyl_distance`
    /// cylinders, average rotational latency, then transfer of `pages`.
    pub fn access_time(&self, cyl_distance: u32, pages: u32) -> Duration {
        self.seek_time(cyl_distance) + self.rotational_delay() + self.transfer_time(pages)
    }

    /// Cylinder holding page `page` of a file that starts at
    /// `start_cylinder` (files are laid out contiguously, cylinder-aligned).
    pub fn cylinder_of(&self, start_cylinder: u32, page: u32) -> u32 {
        start_cylinder + page / self.pages_per_cylinder
    }

    /// Number of whole cylinders needed to hold `pages` pages.
    pub fn cylinders_for(&self, pages: u32) -> u32 {
        pages.div_ceil(self.pages_per_cylinder).max(1)
    }
}

/// Sentinel marking a [`ServiceTable`] entry as not yet computed. A real
/// service component can never reach it (it would be a ~585-millennia
/// seek).
const UNFILLED: Duration = Duration(u64::MAX);

/// Memoized service-time components for one disk geometry.
///
/// `DiskGeometry::access_time` runs a `sqrt` (seek) plus three
/// float-to-tick roundings per media access; every distinct cylinder
/// distance and transfer length maps to a fixed [`Duration`], so the disk
/// hot path fills this table lazily and then serves lookups. Entries are
/// produced by *the same expressions* as the direct computation — bit-equal
/// `Duration`s, pinned by `service_table_matches_direct_computation` across
/// the full cylinder range — which keeps simulation behavior identical.
///
/// The table depends only on the geometry, never on a head position, so
/// all the disks of a [`crate::DiskFarm`] share one: the farm owns it with
/// its one geometry and lends both to each access ([`crate::Disk::start`]).
/// A new table holds no heap; the first lookup sizes it for the geometry
/// it is asked about, so every caller of one table must pass the same
/// geometry.
#[derive(Debug)]
pub struct ServiceTable {
    /// Seek time by cylinder distance (index 0 = on-cylinder = zero).
    seek: Vec<Duration>,
    /// Transfer time by page count, for the small counts accesses use.
    transfer: Vec<Duration>,
    /// Constant expected rotational delay.
    rotation: Duration,
}

impl Default for ServiceTable {
    fn default() -> Self {
        ServiceTable::new()
    }
}

impl ServiceTable {
    /// Transfer lengths memoized directly; longer transfers (never produced
    /// by block-sized operator I/O) fall back to the direct computation.
    const MAX_TRANSFER_PAGES: usize = 64;

    /// An empty table, sized and filled by its first lookups.
    pub const fn new() -> Self {
        ServiceTable {
            seek: Vec::new(),
            transfer: Vec::new(),
            rotation: UNFILLED,
        }
    }

    /// Memoized [`DiskGeometry::seek_time`].
    fn seek_time(&mut self, geometry: &DiskGeometry, cylinders: u32) -> Duration {
        if self.seek.is_empty() {
            self.seek = vec![UNFILLED; geometry.num_cylinders as usize];
        }
        let Some(slot) = self.seek.get_mut(cylinders as usize) else {
            return geometry.seek_time(cylinders);
        };
        if *slot == UNFILLED {
            *slot = geometry.seek_time(cylinders);
        }
        *slot
    }

    /// Memoized [`DiskGeometry::transfer_time`].
    fn transfer_time(&mut self, geometry: &DiskGeometry, pages: u32) -> Duration {
        if self.transfer.is_empty() {
            self.transfer = vec![UNFILLED; Self::MAX_TRANSFER_PAGES + 1];
        }
        let Some(slot) = self.transfer.get_mut(pages as usize) else {
            return geometry.transfer_time(pages);
        };
        if *slot == UNFILLED {
            *slot = geometry.transfer_time(pages);
        }
        *slot
    }

    /// Memoized [`DiskGeometry::access_time`]: identical sum of identical
    /// components.
    pub fn access_time(
        &mut self,
        geometry: &DiskGeometry,
        cyl_distance: u32,
        pages: u32,
    ) -> Duration {
        if self.rotation == UNFILLED {
            self.rotation = geometry.rotational_delay();
        }
        self.seek_time(geometry, cyl_distance)
            + self.rotation
            + self.transfer_time(geometry, pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cache_is_32_pages() {
        assert_eq!(DiskGeometry::default().cache_pages(), 32);
        let no_pages = DiskGeometry {
            page_bytes: 0,
            ..DiskGeometry::default()
        };
        assert_eq!(no_pages.cache_pages(), 0, "no division by zero");
    }

    #[test]
    fn seek_zero_distance_is_free() {
        assert_eq!(DiskGeometry::default().seek_time(0), Duration::ZERO);
    }

    #[test]
    fn seek_follows_square_root() {
        let g = DiskGeometry::default();
        let s100 = g.seek_time(100).as_secs_f64();
        let s400 = g.seek_time(400).as_secs_f64();
        assert!((s400 / s100 - 2.0).abs() < 1e-3, "sqrt scaling violated");
        // 0.617 ms * 10 = 6.17 ms for 100 cylinders.
        assert!((s100 - 0.00617).abs() < 1e-5);
    }

    #[test]
    fn rotational_delay_is_half_rotation() {
        let g = DiskGeometry::default();
        assert!((g.rotational_delay().as_secs_f64() - 0.00835).abs() < 1e-6);
    }

    #[test]
    fn transfer_scales_linearly() {
        let g = DiskGeometry::default();
        let one = g.transfer_time(1).as_secs_f64();
        let six = g.transfer_time(6).as_secs_f64();
        // Times are rounded to microsecond ticks, so allow 1 µs per page.
        assert!((six - 6.0 * one).abs() < 6e-6);
        // 16.7/6 ms per page.
        assert!((one - 16.7e-3 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn block_access_time_magnitude() {
        // A 6-page blocked sequential access with a short seek should cost
        // roughly 0.617·√10 + 8.35 + 16.7 ≈ 27 ms.
        let g = DiskGeometry::default();
        let t = g.access_time(10, 6).as_secs_f64();
        assert!((0.024..0.030).contains(&t), "t = {t}");
    }

    #[test]
    fn service_table_matches_direct_computation() {
        // The memoized service math must return the exact `Duration` bits
        // of the direct computation for every reachable cylinder distance
        // and the transfer lengths block-sized I/O produces — including
        // past the memoized transfer range (fallback path) and on repeated
        // (now cached) lookups.
        let g = DiskGeometry::default();
        let mut table = ServiceTable::new();
        for dist in 0..g.num_cylinders {
            assert_eq!(
                table.seek_time(&g, dist),
                g.seek_time(dist),
                "seek mismatch at distance {dist}"
            );
            assert_eq!(
                table.seek_time(&g, dist),
                g.seek_time(dist),
                "cached seek mismatch at distance {dist}"
            );
        }
        for pages in 1..=(2 * ServiceTable::MAX_TRANSFER_PAGES as u32) {
            assert_eq!(
                table.transfer_time(&g, pages),
                g.transfer_time(pages),
                "transfer mismatch at {pages} pages"
            );
        }
        for dist in [0, 1, 7, 99, 1499] {
            for pages in [1, 2, 6, 12] {
                assert_eq!(
                    table.access_time(&g, dist, pages),
                    g.access_time(dist, pages),
                    "access mismatch at ({dist}, {pages})"
                );
            }
        }
        // Distances beyond the table (not produced by a real disk, but the
        // API accepts them) fall back to the direct math.
        assert_eq!(
            table.seek_time(&g, g.num_cylinders + 5),
            g.seek_time(g.num_cylinders + 5)
        );
    }

    #[test]
    fn cylinder_mapping() {
        let g = DiskGeometry::default();
        assert_eq!(g.cylinder_of(700, 0), 700);
        assert_eq!(g.cylinder_of(700, 89), 700);
        assert_eq!(g.cylinder_of(700, 90), 701);
        assert_eq!(g.cylinders_for(1), 1);
        assert_eq!(g.cylinders_for(90), 1);
        assert_eq!(g.cylinders_for(91), 2);
        assert_eq!(g.cylinders_for(0), 1);
    }
}
