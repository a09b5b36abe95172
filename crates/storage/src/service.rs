//! Pluggable storage service models.
//!
//! The seed hard-wired the paper's 1994 cylinder geometry (seek, rotation,
//! transfer) into `Disk::start`, so every policy conclusion was
//! implicitly conditioned on mechanical storage. [`ServiceModel`] makes the
//! device the pluggable part: it owns access-time computation *and* the
//! positional state the computation depends on (the head cylinder for a
//! mechanical disk; nothing for an SSD).
//!
//! Two implementations:
//!
//! * [`CylinderModel`] — the existing [`DiskGeometry`] + [`ServiceTable`]
//!   math, extracted verbatim. The table is not the model's own: the
//!   caller lends it per access, so a farm of disks fills one. Behavior is pinned byte-for-byte by the
//!   golden report (`tests/golden_report.rs`): swapping `Disk` onto this
//!   model moved zero simulated events.
//! * [`SsdModel`] — no mechanical terms at all: a per-op latency plus a
//!   bandwidth-proportional transfer, with queue-depth internal parallelism
//!   and read/write asymmetry ([`SsdSpec`]).
//!
//! [`DeviceSpec`] is the configuration-surface enum that selects and builds
//! a model; it lives here (not in `rtdbs`) so the bench driver and tests
//! can construct devices without the engine.

use crate::disk::IoKind;
use crate::geometry::{DiskGeometry, ServiceTable};
use simkit::Duration;

/// A storage device's service-time model. Owns the device-positional state
/// (e.g. head cylinder) that the next access's cost depends on.
///
/// Object-safe and `Send` so a [`crate::Disk`] can box one and still move
/// across the bench driver's worker threads.
pub trait ServiceModel: std::fmt::Debug + Send {
    /// Short device name for reports (`"cylinder"`, `"ssd"`).
    fn name(&self) -> &'static str;

    /// Capacity of the device's prefetch cache in pages.
    fn cache_pages(&self) -> u32;

    /// Current queue position used for elevator (SCAN) ordering among
    /// equal-priority requests: the head cylinder for a mechanical disk, a
    /// constant for devices with no mechanical position (every request is
    /// then equally "close", and ED order alone decides).
    fn position(&self) -> u32;

    /// Teleport the positional state to `cylinder` without charging any
    /// service time. Stand-alone estimation uses this to start the head
    /// where the query's first access lands (no initial-seek charge).
    fn park_at(&mut self, cylinder: u32);

    /// Service time of one media access of `pages` pages at `cylinder`,
    /// advancing the positional state. `queued` is the number of requests
    /// still waiting behind this one — a queue-depth hint that models with
    /// internal parallelism (SSD) use to amortize per-op latency; the
    /// cylinder model ignores it. `table` is the memo of mechanical service
    /// components the caller shares among all its devices of one geometry;
    /// models without mechanical terms ignore it.
    fn access_time(
        &mut self,
        cylinder: u32,
        pages: u32,
        kind: IoKind,
        queued: usize,
        table: &mut ServiceTable,
    ) -> Duration;
}

/// The paper's mechanical disk: `Seek(n) = SeekFactor·√n` + half-rotation +
/// linear transfer, memoized through the [`ServiceTable`] lent to each
/// access (bit-equal to the direct [`DiskGeometry`] math — pinned by
/// `service_table_matches_direct_computation`). The model itself holds only
/// its geometry and head cylinder.
#[derive(Debug)]
pub struct CylinderModel {
    geometry: DiskGeometry,
    head: u32,
}

impl CylinderModel {
    /// A new model with the head parked at cylinder 0.
    pub fn new(geometry: DiskGeometry) -> Self {
        CylinderModel { geometry, head: 0 }
    }
}

impl ServiceModel for CylinderModel {
    fn name(&self) -> &'static str {
        "cylinder"
    }

    fn cache_pages(&self) -> u32 {
        self.geometry.cache_pages()
    }

    fn position(&self) -> u32 {
        self.head
    }

    fn park_at(&mut self, cylinder: u32) {
        self.head = cylinder;
    }

    fn access_time(
        &mut self,
        cylinder: u32,
        pages: u32,
        _kind: IoKind,
        _queued: usize,
        table: &mut ServiceTable,
    ) -> Duration {
        let dist = self.head.abs_diff(cylinder);
        self.head = cylinder;
        table.access_time(&self.geometry, dist, pages)
    }
}

/// Parameters of a flash device: per-op latency + bandwidth transfer, with
/// read/write asymmetry and NCQ-style internal parallelism. Defaults model
/// a mid-range SATA SSD.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsdSpec {
    /// Per-operation read latency in microseconds (default 60).
    pub read_latency_us: f64,
    /// Per-operation write latency in microseconds (default 250 — program
    /// operations are slower than reads on flash).
    pub write_latency_us: f64,
    /// Sequential read bandwidth in MB/s (default 500).
    pub read_bandwidth_mb_s: f64,
    /// Sequential write bandwidth in MB/s (default 300).
    pub write_bandwidth_mb_s: f64,
    /// Internal command-queue depth (default 8): per-op latency is divided
    /// by the number of concurrently queued requests, up to this depth.
    pub queue_depth: u32,
    /// Page size in bytes (default 8192, matching the paper's pages).
    pub page_bytes: u32,
    /// On-device prefetch-cache size in bytes (default 256 KB, matching the
    /// mechanical disk so cache behavior is comparable across devices).
    pub cache_bytes: u32,
}

impl Default for SsdSpec {
    fn default() -> Self {
        SsdSpec {
            read_latency_us: 60.0,
            write_latency_us: 250.0,
            read_bandwidth_mb_s: 500.0,
            write_bandwidth_mb_s: 300.0,
            queue_depth: 8,
            page_bytes: 8192,
            cache_bytes: 256 * 1024,
        }
    }
}

impl SsdSpec {
    /// Capacity of the prefetch cache in pages (0 when `page_bytes` is 0 —
    /// config validation rejects that upstream rather than dividing by
    /// zero here).
    pub fn cache_pages(&self) -> u32 {
        self.cache_bytes.checked_div(self.page_bytes).unwrap_or(0)
    }
}

/// Flash service model: no seek, no rotation. One access costs
/// `latency / min(queue_depth, queued + 1) + bytes / bandwidth`, with
/// latency and bandwidth picked per [`IoKind`]. The latency division
/// models internal parallelism: when requests are stacked behind this one
/// the device overlaps their command setup, so the *effective* per-op
/// latency shrinks while the bandwidth term (a shared-channel resource)
/// does not. Folding the overlap into the service time keeps the engine's
/// one-in-flight-per-disk event shape unchanged.
#[derive(Debug)]
pub struct SsdModel {
    spec: SsdSpec,
}

impl SsdModel {
    /// A new model for `spec`.
    pub fn new(spec: SsdSpec) -> Self {
        assert!(spec.queue_depth > 0, "SSD queue depth must be positive");
        SsdModel { spec }
    }
}

impl ServiceModel for SsdModel {
    fn name(&self) -> &'static str {
        "ssd"
    }

    fn cache_pages(&self) -> u32 {
        self.spec.cache_pages()
    }

    fn position(&self) -> u32 {
        // No mechanical position: every request is equally close, so
        // elevator ordering degenerates to pure ED order.
        0
    }

    fn park_at(&mut self, _cylinder: u32) {}

    fn access_time(
        &mut self,
        _cylinder: u32,
        pages: u32,
        kind: IoKind,
        queued: usize,
        _table: &mut ServiceTable,
    ) -> Duration {
        let (latency_us, bandwidth_mb_s) = match kind {
            IoKind::Read => (self.spec.read_latency_us, self.spec.read_bandwidth_mb_s),
            IoKind::Write => (self.spec.write_latency_us, self.spec.write_bandwidth_mb_s),
        };
        let lanes = u64::from(self.spec.queue_depth)
            .min(queued as u64 + 1)
            .max(1) as f64;
        let bytes = pages.max(1) as f64 * self.spec.page_bytes as f64;
        // One float-to-tick rounding for the whole access, so the service
        // time is a pure function of (pages, kind, queued) — deterministic
        // across runs and thread counts.
        Duration::from_secs_f64(
            latency_us * 1e-6 / lanes + bytes / (bandwidth_mb_s * 1e6),
        )
    }
}

/// Which service model a disk runs — the device axis of the configuration
/// surface (`ResourceConfig::device`).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum DeviceSpec {
    /// The paper's mechanical disk, parameterized by the resource config's
    /// [`DiskGeometry`] (which also drives file layout for every device).
    #[default]
    Cylinder,
    /// A flash device with the given parameters.
    Ssd(SsdSpec),
}

impl DeviceSpec {
    /// Short device name for cell labels (`"cyl"`, `"ssd"`).
    pub fn name(&self) -> &'static str {
        match self {
            DeviceSpec::Cylinder => "cyl",
            DeviceSpec::Ssd(_) => "ssd",
        }
    }

    /// Build a fresh service model. `geometry` parameterizes the cylinder
    /// device; the SSD carries its own spec.
    pub fn build(&self, geometry: &DiskGeometry) -> Box<dyn ServiceModel> {
        match self {
            DeviceSpec::Cylinder => Box::new(CylinderModel::new(*geometry)),
            DeviceSpec::Ssd(spec) => Box::new(SsdModel::new(*spec)),
        }
    }

    /// Prefetch-cache capacity in pages for this device (0 only on
    /// degenerate specs, which config validation rejects).
    pub fn cache_pages(&self, geometry: &DiskGeometry) -> u32 {
        match self {
            DeviceSpec::Cylinder => geometry
                .cache_bytes
                .checked_div(geometry.page_bytes)
                .unwrap_or(0),
            DeviceSpec::Ssd(spec) => spec.cache_pages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cylinder_model_is_bit_equal_to_direct_geometry() {
        // The extracted model must reproduce the seed's exact Durations:
        // distance from the tracked head, then seek + rotation + transfer.
        let g = DiskGeometry::default();
        let mut model = CylinderModel::new(g);
        let mut t = ServiceTable::new();
        let mut head = 0u32;
        for (cyl, pages) in [(700, 6), (700, 6), (705, 1), (0, 12), (1499, 64), (3, 2)] {
            let expect = g.access_time(head.abs_diff(cyl), pages);
            let got = model.access_time(cyl, pages, IoKind::Read, 0, &mut t);
            assert_eq!(got, expect, "mismatch at ({cyl}, {pages})");
            head = cyl;
            assert_eq!(model.position(), head);
        }
        // Writes and queue hints change nothing on the mechanical model.
        let expect = g.access_time(head.abs_diff(10), 6);
        assert_eq!(model.access_time(10, 6, IoKind::Write, 5, &mut t), expect);
    }

    #[test]
    fn cylinder_park_charges_no_seek() {
        let g = DiskGeometry::default();
        let mut model = CylinderModel::new(g);
        model.park_at(900);
        let t = model.access_time(900, 6, IoKind::Read, 0, &mut ServiceTable::new());
        assert_eq!(t, g.access_time(0, 6), "parked head must not seek");
    }

    #[test]
    fn ssd_reads_beat_writes_and_both_beat_the_disk() {
        let mut ssd = SsdModel::new(SsdSpec::default());
        let read = ssd.access_time(700, 6, IoKind::Read, 0, &mut ServiceTable::new());
        let write = ssd.access_time(42, 6, IoKind::Write, 0, &mut ServiceTable::new());
        assert!(read < write, "flash reads are faster than programs");
        let mut cyl = CylinderModel::new(DiskGeometry::default());
        let disk = cyl.access_time(700, 6, IoKind::Read, 0, &mut ServiceTable::new());
        assert!(
            write.as_secs_f64() * 10.0 < disk.as_secs_f64(),
            "an SSD block access should be well over 10x faster: {write:?} vs {disk:?}"
        );
    }

    #[test]
    fn ssd_transfer_scales_with_pages_not_position() {
        let mut ssd = SsdModel::new(SsdSpec::default());
        let near = ssd.access_time(0, 6, IoKind::Read, 0, &mut ServiceTable::new());
        let far = ssd.access_time(1499, 6, IoKind::Read, 0, &mut ServiceTable::new());
        assert_eq!(near, far, "no mechanical position");
        let one = ssd
            .access_time(0, 1, IoKind::Read, 0, &mut ServiceTable::new())
            .as_secs_f64();
        let six = ssd
            .access_time(0, 6, IoKind::Read, 0, &mut ServiceTable::new())
            .as_secs_f64();
        let spec = SsdSpec::default();
        let lat = spec.read_latency_us * 1e-6;
        // Subtracting the per-op latency leaves the pure bandwidth term;
        // times are rounded to microsecond ticks, so allow 1 µs per page.
        assert!(((six - lat) - 6.0 * (one - lat)).abs() < 6e-6);
    }

    #[test]
    fn ssd_queue_depth_amortizes_latency_up_to_the_limit() {
        let spec = SsdSpec {
            queue_depth: 4,
            ..SsdSpec::default()
        };
        let mut ssd = SsdModel::new(spec);
        let solo = ssd.access_time(0, 1, IoKind::Read, 0, &mut ServiceTable::new());
        let stacked = ssd.access_time(0, 1, IoKind::Read, 3, &mut ServiceTable::new());
        assert!(stacked < solo, "queued work amortizes per-op latency");
        // Beyond the device's queue depth the amortization saturates.
        let deep = ssd.access_time(0, 1, IoKind::Read, 100, &mut ServiceTable::new());
        assert_eq!(deep, stacked, "parallelism capped at queue_depth");
        // The bandwidth term is not amortized: a big stacked transfer still
        // costs at least its media time.
        let spec = SsdSpec::default();
        let big = ssd
            .access_time(0, 64, IoKind::Read, 100, &mut ServiceTable::new())
            .as_secs_f64();
        let media = 64.0 * spec.page_bytes as f64 / (spec.read_bandwidth_mb_s * 1e6);
        assert!(big >= media);
    }

    #[test]
    fn ssd_service_is_deterministic() {
        let mut a = SsdModel::new(SsdSpec::default());
        let mut b = SsdModel::new(SsdSpec::default());
        for q in 0..20 {
            assert_eq!(
                a.access_time(q, 6, IoKind::Read, q as usize, &mut ServiceTable::new()),
                b.access_time(q, 6, IoKind::Read, q as usize, &mut ServiceTable::new())
            );
        }
    }

    #[test]
    fn device_spec_builds_and_names() {
        let g = DiskGeometry::default();
        assert_eq!(DeviceSpec::default(), DeviceSpec::Cylinder);
        assert_eq!(DeviceSpec::Cylinder.name(), "cyl");
        assert_eq!(DeviceSpec::Ssd(SsdSpec::default()).name(), "ssd");
        assert_eq!(DeviceSpec::Cylinder.build(&g).name(), "cylinder");
        assert_eq!(DeviceSpec::Ssd(SsdSpec::default()).build(&g).name(), "ssd");
        // Both defaults expose the paper's 32-page cache.
        assert_eq!(DeviceSpec::Cylinder.cache_pages(&g), 32);
        assert_eq!(DeviceSpec::Ssd(SsdSpec::default()).cache_pages(&g), 32);
    }
}
