//! One physical disk: a head cylinder, a prefetch [`BufferPool`], and an
//! ED+elevator queue; plus [`DiskFarm`], the set of disks with the one
//! [`DiskGeometry`] and [`ServiceTable`] they share.
//!
//! Section 4.2: each disk has a 256-KByte cache used for prefetching; on a
//! sequential read that misses the cache, `BlockSize` (6) pages are fetched,
//! **except during the merge phase of an external sort** (the merge reads
//! many runs concurrently, so prefetching would pollute the tiny cache).
//! Whenever queries have enough buffers they spool outputs so writes also go
//! to disk in blocks.
//!
//! The disk is a passive state machine: the simulator's disk manager calls
//! [`DiskFarm::start`] to begin servicing a request (obtaining its service
//! time), schedules the completion on its calendar, and calls
//! [`Disk::finish`] when the event fires. A media access costs the
//! geometry's seek from the head cylinder, half a rotation and the
//! transfer, and leaves the head on the accessed cylinder. Busy time is
//! the caller's to book: the disk keeps no clock.

use crate::geometry::{DiskGeometry, ServiceTable};
use crate::layout::FileId;
use crate::pool::BufferPool;
use crate::queue::{DiskQueue, QueuedRequest};
use simkit::{Duration, SimTime};

/// Whether an access reads or writes the media.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoKind {
    /// Read; may hit the prefetch cache.
    Read,
    /// Write; always touches the media (write-through).
    Write,
}

/// A physical disk access (page range within one file).
#[derive(Clone, Debug)]
pub struct Access {
    /// Opaque owner tag (the simulator stores the owning query id here so
    /// aborted queries' pending requests can be cancelled).
    pub owner: u64,
    /// File being accessed.
    pub file: FileId,
    /// First page of the range (file-relative).
    pub first_page: u32,
    /// Number of pages.
    pub pages: u32,
    /// Read or write.
    pub kind: IoKind,
    /// If true, a read miss fetches whole cache blocks (sequential
    /// prefetch); merge-phase reads set this to false.
    pub prefetch: bool,
    /// Target cylinder (resolved from the layout by the caller).
    pub cylinder: u32,
}

/// The service decision for one access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Service {
    /// Satisfied from the prefetch cache; no media access.
    CacheHit,
    /// Requires the media for `time`; the head moves to the access's
    /// cylinder.
    Media {
        /// Total service time: seek + rotation + transfer.
        time: Duration,
    },
    /// The device is in an outage window: the access failed and the disk
    /// holds it for a retry after `backoff` of sim time. The caller
    /// schedules the retry; backoff time does **not** count as utilization
    /// (the device is unreachable, not serving).
    Faulted {
        /// 1-based retry attempt this failure begins (1 = first retry).
        attempt: u32,
        /// Capped exponential backoff before the retry may start.
        backoff: Duration,
    },
    /// The access failed and its retry budget is spent: a hard I/O error.
    /// The disk stays idle; the caller decides the owner's fate
    /// (abort vs. requeue).
    FaultExhausted,
}

/// Retry attempts an access gets during an outage before it surfaces as
/// [`Service::FaultExhausted`].
const MAX_RETRIES: u32 = 5;
/// Backoff before the first retry: 0.25 s of sim time.
const BACKOFF_BASE: Duration = Duration(250_000);
/// Ceiling on the exponential backoff: 4 s of sim time.
const BACKOFF_CAP: Duration = Duration(4_000_000);

/// Backoff before retry `attempt` (1-based): `min(base · 2^(attempt−1), cap)`.
fn backoff(attempt: u32) -> Duration {
    let mut b = BACKOFF_BASE;
    for _ in 1..attempt {
        if b >= BACKOFF_CAP {
            break;
        }
        b = Duration(b.0.saturating_mul(2));
    }
    b.min(BACKOFF_CAP)
}

/// One disk: queue + head + cache, plus fault state (degradation factor,
/// outage flag, pending retry) driven by the simulator's fault plan.
pub struct Disk {
    /// Cylinder the head rests on: where the last media access ended.
    head: u32,
    queue: DiskQueue<Access>,
    busy: bool,
    cache: BufferPool,
    /// Media service-time multiplier (1.0 = healthy).
    degrade: f64,
    /// True inside an outage window: every access fails, even would-be
    /// cache hits — the device is unreachable, not just slow.
    outage: bool,
    /// The access waiting out a backoff, with its retry attempt count.
    retry: Option<(Access, u32)>,
}

impl Disk {
    /// A new idle disk with the head at cylinder 0 and an LRU prefetch
    /// pool sized by `geometry`'s cache capacity.
    pub fn new(geometry: &DiskGeometry, block_pages: u32) -> Self {
        Disk {
            head: 0,
            queue: DiskQueue::new(),
            busy: false,
            cache: BufferPool::new(geometry.cache_pages(), block_pages),
            degrade: 1.0,
            outage: false,
            retry: None,
        }
    }

    /// Set the media service-time multiplier (1.0 = healthy). Applies to
    /// accesses started from now on; the in-flight one keeps its time.
    pub fn set_degrade(&mut self, factor: f64) {
        self.degrade = factor;
    }

    /// Enter (`true`) or leave (`false`) an outage window.
    pub fn set_outage(&mut self, outage: bool) {
        self.outage = outage;
    }

    /// Queue an access with ED priority `deadline`.
    pub fn enqueue(&mut self, deadline: SimTime, access: Access) {
        self.queue.push(QueuedRequest {
            deadline,
            cylinder: access.cylinder,
            tag: access,
        });
    }

    /// True if the disk is currently servicing a request.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Number of queued (not yet started) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Begin servicing the next queued request, if idle and work exists.
    /// Returns the access and its service outcome; the caller schedules the
    /// completion event (immediately for a cache hit). A media access is
    /// priced on `geometry` through `table`, the memo its farm shares.
    pub fn start(
        &mut self,
        geometry: &DiskGeometry,
        table: &mut ServiceTable,
    ) -> Option<(Access, Service)> {
        if self.busy {
            return None;
        }
        // A pending retry goes before the queue: it already holds the
        // device's attention.
        let (access, attempts) = match self.retry.take() {
            Some((a, n)) => (a, n),
            None => (self.queue.pop(self.head)?.tag, 0),
        };
        if self.outage {
            let attempt = attempts + 1;
            if attempt > MAX_RETRIES {
                // Budget spent: hard error; the disk stays idle so the
                // caller can immediately start the next request.
                return Some((access, Service::FaultExhausted));
            }
            let backoff = backoff(attempt);
            self.retry = Some((access.clone(), attempt));
            // Busy blocks the queue for the backoff, but the device is not
            // serving (the caller books no busy time for it).
            self.busy = true;
            return Some((access, Service::Faulted { attempt, backoff }));
        }
        let mut service = self.service(&access, geometry, table);
        if self.degrade != 1.0 {
            if let Service::Media { time } = service {
                service = Service::Media {
                    time: time.scale(self.degrade),
                };
            }
        }
        self.busy = true;
        Some((access, service))
    }

    /// A [`Service::Faulted`] backoff has elapsed: release the device so
    /// [`Disk::start`] can run the retry (or, if it was cancelled
    /// meanwhile, the next queued request).
    pub fn retry_elapsed(&mut self) {
        debug_assert!(self.busy, "retry_elapsed without a pending backoff");
        self.busy = false;
    }

    /// Compute the service decision for `access` (cache consult + timing).
    fn service(
        &mut self,
        access: &Access,
        geometry: &DiskGeometry,
        table: &mut ServiceTable,
    ) -> Service {
        match access.kind {
            IoKind::Read => {
                if self
                    .cache
                    .lookup(access.file, access.first_page, access.pages)
                {
                    return Service::CacheHit;
                }
                // Fetch: with prefetch on, round the fetch up to whole
                // blocks starting at the block boundary.
                let fetch_pages = if access.prefetch {
                    let bp = self.cache.block_pages();
                    let first_block = access.first_page / bp;
                    let last_block = (access.first_page + access.pages.max(1) - 1) / bp;
                    (last_block - first_block + 1) * bp
                } else {
                    access.pages.max(1)
                };
                let time = self.media_time(access.cylinder, fetch_pages, geometry, table);
                if access.prefetch {
                    let bp = self.cache.block_pages();
                    self.cache.insert(
                        access.file,
                        (access.first_page / bp) * bp,
                        fetch_pages,
                    );
                }
                Service::Media { time }
            }
            IoKind::Write => Service::Media {
                time: self.media_time(
                    access.cylinder,
                    access.pages.max(1),
                    geometry,
                    table,
                ),
            },
        }
    }

    /// Media time of `pages` pages at `cylinder`: seek from the head,
    /// half a rotation, transfer. Leaves the head on `cylinder`.
    fn media_time(
        &mut self,
        cylinder: u32,
        pages: u32,
        geometry: &DiskGeometry,
        table: &mut ServiceTable,
    ) -> Duration {
        let distance = self.head.abs_diff(cylinder);
        self.head = cylinder;
        table.access_time(geometry, distance, pages)
    }

    /// Mark the in-flight request complete.
    pub fn finish(&mut self) {
        debug_assert!(self.busy, "finish without start");
        self.busy = false;
    }

    /// Remove queued requests matching `pred` (aborted queries). In-flight
    /// requests are allowed to complete (a started disk access cannot be
    /// recalled). A matching access waiting out a retry backoff is dropped
    /// too — its pending retry event then just releases the device.
    pub fn cancel_queued<F: Fn(&Access) -> bool>(&mut self, pred: F) -> usize {
        let mut n = self.queue.discard_where(|a| pred(a));
        if self.retry.as_ref().is_some_and(|(a, _)| pred(a)) {
            self.retry = None;
            n += 1;
        }
        n
    }

    /// Invalidate cached lines of a deleted file.
    pub fn invalidate(&mut self, file: FileId) {
        self.cache.invalidate_file(file);
    }
}

/// All the disks in the system, with their one geometry and the one
/// [`ServiceTable`] they fill: the disks are identical, so one memo of the
/// geometry's service components serves them all.
pub struct DiskFarm {
    disks: Vec<Disk>,
    geometry: DiskGeometry,
    table: ServiceTable,
}

impl DiskFarm {
    /// `n` identical idle disks of `geometry`.
    pub fn new(n: u32, geometry: DiskGeometry, block_pages: u32) -> Self {
        assert!(n > 0, "a database system needs at least one disk");
        DiskFarm {
            disks: (0..n).map(|_| Disk::new(&geometry, block_pages)).collect(),
            geometry,
            table: ServiceTable::new(),
        }
    }

    /// [`Disk::start`] on disk `i`, lending it the farm's geometry and
    /// service table.
    pub fn start(&mut self, i: usize) -> Option<(Access, Service)> {
        self.disks[i].start(&self.geometry, &mut self.table)
    }

    /// Number of disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always false: the farm is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mutable access to disk `i`.
    pub fn disk_mut(&mut self, i: usize) -> &mut Disk {
        &mut self.disks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyl_disk() -> Disk {
        Disk::new(&DiskGeometry::default(), 6)
    }

    /// [`Disk::start`] on the default geometry with a fresh service table.
    fn start(disk: &mut Disk) -> Option<(Access, Service)> {
        disk.start(&DiskGeometry::default(), &mut ServiceTable::new())
    }

    fn read(file: u32, first: u32, pages: u32, cylinder: u32) -> Access {
        Access {
            owner: u64::from(file),
            file: FileId::Relation(file),
            first_page: first,
            pages,
            kind: IoKind::Read,
            prefetch: true,
            cylinder,
        }
    }

    #[test]
    fn sequential_read_misses_then_hits() {
        let mut disk = cyl_disk();
        disk.enqueue(SimTime(10), read(0, 0, 6, 700));
        let (_, s1) = start(&mut disk).unwrap();
        assert!(matches!(s1, Service::Media { .. }));
        disk.finish();
        // Re-read the same block: cache hit.
        disk.enqueue(SimTime(10), read(0, 0, 6, 700));
        let (_, s2) = start(&mut disk).unwrap();
        assert_eq!(s2, Service::CacheHit);
        disk.finish();
    }

    #[test]
    fn non_prefetch_read_does_not_populate_cache() {
        let mut disk = cyl_disk();
        let mut acc = read(0, 0, 1, 700);
        acc.prefetch = false;
        disk.enqueue(SimTime(10), acc.clone());
        let (_, s1) = start(&mut disk).unwrap();
        match s1 {
            Service::Media { time } => {
                // Single page, no block round-up.
                let expected = DiskGeometry::default().access_time(700, 1);
                assert_eq!(time, expected);
            }
            other => panic!("cold read cannot {other:?}"),
        }
        disk.finish();
        disk.enqueue(SimTime(10), acc);
        let (_, s2) = start(&mut disk).unwrap();
        assert!(
            matches!(s2, Service::Media { .. }),
            "no prefetch, so no hit"
        );
    }

    #[test]
    fn prefetch_rounds_to_block() {
        let g = DiskGeometry::default();
        let mut disk = cyl_disk();
        // 2-page read spanning a block: fetch rounds up to 6 pages.
        disk.enqueue(SimTime(10), read(0, 2, 2, 700));
        let (_, s) = start(&mut disk).unwrap();
        match s {
            Service::Media { time } => {
                assert_eq!(time, g.access_time(700, 6));
            }
            _ => panic!("expected media access"),
        }
    }

    #[test]
    fn cylinder_model_is_bit_equal_to_direct_geometry() {
        // Media time is the geometry's direct math over the distance from
        // the tracked head, for reads and writes alike, also when the
        // shared memo already holds the components.
        let g = DiskGeometry::default();
        let mut disk = cyl_disk();
        let mut table = ServiceTable::new();
        let mut head = 0u32;
        for (i, (cyl, pages)) in
            [(700, 6), (700, 6), (705, 1), (0, 12), (1499, 64), (3, 2)]
                .into_iter()
                .enumerate()
        {
            let mut access = read(i as u32, 0, pages, cyl);
            access.prefetch = false;
            if i % 2 == 1 {
                access.kind = IoKind::Write;
            }
            disk.enqueue(SimTime(1), access);
            let (_, s) = disk.start(&g, &mut table).unwrap();
            let expect = g.access_time(head.abs_diff(cyl), pages);
            assert_eq!(s, Service::Media { time: expect }, "at ({cyl}, {pages})");
            disk.finish();
            head = cyl;
        }
    }

    #[test]
    fn head_moves_and_second_seek_is_shorter() {
        let mut disk = cyl_disk();
        disk.enqueue(SimTime(10), read(0, 0, 6, 700));
        let (_, s1) = start(&mut disk).unwrap();
        let t1 = match s1 {
            Service::Media { time } => time,
            _ => panic!(),
        };
        disk.finish();
        disk.enqueue(SimTime(10), read(1, 0, 6, 705));
        let (_, s2) = start(&mut disk).unwrap();
        let t2 = match s2 {
            Service::Media { time } => time,
            _ => panic!(),
        };
        assert!(t2 < t1, "short seek {t2:?} should beat long seek {t1:?}");
    }

    #[test]
    fn busy_disk_does_not_start_twice() {
        let mut disk = cyl_disk();
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        disk.enqueue(SimTime(2), read(1, 0, 6, 800));
        assert!(start(&mut disk).is_some());
        assert!(start(&mut disk).is_none(), "busy");
        disk.finish();
        assert!(start(&mut disk).is_some());
    }

    #[test]
    fn cancel_queued_drops_only_matching() {
        let mut disk = cyl_disk();
        disk.enqueue(SimTime(1), read(7, 0, 6, 700));
        disk.enqueue(SimTime(2), read(8, 0, 6, 800));
        let n = disk.cancel_queued(|a| a.file == FileId::Relation(7));
        assert_eq!(n, 1);
        assert_eq!(disk.queue_len(), 1);
    }

    #[test]
    fn cache_invalidation() {
        let mut disk = cyl_disk();
        let temp = FileId::Temp(3);
        let mut acc = read(0, 0, 6, 100);
        acc.file = temp;
        disk.enqueue(SimTime(1), acc.clone());
        start(&mut disk).unwrap();
        disk.finish();
        disk.invalidate(temp);
        disk.enqueue(SimTime(1), acc);
        let (_, s) = start(&mut disk).unwrap();
        assert!(
            matches!(s, Service::Media { .. }),
            "invalidated line must miss"
        );
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        // Cache holds 32/6 = 5 blocks; touching 6 distinct blocks evicts the
        // first.
        let mut disk = cyl_disk();
        for b in 0..6u32 {
            disk.enqueue(SimTime(1), read(0, b * 6, 6, 700));
            start(&mut disk).unwrap();
            disk.finish();
        }
        // Block 0 was evicted.
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = start(&mut disk).unwrap();
        assert!(matches!(s, Service::Media { .. }));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let ms = Duration::from_millis_f64;
        assert_eq!(backoff(1), ms(250.0));
        assert_eq!(backoff(2), ms(500.0));
        assert_eq!(backoff(3), ms(1_000.0));
        assert_eq!(backoff(4), ms(2_000.0));
        assert_eq!(backoff(5), ms(4_000.0));
        assert_eq!(backoff(6), ms(4_000.0), "capped");
        assert_eq!(backoff(100), ms(4_000.0));
    }

    #[test]
    fn outage_fails_even_cache_hits_and_retries_then_exhausts() {
        let mut disk = cyl_disk();
        // Warm the cache.
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        start(&mut disk).unwrap();
        disk.finish();
        disk.set_outage(true);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        // Five retries with doubling backoff, then the hard error.
        for attempt in 1..=MAX_RETRIES {
            let (_, s) = start(&mut disk).unwrap();
            assert_eq!(
                s,
                Service::Faulted {
                    attempt,
                    backoff: backoff(attempt)
                },
                "a warm cache does not save an unreachable device"
            );
            assert!(disk.is_busy(), "backoff occupies the device");
            disk.retry_elapsed();
        }
        let (_, s) = start(&mut disk).unwrap();
        assert_eq!(s, Service::FaultExhausted);
        assert!(!disk.is_busy(), "hard error leaves the disk idle");
        // Recovery: the same access succeeds (from cache) once healthy.
        disk.set_outage(false);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = start(&mut disk).unwrap();
        assert_eq!(s, Service::CacheHit);
    }

    #[test]
    fn degrade_scales_media_time_only() {
        let g = DiskGeometry::default();
        let mut disk = cyl_disk();
        disk.set_degrade(3.0);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = start(&mut disk).unwrap();
        match s {
            Service::Media { time } => {
                assert_eq!(time, g.access_time(700, 6).scale(3.0));
            }
            _ => panic!("expected media access"),
        }
        disk.finish();
        // Cache hits are unaffected: the media is slow, not the cache.
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = start(&mut disk).unwrap();
        assert_eq!(s, Service::CacheHit);
    }

    #[test]
    fn cancel_queued_drops_pending_retry() {
        let mut disk = cyl_disk();
        disk.set_outage(true);
        disk.enqueue(SimTime(1), read(7, 0, 6, 700));
        let (_, s) = start(&mut disk).unwrap();
        assert!(matches!(s, Service::Faulted { .. }));
        let n = disk.cancel_queued(|a| a.file == FileId::Relation(7));
        assert_eq!(n, 1, "the retried access counts as cancelled");
        // The backoff event still releases the device; nothing restarts.
        disk.retry_elapsed();
        assert!(start(&mut disk).is_none(), "queue is empty");
    }
}
