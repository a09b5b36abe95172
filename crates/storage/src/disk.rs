//! One physical disk: a pluggable [`ServiceModel`], a prefetch
//! [`BufferPool`], and an ED+elevator queue; plus [`DiskFarm`], the set of
//! disks and the one [`ServiceTable`] they share.
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
//! [`Disk::finish`] when the event fires. Timing and positional state
//! (head cylinder, SSD parallelism) live entirely in the service model, so
//! the same state machine runs the paper's cylinder disk and the SSD.
//! Busy time is the caller's to book: the disk keeps no clock.

use crate::geometry::ServiceTable;
use crate::layout::FileId;
use crate::pool::BufferPool;
use crate::queue::{DiskQueue, QueuedRequest};
use crate::service::ServiceModel;
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
    /// Requires the media for `time`. Positional state (head movement)
    /// is tracked inside the disk's service model.
    Media {
        /// Total service time (seek + rotation + transfer on the cylinder
        /// model; latency + transfer on the SSD).
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

/// One disk: queue + service model + cache, plus fault state (degradation
/// factor, outage flag, pending retry) driven by the simulator's fault
/// plan.
pub struct Disk {
    /// Timing and positional state of the device.
    model: Box<dyn ServiceModel>,
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
    /// A new idle disk running `model`, with an LRU prefetch pool sized by
    /// the model's cache capacity.
    pub fn new(model: Box<dyn ServiceModel>, block_pages: u32) -> Self {
        let cache = BufferPool::new(model.cache_pages(), block_pages);
        Disk {
            model,
            queue: DiskQueue::new(),
            busy: false,
            cache,
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

    /// The device's service model (for introspection/tests).
    pub fn model(&self) -> &dyn ServiceModel {
        &*self.model
    }

    /// Queue an access with ED priority `deadline`. The current head
    /// position is passed down so the queue maintains its pop winner
    /// incrementally: the head only moves when a media access starts, so
    /// everything queued since then folds into an O(1) pick.
    pub fn enqueue(&mut self, deadline: SimTime, access: Access) {
        self.queue.push_at(
            self.model.position(),
            QueuedRequest {
                deadline,
                cylinder: access.cylinder,
                tag: access,
            },
        );
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
    /// completion event (immediately for a cache hit). `table` is lent to
    /// the service model for the media access.
    pub fn start(&mut self, table: &mut ServiceTable) -> Option<(Access, Service)> {
        if self.busy {
            return None;
        }
        // A pending retry goes before the queue: it already holds the
        // device's attention.
        let (access, attempts) = match self.retry.take() {
            Some((a, n)) => (a, n),
            None => (self.queue.pop(self.model.position())?.tag, 0),
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
        // Requests still waiting behind this one: the queue-depth hint
        // models with internal parallelism consume.
        let queued = self.queue.len();
        let mut service = self.service(&access, queued, table);
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
        queued: usize,
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
                let time = self.model.access_time(
                    access.cylinder,
                    fetch_pages,
                    IoKind::Read,
                    queued,
                    table,
                );
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
            IoKind::Write => {
                let time = self.model.access_time(
                    access.cylinder,
                    access.pages.max(1),
                    IoKind::Write,
                    queued,
                    table,
                );
                Service::Media { time }
            }
        }
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

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

/// All the disks in the system, and the one [`ServiceTable`] their
/// service models fill: the disks are identical, so one memo of the
/// geometry's service components serves them all.
pub struct DiskFarm {
    disks: Vec<Disk>,
    table: ServiceTable,
}

impl DiskFarm {
    /// `n` identical disks, each running a fresh model from `make_model`.
    /// The models must share one geometry, since they share the farm's
    /// service table.
    pub fn new<F: Fn() -> Box<dyn ServiceModel>>(
        n: u32,
        make_model: F,
        block_pages: u32,
    ) -> Self {
        assert!(n > 0, "a database system needs at least one disk");
        DiskFarm {
            disks: (0..n)
                .map(|_| Disk::new(make_model(), block_pages))
                .collect(),
            table: ServiceTable::new(),
        }
    }

    /// [`Disk::start`] on disk `i`, lending it the farm's service table.
    pub fn start(&mut self, i: usize) -> Option<(Access, Service)> {
        self.disks[i].start(&mut self.table)
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

    /// Immutable access to disk `i`.
    pub fn disk(&self, i: usize) -> &Disk {
        &self.disks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskGeometry;
    use crate::service::{CylinderModel, DeviceSpec, SsdModel, SsdSpec};

    fn cyl_disk() -> Disk {
        Disk::new(Box::new(CylinderModel::new(DiskGeometry::default())), 6)
    }

    fn ssd_disk() -> Disk {
        Disk::new(Box::new(SsdModel::new(SsdSpec::default())), 6)
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
        let (_, s1) = disk.start(&mut ServiceTable::new()).unwrap();
        assert!(matches!(s1, Service::Media { .. }));
        disk.finish();
        // Re-read the same block: cache hit.
        disk.enqueue(SimTime(10), read(0, 0, 6, 700));
        let (_, s2) = disk.start(&mut ServiceTable::new()).unwrap();
        assert_eq!(s2, Service::CacheHit);
        disk.finish();
        assert_eq!(disk.cache_stats().0, 1);
    }

    #[test]
    fn non_prefetch_read_does_not_populate_cache() {
        let mut disk = cyl_disk();
        let mut acc = read(0, 0, 1, 700);
        acc.prefetch = false;
        disk.enqueue(SimTime(10), acc.clone());
        let (_, s1) = disk.start(&mut ServiceTable::new()).unwrap();
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
        let (_, s2) = disk.start(&mut ServiceTable::new()).unwrap();
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
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        match s {
            Service::Media { time } => {
                assert_eq!(time, g.access_time(700, 6));
            }
            _ => panic!("expected media access"),
        }
    }

    #[test]
    fn head_moves_and_second_seek_is_shorter() {
        let mut disk = cyl_disk();
        disk.enqueue(SimTime(10), read(0, 0, 6, 700));
        let (_, s1) = disk.start(&mut ServiceTable::new()).unwrap();
        let t1 = match s1 {
            Service::Media { time } => time,
            _ => panic!(),
        };
        disk.finish();
        assert_eq!(disk.model().position(), 700, "head tracked by the model");
        disk.enqueue(SimTime(10), read(1, 0, 6, 705));
        let (_, s2) = disk.start(&mut ServiceTable::new()).unwrap();
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
        assert!(disk.start(&mut ServiceTable::new()).is_some());
        assert!(disk.start(&mut ServiceTable::new()).is_none(), "busy");
        disk.finish();
        assert!(disk.start(&mut ServiceTable::new()).is_some());
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
        disk.start(&mut ServiceTable::new()).unwrap();
        disk.finish();
        disk.invalidate(temp);
        disk.enqueue(SimTime(1), acc);
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
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
            disk.start(&mut ServiceTable::new()).unwrap();
            disk.finish();
        }
        // Block 0 was evicted.
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        assert!(matches!(s, Service::Media { .. }));
    }

    #[test]
    fn ssd_disk_is_position_blind_and_fast() {
        let mut ssd = ssd_disk();
        ssd.enqueue(SimTime(1), read(0, 0, 6, 1499));
        let (_, s) = ssd.start(&mut ServiceTable::new()).unwrap();
        let t_far = match s {
            Service::Media { time } => time,
            _ => panic!("cold read"),
        };
        ssd.finish();
        ssd.enqueue(SimTime(1), read(1, 0, 6, 0));
        let (_, s) = ssd.start(&mut ServiceTable::new()).unwrap();
        let t_near = match s {
            Service::Media { time } => time,
            _ => panic!("cold read"),
        };
        assert_eq!(t_far, t_near, "no seeks on flash");
        let mut cyl = cyl_disk();
        cyl.enqueue(SimTime(1), read(0, 0, 6, 1499));
        let (_, s) = cyl.start(&mut ServiceTable::new()).unwrap();
        let t_disk = match s {
            Service::Media { time } => time,
            _ => panic!("cold read"),
        };
        assert!(t_far < t_disk, "flash beats the mechanical disk");
    }

    #[test]
    fn ssd_stacked_queue_amortizes_latency() {
        // Two identical cold reads: the one started with another request
        // waiting behind it gets the queue-depth latency discount.
        let mut solo = ssd_disk();
        solo.enqueue(SimTime(1), read(0, 0, 6, 10));
        let (_, s) = solo.start(&mut ServiceTable::new()).unwrap();
        let t_solo = match s {
            Service::Media { time } => time,
            _ => panic!(),
        };
        let mut stacked = ssd_disk();
        stacked.enqueue(SimTime(1), read(0, 0, 6, 10));
        stacked.enqueue(SimTime(2), read(1, 0, 6, 20));
        let (_, s) = stacked.start(&mut ServiceTable::new()).unwrap();
        let t_stacked = match s {
            Service::Media { time } => time,
            _ => panic!(),
        };
        assert!(t_stacked < t_solo);
    }

    #[test]
    fn farm_builds_from_device_spec() {
        let g = DiskGeometry::default();
        let device = DeviceSpec::Ssd(SsdSpec::default());
        let farm = DiskFarm::new(2, || device.build(&g), 6);
        assert_eq!(farm.len(), 2);
        assert_eq!(farm.disk(0).model().name(), "ssd");
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
        disk.start(&mut ServiceTable::new()).unwrap();
        disk.finish();
        disk.set_outage(true);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        // Five retries with doubling backoff, then the hard error.
        for attempt in 1..=MAX_RETRIES {
            let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
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
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        assert_eq!(s, Service::FaultExhausted);
        assert!(!disk.is_busy(), "hard error leaves the disk idle");
        // Recovery: the same access succeeds (from cache) once healthy.
        disk.set_outage(false);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        assert_eq!(s, Service::CacheHit);
    }

    #[test]
    fn degrade_scales_media_time_only() {
        let g = DiskGeometry::default();
        let mut disk = cyl_disk();
        disk.set_degrade(3.0);
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        match s {
            Service::Media { time } => {
                assert_eq!(time, g.access_time(700, 6).scale(3.0));
            }
            _ => panic!("expected media access"),
        }
        disk.finish();
        // Cache hits are unaffected: the media is slow, not the cache.
        disk.enqueue(SimTime(1), read(0, 0, 6, 700));
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        assert_eq!(s, Service::CacheHit);
    }

    #[test]
    fn cancel_queued_drops_pending_retry() {
        let mut disk = cyl_disk();
        disk.set_outage(true);
        disk.enqueue(SimTime(1), read(7, 0, 6, 700));
        let (_, s) = disk.start(&mut ServiceTable::new()).unwrap();
        assert!(matches!(s, Service::Faulted { .. }));
        let n = disk.cancel_queued(|a| a.file == FileId::Relation(7));
        assert_eq!(n, 1, "the retried access counts as cancelled");
        // The backoff event still releases the device; nothing restarts.
        disk.retry_elapsed();
        assert!(
            disk.start(&mut ServiceTable::new()).is_none(),
            "queue is empty"
        );
    }
}
