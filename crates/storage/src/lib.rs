//! `storage` — the disk subsystem of the RTDBS simulator (Section 4.2).
//!
//! This crate models the physical storage substrate the paper's simulator
//! relies on:
//!
//! * [`geometry::DiskGeometry`] — the cylinder disk's physical parameters
//!   and its service time (seek/rotation/transfer with
//!   `Seek(n) = SeekFactor·√n` \[Bitt88\] and Table 3 defaults), memoized
//!   by [`geometry::ServiceTable`]; also the file layout's addressing.
//! * [`pool::BufferPool`] — the per-disk LRU prefetch cache.
//! * [`queue::DiskQueue`] — per-disk Earliest-Deadline queues with elevator
//!   (SCAN) ordering among requests of equal priority.
//! * [`disk::Disk`] / [`disk::DiskFarm`] — the disks themselves, each with a
//!   head cylinder and a 256 KB prefetch cache that fetches `BlockSize`
//!   pages on sequential read misses.
//! * [`layout::Layout`] — database layout: relation groups placed on middle
//!   cylinders, temporary files on the inner/outer cylinders, exactly as in
//!   Section 4.1.

pub mod disk;
pub mod geometry;
pub mod layout;
pub mod pool;
pub mod queue;

pub use disk::{Access, Disk, DiskFarm, IoKind, Service};
pub use geometry::{DiskGeometry, ServiceTable};
pub use layout::{
    DiskId, FastMap, FileId, FileMeta, Layout, RelationGroupSpec, RelationMeta,
};
pub use pool::BufferPool;
pub use queue::{DiskQueue, QueuedRequest};
