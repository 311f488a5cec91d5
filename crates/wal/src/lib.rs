//! Logical write-ahead log with group commit, CRC framing, and fuzzy
//! checkpoints.
//!
//! The storage layer is a *simulated* in-memory hierarchy, so durability is
//! simulated too — but with the same contract a real log gives: a crash
//! drops every in-memory structure (heap, B+ trees, columnstore, delta
//! stores, delete buffers, version store) and keeps exactly the bytes that
//! were **flushed** to the [`Wal`] plus the last installed checkpoint image.
//! Recovery (in `hpd-engine`) is redo-only: it rebuilds the catalog from the
//! checkpoint, then replays committed transactions and design/maintenance
//! records from the log tail.
//!
//! Layout of the log is a flat byte stream of CRC-framed records
//! (`[u32 len][u32 crc][payload]`, [`frame`]); an LSN is a byte offset into
//! that stream. Appends go to a *pending* buffer; [`Wal::commit_flush`]
//! moves the buffer to the durable region — every commit under
//! `sync_commit`, or once `group_commit_bytes` accumulate under group
//! commit. Because the unflushed region is always a suffix, a checkpoint
//! plus a flushed prefix is transaction-consistent by construction.
//!
//! One segment writer (`log::Durable`) holds the durable log, each
//! checkpoint image and each bulk load's record: [`EncodedRows`] is that
//! store holding one open `BulkLoad` frame, which an image's rows go
//! through too, every frame is sealed by the one `frame::seal_frame`, and a
//! load's sealed segments become the log's without a copy.
//!
//! Flushes and checkpoint installs are charged through the storage
//! simulator's [`DeviceProfile`](hpd_storage::DeviceProfile) /
//! [`IoTracker`](hpd_storage::IoTracker) so durability overhead shows up in
//! benchmarks and EXPLAIN ANALYZE (`wal:` trailer), and `wal.*` counters in
//! `hpd-obs`.

pub mod checkpoint;
pub mod frame;
pub mod log;
pub mod record;

pub use checkpoint::{CheckpointImage, ImageWriter, TableEntry, TableSnapshot};
pub use frame::{append_frame, crc32, FrameReader};
pub use log::{Wal, WalConfig, WalDurable, WalSummary, RETAINED_MIN};
pub use record::{EncodedRows, LogRecord};
