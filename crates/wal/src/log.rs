//! The log object: append, group-commit flush, checkpoint install,
//! simulated durability.
//!
//! All state lives behind one mutex. The engine serializes commits with its
//! own commit lock anyway (log order must equal apply order for redo-only
//! recovery), so the mutex here is protection for concurrent readers
//! (metrics, `durable()`), not a throughput path.

use hpd_storage::{DeviceProfile, IoTracker};
use parking_lot::Mutex;

use crate::checkpoint::ImageWriter;
use crate::frame::{crc32_extend, ByteSink};
use crate::record::LogRecord;

/// Capacity a log buffer may keep however little it holds, and the size of
/// the segments small flushes, checkpoint images and bulk-load records fill.
pub const RETAINED_MIN: usize = 64 << 10;

/// A checkpoint whose truncation drops at least this much of the log gives
/// the pages it freed back to the operating system ([`release_freed_pages`]);
/// the segments of a few commits are reused by the next ones anyway.
const RELEASE_AT: usize = 16 * RETAINED_MIN;

/// Give the pages of memory freed into the heap back to the operating
/// system. The log's segments — a bulk load's record among them — are heap
/// blocks, which the allocator keeps resident once freed while anything
/// allocated after them is live: a record held in one buffer was a mapping
/// of its own and went back whole when the log dropped it. Trimming walks
/// the heap once (about a millisecond for 60 MB of it). Only glibc has it.
fn release_freed_pages() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer, locks the
        // allocator's arenas itself and gives back only whole free pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A buffer keeps the capacity its largest content ever needed. After a
/// one-off large record (a bulk load) or a truncation, that is nearly all of
/// it: give back what exceeds a small multiple of the current length.
fn release_excess(buf: &mut Vec<u8>) {
    let keep = (2 * buf.len()).max(RETAINED_MIN);
    if buf.capacity() > 2 * keep {
        buf.shrink_to(keep);
    }
}

/// Durability knobs, carried inside the engine's `DbConfig`.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Master switch. Disabled: appends are no-ops, recovery impossible.
    pub enabled: bool,
    /// Flush the log on every commit (true durability). When `false`, group
    /// commit batches flushes until [`WalConfig::group_commit_bytes`] of
    /// pending records accumulate — commits in the unflushed suffix are
    /// LOST by a crash (relaxed durability, for benchmarking the paper-era
    /// trade-off; the differential harness always runs `sync_commit`).
    pub sync_commit: bool,
    /// Pending-byte threshold that forces a flush under group commit.
    pub group_commit_bytes: usize,
    /// Take a fuzzy checkpoint every N commits (0 = never).
    pub checkpoint_every_commits: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            enabled: true,
            sync_commit: true,
            group_commit_bytes: 64 << 10,
            checkpoint_every_commits: 0,
        }
    }
}

/// Everything that survives a simulated crash: the flushed log bytes, the
/// LSN of their first byte, and the last installed checkpoint image
/// (serialized — decoded only by recovery).
#[derive(Debug, Clone, Default)]
pub struct WalDurable {
    pub base_lsn: u64,
    pub log: Vec<u8>,
    pub checkpoint: Option<Vec<u8>>,
}

/// Per-statement/commit WAL activity, surfaced as the `wal:` trailer in
/// EXPLAIN ANALYZE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalSummary {
    /// Log records appended by this transaction's commit.
    pub records: u64,
    /// Bytes moved to the durable region at commit (0 when deferred).
    pub bytes_flushed: u64,
    /// Flush operations performed (0 or 1 per commit).
    pub flushes: u64,
    /// Wall time spent in the commit-path flush, microseconds.
    pub flush_us: u64,
    /// True when group commit left this commit in the unflushed suffix.
    pub deferred: bool,
}

/// The one segmented byte store, and the only code that lays bytes into
/// segments: the flushed log, each checkpoint image, and each bulk-load
/// record ([`crate::EncodedRows`] is a store holding one open frame). Bytes
/// go into segments of [`RETAINED_MIN`] bytes. [`ByteSink::put`] fills each
/// segment before starting the next, so a frame straddles segments freely;
/// [`Durable::put_whole`] keeps its bytes (a row) in one segment, closing
/// the last short if they do not fit it, and gives bytes longer than a
/// segment a segment of their own size. A store begun by `put` (the log, an
/// image) starts with a whole segment; one begun by `put_whole` (a load)
/// starts at the size of those bytes and its first segment grows by
/// doubling up to a segment's size, so a ten-row load holds a few hundred
/// bytes, not a segment. No other segment grows, so a store holds its bytes
/// and at most a segment's worth of room. A flush appends a load's segments
/// as they are: they become the log's, and the record is never copied.
///
/// An image is written over the segments of the image the last checkpoint
/// retired ([`Durable::retire`]): the segments past the first `used` are
/// that free list, each emptied as it is drawn on, so a checkpoint
/// allocates only the segments its image outgrew and never a block the size
/// of the image.
#[derive(Clone, Default)]
pub(crate) struct Durable {
    segments: Vec<Vec<u8>>,
    /// Segments holding bytes; the rest are free.
    used: usize,
    len: usize,
}

/// One segment holding all of `bytes`: a recovered log or image, adopted.
impl From<Vec<u8>> for Durable {
    fn from(bytes: Vec<u8>) -> Durable {
        Durable {
            len: bytes.len(),
            segments: vec![bytes],
            used: 1,
        }
    }
}

impl Durable {
    /// Segments holding bytes.
    pub(crate) fn segments_used(&self) -> usize {
        self.used
    }

    /// Free segments not yet drawn on.
    pub(crate) fn free_segments(&self) -> usize {
        self.segments.len() - self.used
    }

    /// The store emptied, its segments a free list for the next image. An
    /// adopted segment of another size is dropped, not pooled.
    pub(crate) fn retire(mut self) -> Durable {
        self.segments.retain(|s| s.capacity() == RETAINED_MIN);
        Durable {
            segments: self.segments,
            used: 0,
            len: 0,
        }
    }

    /// Drop the free segments no byte was written into.
    pub(crate) fn release_free(&mut self) {
        self.segments.truncate(self.used);
    }

    /// The segments holding bytes, for [`Durable::put_frame`].
    pub(crate) fn into_segments(mut self) -> Vec<Vec<u8>> {
        self.release_free();
        self.segments
    }

    /// The segment the next `len` bytes go into whole, with room for them:
    /// the last if they fit; the first grown by doubling, if that stays
    /// within a segment's size; else the next free segment, or a new one of
    /// a segment's size — of `len` bytes if longer, or if it is the first.
    fn room(&mut self, len: usize) -> &mut Vec<u8> {
        if let Some(last) = self.used.checked_sub(1) {
            let segment = &mut self.segments[last];
            let need = segment.len() + len;
            if need <= segment.capacity() {
                return &mut self.segments[last];
            }
            if last == 0 && need <= RETAINED_MIN {
                let grown = (2 * segment.capacity()).clamp(need, RETAINED_MIN);
                segment.reserve_exact(grown - segment.len());
                return &mut self.segments[last];
            }
        }
        match self.segments.get_mut(self.used) {
            Some(free) if free.capacity() >= len => free.clear(),
            _ => {
                let size = if self.used == 0 {
                    len
                } else {
                    len.max(RETAINED_MIN)
                };
                self.segments.insert(self.used, Vec::with_capacity(size));
            }
        }
        self.used += 1;
        &mut self.segments[self.used - 1]
    }

    /// Append the `len` bytes `write` appends, all in one segment: no row
    /// straddles two.
    pub(crate) fn put_whole(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        self.len += len;
        let segment = self.room(len);
        let end = segment.len() + len;
        write(segment);
        debug_assert_eq!(segment.len(), end, "`write` appends `len` bytes");
    }

    /// Append a frame in the buffers that hold it ([`LogRecord::into_frame`]):
    /// one buffer is copied (a small record, an image's catalog frames), the
    /// segments of a longer frame — a bulk load's record, which only the log
    /// takes whole — move in as they are.
    pub(crate) fn put_frame(&mut self, frame: Vec<Vec<u8>>) {
        if let [one] = &frame[..] {
            return self.put(one);
        }
        debug_assert_eq!(self.free_segments(), 0, "the log keeps no free list");
        for segment in frame {
            self.len += segment.len();
            self.segments.push(segment);
            self.used += 1;
        }
    }

    /// Drop the first `cut` bytes: whole segments, then the front of the
    /// one the cut lands in.
    fn truncate_front(&mut self, mut cut: usize) {
        debug_assert_eq!(self.free_segments(), 0, "the log keeps no free list");
        self.len -= cut;
        let whole = (self.segments.iter())
            .take_while(|s| {
                let below = s.len() <= cut;
                if below {
                    cut -= s.len();
                }
                below
            })
            .count();
        self.segments.drain(..whole);
        self.used -= whole;
        if cut > 0 {
            let first = &mut self.segments[0];
            first.drain(..cut);
            release_excess(first);
        }
    }

    /// The bytes from offset `from` on, one slice per segment.
    pub(crate) fn slices(&self, mut from: usize) -> impl Iterator<Item = &[u8]> + Clone {
        self.segments[..self.used].iter().map(move |s| {
            let skip = from.min(s.len());
            from -= skip;
            &s[skip..]
        })
    }

    pub(crate) fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len);
        self.slices(0).for_each(|s| bytes.extend_from_slice(s));
        bytes
    }
}

impl ByteSink for Durable {
    fn written(&self) -> usize {
        self.len
    }

    fn put(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        while !bytes.is_empty() {
            let full = (self.used.checked_sub(1)).is_none_or(|last| {
                let last = &self.segments[last];
                last.len() == last.capacity()
            });
            let last = if full {
                self.room(RETAINED_MIN)
            } else {
                &mut self.segments[self.used - 1]
            };
            let (fits, over) = bytes.split_at(bytes.len().min(last.capacity() - last.len()));
            last.extend_from_slice(fits);
            bytes = over;
        }
    }

    fn patch(&mut self, mut at: usize, mut bytes: &[u8]) {
        for segment in &mut self.segments[..self.used] {
            if bytes.is_empty() {
                break;
            }
            if at >= segment.len() {
                at -= segment.len();
                continue;
            }
            let n = bytes.len().min(segment.len() - at);
            segment[at..at + n].copy_from_slice(&bytes[..n]);
            (at, bytes) = (0, &bytes[n..]);
        }
        assert!(bytes.is_empty(), "a patch past the bytes written");
    }

    fn crc_from(&self, from: usize) -> u32 {
        self.slices(from).fold(0, crc32_extend)
    }
}

struct WalInner {
    /// LSN of the first durable byte; advances when a checkpoint truncates
    /// the log.
    base_lsn: u64,
    durable: Durable,
    pending: Vec<u8>,
    pending_records: u64,
    /// Serialized [`crate::CheckpointImage`], if one was installed.
    checkpoint: Option<Durable>,
    /// The segments of the image the installed one replaced: the free list
    /// the next image is written into ([`Wal::image_writer`]).
    retired: Durable,
}

/// The write-ahead log. See the crate docs for the durability model.
pub struct Wal {
    cfg: WalConfig,
    device: DeviceProfile,
    inner: Mutex<WalInner>,
}

impl Wal {
    pub fn new(cfg: WalConfig, device: DeviceProfile) -> Wal {
        Wal {
            cfg,
            device,
            inner: Mutex::new(WalInner {
                base_lsn: 0,
                durable: Durable::default(),
                pending: Vec::new(),
                pending_records: 0,
                checkpoint: None,
                retired: Durable::default(),
            }),
        }
    }

    /// Reconstruct the log from crash-surviving state. The recovered log
    /// continues appending where the durable bytes end, so a second crash
    /// recovers again.
    pub fn from_durable(cfg: WalConfig, device: DeviceProfile, d: WalDurable) -> Wal {
        Wal {
            cfg,
            device,
            inner: Mutex::new(WalInner {
                base_lsn: d.base_lsn,
                durable: Durable::from(d.log),
                pending: Vec::new(),
                pending_records: 0,
                checkpoint: d.checkpoint.map(Durable::from),
                retired: Durable::default(),
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    /// Append one record to the pending buffer; returns its LSN (0 when the
    /// log is disabled). Appending alone makes nothing durable.
    pub fn append(&self, rec: &LogRecord) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        let mut inner = self.inner.lock();
        let before = inner.pending.len();
        rec.frame_into(&mut inner.pending);
        let bytes = inner.pending.len() - before;
        Self::appended(&mut inner, before, bytes)
    }

    /// [`Wal::append`] and [`Wal::flush`] for a record already framed
    /// ([`LogRecord::into_frame`]): the pending bytes are flushed ahead of
    /// it, then the frame — a bulk load's segments become the log's as they
    /// are. Returns its LSN (0 when the log is disabled).
    pub fn append_flushed(&self, frame: Vec<Vec<u8>>, tracker: &IoTracker) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        let mut inner = self.inner.lock();
        let (before, bytes) = (inner.pending.len(), frame.iter().map(Vec::len).sum());
        let lsn = Self::appended(&mut inner, before, bytes);
        self.flush_locked(&mut inner, frame, tracker);
        lsn
    }

    /// Account for one frame of `bytes` bytes appended at offset
    /// `pending_before` of the pending buffer; returns its LSN.
    fn appended(inner: &mut WalInner, pending_before: usize, bytes: usize) -> u64 {
        inner.pending_records += 1;
        let reg = hpd_obs::global();
        reg.counter("wal.append.records").inc();
        reg.counter("wal.append.bytes").add(bytes as u64);
        inner.base_lsn + (inner.durable.len + pending_before) as u64
    }

    /// Move all pending bytes to the durable region, charging one simulated
    /// write to `tracker`. Returns bytes flushed.
    pub fn flush(&self, tracker: &IoTracker) -> u64 {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner, Vec::new(), tracker)
    }

    /// Move the pending bytes, then `frame`, to the durable region as one
    /// write.
    fn flush_locked(&self, inner: &mut WalInner, frame: Vec<Vec<u8>>, tracker: &IoTracker) -> u64 {
        let bytes = (inner.pending.len() + frame.iter().map(Vec::len).sum::<usize>()) as u64;
        if bytes == 0 {
            return 0;
        }
        let (seek_us, bw_us) = self.device.write_cost_parts(bytes, 1);
        tracker.record_write(bytes, seek_us, bw_us);
        inner.durable.put(&inner.pending);
        inner.pending.clear();
        release_excess(&mut inner.pending);
        inner.durable.put_frame(frame);
        inner.pending_records = 0;
        let reg = hpd_obs::global();
        reg.counter("wal.flush.count").inc();
        reg.counter("wal.flush.bytes").add(bytes);
        bytes
    }

    /// Commit-point flush decision: always flush under `sync_commit`,
    /// otherwise only once the pending batch crosses `group_commit_bytes`.
    /// Returns `(flushed_bytes, deferred)`.
    pub fn commit_flush(&self, tracker: &IoTracker) -> (u64, bool) {
        if !self.cfg.enabled {
            return (0, false);
        }
        let mut inner = self.inner.lock();
        if self.cfg.sync_commit || inner.pending.len() >= self.cfg.group_commit_bytes {
            (self.flush_locked(&mut inner, Vec::new(), tracker), false)
        } else {
            hpd_obs::global().counter("wal.commit.deferred").inc();
            (0, true)
        }
    }

    /// Snapshot of everything a crash would preserve. Pending bytes are
    /// deliberately excluded — they are the torn tail.
    pub fn durable(&self) -> WalDurable {
        let inner = self.inner.lock();
        WalDurable {
            base_lsn: inner.base_lsn,
            log: inner.durable.to_vec(),
            checkpoint: inner.checkpoint.as_ref().map(Durable::to_vec),
        }
    }

    /// Start the next checkpoint image, written over the segments of the
    /// image the last checkpoint retired. The installed image is never
    /// drawn on — it must survive a crash in the middle of the next
    /// checkpoint — so two images' segments take turns, and a checkpoint
    /// abandoned after this call loses only the free list.
    pub fn image_writer(&self, begin_lsn: u64, next_ts: u64) -> ImageWriter {
        let free = std::mem::take(&mut self.inner.lock().retired);
        ImageWriter::over(free, begin_lsn, next_ts)
    }

    /// Atomically install a checkpoint image and truncate the durable log
    /// below its begin LSN (the checkpoint's begin record stays); the image
    /// it replaces becomes the free list of the next. A truncation of
    /// `RELEASE_AT` bytes or more gives their pages back to the operating
    /// system. Charges the image write to `tracker`. The caller must have
    /// flushed first so the image's high-water marks refer to durable bytes.
    pub fn install_checkpoint(&self, image: ImageWriter, tracker: &IoTracker) {
        if !self.cfg.enabled {
            return;
        }
        let (begin_lsn, image, segments_allocated) = image.finish();
        let bytes = image.written() as u64;
        let (seek_us, bw_us) = self.device.write_cost_parts(bytes, 1);
        tracker.record_write(bytes, seek_us, bw_us);
        let mut inner = self.inner.lock();
        debug_assert!(begin_lsn >= inner.base_lsn);
        let cut = (begin_lsn.saturating_sub(inner.base_lsn) as usize).min(inner.durable.len);
        inner.durable.truncate_front(cut);
        inner.base_lsn += cut as u64;
        let replaced = inner.checkpoint.replace(image);
        inner.retired = replaced.map(Durable::retire).unwrap_or_default();
        drop(inner);
        if cut >= RELEASE_AT {
            release_freed_pages();
        }
        let reg = hpd_obs::global();
        reg.counter("wal.checkpoint.count").inc();
        reg.counter("wal.checkpoint.bytes").add(bytes);
        reg.counter("wal.checkpoint.segments_allocated")
            .add(segments_allocated as u64);
    }

    /// LSN that the next appended record would receive.
    pub fn next_lsn(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base_lsn + (inner.durable.len + inner.pending.len()) as u64
    }

    /// Bytes appended but not yet flushed (the would-be torn tail).
    pub fn pending_bytes(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Bytes in the durable region (after any checkpoint truncation).
    pub fn durable_bytes(&self) -> usize {
        self.inner.lock().durable.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;
    use crate::record::EncodedRows;

    fn ram() -> DeviceProfile {
        DeviceProfile::ram()
    }

    fn sync_wal() -> Wal {
        Wal::new(WalConfig::default(), ram())
    }

    fn int_rows(keys: std::ops::Range<i64>) -> Vec<hpd_common::Row> {
        keys.map(|k| hpd_common::Row::new(vec![hpd_common::Value::Int64(k)]))
            .collect()
    }

    fn wal_len(durable: &Durable) -> usize {
        durable.segments.iter().map(Vec::len).sum()
    }

    impl Durable {
        fn capacity(&self) -> usize {
            self.segments.iter().map(Vec::capacity).sum()
        }
    }

    #[test]
    fn append_is_not_durable_until_flush() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        wal.append(&LogRecord::TxnBegin { txn_id: 1 });
        assert!(wal.durable().log.is_empty());
        assert!(wal.pending_bytes() > 0);
        let flushed = wal.flush(&tracker);
        assert_eq!(flushed as usize, wal.durable_bytes());
        assert_eq!(wal.pending_bytes(), 0);
        let d = wal.durable();
        let recs: Vec<_> = FrameReader::new(&d.log, d.base_lsn)
            .map(|(_, p)| LogRecord::decode(p).unwrap())
            .collect();
        assert_eq!(recs, vec![LogRecord::TxnBegin { txn_id: 1 }]);
    }

    #[test]
    fn group_commit_defers_until_threshold() {
        let cfg = WalConfig {
            sync_commit: false,
            group_commit_bytes: 64,
            ..WalConfig::default()
        };
        let wal = Wal::new(cfg, ram());
        let tracker = IoTracker::default();
        wal.append(&LogRecord::TxnCommit {
            txn_id: 1,
            commit_ts: 10,
        });
        let (bytes, deferred) = wal.commit_flush(&tracker);
        assert_eq!(bytes, 0);
        assert!(deferred);
        assert!(wal.durable().log.is_empty());
        // Pile on records until the 64-byte threshold trips.
        while wal.pending_bytes() < 64 {
            wal.append(&LogRecord::TxnCommit {
                txn_id: 2,
                commit_ts: 11,
            });
        }
        let (bytes, deferred) = wal.commit_flush(&tracker);
        assert!(bytes >= 64);
        assert!(!deferred);
        assert_eq!(wal.pending_bytes(), 0);
    }

    #[test]
    fn sync_commit_flushes_every_time() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        wal.append(&LogRecord::TxnBegin { txn_id: 1 });
        let (bytes, deferred) = wal.commit_flush(&tracker);
        assert!(bytes > 0);
        assert!(!deferred);
        assert_eq!(tracker.snapshot().bytes_written, bytes);
    }

    #[test]
    fn checkpoint_truncates_and_survives_via_durable() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        wal.append(&LogRecord::TxnBegin { txn_id: 1 });
        wal.flush(&tracker);
        let begin_lsn = wal.append(&LogRecord::CheckpointBegin);
        wal.flush(&tracker);
        wal.install_checkpoint(wal.image_writer(begin_lsn, 7), &tracker);
        assert_eq!(wal.durable().base_lsn, begin_lsn);
        let d = wal.durable();
        let image = crate::CheckpointImage {
            begin_lsn,
            next_ts: 7,
            tables: vec![],
        };
        assert_eq!(d.checkpoint, Some(image.encode()));
        // The surviving log starts exactly at the checkpoint-begin record.
        let recs: Vec<_> = FrameReader::new(&d.log, d.base_lsn)
            .map(|(lsn, p)| (lsn, LogRecord::decode(p).unwrap()))
            .collect();
        assert_eq!(recs, vec![(begin_lsn, LogRecord::CheckpointBegin)]);
        // A wal rebuilt from durable state appends with continuous LSNs.
        let wal2 = Wal::from_durable(WalConfig::default(), ram(), d);
        let next = wal2.append(&LogRecord::TxnAbort { txn_id: 9 });
        assert_eq!(next, wal.next_lsn());

        // A cut inside a segment: two records flushed together share one,
        // and the checkpoint begins at the second.
        let before = wal.durable();
        wal.append(&LogRecord::TxnAbort { txn_id: 2 });
        let begin_lsn = wal.append(&LogRecord::CheckpointBegin);
        wal.append(&LogRecord::TxnAbort { txn_id: 3 });
        wal.flush(&tracker);
        assert_eq!(wal.inner.lock().durable.segments.len(), 1);
        wal.install_checkpoint(wal.image_writer(begin_lsn, 8), &tracker);
        let d = wal.durable();
        assert_eq!(d.base_lsn, begin_lsn);
        let cut = (begin_lsn - before.base_lsn) as usize;
        assert_eq!(wal.durable_bytes(), d.log.len());
        assert_eq!(wal.next_lsn(), begin_lsn + d.log.len() as u64);
        let recs: Vec<_> = FrameReader::new(&d.log, d.base_lsn)
            .map(|(lsn, p)| (lsn, LogRecord::decode(p).unwrap()))
            .collect();
        assert_eq!(recs[0], (begin_lsn, LogRecord::CheckpointBegin));
        assert_eq!(recs[1].1, LogRecord::TxnAbort { txn_id: 3 });
        assert_eq!(recs.len(), 2);
        assert!(cut > before.log.len(), "the cut passed the old records");
    }

    #[test]
    fn a_framed_append_is_the_same_log_as_append() {
        let one_row = LogRecord::BulkLoad {
            table: 0,
            rows: EncodedRows::from_rows(&int_rows(7..8)),
        };
        // 13 bytes a row: four segments.
        let segmented = LogRecord::BulkLoad {
            table: 1,
            rows: EncodedRows::from_rows(&int_rows(0..20_000)),
        };
        let (a, b) = (sync_wal(), sync_wal());
        let tracker = IoTracker::default();
        // One buffer, segments, and a record that is not a load; each behind
        // a pending record, then with nothing pending.
        for rec in [&one_row, &segmented, &LogRecord::TxnAbort { txn_id: 4 }] {
            for behind_pending in [true, false] {
                if behind_pending {
                    for wal in [&a, &b] {
                        wal.append(&LogRecord::CheckpointBegin);
                    }
                }
                let lsn_a = a.append(rec);
                a.flush(&tracker);
                let lsn_b = b.append_flushed(rec.clone().into_frame(), &tracker);
                assert_eq!(lsn_a, lsn_b);
                assert_eq!(b.pending_bytes(), 0);
            }
        }
        assert_eq!(a.durable().log, b.durable().log);
        assert_eq!(a.next_lsn(), b.next_lsn());
    }

    #[test]
    fn buffers_release_what_a_large_record_reserved() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        // Appended as a record, not a frame, a big load's frame is copied
        // into the pending buffer, which grows to hold it, and into segments.
        wal.append(&LogRecord::CheckpointBegin);
        wal.append(&LogRecord::BulkLoad {
            table: 0,
            rows: EncodedRows::from_rows(&int_rows(0..100_000)),
        });
        assert!(wal.pending_bytes() > 1 << 20);
        wal.flush(&tracker);
        let big_bytes = wal.durable_bytes();
        assert!(big_bytes > 1 << 20);
        assert!(wal.inner.lock().pending.capacity() <= 2 * RETAINED_MIN);
        // Small commits reuse one pending buffer: same allocation each time.
        wal.append(&LogRecord::TxnBegin { txn_id: 1 });
        wal.flush(&tracker);
        let pending_at = wal.inner.lock().pending.as_ptr();
        for txn_id in 2..50 {
            wal.append(&LogRecord::TxnBegin { txn_id });
            wal.flush(&tracker);
            assert_eq!(wal.inner.lock().pending.as_ptr(), pending_at);
        }
        // Truncating below the checkpoint drops the big record; its
        // capacity goes with it.
        let begin_lsn = wal.append(&LogRecord::CheckpointBegin);
        wal.flush(&tracker);
        wal.install_checkpoint(wal.image_writer(begin_lsn, 0), &tracker);
        let inner = wal.inner.lock();
        assert!(inner.durable.len < 64);
        assert!(inner.durable.capacity() <= 2 * RETAINED_MIN);
    }

    #[test]
    fn a_loads_segments_become_the_logs_and_small_records_add_no_slack() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        // 13 bytes a row: twenty segments, none larger than a segment.
        let frame = LogRecord::BulkLoad {
            table: 0,
            rows: EncodedRows::from_rows(&int_rows(0..100_000)),
        }
        .into_frame();
        assert!(frame.len() >= 20, "{} segments", frame.len());
        assert!(frame.iter().all(|s| s.capacity() <= RETAINED_MIN));
        let frame_at: Vec<*const u8> = frame.iter().map(|s| s.as_ptr()).collect();
        let frame_bytes: usize = frame.iter().map(Vec::len).sum();
        wal.append_flushed(frame, &tracker);
        // The record's buffers are the log's first segments; then the
        // records that doubled one growing vector (a 30-byte `IndexCreate`
        // behind a 7 MB load took 7 MB more) fill the last of them and new
        // ones.
        for txn_id in 0..4_000 {
            wal.append(&LogRecord::TxnCommit {
                txn_id,
                commit_ts: txn_id,
            });
            wal.flush(&tracker);
            let inner = wal.inner.lock();
            assert_eq!(segments_at(&inner.durable)[..frame_at.len()], frame_at);
            // The room left in the last segment, and less than a row where
            // the record closed one short.
            let short = 13 * inner.durable.segments.len();
            assert!(inner.durable.capacity() <= inner.durable.len + RETAINED_MIN + short);
        }
        let inner = wal.inner.lock();
        assert_eq!(inner.durable.len, wal_len(&inner.durable));
        assert!(inner.durable.len > frame_bytes + 40_000);
        // Every segment but the last full, or closed short of a row.
        let segments = &inner.durable.segments;
        assert!(
            segments.len() >= frame_at.len() + 2,
            "{} segments",
            segments.len()
        );
        for segment in &segments[..segments.len() - 1] {
            assert!(segment.capacity() - segment.len() < 13);
        }
        drop(inner);
        // Frames straddle segment boundaries; the stream reads whole.
        let d = wal.durable();
        assert_eq!(d.log.capacity(), d.log.len());
        let mut reader = FrameReader::new(&d.log, d.base_lsn);
        assert_eq!(reader.by_ref().count(), 4_001);
        assert!(reader.clean_end());
    }

    #[test]
    fn a_row_wider_than_a_segment_is_a_segment_and_recovers() {
        use hpd_common::{Row, Value};
        let wide = Value::str("w".repeat(100 << 10));
        let rows = [
            Row::new(vec![Value::Int64(1), Value::str("a")]),
            Row::new(vec![Value::Int64(2), wide]),
            Row::new(vec![Value::Int64(3), Value::str("c")]),
        ];
        let rec = || LogRecord::BulkLoad {
            table: 0,
            rows: EncodedRows::from_rows(&rows),
        };
        // The first row in the first segment, the wide one in one of its own
        // size, the last in a new segment.
        let frame = rec().into_frame();
        let shape: Vec<(usize, usize)> = frame.iter().map(|s| (s.len(), s.capacity())).collect();
        assert_eq!(shape.len(), 3, "{shape:?}");
        assert!(shape[0].1 < 64, "{shape:?}");
        assert_eq!(shape[1].0, shape[1].1);
        assert!(
            shape[1].0 > 100 << 10 && shape[1].0 < (100 << 10) + 64,
            "{shape:?}"
        );
        assert_eq!(shape[2].1, RETAINED_MIN);
        let wal = sync_wal();
        let tracker = IoTracker::default();
        wal.append_flushed(frame, &tracker);
        wal.append(&LogRecord::TxnAbort { txn_id: 1 });
        wal.flush(&tracker);
        // What survives a crash reads back as the record, and a log rebuilt
        // from it reads the same.
        let d = wal.durable();
        let recovered = Wal::from_durable(WalConfig::default(), ram(), d.clone());
        assert_eq!(recovered.durable().log, d.log);
        let recs: Vec<LogRecord> = FrameReader::new(&d.log, d.base_lsn)
            .map(|(_, p)| LogRecord::decode(p).unwrap())
            .collect();
        assert_eq!(recs, [rec(), LogRecord::TxnAbort { txn_id: 1 }]);
    }

    /// Install an image of one table of `rows` single-integer rows.
    fn install_rows(wal: &Wal, rows: i64, tracker: &IoTracker) {
        let entry = crate::TableEntry {
            name: "t".into(),
            schema: hpd_common::Schema::from_pairs(&[("k", hpd_common::DataType::Int64)]),
            pk: vec![0],
            indexes: vec![hpd_common::IndexDescriptor::PrimaryBTree { keys: vec![0] }],
            partitioning: None,
            parts: vec![],
            applied_lsn: 0,
        };
        let rows = EncodedRows::from_rows(&int_rows(0..rows));
        let mut image = wal.image_writer(0, 0);
        image.table(&entry, |sink| rows.iter().for_each(sink));
        wal.install_checkpoint(image, tracker);
    }

    fn segments_at(store: &Durable) -> Vec<*const u8> {
        store.segments.iter().map(|s| s.as_ptr()).collect()
    }

    #[test]
    fn the_retired_image_is_the_free_list_and_the_installed_one_never_is() {
        let wal = sync_wal();
        let tracker = IoTracker::default();
        // 13 bytes a row: six segments.
        install_rows(&wal, 30_000, &tracker);
        let first = wal.durable().checkpoint.unwrap();
        let first_at = segments_at(wal.inner.lock().checkpoint.as_ref().unwrap());
        assert_eq!(first_at.len(), first.len().div_ceil(RETAINED_MIN));
        // One image installed, none retired yet.
        assert_eq!(wal.inner.lock().retired.segments.len(), 0);
        install_rows(&wal, 30_000, &tracker);
        assert_eq!(segments_at(&wal.inner.lock().retired), first_at);
        // The third is written over the first's segments, the same bytes.
        install_rows(&wal, 30_000, &tracker);
        {
            let inner = wal.inner.lock();
            assert_eq!(segments_at(inner.checkpoint.as_ref().unwrap()), first_at);
            assert!(inner
                .retired
                .segments
                .iter()
                .all(|s| !first_at.contains(&s.as_ptr())));
        }
        assert_eq!(wal.durable().checkpoint.unwrap(), first);
        // A smaller image keeps what it draws and drops the rest: the free
        // list never holds more than the last retired image.
        install_rows(&wal, 10, &tracker);
        {
            let inner = wal.inner.lock();
            assert_eq!(inner.checkpoint.as_ref().unwrap().segments.len(), 1);
            assert_eq!(segments_at(&inner.retired), first_at);
        }
        // A checkpoint abandoned after taking the free list loses only it.
        let installed = wal.durable().checkpoint;
        drop(wal.image_writer(0, 0));
        assert_eq!(wal.inner.lock().retired.segments.len(), 0);
        assert_eq!(wal.durable().checkpoint, installed);
        // A recovered image is adopted as one segment, and dropped rather
        // than pooled when it is retired.
        let recovered = Wal::from_durable(WalConfig::default(), ram(), wal.durable());
        assert_eq!(recovered.durable().checkpoint, installed);
        install_rows(&recovered, 30_000, &tracker);
        assert_eq!(recovered.inner.lock().retired.segments.len(), 0);
        assert_eq!(recovered.durable().checkpoint.unwrap(), first);
    }

    #[test]
    fn disabled_wal_is_inert() {
        let cfg = WalConfig {
            enabled: false,
            ..WalConfig::default()
        };
        let wal = Wal::new(cfg, ram());
        let tracker = IoTracker::default();
        assert_eq!(wal.append(&LogRecord::TxnBegin { txn_id: 1 }), 0);
        assert_eq!(wal.commit_flush(&tracker), (0, false));
        assert!(wal.durable().log.is_empty());
        assert_eq!(tracker.snapshot().bytes_written, 0);
    }
}
