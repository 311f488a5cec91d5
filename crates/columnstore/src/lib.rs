//! Columnstore index (CSI), modelled on SQL Server's columnstores (paper §2).
//!
//! Structure:
//!
//! * data is split into [`rowgroup::RowGroup`]s of up to
//!   [`index::CsiConfig::rowgroup_capacity`] rows, each compressed
//!   *independently*;
//! * within a row group, rows take whichever order stores the fewest bytes:
//!   the greedily chosen column order (fewest-distinct first) of the
//!   paper's Figure 8, which wins ties, arrival order, or the index's key
//!   order — each sized exactly before anything is encoded;
//! * each column of a row group forms a [`segment::Segment`], compressed
//!   with run-length encoding, bit-packing, frame-of-reference + delta, or
//!   dictionary encoding (whichever is smallest), and carrying `min`/`max` small materialized
//!   aggregates that enable *segment elimination* for predicates;
//! * inserts land in a B+ tree **delta store**; a *tuple mover* compresses
//!   full delta chunks into new row groups;
//! * deletes: a **primary** CSI locates the physical row by scanning key
//!   segments and sets a bit in the row group's **delete bitmap** (slow
//!   deletes, fast scans); a **secondary** CSI appends the logical key to a
//!   B+ tree **delete buffer** (fast deletes), which every scan must
//!   anti-semi-join against until the buffer is compacted into bitmaps —
//!   exactly the asymmetry measured in the paper's Figure 5;
//! * scans push interval predicates into [`kernels`] that run **on the
//!   encoded segments** (per-run on RLE, word-wise code comparison on
//!   bit-packed data), producing a packed selection bitmap; only projected
//!   columns at surviving positions are materialized, and a bytes-capped
//!   [`cache::SegmentCache`] reuses decoded segments across scans.

pub mod cache;
pub mod encoding;
pub mod index;
pub mod kernels;
pub mod rowgroup;
pub mod segment;

pub use cache::SegmentCache;
pub use encoding::{encode_i64s, EncodedInts, IntEncoding, FOR_DELTA_FRAME, RLE_RUN_BYTES};
pub use index::{
    ColumnStoreIndex, CsiBuilder, CsiConfig, CsiHeatReport, CsiKind, CsiMaintenanceStep, CsiScan,
    PushdownAgg, RowGroupHeatSnapshot, RowgroupMerge, SharedProbe, SCAN_BATCH_ROWS,
};
pub use kernels::Translated;
pub use rowgroup::RowGroup;
pub use segment::{value_encode, Segment};
