//! Logical log records and their binary codec.
//!
//! Records are *logical*: they name tables by catalog slot id and carry
//! whole rows/keys, not page images. That keeps the log independent of the
//! physical design — the same Insert record redoes into a B+ tree, a
//! columnstore delta, or both, whichever the recovered design dictates.
//! Design records carry the descriptor itself ([`IndexDescriptor`], primary
//! first in a list) and a table's [`PartitionSpec`].
//!
//! The codec is hand-rolled little-endian (no serde in this workspace):
//! values are written by [`hpd_common::codec`] (a header byte of type and
//! payload length, then the value's significant bytes — the encoding B+
//! tree leaves hold their entries in), containers
//! add a length prefix. Every decoder is total — corrupt bytes produce an
//! error, never a panic — so a CRC collision on a torn frame cannot take
//! recovery down.

use hpd_common::{
    codec, ColumnDef, DataType, HpdError, IndexDescriptor, Key, PartitionMethod, PartitionSpec,
    Result, Row, Schema, Value, ValueRef,
};

use crate::frame::{append_frame_with, seal_frame, ByteSink, FrameReader, FRAME_HEADER};
use crate::log::Durable;

/// One logical log record. LSNs are byte offsets assigned at append time by
/// [`crate::Wal`], not stored in the payload.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction reached its commit point and started applying writes.
    TxnBegin {
        txn_id: u64,
    },
    /// All of the transaction's writes are logged; makes them redo-eligible.
    TxnCommit {
        txn_id: u64,
        commit_ts: u64,
    },
    /// The transaction's logged writes must be discarded by redo.
    TxnAbort {
        txn_id: u64,
    },
    /// `part` is the routed partition id (0 for unpartitioned tables) — an
    /// advisory cross-check; redo re-routes through the table's spec.
    Insert {
        table: u32,
        part: u32,
        row: Row,
    },
    Delete {
        table: u32,
        part: u32,
        key: Key,
    },
    /// Value-logged update: the post-image row is computed once at commit
    /// and logged physically, so redo needs no expression evaluation.
    /// `part` is the post-image's partition.
    Update {
        table: u32,
        part: u32,
        key: Key,
        new_row: Row,
    },
    /// A table entered the catalog (slot id `table`).
    TableCreate {
        table: u32,
        name: String,
        schema: Schema,
        pk: Vec<usize>,
        primary: IndexDescriptor,
        partitioning: Option<PartitionSpec>,
    },
    /// Initial rows loaded outside a transaction.
    BulkLoad {
        table: u32,
        rows: EncodedRows,
    },
    /// Every part gained the secondary index `def`.
    IndexCreate {
        table: u32,
        def: IndexDescriptor,
    },
    /// Every part lost the secondary index `def`.
    IndexDrop {
        table: u32,
        def: IndexDescriptor,
    },
    /// Every part moved to the design `indexes`, primary first (advisor
    /// re-tunes).
    DesignChange {
        table: u32,
        indexes: Vec<IndexDescriptor>,
    },
    /// One budgeted maintenance increment completed: up to `budget_rows`
    /// rows of work, split between compacting buffered deletes, moving
    /// delta rows and merging row groups — logged whenever it did any of
    /// them, a merge-only increment too. Replayed logically — redo re-runs
    /// an increment with the same budget against whatever state recovery
    /// rebuilt. `part` is `u32::MAX` for a whole-table (round-robin)
    /// increment, else the targeted partition.
    MaintenanceStep {
        table: u32,
        part: u32,
        budget_rows: u64,
        rows_moved: u64,
        deletes_compacted: u64,
    },
    /// One partition of a partitioned table swapped its physical design
    /// (the advisor's heterogeneous per-partition recommendations).
    PartitionDesignChange {
        table: u32,
        part: u32,
        indexes: Vec<IndexDescriptor>,
    },
    /// A fuzzy checkpoint began; its image, once installed, snapshots state
    /// up to at least this record's LSN per table.
    CheckpointBegin,
    /// The checkpoint image was installed (informational; recovery trusts
    /// the installed image, not this marker).
    CheckpointEnd,
}

/// The rows of a [`LogRecord::BulkLoad`] as the record carries them on the
/// wire: a `u32` row count, then each row as its value count in a
/// [`codec::put_varint`] varint (one byte for any arity under 128) and its
/// values' encoding ([`codec::put_values`] — the form a B+ tree leaf holds a
/// row in). The row count is fixed-width because `EncodedRows::seal`
/// writes it into the frame's head once the rows are in. This is the one form a load exists in: the engine builds every
/// index from these bytes, and the buffers that hold them are the ones the
/// log keeps ([`LogRecord::into_frame`]).
///
/// It is the log's segmented store holding one open `BulkLoad` frame, and
/// the one writer of that payload: a load's record, and each table's rows
/// in a checkpoint image ([`crate::ImageWriter`] opens one over the image,
/// and packs its rows: `EncodedRows::pack_encoded`).
/// Each row of a load is put whole (`Durable::put_whole`: no row straddles
/// two segments), so every row is one slice; the store's first segment grows
/// with the rows, so a ten-row table holds a few hundred bytes of record,
/// not a segment. Nothing is sized in advance: each segment is allocated as
/// the rows before it are encoded and, in a load, freed.
///
/// Rows come from [`EncodedRows::push`] / [`EncodedRows::push_encoded`], or
/// from decoding a record, which checks every byte and builds the same
/// segments: what [`EncodedRows::iter`] walks is always well formed.
#[derive(Clone)]
pub struct EncodedRows {
    store: Durable,
    /// Where the frame starts in `store`.
    at: usize,
    rows: usize,
}

/// An open `BulkLoad` frame's bytes before its first row: the frame header,
/// the tag, and the table id and row count [`EncodedRows::seal`] fills in.
const LOAD_HEAD: usize = FRAME_HEADER + 9;

impl Default for EncodedRows {
    fn default() -> EncodedRows {
        EncodedRows::open(Durable::default())
    }
}

impl EncodedRows {
    /// Open a `BulkLoad` frame at the end of `store`.
    pub(crate) fn open(mut store: Durable) -> EncodedRows {
        let at = store.written();
        let mut head = [0; LOAD_HEAD];
        head[FRAME_HEADER] = TAG_BULK_LOAD;
        store.put_whole(LOAD_HEAD, |segment| segment.extend_from_slice(&head));
        EncodedRows { store, at, rows: 0 }
    }

    /// Close the frame: fill in the table id and the row count, and seal it.
    pub(crate) fn seal(mut self, table: u32) -> Durable {
        let ids = self.at + FRAME_HEADER + 1;
        self.store.patch(ids, &table.to_le_bytes());
        self.store.patch(ids + 4, &(self.rows as u32).to_le_bytes());
        seal_frame(&mut self.store, self.at);
        self.store
    }

    /// The encoded form of `rows`.
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = &'a Row>) -> EncodedRows {
        let mut encoded = EncodedRows::default();
        for row in rows {
            encoded.push(row.values());
        }
        encoded
    }

    /// Append a row, encoding it.
    pub fn push(&mut self, values: &[Value]) {
        let len = codec::varint_len(values.len() as u64)
            + (values.iter())
                .map(|v| ValueRef::from(v).encoded_len())
                .sum::<usize>();
        self.store
            .put_whole(len, |segment| put_values(segment, values));
        self.rows += 1;
    }

    /// Append a row already encoded ([`codec::put_values`] of its values; a
    /// B+ tree leaf lends its rows in exactly this form). Its value count is
    /// read off its bytes.
    pub fn push_encoded(&mut self, row: &[u8]) {
        let count = codec::count_values(row) as u64;
        self.store
            .put_whole(codec::varint_len(count) + row.len(), |segment| {
                codec::put_varint(segment, count);
                segment.extend_from_slice(row);
            });
        self.rows += 1;
    }

    /// Append a row already encoded, as [`EncodedRows::push_encoded`] does,
    /// but free to straddle two segments, so that every segment but the last
    /// is filled to its last byte: how an image's rows are written, which
    /// are only read back as one byte string. Rows put so are not one slice
    /// each, so a store holding them is sealed, never iterated.
    pub(crate) fn pack_encoded(&mut self, row: &[u8]) {
        let (count, len) = codec::varint(codec::count_values(row) as u64);
        self.store.put(&count[..len]);
        self.store.put(row);
        self.rows += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Each row's encoded values ([`codec::values`] reads them), in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + Clone {
        (self.store.slices(self.at + LOAD_HEAD))
            .flat_map(wire_rows)
            .map(|(_, values)| values)
    }

    /// Check and copy the rows at the front of `wire` (a row count, then
    /// that many rows); returns them and the bytes consumed. No value is
    /// built: each is read in place, which finds a truncated value, an
    /// unknown tag, a string that is not UTF-8, a value count that is not
    /// minimal and a count that runs past the payload. Only checked bytes
    /// are copied, into the segments a load of the same rows fills.
    fn decode(wire: &[u8]) -> Result<(EncodedRows, usize)> {
        let (rows, mut rest) =
            (wire.split_first_chunk::<4>()).ok_or_else(|| corrupt("unexpected end of payload"))?;
        let rows = u32::from_le_bytes(*rows) as usize;
        // Every row takes at least a byte.
        if rows > rest.len() {
            return Err(corrupt("row count exceeds payload"));
        }
        for _ in 0..rows {
            for _ in 0..take_count(&mut rest)? {
                codec::take_value(&mut rest).map_err(|e| corrupt(&e.to_string()))?;
            }
        }
        let used = wire.len() - rest.len();
        let mut encoded = EncodedRows::default();
        for (row, _) in wire_rows(&wire[4..used]) {
            (encoded.store).put_whole(row.len(), |s| s.extend_from_slice(row));
            encoded.rows += 1;
        }
        Ok((encoded, used))
    }
}

/// The rows `bytes` holds, each as the wire does — its value count, then its
/// values — and its values alone.
fn wire_rows(mut bytes: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> + Clone {
    std::iter::from_fn(move || {
        let mut values = bytes;
        let count = codec::take_varint(&mut values).ok()?;
        let head = bytes.len() - values.len();
        let row;
        (row, bytes) = bytes.split_at(head + codec::values_len(values, count as usize));
        Some((row, &row[head..]))
    })
}

impl PartialEq for EncodedRows {
    /// The same rows, in the same order.
    fn eq(&self, other: &EncodedRows) -> bool {
        self.rows == other.rows && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for EncodedRows {
    /// The rows, decoded: a record in a test's failure message reads as it
    /// did when it held `Row`s.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.iter().map(codec::decode))
            .finish()
    }
}

const TAG_TXN_BEGIN: u8 = 1;
const TAG_TXN_COMMIT: u8 = 2;
const TAG_TXN_ABORT: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_DELETE: u8 = 5;
const TAG_UPDATE: u8 = 6;
const TAG_TABLE_CREATE: u8 = 7;
const TAG_BULK_LOAD: u8 = 8;
const TAG_INDEX_CREATE: u8 = 9;
const TAG_DESIGN_CHANGE: u8 = 10;
// Tags 11 and 12 belonged to the stop-the-world maintenance records that
// `MaintenanceStep` replaced; they stay retired so an old log is rejected
// as corrupt and never misread.
const TAG_CHECKPOINT_BEGIN: u8 = 13;
const TAG_CHECKPOINT_END: u8 = 14;
const TAG_MAINTENANCE_STEP: u8 = 15;
const TAG_PARTITION_DESIGN_CHANGE: u8 = 16;
const TAG_INDEX_DROP: u8 = 17;

fn corrupt(what: &str) -> HpdError {
    HpdError::Internal(format!("wal: corrupt record: {what}"))
}

/// Read the value count at the front of `rest` (see [`put_values`]) and
/// advance past it: a count that is not minimal, or that claims more values
/// than there are bytes behind it, is corrupt.
fn take_count(rest: &mut &[u8]) -> Result<usize> {
    let n = codec::take_varint(rest).map_err(|e| match e {
        codec::DecodeError::NotMinimal => corrupt("value count wider than its encoding"),
        e => corrupt(&e.to_string()),
    })?;
    // Every value takes at least a byte.
    if n > rest.len() as u64 {
        return Err(corrupt("value count exceeds payload"));
    }
    Ok(n as usize)
}

// ---------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A row, a key or a list of partition bounds: its value count as a varint,
/// then its values.
fn put_values(buf: &mut Vec<u8>, vs: &[Value]) {
    codec::put_varint(buf, vs.len() as u64);
    codec::put_values(buf, vs);
}

fn put_ordinals(buf: &mut Vec<u8>, cols: &[usize]) {
    put_u32(buf, cols.len() as u32);
    for &c in cols {
        put_u32(buf, c as u32);
    }
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.len() as u32);
    for col in schema.columns() {
        put_str(buf, &col.name);
        buf.push(dtype_tag(col.dtype));
        buf.push(col.csi_eligible as u8);
    }
}

fn put_partitioning(buf: &mut Vec<u8>, p: &Option<PartitionSpec>) {
    let Some(spec) = p else {
        return buf.push(0);
    };
    match &spec.method {
        PartitionMethod::Range { bounds } => {
            buf.push(1);
            put_u32(buf, spec.column as u32);
            put_values(buf, bounds);
        }
        PartitionMethod::Hash { partitions } => {
            buf.push(2);
            put_u32(buf, spec.column as u32);
            put_u32(buf, *partitions as u32);
        }
    }
}

/// A kind byte, then two ordinal lists: the key/column list (B+ tree keys,
/// columnstore columns) and the include list (a secondary B+ tree's; empty
/// otherwise).
fn put_index_def(buf: &mut Vec<u8>, def: &IndexDescriptor) {
    let (kind, cols_a, cols_b): (u8, &[usize], &[usize]) = match def {
        IndexDescriptor::PrimaryBTree { keys } => (0, keys, &[]),
        IndexDescriptor::SecondaryBTree { keys, includes } => (1, keys, includes),
        IndexDescriptor::PrimaryCsi => (2, &[], &[]),
        IndexDescriptor::SecondaryCsi { columns } => (3, columns, &[]),
    };
    buf.push(kind);
    put_ordinals(buf, cols_a);
    put_ordinals(buf, cols_b);
}

/// A design on the wire: the primary, then the counted secondaries.
fn put_design(buf: &mut Vec<u8>, indexes: &[IndexDescriptor]) {
    let (primary, secondaries) = indexes
        .split_first()
        .expect("a design names its primary index first");
    put_index_def(buf, primary);
    put_u32(buf, secondaries.len() as u32);
    for def in secondaries {
        put_index_def(buf, def);
    }
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int32 => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Decimal => 3,
        DataType::Date => 4,
        DataType::Utf8 => 5,
    }
}

// ---------------------------------------------------------------- decoding

pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt("unexpected end of payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-utf8 string"))
    }

    fn values(&mut self) -> Result<Vec<Value>> {
        let mut rest = &self.buf[self.pos..];
        let n = take_count(&mut rest)?;
        let values = (0..n)
            .map(|_| codec::take_value(&mut rest).map(codec::ValueRef::to_value))
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| corrupt(&e.to_string()))?;
        self.pos = self.buf.len() - rest.len();
        Ok(values)
    }

    fn row(&mut self) -> Result<Row> {
        Ok(Row::new(self.values()?))
    }

    fn rows(&mut self) -> Result<EncodedRows> {
        let (rows, used) = EncodedRows::decode(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(rows)
    }

    fn key(&mut self) -> Result<Key> {
        Ok(Key::new(self.values()?))
    }

    fn ordinals(&mut self) -> Result<Vec<usize>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(corrupt("ordinal count exceeds payload"));
        }
        (0..n).map(|_| Ok(self.u32()? as usize)).collect()
    }

    fn schema(&mut self) -> Result<Schema> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(corrupt("column count exceeds payload"));
        }
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let dtype = match self.u8()? {
                0 => DataType::Int32,
                1 => DataType::Int64,
                2 => DataType::Float64,
                3 => DataType::Decimal,
                4 => DataType::Date,
                5 => DataType::Utf8,
                t => return Err(corrupt(&format!("bad dtype tag {t}"))),
            };
            let mut col = ColumnDef::new(name, dtype);
            col.csi_eligible = match self.u8()? {
                0 => false,
                1 => true,
                b => return Err(corrupt(&format!("bad eligibility flag {b}"))),
            };
            cols.push(col);
        }
        Ok(Schema::new(cols))
    }

    /// Built through [`PartitionSpec`]'s validating constructors: a
    /// corrupt-but-CRC-clean record cannot smuggle an invalid spec in.
    fn partitioning(&mut self) -> Result<Option<PartitionSpec>> {
        let spec = match self.u8()? {
            0 => return Ok(None),
            1 => PartitionSpec::range(self.u32()? as usize, self.values()?),
            2 => PartitionSpec::hash(self.u32()? as usize, self.u32()? as usize),
            t => return Err(corrupt(&format!("bad partitioning tag {t}"))),
        };
        spec.map(Some).map_err(|e| corrupt(&e.to_string()))
    }

    fn index_def(&mut self) -> Result<IndexDescriptor> {
        let kind = self.u8()?;
        let (cols_a, cols_b) = (self.ordinals()?, self.ordinals()?);
        // A list the kind does not carry is written empty.
        if (kind == 2 && !cols_a.is_empty()) || (kind != 1 && !cols_b.is_empty()) {
            return Err(corrupt(&format!("a list index kind {kind} has none of")));
        }
        Ok(match kind {
            0 => IndexDescriptor::PrimaryBTree { keys: cols_a },
            1 => IndexDescriptor::SecondaryBTree {
                keys: cols_a,
                includes: cols_b,
            },
            2 => IndexDescriptor::PrimaryCsi,
            3 => IndexDescriptor::SecondaryCsi { columns: cols_a },
            t => return Err(corrupt(&format!("bad index kind {t}"))),
        })
    }

    fn design(&mut self) -> Result<Vec<IndexDescriptor>> {
        let primary = self.index_def()?;
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(corrupt("secondary count exceeds payload"));
        }
        let mut indexes = Vec::with_capacity(n + 1);
        indexes.push(primary);
        for _ in 0..n {
            indexes.push(self.index_def()?);
        }
        Ok(indexes)
    }

    /// Read one embedded frame (checkpoint images nest record frames inside
    /// their own body). Returns `None` on truncation or CRC mismatch.
    pub(crate) fn framed_record(&mut self) -> Option<&'a [u8]> {
        let mut frames = FrameReader::new(&self.buf[self.pos..], 0);
        let (_, payload) = frames.next()?;
        self.pos += frames.position() as usize;
        Some(payload)
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl LogRecord {
    /// The frame payload [`LogRecord::decode`] reads.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.frame_into(&mut frame);
        frame.split_off(FRAME_HEADER)
    }

    /// This record as one finished frame, in the buffers that hold it, for
    /// [`crate::Wal::append_flushed`]. A bulk load's frame is the one its
    /// rows were encoded into, sealed: its segments *are* the frame, and
    /// nothing the size of the load is copied or encoded again. Any other
    /// record is one buffer.
    pub fn into_frame(self) -> Vec<Vec<u8>> {
        match self {
            LogRecord::BulkLoad { table, rows } => rows.seal(table).into_segments(),
            rec => {
                let mut frame = Vec::with_capacity(FRAME_HEADER + 32);
                rec.frame_into(&mut frame);
                vec![frame]
            }
        }
    }

    /// Append this record's frame to `b`; a bulk load's is a copy of the
    /// one [`LogRecord::into_frame`] seals.
    pub(crate) fn frame_into(&self, b: &mut Vec<u8>) {
        match self {
            LogRecord::BulkLoad { .. } => {
                (self.clone().into_frame().iter()).for_each(|segment| b.extend_from_slice(segment))
            }
            rec => append_frame_with(b, |b| rec.encode_into(b)),
        }
    }

    /// Append the frame payload of any record but a bulk load to `b`.
    fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            LogRecord::TxnBegin { txn_id } => {
                b.push(TAG_TXN_BEGIN);
                put_u64(b, *txn_id);
            }
            LogRecord::TxnCommit { txn_id, commit_ts } => {
                b.push(TAG_TXN_COMMIT);
                put_u64(b, *txn_id);
                put_u64(b, *commit_ts);
            }
            LogRecord::TxnAbort { txn_id } => {
                b.push(TAG_TXN_ABORT);
                put_u64(b, *txn_id);
            }
            LogRecord::Insert { table, part, row } => {
                b.push(TAG_INSERT);
                put_u32(b, *table);
                put_u32(b, *part);
                put_values(b, row.values());
            }
            LogRecord::Delete { table, part, key } => {
                b.push(TAG_DELETE);
                put_u32(b, *table);
                put_u32(b, *part);
                put_values(b, key.values());
            }
            LogRecord::Update {
                table,
                part,
                key,
                new_row,
            } => {
                b.push(TAG_UPDATE);
                put_u32(b, *table);
                put_u32(b, *part);
                put_values(b, key.values());
                put_values(b, new_row.values());
            }
            LogRecord::TableCreate {
                table,
                name,
                schema,
                pk,
                primary,
                partitioning,
            } => {
                b.push(TAG_TABLE_CREATE);
                put_u32(b, *table);
                put_str(b, name);
                put_schema(b, schema);
                put_ordinals(b, pk);
                put_index_def(b, primary);
                put_partitioning(b, partitioning);
            }
            LogRecord::BulkLoad { .. } => unreachable!("a bulk load is framed by its rows"),
            LogRecord::IndexCreate { table, def } => {
                b.push(TAG_INDEX_CREATE);
                put_u32(b, *table);
                put_index_def(b, def);
            }
            LogRecord::IndexDrop { table, def } => {
                b.push(TAG_INDEX_DROP);
                put_u32(b, *table);
                put_index_def(b, def);
            }
            LogRecord::DesignChange { table, indexes } => {
                b.push(TAG_DESIGN_CHANGE);
                put_u32(b, *table);
                put_design(b, indexes);
            }
            LogRecord::MaintenanceStep {
                table,
                part,
                budget_rows,
                rows_moved,
                deletes_compacted,
            } => {
                b.push(TAG_MAINTENANCE_STEP);
                put_u32(b, *table);
                put_u32(b, *part);
                put_u64(b, *budget_rows);
                put_u64(b, *rows_moved);
                put_u64(b, *deletes_compacted);
            }
            LogRecord::PartitionDesignChange {
                table,
                part,
                indexes,
            } => {
                b.push(TAG_PARTITION_DESIGN_CHANGE);
                put_u32(b, *table);
                put_u32(b, *part);
                put_design(b, indexes);
            }
            LogRecord::CheckpointBegin => b.push(TAG_CHECKPOINT_BEGIN),
            LogRecord::CheckpointEnd => b.push(TAG_CHECKPOINT_END),
        }
    }

    /// Decode a frame payload. Total: corrupt input yields `Err`, not a
    /// panic, and trailing garbage is rejected.
    pub fn decode(payload: &[u8]) -> Result<LogRecord> {
        let mut c = Cur::new(payload);
        let rec = match c.u8()? {
            TAG_TXN_BEGIN => LogRecord::TxnBegin { txn_id: c.u64()? },
            TAG_TXN_COMMIT => LogRecord::TxnCommit {
                txn_id: c.u64()?,
                commit_ts: c.u64()?,
            },
            TAG_TXN_ABORT => LogRecord::TxnAbort { txn_id: c.u64()? },
            TAG_INSERT => LogRecord::Insert {
                table: c.u32()?,
                part: c.u32()?,
                row: c.row()?,
            },
            TAG_DELETE => LogRecord::Delete {
                table: c.u32()?,
                part: c.u32()?,
                key: c.key()?,
            },
            TAG_UPDATE => LogRecord::Update {
                table: c.u32()?,
                part: c.u32()?,
                key: c.key()?,
                new_row: c.row()?,
            },
            TAG_TABLE_CREATE => LogRecord::TableCreate {
                table: c.u32()?,
                name: c.str()?,
                schema: c.schema()?,
                pk: c.ordinals()?,
                primary: c.index_def()?,
                partitioning: c.partitioning()?,
            },
            TAG_BULK_LOAD => LogRecord::BulkLoad {
                table: c.u32()?,
                rows: c.rows()?,
            },
            TAG_INDEX_CREATE => LogRecord::IndexCreate {
                table: c.u32()?,
                def: c.index_def()?,
            },
            TAG_INDEX_DROP => LogRecord::IndexDrop {
                table: c.u32()?,
                def: c.index_def()?,
            },
            TAG_DESIGN_CHANGE => LogRecord::DesignChange {
                table: c.u32()?,
                indexes: c.design()?,
            },
            TAG_MAINTENANCE_STEP => LogRecord::MaintenanceStep {
                table: c.u32()?,
                part: c.u32()?,
                budget_rows: c.u64()?,
                rows_moved: c.u64()?,
                deletes_compacted: c.u64()?,
            },
            TAG_PARTITION_DESIGN_CHANGE => LogRecord::PartitionDesignChange {
                table: c.u32()?,
                part: c.u32()?,
                indexes: c.design()?,
            },
            TAG_CHECKPOINT_BEGIN => LogRecord::CheckpointBegin,
            TAG_CHECKPOINT_END => LogRecord::CheckpointEnd,
            t => return Err(corrupt(&format!("bad record tag {t}"))),
        };
        if !c.finished() {
            return Err(corrupt("trailing bytes after record"));
        }
        Ok(rec)
    }

    /// The catalog slot this record targets, if it is table-scoped. Used by
    /// recovery's fuzzy-checkpoint skip rule (`lsn <= applied_lsn[table]`).
    pub fn table(&self) -> Option<u32> {
        match self {
            LogRecord::Insert { table, .. }
            | LogRecord::Delete { table, .. }
            | LogRecord::Update { table, .. }
            | LogRecord::TableCreate { table, .. }
            | LogRecord::BulkLoad { table, .. }
            | LogRecord::IndexCreate { table, .. }
            | LogRecord::IndexDrop { table, .. }
            | LogRecord::DesignChange { table, .. }
            | LogRecord::MaintenanceStep { table, .. }
            | LogRecord::PartitionDesignChange { table, .. } => Some(*table),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32;

    fn roundtrip(rec: LogRecord) {
        let bytes = rec.encode();
        assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn all_record_kinds_round_trip() {
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        let on = |key: usize, includes: &[usize]| IndexDescriptor::SecondaryBTree {
            keys: vec![key],
            includes: includes.to_vec(),
        };
        roundtrip(LogRecord::TxnBegin { txn_id: 7 });
        roundtrip(LogRecord::TxnCommit {
            txn_id: 7,
            commit_ts: 1234,
        });
        roundtrip(LogRecord::TxnAbort { txn_id: u64::MAX });
        roundtrip(LogRecord::Insert {
            table: 0,
            part: 0,
            row: Row::new(vec![
                Value::Int64(-5),
                Value::Int32(3),
                Value::Float64(-0.5),
                Value::Decimal(123456),
                Value::Date(19000),
                Value::str("héllo"),
            ]),
        });
        roundtrip(LogRecord::Delete {
            table: 2,
            part: 7,
            key: Key::new(vec![Value::Int64(9), Value::str("x")]),
        });
        roundtrip(LogRecord::Update {
            table: 1,
            part: 3,
            key: Key::new(vec![Value::Int64(9)]),
            new_row: Row::new(vec![Value::Int64(9), Value::Int64(10)]),
        });
        roundtrip(LogRecord::TableCreate {
            table: 3,
            name: "t".into(),
            schema: Schema::from_pairs(&[("k", DataType::Int64), ("a", DataType::Utf8)]),
            pk: vec![0],
            primary: btree.clone(),
            partitioning: None,
        });
        roundtrip(LogRecord::TableCreate {
            table: 4,
            name: "pt".into(),
            schema: Schema::from_pairs(&[("k", DataType::Int64), ("a", DataType::Int64)]),
            pk: vec![0],
            primary: IndexDescriptor::PrimaryCsi,
            partitioning: Some(
                PartitionSpec::range(0, vec![Value::Int64(100), Value::Int64(200)]).unwrap(),
            ),
        });
        roundtrip(LogRecord::TableCreate {
            table: 5,
            name: "ht".into(),
            schema: Schema::from_pairs(&[("k", DataType::Int64)]),
            pk: vec![0],
            primary: btree.clone(),
            partitioning: Some(PartitionSpec::hash(0, 8).unwrap()),
        });
        roundtrip(LogRecord::PartitionDesignChange {
            table: 4,
            part: 2,
            indexes: vec![btree, on(1, &[])],
        });
        roundtrip(LogRecord::BulkLoad {
            table: 3,
            rows: EncodedRows::from_rows(&[
                Row::new(vec![Value::Int64(1)]),
                Row::new(vec![Value::Int64(2)]),
            ]),
        });
        roundtrip(LogRecord::IndexCreate {
            table: 3,
            def: IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2],
            },
        });
        roundtrip(LogRecord::IndexDrop {
            table: 3,
            def: on(2, &[1]),
        });
        roundtrip(LogRecord::DesignChange {
            table: 3,
            indexes: vec![IndexDescriptor::PrimaryCsi, on(1, &[2])],
        });
        roundtrip(LogRecord::MaintenanceStep {
            table: 3,
            part: u32::MAX,
            budget_rows: 4096,
            rows_moved: 120,
            deletes_compacted: 8,
        });
        roundtrip(LogRecord::CheckpointBegin);
        roundtrip(LogRecord::CheckpointEnd);
    }

    #[test]
    fn values_are_written_at_their_significant_width() {
        // An `Insert` of one value of each type: the value count a varint
        // byte, each value a header byte (type, payload length) and its
        // zig-zag significant bytes, a float its eight, a string a varint
        // length and its bytes. The log's bytes change only with the codec.
        let rec = LogRecord::Insert {
            table: 1,
            part: 2,
            row: Row::new(vec![
                Value::Int64(-5),
                Value::Int32(3),
                Value::Float64(-0.5),
                Value::Decimal(123456),
                Value::Date(19000),
                Value::str("héllo"),
                Value::Decimal(-1_250),
                Value::Decimal(4_200),
                Value::Decimal(123_000),
                Value::Decimal(500_000),
            ]),
        };
        // A decimal ending in k = 1…4 zeros is its value over 10^k under
        // type 5 + k: -125, 42, 123 and 50.
        #[rustfmt::skip]
        let bytes: &[u8] = &[
            4, 1, 0, 0, 0, 2, 0, 0, 0, 10,
            0x11, 9,
            0x01, 6,
            0x28, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf,
            0x33, 0x80, 0xc4, 0x03,
            0x42, 0x70, 0x94,
            0x50, 6, b'h', 0xc3, 0xa9, b'l', b'l', b'o',
            0x61, 249,
            0x71, 84,
            0x81, 246,
            0x91, 100,
        ];
        assert_eq!(rec.encode(), bytes);
        assert_eq!(LogRecord::decode(bytes).unwrap(), rec);
        // The row, as a leaf holds it and a checkpoint copies it: the same
        // bytes behind the count.
        let LogRecord::Insert { row, .. } = &rec else {
            unreachable!()
        };
        let mut encoded = Vec::new();
        codec::put_values(&mut encoded, row.values());
        assert_eq!(encoded, bytes[10..]);
        let mut expected = vec![8, 7, 0, 0, 0, 1, 0, 0, 0];
        expected.extend_from_slice(&bytes[9..]);
        let rec = LogRecord::BulkLoad {
            table: 7,
            rows: EncodedRows::from_rows([row]),
        };
        assert_eq!(rec.encode(), expected);
        assert_eq!(LogRecord::decode(&expected).unwrap(), rec);
        // Pushed encoded or as values: one form, one frame.
        let mut pushed = EncodedRows::default();
        pushed.push_encoded(&encoded);
        let pushed = LogRecord::BulkLoad {
            table: 7,
            rows: pushed,
        };
        assert_eq!(pushed.encode(), expected);
        let mut framed = Vec::new();
        crate::frame::append_frame(&mut framed, &expected);
        assert_eq!(rec.into_frame(), [framed.clone()]);
        assert_eq!(pushed.into_frame(), [framed]);
    }

    /// Each segment's length and capacity.
    fn shape(frame: &[Vec<u8>]) -> Vec<(usize, usize)> {
        frame.iter().map(|s| (s.len(), s.capacity())).collect()
    }

    #[test]
    fn bulk_load_rows_fill_segments_and_no_row_straddles() {
        // 28 000 rows of 23 bytes, a 100 KB one among them, an empty one last.
        let row = |k: i64| {
            let date = Value::Date(i32::MIN + 4);
            Row::new(vec![Value::Int64(i64::MIN + k), Value::str("héllo"), date])
        };
        let mut rows: Vec<Row> = (0..28_000).map(row).collect();
        let wide = Value::str("w".repeat(100 << 10));
        rows.insert(7_000, Row::new(vec![Value::Int64(-1), wide]));
        rows.push(Row::new(vec![]));
        let encoded = EncodedRows::from_rows(&rows);
        // Read back row by row as it was written.
        assert_eq!(encoded.len(), rows.len());
        let back: Vec<Row> = (encoded.iter().map(codec::decode).map(Row::new)).collect();
        assert_eq!(back, rows);
        // Every segment the store holds ends on a row's end.
        let used = encoded.store.segments_used();
        assert!(used >= 10, "{used} segments");
        let slices: Vec<&[u8]> = encoded.store.slices(LOAD_HEAD).collect();
        assert_eq!(slices.len(), used);
        for (i, rows) in slices.iter().enumerate() {
            let lens = wire_rows(rows).map(|(row, _)| row.len()).sum::<usize>();
            assert_eq!(lens, rows.len(), "segment {i}");
        }
        // Decoding builds the same segments.
        let rec = LogRecord::BulkLoad {
            table: 3,
            rows: encoded,
        };
        let decoded = LogRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        let (frame, again) = (rec.into_frame(), decoded.into_frame());
        assert_eq!(shape(&frame), shape(&again));
        // Each at most a segment's size, but the one that holds the wide row
        // alone, at that row's size.
        assert_eq!(frame[0].capacity(), crate::RETAINED_MIN);
        for segment in frame.iter().filter(|s| s.capacity() > crate::RETAINED_MIN) {
            assert_eq!(segment.len(), segment.capacity());
            assert_eq!(wire_rows(segment).count(), 1);
        }
        // The bytes of the frame, as the copying encoder writes them.
        let bytes = frame.concat();
        assert_eq!(bytes, again.concat());
        assert_eq!((bytes.len(), crc32(&bytes)), (746_425, 0x4300_1726));
        // Ten rows take one segment sized to them, not a segment's size.
        let small = LogRecord::BulkLoad {
            table: 3,
            rows: EncodedRows::from_rows(&rows[..10]),
        };
        let [(len, capacity)] = shape(&small.into_frame())[..] else {
            panic!("ten rows in more than one segment")
        };
        assert!(
            capacity < 2 * len && capacity < 1_024,
            "{len} in {capacity}"
        );
    }

    #[test]
    fn malformed_bulk_load_rows_are_corrupt_records_and_build_no_value() {
        let rows = [
            Row::new(vec![Value::Int32(1), Value::str("ab")]),
            Row::new(vec![Value::Int32(2), Value::str("cd")]),
        ];
        let good = LogRecord::BulkLoad {
            table: 3,
            rows: EncodedRows::from_rows(&rows),
        }
        .encode();
        assert!(LogRecord::decode(&good).is_ok());
        // tag, table, row count | value count, Int32, Str("ab") | ...
        let (row_count, first_count, first_tag, str_len) = (5, 9, 10, 13);
        let second_count = first_count + 1 + 2 + 4;
        let corrupted = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let cases = [
            ("a truncated value", good[..good.len() - 1].to_vec()),
            ("a string running past the payload", corrupted(str_len, 200)),
            ("an unknown value tag", corrupted(first_tag, 0x60)),
            (
                "a payload its type does not take",
                corrupted(first_tag, 0x05),
            ),
            (
                "a payload wider than its value",
                corrupted(first_tag + 1, 0),
            ),
            ("a string length wider than it", {
                let mut bytes = corrupted(str_len, 0x82);
                bytes[str_len + 1] = 0;
                bytes
            }),
            ("a per-row count too low", corrupted(first_count, 1)),
            ("a per-row count too high", corrupted(second_count, 3)),
            ("a per-row count wider than its encoding", {
                // 2 as two varint bytes, the second of them zero.
                let mut bytes = corrupted(first_count, 0x82);
                bytes[first_tag] = 0;
                bytes
            }),
            ("a row count past the payload", corrupted(row_count, 3)),
            (
                "a row count past any payload",
                corrupted(row_count + 3, 0x7f),
            ),
            ("a row count too low", corrupted(row_count, 1)),
            ("a string that is not UTF-8", corrupted(str_len + 1, 0xff)),
        ];
        for (what, bytes) in cases {
            // Decoding allocates the record's copy of the bytes at most: it
            // returns before that for all of these.
            let err = LogRecord::decode(&bytes).expect_err(what).to_string();
            assert!(
                err.starts_with("internal error: wal: corrupt record"),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn float_round_trips_preserve_bits() {
        for f in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let rec = LogRecord::Insert {
                table: 0,
                part: 0,
                row: Row::new(vec![Value::Float64(f)]),
            };
            let back = LogRecord::decode(&rec.encode()).unwrap();
            let LogRecord::Insert { row, .. } = back else {
                panic!("wrong kind")
            };
            let &Value::Float64(g) = &row[0] else {
                panic!("wrong type")
            };
            assert_eq!(g.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn corrupt_payloads_error_without_panicking() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[200]).is_err()); // unknown tag
                                                     // The two retired maintenance tags, with their old payload shape.
        for tag in [11u8, 12] {
            let mut b = vec![tag];
            put_u32(&mut b, 3);
            put_u64(&mut b, 99);
            let err = LogRecord::decode(&b).unwrap_err().to_string();
            assert!(err.contains(&format!("bad record tag {tag}")), "{err}");
        }
        assert!(LogRecord::decode(&[TAG_TXN_BEGIN, 1, 2]).is_err()); // truncated
        let mut ok = LogRecord::TxnAbort { txn_id: 1 }.encode();
        ok.push(0); // trailing garbage
        assert!(LogRecord::decode(&ok).is_err());
        // Insert claiming a huge value count must not attempt allocation.
        let mut b = vec![TAG_INSERT];
        put_u32(&mut b, 0); // table
        put_u32(&mut b, 0); // part
        codec::put_varint(&mut b, u64::MAX);
        assert!(LogRecord::decode(&b).is_err());
        // TableCreate with an unknown partitioning tag is rejected.
        let mut ok = LogRecord::TableCreate {
            table: 0,
            name: "t".into(),
            schema: Schema::from_pairs(&[("k", DataType::Int64)]),
            pk: vec![0],
            primary: IndexDescriptor::PrimaryBTree { keys: vec![0] },
            partitioning: None,
        }
        .encode();
        *ok.last_mut().unwrap() = 9;
        assert!(LogRecord::decode(&ok).is_err());
        // A partitioning no constructor of `PartitionSpec` admits (range
        // bounds out of order) is corrupt, whatever its CRC said.
        *ok.last_mut().unwrap() = 1;
        put_u32(&mut ok, 0);
        put_values(&mut ok, &[Value::Int64(5), Value::Int64(5)]);
        assert!(LogRecord::decode(&ok).is_err());
    }
}
