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
//! values are written by [`hpd_common::codec`] (a one-byte type tag and a
//! payload — the encoding B+ tree leaves hold their entries in), containers
//! add a length prefix. Every decoder is total — corrupt bytes produce an
//! error, never a panic — so a CRC collision on a torn frame cannot take
//! recovery down.

use hpd_common::{
    codec, ColumnDef, DataType, HpdError, IndexDescriptor, Key, PartitionMethod, PartitionSpec,
    Result, Row, Schema, Value, ValueRef,
};

use crate::frame::{append_frame_with, crc32_extend, ByteSink, FRAME_HEADER};
use crate::log::RETAINED_MIN;

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
/// wire: a `u32` row count, then each row as a `u32` value count and its
/// values' encoding ([`codec::put_values`] — the form a B+ tree leaf holds a
/// row in). This is the one form a load exists in: the engine builds every
/// index from these bytes, and the buffers that hold them are the ones the
/// log keeps ([`LogRecord::into_frame`]).
///
/// The bytes are held in segments of [`RETAINED_MIN`] bytes, the log's own.
/// No row straddles two: a segment the next row does not fit is closed
/// short, and a row longer than a segment gets a segment of its own size.
/// The first segment starts with room for the frame's and the record's
/// headers and the row count, and grows with the load up to a segment's
/// size, so a ten-row table holds a few hundred bytes of record, not a
/// segment. Nothing is sized in advance: each segment is allocated as the
/// rows before it are encoded and, in a load, freed.
///
/// Rows come from [`EncodedRows::push`] / [`EncodedRows::push_encoded`], or
/// from decoding a record, which checks every byte and builds the same
/// segments: what [`EncodedRows::iter`] walks is always well formed.
#[derive(Clone)]
pub struct EncodedRows {
    /// [`HEAD`] bytes of room, then rows; then segments of rows.
    segments: Vec<Vec<u8>>,
    rows: usize,
}

/// Where a `BulkLoad` frame's row count starts: behind the frame header, the
/// record's tag and its table id.
const ROWS_AT: usize = FRAME_HEADER + 5;
/// Where its first row starts.
const HEAD: usize = ROWS_AT + 4;

impl Default for EncodedRows {
    fn default() -> EncodedRows {
        EncodedRows {
            segments: vec![vec![0; HEAD]],
            rows: 0,
        }
    }
}

impl EncodedRows {
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
        let len = 4
            + (values.iter())
                .map(|v| ValueRef::from(v).encoded_len())
                .sum::<usize>();
        let segment = self.room(len);
        let end = segment.len() + len;
        put_u32(segment, values.len() as u32);
        codec::put_values(segment, values);
        debug_assert_eq!(
            segment.len(),
            end,
            "a row's length is its values' encoded lengths"
        );
        self.rows += 1;
    }

    /// Append a row already encoded ([`codec::put_values`] of its values; a
    /// B+ tree leaf lends its rows in exactly this form). Its value count is
    /// read off its bytes.
    pub fn push_encoded(&mut self, row: &[u8]) {
        let segment = self.room(4 + row.len());
        put_u32(segment, codec::count_values(row) as u32);
        segment.extend_from_slice(row);
        self.rows += 1;
    }

    /// The segment the next `len` bytes of row go into, with room for them:
    /// the last, grown if it is the first and stays within a segment's
    /// size, else a new one.
    fn room(&mut self, len: usize) -> &mut Vec<u8> {
        let first = self.segments.len() == 1;
        let last = self.segments.last_mut().expect("the first segment");
        let need = last.len() + len;
        if need > last.capacity() {
            if first && need <= RETAINED_MIN {
                let grown = (2 * last.capacity()).clamp(need, RETAINED_MIN);
                last.reserve_exact(grown - last.len());
            } else {
                self.segments
                    .push(Vec::with_capacity(len.max(RETAINED_MIN)));
            }
        }
        self.segments.last_mut().expect("a segment with room")
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The bytes from offset `at` of the first segment on, one slice per
    /// segment.
    fn bytes_from(&self, at: usize) -> impl Iterator<Item = &[u8]> + Clone {
        let (first, rest) = self.segments.split_first().expect("the first segment");
        std::iter::once(&first[at..]).chain(rest.iter().map(Vec::as_slice))
    }

    /// Each row's encoded values ([`codec::values`] reads them), in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + Clone {
        (self.bytes_from(HEAD))
            .flat_map(wire_rows)
            .map(|row| &row[4..])
    }

    /// This record's frame ([`LogRecord::into_frame`]): the headers written
    /// into the room the first segment starts with, the CRC run over the
    /// segments.
    fn into_frame(mut self, table: u32) -> Vec<Vec<u8>> {
        let head = &mut self.segments[0];
        head[FRAME_HEADER] = TAG_BULK_LOAD;
        head[FRAME_HEADER + 1..ROWS_AT].copy_from_slice(&table.to_le_bytes());
        head[ROWS_AT..HEAD].copy_from_slice(&(self.rows as u32).to_le_bytes());
        let payload = self
            .bytes_from(FRAME_HEADER)
            .map(<[u8]>::len)
            .sum::<usize>();
        let crc = self.bytes_from(FRAME_HEADER).fold(0, crc32_extend);
        let head = &mut self.segments[0];
        head[..4].copy_from_slice(&(payload as u32).to_le_bytes());
        head[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.segments
    }

    /// Check and copy the rows at the front of `wire` (a row count, then
    /// that many rows); returns them and the bytes consumed. No value is
    /// built: each is read in place, which finds a truncated value, an
    /// unknown tag, a string that is not UTF-8 and a count that runs past
    /// the payload. Only checked bytes are copied, into the segments a load
    /// of the same rows fills.
    fn decode(wire: &[u8]) -> Result<(EncodedRows, usize)> {
        let mut rest = wire;
        let count = |rest: &mut &[u8], what: &str| -> Result<u32> {
            let (n, tail) = (rest.split_first_chunk::<4>())
                .ok_or_else(|| corrupt("unexpected end of payload"))?;
            *rest = tail;
            let n = u32::from_le_bytes(*n);
            // Every row and every value takes at least a byte.
            if n as usize > tail.len() {
                return Err(corrupt(&format!("{what} count exceeds payload")));
            }
            Ok(n)
        };
        for _ in 0..count(&mut rest, "row")? {
            for _ in 0..count(&mut rest, "value")? {
                codec::take_value(&mut rest).map_err(|e| corrupt(&e.to_string()))?;
            }
        }
        let used = wire.len() - rest.len();
        let mut rows = EncodedRows::default();
        for row in wire_rows(&wire[4..used]) {
            rows.room(row.len()).extend_from_slice(row);
            rows.rows += 1;
        }
        Ok((rows, used))
    }
}

/// The rows `bytes` holds, each as the wire does: its value count, then its
/// values.
fn wire_rows(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> + Clone {
    std::iter::from_fn(move || {
        let (count, values) = bytes.split_first_chunk::<4>()?;
        let len = 4 + codec::values_len(values, u32::from_le_bytes(*count) as usize);
        let row;
        (row, bytes) = bytes.split_at(len);
        Some(row)
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

fn put_values(buf: &mut Vec<u8>, vs: &[Value]) {
    put_u32(buf, vs.len() as u32);
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

/// Append a `BulkLoad` payload whose rows `feed` hands over one at a time,
/// each as its values' encoding ([`codec::put_values`]; a B+ tree leaf lends
/// its rows in exactly this form). The row count precedes the rows on the
/// wire and is known only when the stream ends, so its slot is reserved and
/// filled in afterwards; each row's value count is read off its bytes.
pub(crate) fn encode_bulk_load(
    b: &mut impl ByteSink,
    table: u32,
    feed: impl FnOnce(&mut dyn FnMut(&[u8])),
) {
    b.put(&[TAG_BULK_LOAD]);
    b.put(&table.to_le_bytes());
    let count_at = b.written();
    b.put(&[0; 4]);
    let mut count: u32 = 0;
    feed(&mut |row| {
        b.put(&(codec::count_values(row) as u32).to_le_bytes());
        b.put(row);
        count += 1;
    });
    b.patch(count_at, &count.to_le_bytes());
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
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(corrupt("value count exceeds payload"));
        }
        let mut rest = &self.buf[self.pos..];
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
            let eligible = self.u8()? != 0;
            let mut col = ColumnDef::new(name, dtype);
            col.csi_eligible = eligible;
            cols.push(col);
        }
        Ok(Schema::new(cols))
    }

    /// Built through [`PartitionSpec`]'s validating constructors: a
    /// corrupt-but-CRC-clean record cannot smuggle an invalid spec in.
    fn partitioning(&mut self) -> Result<Option<PartitionSpec>> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(PartitionSpec::range(self.u32()? as usize, self.values()?)?),
            2 => Some(PartitionSpec::hash(
                self.u32()? as usize,
                self.u32()? as usize,
            )?),
            t => return Err(corrupt(&format!("bad partitioning tag {t}"))),
        })
    }

    fn index_def(&mut self) -> Result<IndexDescriptor> {
        let kind = self.u8()?;
        let (cols_a, cols_b) = (self.ordinals()?, self.ordinals()?);
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

    /// Read one embedded `[len][crc][payload]` frame (used by checkpoint
    /// images, which nest record frames inside their own body). Returns
    /// `None` on truncation or CRC mismatch.
    pub(crate) fn framed_record(&mut self) -> Option<&'a [u8]> {
        use crate::frame::{crc32, FRAME_HEADER};
        if self.pos + FRAME_HEADER > self.buf.len() {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(self.buf[self.pos + 4..self.pos + 8].try_into().unwrap());
        let start = self.pos + FRAME_HEADER;
        if start + len > self.buf.len() {
            return None;
        }
        let payload = &self.buf[start..start + len];
        if crc32(payload) != crc {
            return None;
        }
        self.pos = start + len;
        Some(payload)
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl LogRecord {
    /// Serialize to a frame payload (framing/CRC added by the [`crate::Wal`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut b);
        b
    }

    /// Bytes [`LogRecord::encode_into`] will append: exact for a bulk load,
    /// whose rows are all of its size (a buffer grown by doubling would end
    /// up to twice the record), a small constant for everything else.
    pub fn encoded_len_hint(&self) -> usize {
        match self {
            LogRecord::BulkLoad { rows, .. } => {
                5 + rows.bytes_from(ROWS_AT).map(<[u8]>::len).sum::<usize>()
            }
            _ => 32,
        }
    }

    /// This record as one finished frame, in the buffers that hold it, for
    /// [`crate::Wal::append_flushed`]. A bulk load's rows sit behind room for
    /// the headers: they are written there and the rows' segments *are* the
    /// frame — nothing the size of the load is copied or encoded again. Any
    /// other record is one buffer.
    pub fn into_frame(self) -> Vec<Vec<u8>> {
        match self {
            LogRecord::BulkLoad { table, rows } => rows.into_frame(table),
            rec => {
                let mut frame = Vec::with_capacity(FRAME_HEADER + rec.encoded_len_hint());
                append_frame_with(&mut frame, |b| rec.encode_into(b));
                vec![frame]
            }
        }
    }

    /// Append the frame payload to `b` (the body of a frame being written in
    /// place, see [`crate::frame::append_frame_with`]).
    pub fn encode_into(&self, b: &mut Vec<u8>) {
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
            LogRecord::BulkLoad { table, rows } => {
                b.push(TAG_BULK_LOAD);
                put_u32(b, *table);
                put_u32(b, rows.len() as u32);
                rows.bytes_from(HEAD).for_each(|s| b.extend_from_slice(s));
            }
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
    fn values_are_written_as_they_always_were() {
        // An `Insert` of one value of each type, as the encoder this crate
        // had before values moved to `hpd_common::codec` wrote it (commit
        // 01bfb57): the codec must not change a byte of the log.
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
            ]),
        };
        #[rustfmt::skip]
        let bytes: &[u8] = &[
            4, 1, 0, 0, 0, 2, 0, 0, 0, 6, 0, 0, 0,
            1, 0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0, 3, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0xe0, 0xbf,
            3, 0x40, 0xe2, 0x01, 0, 0, 0, 0, 0,
            4, 0x38, 0x4a, 0, 0,
            5, 6, 0, 0, 0, b'h', 0xc3, 0xa9, b'l', b'l', b'o',
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
        assert_eq!(encoded, bytes[13..]);
        let mut bulk = Vec::new();
        encode_bulk_load(&mut bulk, 7, |sink| sink(&encoded));
        let mut expected = vec![8, 7, 0, 0, 0, 1, 0, 0, 0];
        expected.extend_from_slice(&bytes[9..]);
        assert_eq!(bulk, expected);
        let rec = LogRecord::BulkLoad {
            table: 7,
            rows: EncodedRows::from_rows([row]),
        };
        assert_eq!(rec.encode(), expected);
        assert_eq!(LogRecord::decode(&expected).unwrap(), rec);
        // Pushed encoded or as values, framed in place or copied: one form.
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
    fn shape(rows: &EncodedRows) -> Vec<(usize, usize)> {
        (rows.segments.iter())
            .map(|s| (s.len(), s.capacity()))
            .collect()
    }

    #[test]
    fn bulk_load_rows_fill_segments_no_row_straddles_and_the_hint_is_exact() {
        // 20 000 rows of 29 bytes, a 100 KB one among them, an empty one last.
        let row = |k: i64| Row::new(vec![Value::Int64(k), Value::str("héllo"), Value::Date(4)]);
        let mut rows: Vec<Row> = (0..20_000).map(row).collect();
        let wide = Value::str("w".repeat(100 << 10));
        rows.insert(7_000, Row::new(vec![Value::Int64(-1), wide]));
        rows.push(Row::new(vec![]));
        let encoded = EncodedRows::from_rows(&rows);
        // Read back row by row as it was written.
        assert_eq!(encoded.len(), rows.len());
        let back: Vec<Row> = (encoded.iter().map(codec::decode).map(Row::new)).collect();
        assert_eq!(back, rows);
        // Every segment ends on a row's end and is at most a segment's size,
        // but the one that holds the wide row alone, at that row's size.
        assert!(encoded.segments.len() >= 10, "{:?}", shape(&encoded));
        for (i, segment) in encoded.segments.iter().enumerate() {
            let head = if i == 0 { HEAD } else { 0 };
            let lens: Vec<usize> = wire_rows(&segment[head..]).map(<[u8]>::len).collect();
            assert_eq!(
                head + lens.iter().sum::<usize>(),
                segment.len(),
                "segment {i}"
            );
            if segment.capacity() > RETAINED_MIN {
                assert_eq!((lens.len(), segment.len()), (1, segment.capacity()));
                assert!(lens[0] > 100 << 10);
            }
        }
        assert_eq!(encoded.segments[0].capacity(), RETAINED_MIN);
        // The hint is exact, and decoding builds the same segments.
        let rec = LogRecord::BulkLoad {
            table: 3,
            rows: encoded,
        };
        let bytes = rec.encode();
        assert_eq!(rec.encoded_len_hint(), bytes.len());
        let decoded = LogRecord::decode(&bytes).unwrap();
        assert_eq!(decoded, rec);
        let (LogRecord::BulkLoad { rows: a, .. }, LogRecord::BulkLoad { rows: b, .. }) =
            (&decoded, &rec)
        else {
            unreachable!()
        };
        assert_eq!(shape(a), shape(b));
        // The frame is the segments, its headers filled in and its CRC run
        // over them: the bytes of the frame written in one buffer.
        let mut framed = Vec::new();
        crate::frame::append_frame(&mut framed, &bytes);
        assert_eq!(rec.into_frame().concat(), framed);
        // Ten rows take one segment sized to them, not a segment's size.
        let small = EncodedRows::from_rows(&rows[..10]);
        let [(len, capacity)] = shape(&small)[..] else {
            panic!("{:?}", shape(&small))
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
        let (row_count, first_count, first_tag, str_len) = (5, 9, 13, 19);
        let second_count = first_count + 4 + 5 + 7;
        let corrupted = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let cases = [
            ("a truncated value", good[..good.len() - 1].to_vec()),
            ("a string running past the payload", corrupted(str_len, 200)),
            ("an unknown value tag", corrupted(first_tag, 9)),
            ("a per-row count too low", corrupted(first_count, 1)),
            ("a per-row count too high", corrupted(second_count, 3)),
            ("a row count past the payload", corrupted(row_count, 3)),
            (
                "a row count past any payload",
                corrupted(row_count + 3, 0x7f),
            ),
            ("a row count too low", corrupted(row_count, 1)),
            ("a string that is not UTF-8", corrupted(str_len + 4, 0xff)),
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
        put_u32(&mut b, u32::MAX);
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
