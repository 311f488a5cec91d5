//! Fuzzy checkpoint images.
//!
//! A checkpoint snapshots the catalog (names, schemas, physical designs)
//! and every table's rows, together with a per-table `applied_lsn`
//! high-water mark. The snapshot is *fuzzy*: tables are captured one at a
//! time while other transactions keep committing, so two tables in one
//! image may reflect different log positions — which is exactly why each
//! carries its own mark. Recovery rebuilds each table from its snapshot and
//! then replays only the log records with `lsn > applied_lsn[table]`.
//!
//! The image is serialized with the same codec as log records and wrapped
//! in one CRC frame, so a corrupt image is detected, not trusted.

use hpd_common::{HpdError, IndexDescriptor, PartitionSpec, Result, Schema};

use crate::frame::{append_frame_with, seal_frame, ByteSink, FrameReader, FRAME_HEADER};
use crate::log::Durable;
use crate::record::{encode_bulk_load, EncodedRows, LogRecord};

/// One table's catalog entry in a checkpoint image: everything but its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    pub name: String,
    pub schema: Schema,
    pub pk: Vec<usize>,
    /// The table-level design, primary first: the first part's index list.
    pub indexes: Vec<IndexDescriptor>,
    /// Partitioning declaration; `None` for monolithic tables.
    pub partitioning: Option<PartitionSpec>,
    /// Each partition's own index list, primary first, when partitioned
    /// (possibly heterogeneous). Empty for monolithic tables, whose design
    /// is `indexes`.
    pub parts: Vec<Vec<IndexDescriptor>>,
    /// LSN of the last log record already reflected in the rows — the redo
    /// skip boundary for this table.
    pub applied_lsn: u64,
}

/// One table's slice of a decoded checkpoint image.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    pub entry: TableEntry,
    /// Rows of every partition concatenated, as the image holds them;
    /// recovery's bulk load re-routes each row through the partitioning spec.
    pub rows: EncodedRows,
}

/// A complete fuzzy checkpoint: catalog + designs + rows + high-water marks.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// LSN of the `CheckpointBegin` record; the log is truncated here on
    /// install, so recovery starts scanning at this offset.
    pub begin_lsn: u64,
    /// Timestamp-allocator high-water mark (`TxnManager` resumes above it).
    pub next_ts: u64,
    pub tables: Vec<TableSnapshot>,
}

/// The one encoder of the image format. It writes the CRC-framed byte form
/// straight into the log's segmented store — every frame, the outer one
/// included, has its header reserved and filled in by offset once its
/// payload is complete, its CRC run over the segments — and takes each
/// table's rows as a stream of borrowed, already encoded rows
/// ([`hpd_common::codec::put_values`]: what a B+ tree leaf holds), so a row
/// is copied into the image as bytes and neither the rows nor any frame is
/// ever held a second time.
///
/// Each table goes through the record codec as synthetic
/// `TableCreate`/`IndexCreate`/`PartitionDesignChange`/`BulkLoad` frames —
/// one codec, one set of decoders to fuzz.
pub struct ImageWriter {
    image: Durable,
    /// Free segments the image started with: those it draws beyond them
    /// are allocated.
    recycled: usize,
    begin_lsn: u64,
    tables: u32,
}

/// Offset of the table count: behind the outer header and the two marks.
const TABLE_COUNT_AT: usize = FRAME_HEADER + 16;

impl ImageWriter {
    /// Start an image in `free`, a retired image's segments (none: every
    /// segment is allocated).
    pub(crate) fn over(free: Durable, begin_lsn: u64, next_ts: u64) -> ImageWriter {
        let mut image = free;
        let recycled = image.free_segments();
        image.put(&[0; FRAME_HEADER]);
        image.put(&begin_lsn.to_le_bytes());
        image.put(&next_ts.to_le_bytes());
        image.put(&0u32.to_le_bytes());
        ImageWriter {
            image,
            recycled,
            begin_lsn,
            tables: 0,
        }
    }

    /// Append the next table: its catalog entry, then the rows `rows` hands
    /// over one at a time, each as its values' encoding.
    pub fn table(&mut self, entry: &TableEntry, rows: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        let table = self.tables;
        self.tables += 1;
        let image = &mut self.image;
        let (primary, secondaries) =
            (entry.indexes.split_first()).expect("a table entry names its primary index first");
        image.put(&entry.applied_lsn.to_le_bytes());
        let create = LogRecord::TableCreate {
            table,
            name: entry.name.clone(),
            schema: entry.schema.clone(),
            pk: entry.pk.clone(),
            primary: primary.clone(),
            partitioning: entry.partitioning.clone(),
        };
        image.put_frame(create.into_frame());
        image.put(&(secondaries.len() as u32).to_le_bytes());
        for def in secondaries {
            let def = def.clone();
            image.put_frame(LogRecord::IndexCreate { table, def }.into_frame());
        }
        image.put(&(entry.parts.len() as u32).to_le_bytes());
        for (p, part) in entry.parts.iter().enumerate() {
            let change = LogRecord::PartitionDesignChange {
                table,
                part: p as u32,
                indexes: part.clone(),
            };
            image.put_frame(change.into_frame());
        }
        append_frame_with(image, |b| encode_bulk_load(b, table, rows));
    }

    /// Fill in the table count and close the outer frame: the begin LSN,
    /// the finished image, and the segments it took from the allocator.
    pub(crate) fn finish(mut self) -> (u64, Durable, usize) {
        self.image.patch(TABLE_COUNT_AT, &self.tables.to_le_bytes());
        seal_frame(&mut self.image, 0);
        let allocated = (self.image.segments_used()).saturating_sub(self.recycled);
        self.image.release_free();
        (self.begin_lsn, self.image, allocated)
    }
}

impl CheckpointImage {
    /// Serialize to the CRC-framed byte form stored in the log object.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ImageWriter::over(Durable::default(), self.begin_lsn, self.next_ts);
        for t in &self.tables {
            w.table(&t.entry, |sink| t.rows.iter().for_each(sink));
        }
        w.finish().1.to_vec()
    }

    pub fn decode(bytes: &[u8]) -> Result<CheckpointImage> {
        let corrupt = |m: &str| HpdError::Internal(format!("wal: corrupt checkpoint: {m}"));
        let mut outer = FrameReader::new(bytes, 0);
        let (_, body) = outer.next().ok_or_else(|| corrupt("bad outer frame"))?;
        if !outer.clean_end() || outer.next().is_some() {
            return Err(corrupt("trailing bytes"));
        }
        let mut c = crate::record::Cur::new(body);
        let begin_lsn = c.u64()?;
        let next_ts = c.u64()?;
        let n_tables = c.u32()? as usize;
        if n_tables > body.len() {
            return Err(corrupt("table count exceeds image"));
        }
        let mut rest = c;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let applied_lsn = rest.u64()?;
            let create = rest
                .framed_record()
                .ok_or_else(|| corrupt("bad table frame"))?;
            let LogRecord::TableCreate {
                name,
                schema,
                pk,
                primary,
                partitioning,
                ..
            } = LogRecord::decode(create)?
            else {
                return Err(corrupt("expected TableCreate"));
            };
            let n_sec = rest.u32()? as usize;
            if n_sec > body.len() {
                return Err(corrupt("secondary count exceeds image"));
            }
            let mut indexes = Vec::with_capacity(n_sec + 1);
            indexes.push(primary);
            for _ in 0..n_sec {
                let f = rest
                    .framed_record()
                    .ok_or_else(|| corrupt("bad index frame"))?;
                let LogRecord::IndexCreate { def, .. } = LogRecord::decode(f)? else {
                    return Err(corrupt("expected IndexCreate"));
                };
                indexes.push(def);
            }
            let n_parts = rest.u32()? as usize;
            if n_parts > body.len() {
                return Err(corrupt("partition count exceeds image"));
            }
            let mut parts = Vec::with_capacity(n_parts);
            for p in 0..n_parts {
                let f = rest
                    .framed_record()
                    .ok_or_else(|| corrupt("bad partition frame"))?;
                let LogRecord::PartitionDesignChange { part, indexes, .. } = LogRecord::decode(f)?
                else {
                    return Err(corrupt("expected PartitionDesignChange"));
                };
                if part as usize != p {
                    return Err(corrupt("partition frames out of order"));
                }
                parts.push(indexes);
            }
            let f = rest
                .framed_record()
                .ok_or_else(|| corrupt("bad rows frame"))?;
            let LogRecord::BulkLoad { rows, .. } = LogRecord::decode(f)? else {
                return Err(corrupt("expected BulkLoad"));
            };
            tables.push(TableSnapshot {
                entry: TableEntry {
                    name,
                    schema,
                    pk,
                    indexes,
                    partitioning,
                    parts,
                    applied_lsn,
                },
                rows,
            });
        }
        if !rest.finished() {
            return Err(corrupt("trailing bytes after tables"));
        }
        Ok(CheckpointImage {
            begin_lsn,
            next_ts,
            tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::{DataType, Row, Value};

    fn sample() -> CheckpointImage {
        let int_rows = |rows: &[&[i64]]| {
            let rows: Vec<Row> = (rows.iter())
                .map(|r| Row::new(r.iter().map(|&v| Value::Int64(v)).collect()))
                .collect();
            EncodedRows::from_rows(&rows)
        };
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        CheckpointImage {
            begin_lsn: 4096,
            next_ts: 77,
            tables: vec![
                TableSnapshot {
                    entry: TableEntry {
                        name: "t".into(),
                        schema: Schema::from_pairs(&[
                            ("k", DataType::Int64),
                            ("a", DataType::Int64),
                        ]),
                        pk: vec![0],
                        indexes: vec![
                            btree.clone(),
                            IndexDescriptor::SecondaryCsi {
                                columns: vec![0, 1],
                            },
                        ],
                        partitioning: None,
                        parts: vec![],
                        applied_lsn: 4000,
                    },
                    rows: int_rows(&[&[1, 10], &[2, 20]]),
                },
                TableSnapshot {
                    entry: TableEntry {
                        name: "u".into(),
                        schema: Schema::from_pairs(&[("k", DataType::Int64)]),
                        pk: vec![0],
                        indexes: vec![IndexDescriptor::PrimaryCsi],
                        partitioning: None,
                        parts: vec![],
                        applied_lsn: 4090,
                    },
                    rows: EncodedRows::default(),
                },
                // A range-partitioned table with heterogeneous per-partition
                // designs: B+ tree on the hot tail, CSI on cold history.
                TableSnapshot {
                    entry: TableEntry {
                        name: "pt".into(),
                        schema: Schema::from_pairs(&[
                            ("k", DataType::Int64),
                            ("v", DataType::Int64),
                        ]),
                        pk: vec![0],
                        indexes: vec![IndexDescriptor::PrimaryCsi],
                        partitioning: Some(
                            PartitionSpec::range(0, vec![Value::Int64(100)]).unwrap(),
                        ),
                        parts: vec![
                            vec![IndexDescriptor::PrimaryCsi],
                            vec![
                                btree,
                                IndexDescriptor::SecondaryBTree {
                                    keys: vec![1],
                                    includes: vec![],
                                },
                            ],
                        ],
                        applied_lsn: 4095,
                    },
                    rows: int_rows(&[&[5, 1], &[150, 2]]),
                },
            ],
        }
    }

    #[test]
    fn image_round_trips() {
        let img = sample();
        assert_eq!(CheckpointImage::decode(&img.encode()).unwrap(), img);
    }

    #[test]
    fn image_bytes_match_the_copying_encoder() {
        // Length and CRC of `sample().encode()` as the encoder that built
        // each frame in a buffer of its own produced them (commit b819861).
        let bytes = sample().encode();
        assert_eq!(bytes.len(), 499);
        assert_eq!(crate::frame::crc32(&bytes), 0xd3c5_f20c);
    }

    fn write(img: &CheckpointImage, free: Durable) -> (Durable, usize) {
        let mut w = ImageWriter::over(free, img.begin_lsn, img.next_ts);
        for t in &img.tables {
            w.table(&t.entry, |sink| t.rows.iter().for_each(sink));
        }
        let (begin_lsn, image, allocated) = w.finish();
        assert_eq!(begin_lsn, img.begin_lsn);
        (image, allocated)
    }

    #[test]
    fn an_image_spans_segments_and_is_written_over_a_retired_one() {
        // 50 000 rows of 13 bytes (a count, a tagged integer) and the sample's
        // tables: the rows frame spans ten segments.
        let mut big = sample();
        let rows: Vec<Row> = (0..50_000)
            .map(|k| Row::new(vec![Value::Int64(k)]))
            .collect();
        big.tables[1].rows = EncodedRows::from_rows(&rows);
        let (image, allocated) = write(&big, Durable::default());
        let bytes = image.to_vec();
        assert_eq!(allocated, bytes.len().div_ceil(crate::RETAINED_MIN));
        assert_eq!(image.segments_used(), allocated);
        assert_eq!(CheckpointImage::decode(&bytes).unwrap(), big);

        // Written over the retired image: no segment allocated, the stale
        // bytes overwritten, the segments it did not need dropped.
        let (small, allocated) = write(&sample(), image.retire());
        assert_eq!(allocated, 0);
        assert_eq!((small.segments_used(), small.free_segments()), (1, 0));
        assert_eq!(small.to_vec(), sample().encode());
        // And back: the one segment is reused, the rest allocated.
        let (again, allocated) = write(&big, small.retire());
        assert_eq!(allocated, again.segments_used() - 1);
        assert_eq!(again.to_vec(), bytes);
    }

    #[test]
    fn corrupt_image_is_rejected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(CheckpointImage::decode(&bytes).is_err());
        assert!(CheckpointImage::decode(&[]).is_err());
        assert!(CheckpointImage::decode(&bytes[..10]).is_err());
    }
}
