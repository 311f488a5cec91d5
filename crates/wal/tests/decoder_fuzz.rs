//! Seeded fuzz of the log's decoders. Each record kind's payload and a
//! three-table checkpoint image are cut at every length and changed at every
//! byte to every other value — the image's frames re-sealed each time, so
//! its CRCs do not stop the bytes before the decoders see them — and random
//! byte strings are added. Every result must be the typed `wal: corrupt …`
//! error or a value that encodes back to exactly the bytes it was decoded
//! from; nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hpd_common::{
    ColumnDef, DataType, HpdError, IndexDescriptor, Key, PartitionSpec, Row, Schema, Value,
};
use hpd_wal::{crc32, CheckpointImage, EncodedRows, LogRecord, TableEntry, TableSnapshot};

/// Random cases a test runs: CI runs this file in release as well.
fn cases() -> usize {
    if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    }
}

/// A fixed xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 24) as u8).collect()
    }
}

/// A value of every type, payloads of 0, 1, 3, 4, 6 and 8 bytes, a
/// string whose length takes a two-byte varint, and a decimal at every
/// scale (0–4 trailing zeros).
fn every_type() -> Vec<Value> {
    vec![
        Value::Int32(-3),
        Value::Int64(1 << 40),
        Value::Float64(-0.5),
        Value::Decimal(123_456),
        Value::Date(19_000),
        Value::str("héllo"),
        Value::Int32(0),
        Value::Int32(i32::MIN),
        Value::Int64(i64::MAX),
        Value::str("x".repeat(128)),
        Value::Decimal(-1_250),
        Value::Decimal(4_200),
        Value::Decimal(-123_000),
        Value::Decimal(500_000),
        Value::Decimal(i64::MIN / 10_000 * 10_000),
    ]
}

fn btree(keys: &[usize]) -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree {
        keys: keys.to_vec(),
    }
}

fn secondary(key: usize, includes: &[usize]) -> IndexDescriptor {
    IndexDescriptor::SecondaryBTree {
        keys: vec![key],
        includes: includes.to_vec(),
    }
}

/// A record of every kind, each list and option both empty and not.
fn records() -> Vec<LogRecord> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int64),
        ColumnDef::new("s", DataType::Utf8).csi_ineligible(),
    ]);
    let rows = EncodedRows::from_rows(&[Row::new(every_type()), Row::new(vec![])]);
    vec![
        LogRecord::TxnBegin { txn_id: 7 },
        LogRecord::TxnCommit {
            txn_id: 7,
            commit_ts: 1_234,
        },
        LogRecord::TxnAbort { txn_id: u64::MAX },
        LogRecord::Insert {
            table: 1,
            part: 2,
            row: Row::new(every_type()),
        },
        LogRecord::Delete {
            table: 2,
            part: 0,
            key: Key::new(vec![Value::Int64(9), Value::str("x")]),
        },
        LogRecord::Update {
            table: 1,
            part: 3,
            key: Key::new(vec![Value::Int32(9)]),
            new_row: Row::new(vec![Value::Int32(9), Value::Date(10)]),
        },
        LogRecord::TableCreate {
            table: 3,
            name: "t".into(),
            schema: Schema::from_pairs(&[("k", DataType::Int64), ("f", DataType::Float64)]),
            pk: vec![0],
            primary: btree(&[0]),
            partitioning: None,
        },
        LogRecord::TableCreate {
            table: 4,
            name: "pt".into(),
            schema: schema.clone(),
            pk: vec![0, 1],
            primary: IndexDescriptor::PrimaryCsi,
            partitioning: Some(
                PartitionSpec::range(0, vec![Value::Int64(100), Value::Int64(200)]).unwrap(),
            ),
        },
        LogRecord::TableCreate {
            table: 5,
            name: String::new(),
            schema,
            pk: vec![],
            primary: btree(&[1, 0]),
            partitioning: Some(PartitionSpec::hash(1, 8).unwrap()),
        },
        LogRecord::BulkLoad {
            table: 3,
            rows: rows.clone(),
        },
        LogRecord::BulkLoad {
            table: 0,
            rows: EncodedRows::default(),
        },
        LogRecord::IndexCreate {
            table: 3,
            def: IndexDescriptor::SecondaryCsi {
                columns: vec![0, 2],
            },
        },
        LogRecord::IndexDrop {
            table: 3,
            def: secondary(2, &[1]),
        },
        LogRecord::DesignChange {
            table: 3,
            indexes: vec![IndexDescriptor::PrimaryCsi, secondary(1, &[])],
        },
        LogRecord::PartitionDesignChange {
            table: 4,
            part: 1,
            indexes: vec![btree(&[0])],
        },
        LogRecord::MaintenanceStep {
            table: 3,
            part: u32::MAX,
            budget_rows: 4_096,
            rows_moved: 120,
            deletes_compacted: 8,
        },
        LogRecord::CheckpointBegin,
        LogRecord::CheckpointEnd,
    ]
}

/// Three tables: one with a secondary, one with no rows, and a partitioned
/// one with a design per partition.
fn image() -> CheckpointImage {
    let int_rows = |rows: &[[i64; 2]]| {
        let rows: Vec<Row> = (rows.iter())
            .map(|r| Row::new(r.iter().map(|&v| Value::Int64(v)).collect()))
            .collect();
        EncodedRows::from_rows(&rows)
    };
    let two = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let entry = |name: &str, indexes, partitioning, parts, applied_lsn| TableEntry {
        name: name.into(),
        schema: two.clone(),
        pk: vec![0],
        indexes,
        partitioning,
        parts,
        applied_lsn,
    };
    CheckpointImage {
        begin_lsn: 4_096,
        next_ts: 77,
        tables: vec![
            TableSnapshot {
                entry: entry(
                    "t",
                    vec![btree(&[0]), secondary(1, &[0])],
                    None,
                    vec![],
                    4_000,
                ),
                rows: int_rows(&[[1, 10], [2, 20]]),
            },
            TableSnapshot {
                entry: entry("u", vec![IndexDescriptor::PrimaryCsi], None, vec![], 4_090),
                rows: EncodedRows::default(),
            },
            TableSnapshot {
                entry: entry(
                    "pt",
                    vec![IndexDescriptor::PrimaryCsi],
                    Some(PartitionSpec::range(0, vec![Value::Int64(100)]).unwrap()),
                    vec![
                        vec![IndexDescriptor::PrimaryCsi],
                        vec![btree(&[0]), secondary(1, &[])],
                    ],
                    4_095,
                ),
                rows: int_rows(&[[5, 1], [150, 2]]),
            },
        ],
    }
}

/// Why decoding `bytes` with `decode` and encoding the result with `encode`
/// broke the rule, if it did.
fn check<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> hpd_common::Result<T>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> Option<String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        decode(bytes).map(|value| encode(&value) == bytes)
    }));
    match outcome {
        Err(_) => Some("panicked".into()),
        Ok(Ok(true)) => None,
        Ok(Ok(false)) => Some("decoded to a value that encodes to other bytes".into()),
        Ok(Err(e)) if e.to_string().contains("wal: corrupt ") => None,
        Ok(Err(e)) => Some(format!("an error that is not `wal: corrupt`: {e}")),
    }
}

fn check_record(payload: &[u8]) -> Option<String> {
    check(payload, LogRecord::decode, LogRecord::encode)
}

fn check_image(bytes: &[u8]) -> Option<String> {
    check(bytes, CheckpointImage::decode, CheckpointImage::encode)
}

fn assert_none(what: &str, failures: Vec<String>) {
    let first = &failures[..failures.len().min(10)];
    assert!(
        failures.is_empty(),
        "{what}: {} failures, first {first:#?}",
        failures.len()
    );
}

/// `bytes` with byte `at` set to `to`.
fn changed(bytes: &[u8], at: usize, to: u8) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    bytes[at] = to;
    bytes
}

/// What breaks the rule among every cut and every single-byte change of
/// `bytes`, each passed through `seal` (with the changed byte's offset)
/// before `check` sees it.
fn every_cut_and_change(
    bytes: &[u8],
    seal: impl Fn(Vec<u8>, Option<usize>) -> Vec<u8>,
    check: impl Fn(&[u8]) -> Option<String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for n in 0..bytes.len() {
        if let Some(why) = check(&seal(bytes[..n].to_vec(), None)) {
            failures.push(format!("cut to {n}: {why}"));
        }
    }
    for at in 0..bytes.len() {
        for to in (0..=u8::MAX).filter(|&to| to != bytes[at]) {
            if let Some(why) = check(&seal(changed(bytes, at, to), Some(at))) {
                failures.push(format!("byte {at} set to {to:#04x}: {why}"));
            }
        }
    }
    failures
}

#[test]
fn every_cut_and_byte_change_of_a_record_is_corrupt_or_canonical() {
    for rec in records() {
        let payload = rec.encode();
        assert_eq!(check_record(&payload), None, "{rec:?}");
        let failures = every_cut_and_change(&payload, |b, _| b, check_record);
        assert_none(&format!("{rec:?}"), failures);
    }
}

/// The header offset and payload length of each frame the image's outer
/// frame nests: per table, its mark, its `TableCreate` frame, a count and
/// that many `IndexCreate` frames, a count and that many
/// `PartitionDesignChange` frames, and its rows' `BulkLoad` frame.
fn nested_frames(image: &[u8]) -> Vec<(usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let mut frames = Vec::new();
    let mut frame = |at: &mut usize| {
        let len = u32_at(*at);
        frames.push((*at, len));
        *at += 8 + len;
    };
    let mut at = 8 + 16;
    let tables = u32_at(at);
    at += 4;
    for _ in 0..tables {
        at += 8;
        frame(&mut at);
        for _ in 0..2 {
            let n = u32_at(at);
            at += 4;
            (0..n).for_each(|_| frame(&mut at));
        }
        frame(&mut at);
    }
    assert_eq!(at, image.len(), "the walk covers the image");
    frames
}

/// Give the nested frame holding byte `changed` in its payload its CRC
/// again, then the outer frame its length and CRC.
fn reseal(mut image: Vec<u8>, changed: Option<usize>, frames: &[(usize, usize)]) -> Vec<u8> {
    if let Some(at) = changed {
        let holder = frames
            .iter()
            .find(|&&(h, len)| (h + 8..h + 8 + len).contains(&at));
        if let Some(&(h, len)) = holder {
            let crc = crc32(&image[h + 8..h + 8 + len]);
            image[h + 4..h + 8].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let len = image.len() - 8;
    let crc = crc32(&image[8..]);
    image[..4].copy_from_slice(&(len as u32).to_le_bytes());
    image[4..8].copy_from_slice(&crc.to_le_bytes());
    image
}

#[test]
fn every_cut_and_byte_change_of_an_image_is_corrupt_or_canonical() {
    let bytes = image().encode();
    assert_eq!(check_image(&bytes), None);
    let frames = nested_frames(&bytes);
    assert_eq!(frames.len(), 3 + 2 + 4);
    // The outer header is the sealing's to write: cut and change the body.
    let (header, body) = bytes.split_at(8);
    let seal = |body: Vec<u8>, at: Option<usize>| {
        reseal([header, &body].concat(), at.map(|at| at + 8), &frames)
    };
    assert_none("image", every_cut_and_change(body, seal, check_image));
}

#[test]
fn random_bytes_are_corrupt_or_canonical() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let records: Vec<Vec<u8>> = records().iter().map(LogRecord::encode).collect();
    let image = image().encode();
    let frames = nested_frames(&image);
    let mut failures = Vec::new();
    for case in 0..cases() {
        // A tag, then random bytes.
        let mut payload = vec![rng.below(18) as u8];
        let n = rng.below(48);
        payload.extend(rng.bytes(n));
        // A few random bytes of a record changed.
        let mut record = records[rng.below(records.len())].clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(record.len());
            record[at] = rng.bytes(1)[0];
        }
        for bytes in [payload, record] {
            if let Some(why) = check_record(&bytes) {
                failures.push(format!("case {case}, record {bytes:02x?}: {why}"));
            }
        }
        // The image's marks and table count then random bytes, and the image
        // with a few bytes changed, sealed.
        let n = rng.below(64);
        let body = [&image[..8 + 20], &rng.bytes(n)].concat();
        let mut mutated = image.clone();
        for _ in 0..1 + rng.below(4) {
            let at = 8 + rng.below(image.len() - 8);
            mutated[at] = rng.bytes(1)[0];
            mutated = reseal(mutated, Some(at), &frames);
        }
        for bytes in [reseal(body, None, &frames), mutated] {
            if let Some(why) = check_image(&bytes) {
                failures.push(format!("case {case}, image: {why}"));
            }
        }
    }
    assert_none("random", failures);
}

/// The value count of a row on the log is a varint. Every count encoding
/// of one or two bytes — a byte under 0x80, or one over it and any second
/// byte — in both forms a row takes (an `Insert`'s row, read as a `Delete`'s
/// key and an `Update`'s row are; a load's row, read as a checkpoint's
/// are), followed by every header byte and two more bytes, is the typed
/// `wal: corrupt …` error or a record that encodes back to the same bytes.
/// A count written wider than its varint needs is corrupt whatever follows
/// it. The debug run tries every seventh header byte; CI's release run
/// tries them all.
#[test]
fn every_short_value_count_before_every_header_byte_is_corrupt_or_canonical() {
    let row = || Row::new(vec![Value::Int32(1)]);
    let insert = LogRecord::Insert {
        table: 1,
        part: 2,
        row: row(),
    };
    let load = LogRecord::BulkLoad {
        table: 1,
        rows: EncodedRows::from_rows(&[row()]),
    };
    // The tag, the table, and the part or the row count: the bytes before
    // the count.
    let heads = [insert, load].map(|rec| rec.encode()[..9].to_vec());
    let counts = ((0..0x80u8).map(|b| vec![b]))
        .chain((0x80..=u8::MAX).flat_map(|b| (0..=u8::MAX).map(move |c| vec![b, c])));
    let step = if cfg!(debug_assertions) { 7 } else { 1 };
    let (mut failures, mut accepted) = (Vec::new(), [0usize; 2]);
    for count in counts {
        let not_minimal = count.len() == 2 && count[1] == 0;
        for header in (0..=u8::MAX).step_by(step) {
            for (head, accepted) in heads.iter().zip(&mut accepted) {
                let bytes = [head, &count[..], &[header, 0x01, 0x10]].concat();
                match LogRecord::decode(&bytes) {
                    Ok(rec) if not_minimal => failures.push(format!("{rec:?}: count {count:02x?}")),
                    Ok(rec) if rec.encode() != bytes => {
                        failures.push(format!("{bytes:02x?}: encodes to other bytes"))
                    }
                    Ok(_) => *accepted += 1,
                    Err(HpdError::Internal(e)) if e.starts_with("wal: corrupt ") => {}
                    Err(e) => failures.push(format!("{bytes:02x?}: not `wal: corrupt`: {e}")),
                }
            }
        }
    }
    assert_none("short counts", failures);
    let decoded = if step == 1 { 21 } else { 3 };
    assert_eq!(accepted, [decoded; 2], "records decoded per form");
}
