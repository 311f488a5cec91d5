//! Physical design descriptors and what-if metadata.
//!
//! An [`IndexDescriptor`] names a possible index; a [`Configuration`] is a
//! full physical design (one descriptor list per table part). The optimizer never
//! touches index structures directly during costing — it sees [`IndexMeta`]
//! records, which can come from materialized indexes *or* from hypothetical
//! ones. Hypothetical metas carry per-column size estimates: the paper's
//! §4.2 extension of the what-if API ("the optimizer needs the per-column
//! sizes for columnstore indexes").

use hpd_columnstore::IntEncoding;
pub use hpd_common::IndexDescriptor;
use hpd_common::{HpdError, Result};
use hpd_storage::PAGE_SIZE;

use crate::cost::encoding_cpu_factor;

/// Identifies an index within one part of its table: the position in that
/// part's index list (`TablePart::indexes`, and the meta list the optimizer
/// plans from) — the primary index is 0, B+ tree secondaries follow in
/// design order, the secondary columnstore is last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub usize);

impl IndexId {
    pub const PRIMARY: IndexId = IndexId(0);
}

/// The physical design of one table: one index list per part, primary
/// first (the shape `Table::designs` returns), or a single list that every
/// part has.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDesign {
    pub table: String,
    pub parts: Vec<Vec<IndexDescriptor>>,
}

impl TableDesign {
    /// `indexes` on every part.
    pub fn new(table: impl Into<String>, indexes: Vec<IndexDescriptor>) -> TableDesign {
        TableDesign {
            table: table.into(),
            parts: vec![indexes],
        }
    }

    /// The list every part has; `None` when the parts differ.
    pub fn indexes(&self) -> Option<&[IndexDescriptor]> {
        let first = self.parts.first()?;
        self.parts.iter().all(|p| p == first).then_some(first)
    }

    /// Enforce structural constraints ([`validate_design`]) on every part.
    pub fn validate(&self) -> Result<()> {
        self.parts
            .iter()
            .try_for_each(|indexes| validate_design(&self.table, indexes))
    }
}

/// The structural constraints on one table's (or one partition's) design:
/// exactly one primary, named first, and at most one columnstore (SQL
/// Server's restriction, paper §2).
pub(crate) fn validate_design(table: &str, indexes: &[IndexDescriptor]) -> Result<()> {
    let refuse = |why: &str| Err(HpdError::Constraint(format!("table {table}: {why}")));
    if !indexes.first().is_some_and(IndexDescriptor::is_primary) {
        return refuse("indexes[0] must be a primary index");
    }
    if indexes[1..].iter().any(IndexDescriptor::is_primary) {
        return refuse("multiple primary indexes");
    }
    if indexes.iter().filter(|d| d.is_csi()).count() > 1 {
        return refuse("at most one columnstore index per table");
    }
    Ok(())
}

/// A complete physical design across tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Configuration {
    pub tables: Vec<TableDesign>,
}

impl Configuration {
    pub fn validate(&self) -> Result<()> {
        for t in &self.tables {
            t.validate()?;
        }
        Ok(())
    }

    pub fn design_for(&self, table: &str) -> Option<&TableDesign> {
        self.tables.iter().find(|t| t.table == table)
    }
}

/// What the optimizer knows about one (possibly hypothetical) index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub descriptor: IndexDescriptor,
    pub rows: usize,
    /// B+ tree leaf page count (0 for columnstores).
    pub leaf_pages: usize,
    /// B+ tree height (0 for columnstores).
    pub height: usize,
    /// Per-table-column compressed bytes (columnstores only): pairs of
    /// `(table column ordinal, bytes)`.
    pub column_bytes: Vec<(usize, usize)>,
    /// Per-table-column dominant physical encoding (columnstores only):
    /// pairs of `(table column ordinal, encoding)`. Materialized metas
    /// report the built segments' choice; hypothetical metas carry the
    /// estimator's prediction. May be empty (unknown), in which case the
    /// cost model assumes bit-packing.
    pub column_encodings: Vec<(usize, IntEncoding)>,
    /// Number of compressed row groups (columnstores only).
    pub rowgroups: usize,
    /// Rows currently in the delta store (columnstores only).
    pub delta_rows: usize,
    /// Buffered logical deletes awaiting compaction (secondary CSI only).
    pub delete_buffer_rows: usize,
    pub hypothetical: bool,
}

impl IndexMeta {
    /// What is known of `descriptor` over `rows` rows before anything is
    /// measured or estimated: no pages, no column sizes, nothing pending,
    /// not hypothetical. A built index and the what-if API fill in the rest.
    pub fn new(descriptor: IndexDescriptor, rows: usize) -> IndexMeta {
        IndexMeta {
            descriptor,
            rows,
            leaf_pages: 0,
            height: 0,
            column_bytes: vec![],
            column_encodings: vec![],
            rowgroups: 0,
            delta_rows: 0,
            delete_buffer_rows: 0,
            hypothetical: false,
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        if self.descriptor.is_csi() {
            self.column_bytes.iter().map(|&(_, b)| b).sum()
        } else {
            self.leaf_pages * PAGE_SIZE
        }
    }

    /// Mean per-encoding CPU factor across `columns` (see
    /// [`encoding_cpu_factor`]): what one unit of kernel/materialization
    /// CPU costs on this index relative to bit-packed segments. Columns
    /// with no recorded encoding count as bit-packed (factor 1.0).
    pub fn csi_cpu_factor(&self, columns: &[usize]) -> f64 {
        if columns.is_empty() {
            return 1.0;
        }
        let total: f64 = columns
            .iter()
            .map(|c| {
                self.column_encodings
                    .iter()
                    .find(|(ec, _)| ec == c)
                    .map_or(1.0, |&(_, e)| encoding_cpu_factor(e))
            })
            .sum();
        total / columns.len() as f64
    }

    /// Bytes a columnstore scan of `columns` must read.
    pub fn csi_scan_bytes(&self, columns: &[usize]) -> usize {
        self.column_bytes
            .iter()
            .filter(|(c, _)| columns.contains(c))
            .map(|&(_, b)| b)
            .sum()
    }

    /// True if the index physically contains every column in `needed`
    /// ([`IndexDescriptor::stored_columns`]); `table_arity` and `pk`
    /// describe the owning table.
    pub fn covers(&self, needed: &[usize], table_arity: usize, pk: &[usize]) -> bool {
        let stored = self.descriptor.stored_columns(table_arity, pk);
        needed.iter().all(|c| stored.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_requires_primary_first() {
        let bad = TableDesign::new(
            "t",
            vec![IndexDescriptor::SecondaryBTree {
                keys: vec![0],
                includes: vec![],
            }],
        );
        assert!(bad.validate().is_err());
        let good = TableDesign::new(
            "t",
            vec![
                IndexDescriptor::PrimaryBTree { keys: vec![0] },
                IndexDescriptor::SecondaryBTree {
                    keys: vec![1],
                    includes: vec![2],
                },
            ],
        );
        assert!(good.validate().is_ok());
    }

    #[test]
    fn validate_rejects_two_columnstores() {
        let bad = TableDesign::new(
            "t",
            vec![
                IndexDescriptor::PrimaryCsi,
                IndexDescriptor::SecondaryCsi { columns: vec![0] },
            ],
        );
        assert!(matches!(bad.validate(), Err(HpdError::Constraint(_))));
        let ok = TableDesign::new(
            "t",
            vec![
                IndexDescriptor::PrimaryBTree { keys: vec![0] },
                IndexDescriptor::SecondaryCsi {
                    columns: vec![0, 1, 2],
                },
            ],
        );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn covering_logic() {
        let on = |includes: Vec<usize>| {
            let descriptor = IndexDescriptor::SecondaryBTree {
                keys: vec![1],
                includes,
            };
            IndexMeta::new(descriptor, 100)
        };
        // Secondary carries keys + includes + pk (0).
        assert!(on(vec![2]).covers(&[0, 1, 2], 3, &[0]));
        let narrow = on(vec![]);
        assert!(!narrow.covers(&[2], 3, &[0]));
        assert!(narrow.covers(&[0, 1], 3, &[0]));
    }

    #[test]
    fn a_secondary_columnstore_as_written_covers_the_primary_key_it_stores() {
        let meta = IndexMeta::new(IndexDescriptor::SecondaryCsi { columns: vec![1] }, 100);
        assert!(meta.covers(&[0, 1], 3, &[0]));
        assert!(!meta.covers(&[2], 3, &[0]));
    }

    #[test]
    fn csi_scan_bytes_filters_columns() {
        let meta = IndexMeta {
            column_bytes: vec![(0, 1000), (1, 2000), (2, 4000)],
            column_encodings: vec![
                (0, IntEncoding::Rle),
                (1, IntEncoding::ForDelta),
                (2, IntEncoding::BitPacked),
            ],
            rowgroups: 1,
            ..IndexMeta::new(IndexDescriptor::PrimaryCsi, 100)
        };
        assert_eq!(meta.csi_scan_bytes(&[0, 2]), 5000);
        assert_eq!(meta.size_bytes(), 7000);
        // Per-encoding CPU factors average over the scanned columns: RLE is
        // cheaper than bit-packed, FOR/delta dearer; unknown columns count
        // as bit-packed.
        assert!(meta.csi_cpu_factor(&[0]) < 1.0);
        assert!(meta.csi_cpu_factor(&[1]) > 1.0);
        assert_eq!(meta.csi_cpu_factor(&[2]), 1.0);
        assert_eq!(meta.csi_cpu_factor(&[3]), 1.0);
        let mixed = meta.csi_cpu_factor(&[0, 1]);
        assert!(mixed > meta.csi_cpu_factor(&[0]) && mixed < meta.csi_cpu_factor(&[1]));
    }
}
