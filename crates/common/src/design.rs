//! The index descriptor: how SQL text, the engine, the advisor, the log and
//! the checkpoint image all name one index of one table.

use crate::Schema;

/// One possible index on one table. Column references are ordinals into the
/// table's schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexDescriptor {
    /// Clustered B+ tree: full rows at the leaves, ordered by `keys`.
    PrimaryBTree { keys: Vec<usize> },
    /// Secondary B+ tree: `keys` ordered, `includes` stored at the leaves,
    /// plus the table's primary key as the row locator.
    SecondaryBTree {
        keys: Vec<usize>,
        includes: Vec<usize>,
    },
    /// Clustered columnstore over all columns.
    PrimaryCsi,
    /// Secondary (nonclustered) columnstore over a column subset.
    SecondaryCsi { columns: Vec<usize> },
}

impl IndexDescriptor {
    pub fn is_csi(&self) -> bool {
        matches!(
            self,
            IndexDescriptor::PrimaryCsi | IndexDescriptor::SecondaryCsi { .. }
        )
    }

    pub fn is_primary(&self) -> bool {
        matches!(
            self,
            IndexDescriptor::PrimaryBTree { .. } | IndexDescriptor::PrimaryCsi
        )
    }

    /// The columns a B+ tree is ordered by (none for a columnstore).
    pub fn keys(&self) -> &[usize] {
        match self {
            IndexDescriptor::PrimaryBTree { keys }
            | IndexDescriptor::SecondaryBTree { keys, .. } => keys,
            IndexDescriptor::PrimaryCsi | IndexDescriptor::SecondaryCsi { .. } => &[],
        }
    }

    /// The table ordinals this index stores, in its own column order, on a
    /// table of `arity` columns keyed on `pk`: every column for a primary;
    /// for a secondary its keys (a columnstore's columns), then whatever of
    /// its includes and of the primary key — the row locator, and what
    /// delete handling goes by — they lack. The one statement of an index's
    /// layout: what a build stores, a plan reads and the what-if API prices.
    pub fn stored_columns(&self, arity: usize, pk: &[usize]) -> Vec<usize> {
        let (first, then): (&[usize], &[usize]) = match self {
            IndexDescriptor::PrimaryBTree { .. } | IndexDescriptor::PrimaryCsi => {
                return (0..arity).collect()
            }
            IndexDescriptor::SecondaryBTree { keys, includes } => (keys, includes),
            IndexDescriptor::SecondaryCsi { columns } => (columns, &[]),
        };
        let mut stored = first.to_vec();
        for &c in then.iter().chain(pk) {
            if !stored.contains(&c) {
                stored.push(c);
            }
        }
        stored
    }

    /// This index as a table holds and reports it: a secondary columnstore
    /// names every column it stores, the primary key included; any other
    /// index is as written.
    pub fn as_stored(&self, arity: usize, pk: &[usize]) -> IndexDescriptor {
        match self {
            IndexDescriptor::SecondaryCsi { .. } => IndexDescriptor::SecondaryCsi {
                columns: self.stored_columns(arity, pk),
            },
            _ => self.clone(),
        }
    }

    /// Human-readable form for recommendations and plan printouts.
    pub fn display(&self, schema: &Schema) -> String {
        let names = |cols: &[usize]| {
            cols.iter()
                .map(|&c| schema.column(c).name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        };
        match self {
            IndexDescriptor::PrimaryBTree { keys } => {
                format!("PRIMARY B+TREE ({})", names(keys))
            }
            IndexDescriptor::SecondaryBTree { keys, includes } => {
                if includes.is_empty() {
                    format!("B+TREE ({})", names(keys))
                } else {
                    format!("B+TREE ({}) INCLUDE ({})", names(keys), names(includes))
                }
            }
            IndexDescriptor::PrimaryCsi => "PRIMARY COLUMNSTORE".to_string(),
            IndexDescriptor::SecondaryCsi { columns } => {
                format!("COLUMNSTORE ({})", names(columns))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn display_descriptor() {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int32),
            ("c", DataType::Int32),
        ]);
        let d = IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![2],
        };
        assert_eq!(d.display(&s), "B+TREE (b) INCLUDE (c)");
        assert_eq!(
            IndexDescriptor::PrimaryCsi.display(&s),
            "PRIMARY COLUMNSTORE"
        );
    }
}
