//! Column-oriented containers for vectorized ("batch mode") execution.
//!
//! A [`Batch`] is a set of equal-length [`ColumnVector`]s. Batch-mode
//! operators process a batch at a time over dense typed arrays, which is the
//! execution style the paper credits for the columnstore's CPU efficiency
//! (SQL Server's *batch mode*, §2).

use crate::codec::ValueRef;
use crate::{ArcStr, DataType, HpdError, Result, Row, Value};

/// A dense, typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    /// Fixed-point decimals (raw scaled-by-10^4 representation).
    Decimal(Vec<i64>),
    /// Days since the Unix epoch.
    Date(Vec<i32>),
    Str(Vec<ArcStr>),
}

impl ColumnVector {
    /// An empty vector of the given type with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> ColumnVector {
        match dtype {
            DataType::Int32 => ColumnVector::Int32(Vec::with_capacity(cap)),
            DataType::Int64 => ColumnVector::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => ColumnVector::Float64(Vec::with_capacity(cap)),
            DataType::Decimal => ColumnVector::Decimal(Vec::with_capacity(cap)),
            DataType::Date => ColumnVector::Date(Vec::with_capacity(cap)),
            DataType::Utf8 => ColumnVector::Str(Vec::with_capacity(cap)),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int32(_) => DataType::Int32,
            ColumnVector::Int64(_) => DataType::Int64,
            ColumnVector::Float64(_) => DataType::Float64,
            ColumnVector::Decimal(_) => DataType::Decimal,
            ColumnVector::Date(_) => DataType::Date,
            ColumnVector::Str(_) => DataType::Utf8,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int32(v) => v.len(),
            ColumnVector::Int64(v) => v.len(),
            ColumnVector::Float64(v) => v.len(),
            ColumnVector::Decimal(v) => v.len(),
            ColumnVector::Date(v) => v.len(),
            ColumnVector::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx`, boxed as a [`Value`]. This is the slow path used
    /// at mode transitions (batch → row); hot loops should match on the
    /// variant instead.
    pub fn value(&self, idx: usize) -> Value {
        match self {
            ColumnVector::Int32(v) => Value::Int32(v[idx]),
            ColumnVector::Int64(v) => Value::Int64(v[idx]),
            ColumnVector::Float64(v) => Value::Float64(v[idx]),
            ColumnVector::Decimal(v) => Value::Decimal(v[idx]),
            ColumnVector::Date(v) => Value::Date(v[idx]),
            ColumnVector::Str(v) => Value::Str(v[idx].clone()),
        }
    }

    /// Append a value; the value's type must match the vector's type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            // The string is shared with the value, not copied.
            (ColumnVector::Str(vec), Value::Str(x)) => vec.push(x.clone()),
            (me, v) => return me.push_ref(v.into()),
        }
        Ok(())
    }

    /// [`ColumnVector::push`] of a value read in place (a string is copied
    /// out of the bytes it borrows).
    pub fn push_ref(&mut self, v: ValueRef<'_>) -> Result<()> {
        match (self, v) {
            (ColumnVector::Int32(vec), ValueRef::Int32(x)) => vec.push(x),
            (ColumnVector::Int64(vec), ValueRef::Int64(x)) => vec.push(x),
            (ColumnVector::Float64(vec), ValueRef::Float64(x)) => vec.push(x),
            (ColumnVector::Decimal(vec), ValueRef::Decimal(x)) => vec.push(x),
            (ColumnVector::Date(vec), ValueRef::Date(x)) => vec.push(x),
            (ColumnVector::Str(vec), ValueRef::Str(x)) => vec.push(ArcStr::new(x)),
            (me, v) => {
                return Err(HpdError::TypeMismatch {
                    expected: me.data_type().name(),
                    found: v.data_type().name().to_string(),
                })
            }
        }
        Ok(())
    }

    /// New vector containing only the rows where `mask` is true.
    /// `mask.len()` must equal `self.len()`.
    pub fn filter(&self, mask: &[bool]) -> ColumnVector {
        debug_assert_eq!(mask.len(), self.len());
        fn keep<T: Clone>(vals: &[T], mask: &[bool]) -> Vec<T> {
            vals.iter()
                .zip(mask)
                .filter(|&(_v, &m)| m)
                .map(|(v, &_m)| v.clone())
                .collect()
        }
        match self {
            ColumnVector::Int32(v) => ColumnVector::Int32(keep(v, mask)),
            ColumnVector::Int64(v) => ColumnVector::Int64(keep(v, mask)),
            ColumnVector::Float64(v) => ColumnVector::Float64(keep(v, mask)),
            ColumnVector::Decimal(v) => ColumnVector::Decimal(keep(v, mask)),
            ColumnVector::Date(v) => ColumnVector::Date(keep(v, mask)),
            ColumnVector::Str(v) => ColumnVector::Str(keep(v, mask)),
        }
    }

    /// New vector containing the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        fn gather<T: Clone>(vals: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| vals[i].clone()).collect()
        }
        match self {
            ColumnVector::Int32(v) => ColumnVector::Int32(gather(v, indices)),
            ColumnVector::Int64(v) => ColumnVector::Int64(gather(v, indices)),
            ColumnVector::Float64(v) => ColumnVector::Float64(gather(v, indices)),
            ColumnVector::Decimal(v) => ColumnVector::Decimal(gather(v, indices)),
            ColumnVector::Date(v) => ColumnVector::Date(gather(v, indices)),
            ColumnVector::Str(v) => ColumnVector::Str(gather(v, indices)),
        }
    }

    /// New vector holding the rows in `range`, copied out of this one.
    pub fn slice(&self, range: std::ops::Range<usize>) -> ColumnVector {
        match self {
            ColumnVector::Int32(v) => ColumnVector::Int32(v[range].to_vec()),
            ColumnVector::Int64(v) => ColumnVector::Int64(v[range].to_vec()),
            ColumnVector::Float64(v) => ColumnVector::Float64(v[range].to_vec()),
            ColumnVector::Decimal(v) => ColumnVector::Decimal(v[range].to_vec()),
            ColumnVector::Date(v) => ColumnVector::Date(v[range].to_vec()),
            ColumnVector::Str(v) => ColumnVector::Str(v[range].to_vec()),
        }
    }

    /// Split the rows from `at` on off into a vector of their own, as
    /// `Vec::split_off` does.
    pub fn split_off(&mut self, at: usize) -> ColumnVector {
        match self {
            ColumnVector::Int32(v) => ColumnVector::Int32(v.split_off(at)),
            ColumnVector::Int64(v) => ColumnVector::Int64(v.split_off(at)),
            ColumnVector::Float64(v) => ColumnVector::Float64(v.split_off(at)),
            ColumnVector::Decimal(v) => ColumnVector::Decimal(v.split_off(at)),
            ColumnVector::Date(v) => ColumnVector::Date(v.split_off(at)),
            ColumnVector::Str(v) => ColumnVector::Str(v.split_off(at)),
        }
    }

    /// Append every row of `other`, which must be of this vector's type.
    pub fn append(&mut self, other: &ColumnVector) -> Result<()> {
        match (self, other) {
            (ColumnVector::Int32(a), ColumnVector::Int32(b)) => a.extend_from_slice(b),
            (ColumnVector::Int64(a), ColumnVector::Int64(b)) => a.extend_from_slice(b),
            (ColumnVector::Float64(a), ColumnVector::Float64(b)) => a.extend_from_slice(b),
            (ColumnVector::Decimal(a), ColumnVector::Decimal(b)) => a.extend_from_slice(b),
            (ColumnVector::Date(a), ColumnVector::Date(b)) => a.extend_from_slice(b),
            (ColumnVector::Str(a), ColumnVector::Str(b)) => a.extend_from_slice(b),
            (me, other) => {
                return Err(HpdError::TypeMismatch {
                    expected: me.data_type().name(),
                    found: other.data_type().name().to_string(),
                })
            }
        }
        Ok(())
    }

    /// In-memory byte footprint of the vector's payload.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnVector::Int32(v) => v.len() * 4,
            ColumnVector::Int64(v) => v.len() * 8,
            ColumnVector::Float64(v) => v.len() * 8,
            ColumnVector::Decimal(v) => v.len() * 8,
            ColumnVector::Date(v) => v.len() * 4,
            ColumnVector::Str(v) => v.iter().map(|s| 2 + s.len()).sum(),
        }
    }

    /// Build a vector from an iterator of values of a known type.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<ColumnVector> {
        let mut cv = ColumnVector::with_capacity(dtype, values.len());
        for v in values {
            cv.push(v)?;
        }
        Ok(cv)
    }
}

/// Append the values of one encoded row ([`crate::codec`]: a B+ tree
/// entry's payload, as it lies in its leaf) to `columns`, one each, in
/// place: the row must hold one value a column, of its column's type.
/// How entries become column batches — a B+ tree scan's, an index lookup
/// join's, the tuple mover's — with no `Row` between.
pub fn push_encoded_row(columns: &mut [ColumnVector], row: &[u8]) -> Result<()> {
    let mut values = crate::codec::values(row);
    for col in columns.iter_mut() {
        match values.next() {
            Some(v) => col.push_ref(v)?,
            None => return Err(HpdError::Internal("encoded row too short".into())),
        }
    }
    match values.next() {
        None => Ok(()),
        Some(_) => Err(HpdError::Internal("encoded row too long".into())),
    }
}

/// A set of equal-length column vectors: the unit of batch-mode execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    columns: Vec<ColumnVector>,
    rows: usize,
}

impl Batch {
    pub fn new(columns: Vec<ColumnVector>) -> Batch {
        let rows = columns.first().map_or(0, ColumnVector::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Batch { columns, rows }
    }

    /// An empty batch with the given column types.
    pub fn empty(dtypes: &[DataType]) -> Batch {
        Batch {
            columns: dtypes
                .iter()
                .map(|&t| ColumnVector::with_capacity(t, 0))
                .collect(),
            rows: 0,
        }
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> &ColumnVector {
        &self.columns[idx]
    }

    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    pub fn into_columns(self) -> Vec<ColumnVector> {
        self.columns
    }

    /// Extract row `idx` as a [`Row`] (slow path, for mode transitions).
    pub fn row(&self, idx: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(idx)).collect())
    }

    /// Convert the whole batch to rows (slow path).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Build a batch from rows (slow path, used by tests and mode
    /// transitions).
    pub fn from_rows(dtypes: &[DataType], rows: &[Row]) -> Result<Batch> {
        let mut columns: Vec<ColumnVector> = dtypes
            .iter()
            .map(|&t| ColumnVector::with_capacity(t, rows.len()))
            .collect();
        for row in rows {
            if row.len() != dtypes.len() {
                return Err(HpdError::Internal(format!(
                    "row arity {} != batch arity {}",
                    row.len(),
                    dtypes.len()
                )));
            }
            for (col, v) in columns.iter_mut().zip(row.values()) {
                col.push(v)?;
            }
        }
        Ok(Batch {
            rows: rows.len(),
            columns,
        })
    }

    /// Keep only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        let columns: Vec<ColumnVector> = self.columns.iter().map(|c| c.filter(mask)).collect();
        Batch::new(columns)
    }

    /// Keep only the given columns, in that order.
    pub fn project(&self, ordinals: &[usize]) -> Batch {
        Batch::new(ordinals.iter().map(|&i| self.columns[i].clone()).collect())
    }

    /// Total payload bytes across all columns.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(ColumnVector::byte_size).sum()
    }

    /// [`Row::byte_width`] of every row, without building one: the fixed
    /// widths of the scalar columns plus each string's bytes and two more.
    pub fn row_byte_widths(&self) -> Vec<usize> {
        let fixed = self
            .columns
            .iter()
            .filter(|c| !matches!(c, ColumnVector::Str(_)))
            .map(|c| c.data_type().fixed_width())
            .sum();
        let mut widths = vec![fixed; self.rows];
        for col in &self.columns {
            if let ColumnVector::Str(strings) = col {
                for (w, s) in widths.iter_mut().zip(strings) {
                    *w += 2 + s.len();
                }
            }
        }
        widths
    }

    /// Append `other`'s rows; the column types must agree. An empty batch
    /// takes `other`'s columns as they are.
    pub fn append(&mut self, other: Batch) -> Result<()> {
        if self.columns.len() != other.columns.len() {
            return Err(HpdError::Internal(format!(
                "batch arity {} != batch arity {}",
                other.columns.len(),
                self.columns.len()
            )));
        }
        let mut pairs = self.columns.iter().zip(&other.columns);
        if self.rows == 0 && pairs.all(|(a, b)| a.data_type() == b.data_type()) {
            *self = other;
            return Ok(());
        }
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            mine.append(theirs)?;
        }
        self.rows += other.rows;
        Ok(())
    }

    /// The rows at `indices`, in that order.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// The rows in `range`, copied out.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Batch {
        Batch {
            columns: (self.columns.iter())
                .map(|c| c.slice(range.clone()))
                .collect(),
            rows: range.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch {
        Batch::new(vec![
            ColumnVector::Int32(vec![1, 2, 3, 4]),
            ColumnVector::Str(["a", "b", "c", "d"].map(ArcStr::new).to_vec()),
        ])
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let b = sample().filter(&[true, false, true, false]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.column(0), &ColumnVector::Int32(vec![1, 3]));
        assert_eq!(b.row(1).values()[1], Value::str("c"));
    }

    #[test]
    fn take_gathers_rows() {
        let cv = ColumnVector::Int32(vec![10, 20, 30]);
        assert_eq!(cv.take(&[2, 0, 2]), ColumnVector::Int32(vec![30, 10, 30]));
    }

    #[test]
    fn row_round_trip() {
        let b = sample();
        let rows = b.to_rows();
        let back = Batch::from_rows(&[DataType::Int32, DataType::Utf8], &rows).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut cv = ColumnVector::with_capacity(DataType::Int32, 1);
        assert!(cv.push(&Value::Int64(1)).is_err());
        assert!(cv.push(&Value::Int32(1)).is_ok());
    }

    #[test]
    fn byte_size_counts_payload() {
        let b = sample();
        assert_eq!(b.byte_size(), 4 * 4 + 4 * 3);
    }

    #[test]
    fn row_byte_widths_are_the_rows_own() {
        let b = sample();
        let widths: Vec<usize> = b.to_rows().iter().map(Row::byte_width).collect();
        assert_eq!(b.row_byte_widths(), widths);
        assert_eq!(widths, vec![7; 4]);
    }

    #[test]
    fn append_extends_and_checks_the_type() {
        let mut cv = ColumnVector::Int32(vec![1]);
        cv.append(&ColumnVector::Int32(vec![2, 3])).unwrap();
        assert_eq!(cv, ColumnVector::Int32(vec![1, 2, 3]));
        assert!(cv.append(&ColumnVector::Date(vec![4])).is_err());
        assert_eq!(sample().take(&[3, 0]).row(0), sample().row(3));
        assert_eq!(sample().slice(1..3), sample().take(&[1, 2]));
        assert_eq!(sample().slice(4..4).num_rows(), 0);

        let mut all = Batch::empty(&[DataType::Int32, DataType::Utf8]);
        all.append(sample()).unwrap();
        all.append(sample().take(&[1])).unwrap();
        assert_eq!(all.num_rows(), 5);
        assert_eq!(all.row(4), sample().row(1));
        assert!(all.append(sample().project(&[0])).is_err());
        assert!(Batch::empty(&[DataType::Utf8, DataType::Utf8])
            .append(sample())
            .is_err());
    }

    #[test]
    fn projection_selects_columns() {
        let b = sample().project(&[1]);
        assert_eq!(b.num_columns(), 1);
        assert_eq!(b.column(0).data_type(), DataType::Utf8);
    }
}
