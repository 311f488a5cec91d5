//! Row-oriented containers: [`Row`] and composite [`Key`].
//!
//! Both hold a `Box<[Value]>`: two words, and exactly one allocation of
//! `16 × arity` bytes — no spare capacity, no third word for it.

use crate::Value;

// The sizes the rest of the workspace is costed at (DESIGN §2).
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Value>() == 16);
    assert!(size_of::<Option<Value>>() == 16);
    assert!(size_of::<Row>() == 16);
    assert!(size_of::<Key>() == 16);
};

/// A single tuple of values, ordered to match some [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Box<[Value]>,
}

/// Overwrite `slots` with `values`: in place when there are as many values
/// as slots, into one allocation of the new arity when not.
fn refill(slots: &mut Box<[Value]>, values: impl IntoIterator<Item = Value>) {
    let mut values = values.into_iter();
    let mut filled = 0;
    // `zip` asks `slots` first, so no value is drawn for a slot that is not
    // there.
    for (slot, v) in slots.iter_mut().zip(&mut values) {
        *slot = v;
        filled += 1;
    }
    let more = values.next();
    if filled == slots.len() && more.is_none() {
        return;
    }
    let mut all = std::mem::take(slots).into_vec();
    all.truncate(filled);
    all.extend(more.into_iter().chain(values));
    *slots = all.into_boxed_slice();
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replace the values, for a caller that refills one scratch row: in
    /// place when the arity is unchanged.
    pub fn refill(&mut self, values: impl IntoIterator<Item = Value>) {
        refill(&mut self.values, values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// New row containing only the given ordinals, in that order.
    pub fn project(&self, ordinals: &[usize]) -> Row {
        Row {
            values: ordinals.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Composite key formed from the given ordinals.
    pub fn key(&self, ordinals: &[usize]) -> Key {
        Key {
            values: ordinals.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Actual in-memory byte footprint (for memory-grant accounting).
    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A composite index/sort key: a sequence of values compared
/// lexicographically. `Key` is ordered because [`Value`] has a total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    values: Box<[Value]>,
}

impl Key {
    pub fn new(values: Vec<Value>) -> Key {
        Key {
            values: values.into_boxed_slice(),
        }
    }

    /// A single-value key.
    pub fn single(v: Value) -> Key {
        Key {
            values: Box::new([v]),
        }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replace the values, for a caller that refills one scratch key: in
    /// place when the arity is unchanged.
    pub fn refill(&mut self, values: impl IntoIterator<Item = Value>) {
        refill(&mut self.values, values);
    }

    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }
}

impl From<Vec<Value>> for Key {
    fn from(values: Vec<Value>) -> Self {
        Key::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_key_order() {
        let k1 = Key::new(vec![Value::Int32(1), Value::Int32(9)]);
        let k2 = Key::new(vec![Value::Int32(2), Value::Int32(0)]);
        let k3 = Key::new(vec![Value::Int32(1)]);
        assert!(k1 < k2);
        assert!(k3 < k1, "shorter key is a strict prefix and sorts first");
    }

    #[test]
    fn row_projection_and_key_extraction() {
        let r = Row::new(vec![Value::Int32(10), Value::str("x"), Value::Int32(30)]);
        assert_eq!(
            r.project(&[2, 0]).values(),
            &[Value::Int32(30), Value::Int32(10)]
        );
        assert_eq!(r.key(&[1]), Key::new(vec![Value::str("x")]));
    }

    #[test]
    fn byte_width_sums_values() {
        let r = Row::new(vec![Value::Int32(10), Value::str("abc")]);
        assert_eq!(r.byte_width(), 4 + 5);
    }

    #[test]
    fn refill_keeps_the_allocation_only_when_the_arity_holds() {
        let ints = |xs: &[i32]| xs.iter().map(|&x| Value::Int32(x)).collect::<Vec<_>>();
        let mut row = Row::new(ints(&[1, 2, 3]));
        let at = row.values().as_ptr();
        row.refill(ints(&[4, 5, 6]));
        assert_eq!(row.values(), &ints(&[4, 5, 6])[..]);
        assert_eq!(row.values().as_ptr(), at, "same arity: in place");
        for arity in [5, 1, 0, 2] {
            let want: Vec<i32> = (0..arity).collect();
            row.refill(ints(&want));
            assert_eq!(row.values(), &ints(&want)[..]);
        }
        let mut key = Key::new(Vec::new());
        key.refill([Value::str("a"), Value::Int64(2)]);
        key.set(1, Value::Int64(3));
        assert_eq!(key, Key::new(vec![Value::str("a"), Value::Int64(3)]));
    }
}
