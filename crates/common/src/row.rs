//! Row-oriented containers: [`Row`] and composite [`Key`].

use crate::Value;

/// A single tuple of values, ordered to match some [`crate::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The values, for a caller that refills one scratch row in place.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
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
        Key::new(ordinals.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Actual in-memory byte footprint (for memory-grant accounting).
    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
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
    values: Vec<Value>,
}

impl Key {
    pub fn new(values: Vec<Value>) -> Key {
        Key { values }
    }

    /// A single-value key.
    pub fn single(v: Value) -> Key {
        Key { values: vec![v] }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values, for a caller that refills one scratch key in place.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True if `self` is a prefix of `other` (used for prefix seeks).
    pub fn is_prefix_of(&self, other: &Key) -> bool {
        self.values.len() <= other.values.len()
            && self.values.iter().zip(&other.values).all(|(a, b)| a == b)
    }

    pub fn byte_width(&self) -> usize {
        self.values.iter().map(Value::byte_width).sum()
    }
}

impl From<Vec<Value>> for Key {
    fn from(values: Vec<Value>) -> Self {
        Key { values }
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
    fn prefix_detection() {
        let p = Key::new(vec![Value::Int32(1)]);
        let full = Key::new(vec![Value::Int32(1), Value::Int32(2)]);
        assert!(p.is_prefix_of(&full));
        assert!(!full.is_prefix_of(&p));
        assert!(p.is_prefix_of(&p));
        let other = Key::new(vec![Value::Int32(7), Value::Int32(2)]);
        assert!(!p.is_prefix_of(&other));
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
}
