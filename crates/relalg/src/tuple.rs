//! Tuples (rows) of a relation.
//!
//! Rows in this system are small — the request and history relations are
//! arity 5, the SLA relation arity 5, and the widest algebra intermediate
//! (a self-join of two arity-5 relations) is arity 10.  [`Tuple`] therefore
//! stores up to [`Tuple::INLINE`] values inline in the struct itself; only
//! wider rows (join intermediates) spill to a heap `Vec`.  Combined with
//! [`Value`] being `Copy`, building or cloning a stored row performs zero
//! heap allocations.

use crate::value::Value;
use std::fmt;

/// A row of a relation: an ordered list of values whose positions correspond
/// to the columns of the owning [`crate::schema::Schema`].
#[derive(Clone)]
pub struct Tuple {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Up to [`Tuple::INLINE`] values stored in place; `len` is the arity.
    Inline {
        len: u8,
        vals: [Value; Tuple::INLINE],
    },
    /// Wider rows (join intermediates) spill to the heap.
    Heap(Vec<Value>),
}

impl Tuple {
    /// Maximum arity stored inline (without a heap allocation).
    pub const INLINE: usize = 8;

    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        if values.len() <= Self::INLINE {
            Self::from_slice(&values)
        } else {
            Tuple {
                repr: Repr::Heap(values),
            }
        }
    }

    /// Create a tuple by copying a slice of values — no intermediate `Vec`
    /// for rows of arity ≤ [`Tuple::INLINE`].
    pub fn from_slice(values: &[Value]) -> Self {
        if values.len() <= Self::INLINE {
            let mut vals = [Value::Null; Self::INLINE];
            vals[..values.len()].copy_from_slice(values);
            Tuple {
                repr: Repr::Inline {
                    len: values.len() as u8,
                    vals,
                },
            }
        } else {
            Tuple {
                repr: Repr::Heap(values.to_vec()),
            }
        }
    }

    /// Build the concatenation of two slices directly — the join path's
    /// row constructor, replacing the former copy-into-`Vec`-then-copy
    /// `concat` double pass.
    pub fn from_slices(left: &[Value], right: &[Value]) -> Self {
        let arity = left.len() + right.len();
        if arity <= Self::INLINE {
            let mut vals = [Value::Null; Self::INLINE];
            vals[..left.len()].copy_from_slice(left);
            vals[left.len()..arity].copy_from_slice(right);
            Tuple {
                repr: Repr::Inline {
                    len: arity as u8,
                    vals,
                },
            }
        } else {
            let mut values = Vec::with_capacity(arity);
            values.extend_from_slice(left);
            values.extend_from_slice(right);
            Tuple {
                repr: Repr::Heap(values),
            }
        }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Borrow the value at position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds; callers resolve column names to
    /// indexes through the schema before evaluation, so an out-of-bounds
    /// access is a programming error.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Borrow the value at position `idx`, if in range.
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the value slice (including its length) so inline and heap
        // representations of the same row hash identically.
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl From<&[Value]> for Tuple {
    fn from(values: &[Value]) -> Self {
        Tuple::from_slice(values)
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "w", 42]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::from_slice(&[$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "w", 42];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t.get(1).as_str(), Some("w"));
        assert_eq!(t.try_get(5), None);
    }

    #[test]
    fn wide_rows_spill_to_the_heap_transparently() {
        let vals: Vec<Value> = (0..12).map(Value::from).collect();
        let wide = Tuple::new(vals.clone());
        assert_eq!(wide.arity(), 12);
        assert_eq!(wide.values(), &vals[..]);
        // Equality and hashing are representation-independent.
        let a = Tuple::from_slices(&vals[..6], &vals[6..]);
        assert_eq!(a, wide);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(wide.clone());
        assert!(set.contains(&a));
        // Inline/heap boundary round-trips.
        let eight = Tuple::new(vals[..8].to_vec());
        assert_eq!(eight.arity(), 8);
        assert_eq!(eight.values(), &vals[..8]);
    }

    #[test]
    fn from_slices_matches_concat() {
        let a = tuple![1, 2, 3, 4, 5];
        let b = tuple![6, 7, 8, 9, 10];
        let joined = Tuple::from_slices(a.values(), b.values());
        let concatenated: Vec<Value> = a.values().iter().chain(b.values()).copied().collect();
        assert_eq!(joined, Tuple::new(concatenated));
        assert_eq!(joined.arity(), 10);
    }

    #[test]
    fn display_is_parenthesised() {
        assert_eq!(tuple![1, "r"].to_string(), "(1, r)");
        assert_eq!(Tuple::new(Vec::new()).to_string(), "()");
    }
}
