//! Tuples, tables, and operator values.
//!
//! Tuples are immutable records of (field → item sequence); cloning is an
//! `Rc` bump. There is no NULL value — absent fields read as the empty
//! sequence, and the outer operators add boolean flag fields instead
//! (paper, Section 3: "we do not model nulls with a special value").

use std::rc::Rc;

use xqr_core::Field;
use xqr_xml::{Sequence, XmlError};

/// An immutable tuple.
#[derive(Clone, Debug, Default)]
pub struct Tuple(Rc<Vec<(Field, Sequence)>>);

impl Tuple {
    pub fn empty() -> Tuple {
        Tuple(Rc::new(Vec::new()))
    }

    pub fn from_fields(fields: Vec<(Field, Sequence)>) -> Tuple {
        Tuple(Rc::new(fields))
    }

    /// Field-name comparison. The compiler allocates each field name once
    /// (`Compiler::fresh_field`) and every later reference is an `Rc` clone
    /// of it, so in the common case both sides point at the same string
    /// data and the pointer/length check settles it without looking at a
    /// single byte. Length inequality also settles it cheaply; only
    /// distinct equal-length names fall through to a byte compare.
    #[inline]
    fn name_eq(f: &str, field: &str) -> bool {
        if f.len() != field.len() {
            return false;
        }
        std::ptr::eq(f.as_ptr(), field.as_ptr()) || f.as_bytes() == field.as_bytes()
    }

    /// Field access — absent fields are the empty sequence.
    pub fn get(&self, field: &str) -> Sequence {
        self.0
            .iter()
            .find(|(f, _)| Self::name_eq(f, field))
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    pub fn has(&self, field: &str) -> bool {
        self.0.iter().any(|(f, _)| Self::name_eq(f, field))
    }

    /// Tuple concatenation (`++`): right side wins on (rare) collisions.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        if self.0.is_empty() {
            return other.clone();
        }
        if other.0.is_empty() {
            return self.clone();
        }
        let mut v: Vec<(Field, Sequence)> = Vec::with_capacity(self.0.len() + other.0.len());
        for (f, s) in self.0.iter() {
            if !other.has(f) {
                v.push((f.clone(), s.clone()));
            }
        }
        v.extend(other.0.iter().cloned());
        Tuple(Rc::new(v))
    }

    /// Extends with one more field, replacing an existing one of the same
    /// name. The replace case is rare (fields are compiler-fresh), so the
    /// common path is a straight copy-and-push without the retain scan.
    pub fn with(&self, field: Field, value: Sequence) -> Tuple {
        let mut v: Vec<(Field, Sequence)> = Vec::with_capacity(self.0.len() + 1);
        v.extend(
            self.0
                .iter()
                .filter(|(f, _)| !Self::name_eq(f, &field))
                .cloned(),
        );
        v.push((field, value));
        Tuple(Rc::new(v))
    }

    pub fn fields(&self) -> impl Iterator<Item = (&Field, &Sequence)> {
        self.0.iter().map(|(f, s)| (f, s))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Approximate heap footprint in bytes, charged against the governor's
    /// byte budget when a table is materialized. Items are costed at a
    /// flat per-item rate rather than deep-traversed: the budget is a
    /// tripwire for runaway materialization, not an allocator audit.
    pub fn approx_bytes(&self) -> u64 {
        let mut n = 48u64;
        for (f, s) in self.0.iter() {
            n += 48 + f.len() as u64 + 24 * s.len() as u64;
        }
        n
    }
}

/// An outer operator's null flag (Section 3: a boolean field, not a null
/// value) with its two values, shared by every output tuple.
pub struct NullFlag {
    field: Field,
    matched: Sequence,
    unmatched: Sequence,
}

thread_local! {
    /// The two flag values, shared by every outer operator on this thread:
    /// an open allocates nothing.
    static FLAGS: [Sequence; 2] =
        [false, true].map(|b| Sequence::singleton(xqr_xml::AtomicValue::Boolean(b)));
}

impl NullFlag {
    pub fn new(field: &Field) -> NullFlag {
        let [matched, unmatched] = FLAGS.with(|f| f.clone());
        NullFlag {
            field: field.clone(),
            matched,
            unmatched,
        }
    }

    /// `t` flagged as matched.
    pub fn matched(&self, t: &Tuple) -> Tuple {
        t.with(self.field.clone(), self.matched.clone())
    }

    /// `t` flagged as null-padded.
    pub fn unmatched(&self, t: &Tuple) -> Tuple {
        t.with(self.field.clone(), self.unmatched.clone())
    }

    /// `lt ++ rt` flagged as matched, written once: what
    /// `self.matched(&lt.concat(rt))` returns, without the intermediate
    /// tuple.
    pub fn joined(&self, lt: &Tuple, rt: &Tuple) -> Tuple {
        let keep = |f: &Field| !Tuple::name_eq(f, &self.field);
        let mut v = Vec::with_capacity(lt.0.len() + rt.0.len() + 1);
        v.extend(lt.0.iter().filter(|(f, _)| keep(f) && !rt.has(f)).cloned());
        v.extend(rt.0.iter().filter(|(f, _)| keep(f)).cloned());
        v.push((self.field.clone(), self.matched.clone()));
        Tuple(Rc::new(v))
    }
}

/// An ordered table of tuples.
pub type Table = Vec<Tuple>;

/// A value produced by an operator: an item sequence or a table.
#[derive(Clone, Debug)]
pub enum Value {
    Items(Sequence),
    Table(Table),
}

impl Value {
    pub fn empty_items() -> Value {
        Value::Items(Sequence::empty())
    }

    pub fn into_items(self) -> xqr_xml::Result<Sequence> {
        match self {
            Value::Items(s) => Ok(s),
            Value::Table(_) => Err(XmlError::new(
                "XQRT0001",
                "expected an item sequence, found a tuple table",
            )),
        }
    }

    pub fn into_table(self) -> xqr_xml::Result<Table> {
        match self {
            Value::Table(t) => Ok(t),
            Value::Items(_) => Err(XmlError::new(
                "XQRT0002",
                "expected a tuple table, found an item sequence",
            )),
        }
    }

    /// Rows (tables) or items (sequences) in this value — the "rows
    /// produced" unit of the profiler.
    pub fn row_count(&self) -> u64 {
        match self {
            Value::Items(s) => s.len() as u64,
            Value::Table(t) => t.len() as u64,
        }
    }
}

/// The value bound to `IN` while evaluating a dependent sub-operator.
#[derive(Clone, Debug)]
pub enum InputVal {
    /// A tuple (Select predicates, MapConcat deps, per-item GroupBy op, …).
    Tuple(Tuple),
    /// A single item (MapFromItem deps).
    Item(xqr_xml::Item),
    /// An item sequence (GroupBy per-partition op).
    Items(Sequence),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_fields_are_empty() {
        let t = Tuple::empty();
        assert!(t.get("x").is_empty());
        assert!(!t.has("x"));
    }

    #[test]
    fn concat_and_with() {
        let a = Tuple::from_fields(vec![("x".into(), Sequence::integers([1]))]);
        let b = Tuple::from_fields(vec![("y".into(), Sequence::integers([2]))]);
        let c = a.concat(&b);
        assert_eq!(c.get("x").len(), 1);
        assert_eq!(c.get("y").len(), 1);
        let d = c.with("x".into(), Sequence::integers([7, 8]));
        assert_eq!(d.get("x").len(), 2);
        assert_eq!(d.len(), 2, "with() replaces rather than duplicates");
        // A flagged join is concat-then-flag, field for field.
        for (l, r) in [(&a, &b), (&c, &b), (&a, &c)] {
            for f in ["x", "y", "z"] {
                let flag = NullFlag::new(&f.into());
                let once = flag.joined(l, r);
                let twice = flag.matched(&l.concat(r));
                assert_eq!(format!("{once:?}"), format!("{twice:?}"), "{f}");
            }
        }
    }

    #[test]
    fn concat_right_wins() {
        let a = Tuple::from_fields(vec![("x".into(), Sequence::integers([1]))]);
        let b = Tuple::from_fields(vec![("x".into(), Sequence::integers([2]))]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.get("x").get(0).unwrap().as_atomic().unwrap(),
            &xqr_xml::AtomicValue::Integer(2)
        );
    }

    #[test]
    fn value_coercions() {
        assert!(Value::Items(Sequence::empty()).into_table().is_err());
        assert!(Value::Table(vec![]).into_items().is_err());
    }
}
