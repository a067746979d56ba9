//! `fs:convert-operand` — **Table 2 of the paper** — and the type
//! enumeration behind the hash join of Section 6.
//!
//! The semantics of a general comparison `$x = $y` is (paper, Section 6):
//!
//! ```text
//! some $x' in fn:data($x) satisfies
//!   some $y' in fn:data($y) satisfies
//!     op:equal(fs:convert-operand($x', $y'), fs:convert-operand($y', $x'))
//! ```
//!
//! `fs:convert-operand(a, b)` promotes *untyped* `a` based only on the
//! **type** of `b` — the observation that makes an independent-input hash
//! join possible:
//!
//! | type of first operand        | type of second operand       | convert first to |
//! |------------------------------|------------------------------|------------------|
//! | untypedAtomic or string      | untypedAtomic or string      | xs:string        |
//! | untypedAtomic                | numeric                      | xs:double        |
//! | untypedAtomic                | any other type T             | T                |
//! | any other type T             | must be T (or promotable)    | unchanged        |

use xqr_xml::atomic::is_double_lexical;
use xqr_xml::{AtomicType, AtomicValue, XmlError};

use crate::cast::cast_atomic;
use crate::hierarchy::widest_numeric;

/// The target type `fs:convert-operand` would convert the first operand to,
/// given the two operand **types** — the static essence of Table 2.
/// Returns `None` when the first operand is left unchanged.
pub fn table2_target(first: AtomicType, second: AtomicType) -> Option<AtomicType> {
    use AtomicType as T;
    match first {
        T::UntypedAtomic => Some(match second {
            T::UntypedAtomic | T::String => T::String,
            t if t.is_numeric() => T::Double,
            other => other,
        }),
        T::String if matches!(second, T::UntypedAtomic) => {
            // string vs untyped: first row of the table, already a string.
            None
        }
        _ => None,
    }
}

/// `fs:convert-operand(actual, other)`: converts `actual` when it is
/// untyped, based on `other`'s type; otherwise returns it unchanged.
pub fn convert_operand(
    actual: &AtomicValue,
    other_type: AtomicType,
) -> xqr_xml::Result<AtomicValue> {
    match table2_target(actual.type_of(), other_type) {
        Some(target) => cast_atomic(actual, target),
        None => Ok(actual.clone()),
    }
}

/// Computes the type at which two operands are actually compared after
/// `fs:convert-operand` on both sides and numeric/URI promotion. `None`
/// means the comparison is a type error (`XPTY0004`).
pub fn comparable_types(a: AtomicType, b: AtomicType) -> Option<AtomicType> {
    use AtomicType as T;
    let a = effective(a, b);
    let b = effective(b, a);
    if a == b {
        return Some(a);
    }
    if a.is_numeric() && b.is_numeric() {
        return widest_numeric(a, b);
    }
    match (a, b) {
        (T::AnyUri, T::String) | (T::String, T::AnyUri) => Some(T::String),
        _ => None,
    }
}

fn effective(t: AtomicType, other: AtomicType) -> AtomicType {
    table2_target(t, other).unwrap_or(t)
}

/// Converts both operands per Table 2 and promotes them to their common
/// comparison type; the returned pair is directly comparable.
pub fn convert_pair(
    x: &AtomicValue,
    y: &AtomicValue,
) -> xqr_xml::Result<(AtomicValue, AtomicValue)> {
    let xt = x.type_of();
    let yt = y.type_of();
    let x1 = convert_operand(x, yt)?;
    let y1 = convert_operand(y, xt)?;
    let target = comparable_types(xt, yt).ok_or_else(|| {
        XmlError::new("XPTY0004", format!("{} and {} are not comparable", xt, yt))
    })?;
    let promote = |v: &AtomicValue| -> xqr_xml::Result<AtomicValue> {
        if v.type_of() == target {
            Ok(v.clone())
        } else if v.type_of().is_numeric() && target.is_numeric() {
            crate::hierarchy::promote_numeric(v, target)
        } else if v.type_of() == AtomicType::AnyUri && target == AtomicType::String {
            Ok(AtomicValue::string(v.string_value()))
        } else {
            Ok(v.clone())
        }
    };
    Ok((promote(&x1)?, promote(&y1)?))
}

/// `promoteToSimpleTypes` (Fig. 6): every `(value, type)` pair a join-key
/// value can be stored (or probed) under, handed to `out` one at a time, so
/// that each side of the hash join is materialized independently of the
/// other side's *values*.
///
/// * numeric values → one entry per numeric type they promote to;
/// * untyped values → `xs:string` always, `xs:double` when the lexical form
///   is numeric, plus the calendar types and `xs:boolean` when the lexical
///   form casts (covering the "untyped vs T" row of Table 2);
/// * anyURI → itself plus `xs:string`;
/// * anything else → just itself.
///
/// The paper bounds this enumeration by the number of primitive XML Schema
/// datatypes ("no more than nineteen"). An untyped value's string entry
/// shares its text, and [`may_cast_from_string`] rules most casts out
/// before they build the `FORG0001` a failed one returns: promoting a name
/// or a number allocates nothing.
pub fn promote_to_simple_types(v: &AtomicValue, mut out: impl FnMut(AtomicValue)) {
    use AtomicType as T;
    match v {
        AtomicValue::UntypedAtomic(s) => {
            out(AtomicValue::String(s.clone()));
            let t = s.trim();
            if may_cast_from_string(t, T::Double) {
                match AtomicValue::parse_double(t) {
                    Ok(d) if !d.is_nan() => out(AtomicValue::Double(d)),
                    _ => {}
                }
            }
            for target in [T::Date, T::Time, T::DateTime, T::Boolean] {
                if may_cast_from_string(t, target) {
                    if let Ok(p) = crate::cast::cast_from_string(t, target) {
                        out(p);
                    }
                }
            }
        }
        AtomicValue::AnyUri(s) => {
            out(v.clone());
            out(AtomicValue::String(s.clone()));
        }
        _ if v.type_of().is_numeric() => {
            // Narrower targets are unreachable by promotion and skipped.
            for target in [T::Integer, T::Decimal, T::Float, T::Double] {
                if let Ok(p) = crate::hierarchy::promote_numeric(v, target) {
                    out(p);
                }
            }
        }
        _ => out(v.clone()),
    }
}

/// Can `cast_from_string(t, to)` succeed on this trimmed text? Exact for
/// `xs:boolean`; for `xs:date`, `xs:time` and `xs:dateTime` a necessary
/// shape (the separators every lexical form of the type has), so a `false`
/// is always right and a `true` still needs the cast. Every other target
/// answers `true`.
pub fn may_cast_from_string(t: &str, to: AtomicType) -> bool {
    use AtomicType as T;
    let count = |c: u8| t.bytes().filter(|&b| b == c).count();
    match to {
        T::Boolean => matches!(t, "true" | "false" | "1" | "0"),
        T::Date => count(b'-') >= 2,
        T::Time => count(b':') >= 2,
        T::DateTime => t.contains('T') && count(b'-') >= 2 && count(b':') >= 2,
        T::Double | T::Float => is_double_lexical(t),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AtomicType as T;

    fn promoted(v: &AtomicValue) -> Vec<AtomicValue> {
        let mut out = Vec::new();
        promote_to_simple_types(v, |p| out.push(p));
        out
    }

    /// Exhaustive check of Table 2, row by row.
    #[test]
    fn table2_row1_untyped_or_string_vs_untyped_or_string() {
        assert_eq!(
            table2_target(T::UntypedAtomic, T::UntypedAtomic),
            Some(T::String)
        );
        assert_eq!(table2_target(T::UntypedAtomic, T::String), Some(T::String));
        // A string first operand needs no conversion (it is already one).
        assert_eq!(table2_target(T::String, T::UntypedAtomic), None);
        assert_eq!(table2_target(T::String, T::String), None);
    }

    #[test]
    fn table2_row2_untyped_vs_numeric() {
        for num in [T::Integer, T::Decimal, T::Float, T::Double] {
            assert_eq!(
                table2_target(T::UntypedAtomic, num),
                Some(T::Double),
                "{num}"
            );
        }
    }

    #[test]
    fn table2_row3_untyped_vs_other() {
        for other in [
            T::Date,
            T::Time,
            T::DateTime,
            T::Boolean,
            T::AnyUri,
            T::Duration,
        ] {
            assert_eq!(
                table2_target(T::UntypedAtomic, other),
                Some(other),
                "{other}"
            );
        }
    }

    #[test]
    fn table2_row4_typed_is_unchanged() {
        for first in [T::Integer, T::Date, T::Boolean, T::Double, T::String] {
            for second in T::ALL {
                if first == T::String && second == T::UntypedAtomic {
                    continue; // covered by row 1
                }
                assert_eq!(table2_target(first, second), None, "{first} vs {second}");
            }
        }
    }

    #[test]
    fn convert_operand_values() {
        let u = AtomicValue::untyped("42");
        assert_eq!(
            convert_operand(&u, T::Integer).unwrap(),
            AtomicValue::Double(42.0)
        );
        assert_eq!(
            convert_operand(&u, T::String).unwrap(),
            AtomicValue::string("42")
        );
        assert_eq!(
            convert_operand(&u, T::UntypedAtomic).unwrap(),
            AtomicValue::string("42")
        );
        let i = AtomicValue::Integer(42);
        assert_eq!(convert_operand(&i, T::UntypedAtomic).unwrap(), i);
    }

    #[test]
    fn convert_operand_untyped_to_date() {
        let u = AtomicValue::untyped("2001-01-01");
        let c = convert_operand(&u, T::Date).unwrap();
        assert_eq!(c.type_of(), T::Date);
        assert!(convert_operand(&AtomicValue::untyped("nonsense"), T::Date).is_err());
    }

    #[test]
    fn comparable_type_computation() {
        assert_eq!(comparable_types(T::Integer, T::Double), Some(T::Double));
        assert_eq!(
            comparable_types(T::UntypedAtomic, T::Integer),
            Some(T::Double)
        );
        assert_eq!(
            comparable_types(T::UntypedAtomic, T::UntypedAtomic),
            Some(T::String)
        );
        assert_eq!(comparable_types(T::AnyUri, T::String), Some(T::String));
        assert_eq!(comparable_types(T::Date, T::Date), Some(T::Date));
        assert_eq!(comparable_types(T::Date, T::Integer), None);
        assert_eq!(comparable_types(T::String, T::Integer), None);
    }

    #[test]
    fn convert_pair_mixed() {
        let (a, b) = convert_pair(&AtomicValue::untyped("5"), &AtomicValue::Integer(5)).unwrap();
        assert_eq!(a, AtomicValue::Double(5.0));
        assert_eq!(b, AtomicValue::Double(5.0));
        let (a, b) = convert_pair(&AtomicValue::untyped("x"), &AtomicValue::untyped("x")).unwrap();
        assert_eq!(a, AtomicValue::string("x"));
        assert_eq!(b, AtomicValue::string("x"));
        assert!(convert_pair(&AtomicValue::Integer(1), &AtomicValue::string("1")).is_err());
    }

    #[test]
    fn promote_enumeration_numeric() {
        let pairs = promoted(&AtomicValue::Integer(5));
        let types: Vec<T> = pairs.iter().map(|p| p.type_of()).collect();
        assert_eq!(types, [T::Integer, T::Decimal, T::Float, T::Double]);
        let pairs = promoted(&AtomicValue::Double(5.0));
        assert_eq!(
            pairs.iter().map(|p| p.type_of()).collect::<Vec<_>>(),
            [T::Double]
        );
    }

    #[test]
    fn promote_enumeration_untyped() {
        let pairs = promoted(&AtomicValue::untyped("42"));
        let types: Vec<T> = pairs.iter().map(|p| p.type_of()).collect();
        assert!(types.contains(&T::String));
        assert!(types.contains(&T::Double));
        let pairs = promoted(&AtomicValue::untyped("hello"));
        let types: Vec<T> = pairs.iter().map(|p| p.type_of()).collect();
        assert_eq!(types, [T::String]);
        // Dates get a calendar entry.
        let pairs = promoted(&AtomicValue::untyped("2001-01-01"));
        assert!(pairs.iter().any(|p| p.type_of() == T::Date));
    }

    #[test]
    fn promotion_bounded_by_primitive_count() {
        for v in [
            AtomicValue::Integer(1),
            AtomicValue::untyped("1"),
            AtomicValue::untyped("2001-01-01"),
            AtomicValue::string("x"),
        ] {
            assert!(promoted(&v).len() <= 19);
        }
    }
}
